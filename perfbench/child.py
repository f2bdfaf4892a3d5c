"""One measured command in a fresh interpreter.

    python3 perfbench/child.py JOB.json

The job names a mode, the package's source directory, the CLI argv and the
equivalent config values; the result is written to the job's ``result`` path.

- ``setup``: time ``import banditsgd`` plus ``build_config`` on the flags.
- ``run``:   setup, then ``banditsgd.cli.main(argv)`` timed to its return,
             then the peak resident memory of this process and its workers.
- ``trace``: ``main(argv)`` with the package's layer functions wrapped by the
             tracer, then the probes for layers the command does not reach;
             writes the span file.
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _config(values: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    t0 = perf_counter()
    import banditsgd
    config = banditsgd.build_config(None, _config(job["config"]))
    setup_s = perf_counter() - t0
    if not Path(banditsgd.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"imported banditsgd from {banditsgd.__file__}, not {job['src']}")
    result = {"setup_s": setup_s}
    if job["mode"] == "run":
        from banditsgd.cli import main as cli_main
        t0 = perf_counter()
        result["rc"] = cli_main(job["argv"])
        result["wall_s"] = perf_counter() - t0
        result["peak_rss_mb"] = _peak_rss_mb()
    elif job["mode"] == "trace":
        import layers
        result.update(layers.traced_command(job, config))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
