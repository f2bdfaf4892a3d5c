"""banditsgd benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each command runs through ``banditsgd.cli.main`` in a fresh interpreter, one
at a time (a closed loop with one client).  Inputs come from the seed and are
generated before any timing.

``--trace 0`` repeats the workload's command until ``--seconds`` have passed
(at least MIN_COMMANDS times) and reports medians of the end-to-end metrics.
``--trace 1`` runs the command once untraced and once traced (serially for
mc-logistic, plus one untraced run with its usual two workers) and reports the
per-layer metrics; the span file is ``.bench_work/<workload>/spans.json``.

Every command's outputs are checked (see reference.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything else printed before it is for people: provenance, each metric with
its unit, and the failure fraction.  See NOTES.md for the noise behind the
bounds in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import reference
import runner
import workloads as W

MIN_COMMANDS = 3
MIN_SETUP_SAMPLES = 9
# Stay well inside the 180 s a run may take, whatever --seconds says.
MAX_MEASURE_S = 100.0

def provenance(root: Path, wl: W.Workload) -> dict:
    """Where the numbers come from; informational, gates nothing."""
    import hashlib
    import numpy
    rev = "unknown"
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    src = runner.src_dir(root) / "banditsgd"
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        lines += len(text.splitlines())
    return {"git_revision": rev, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": wl.name, "seed": wl.seed,
            "argv": ["banditsgd", *[a.replace(str(root) + os.sep, "") for a in wl.argv]],
            "src_lines": lines, "exported_names": _export_count(src / "__init__.py")}


def _export_count(init: Path) -> int:
    """Names bound by ``from .x import (...)`` in the package's __init__."""
    import ast
    tree = ast.parse(init.read_text())
    return sum(len(node.names) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1)


def _run_checked(wl: W.Workload, root: Path, check: reference.OutputCheck,
                 mode: str = "run", **extra) -> tuple[dict | None, dict, int]:
    """One command and its output check; a command that fails counts as failed."""
    try:
        result = runner.run_command(wl, root, mode, **extra)
    except runner.CommandError as exc:
        check.attempted += 1
        check.failed += 1
        check.problems.append(str(exc))
        return None, {}, 0
    if result.get("rc") != 0:
        check.attempted += 1
        check.failed += 1
        check.problems.append(f"command exited {result.get('rc')}")
    outputs = reference.read_outputs(wl)
    failures = check.check(outputs)
    return result, outputs, W.steps_done(wl, outputs, failures)


def measure(wl: W.Workload, root: Path, seconds: float,
            check: reference.OutputCheck) -> dict[str, float]:
    samples = []
    setups = []
    start = time.monotonic()
    while True:
        result, _, steps = _run_checked(wl, root, check)
        if result is not None:
            setups.append(result["setup_s"])
            if result.get("rc") == 0 and steps > 0:
                samples.append((result["wall_s"], steps / result["wall_s"],
                                result["peak_rss_mb"]))
        elapsed = time.monotonic() - start
        if elapsed >= min(seconds, MAX_MEASURE_S) and len(samples) >= MIN_COMMANDS:
            break
        if elapsed >= MAX_MEASURE_S or (result is None and not samples):
            break
    while len(setups) < MIN_SETUP_SAMPLES and samples:
        setups.append(runner.run_child("setup", wl, root)["setup_s"])
    if not samples:
        return {}
    print(f"commands: {len(samples)}; setup samples: {len(setups)}")
    print("wall_s per command: " + " ".join(f"{s[0]:.4f}" for s in samples))
    print("setup_s per sample: " + " ".join(f"{s:.4f}" for s in setups))
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(s[0] for s in samples),
            "steps_per_s": statistics.median(s[1] for s in samples),
            "peak_rss_mb": statistics.median(s[2] for s in samples)}


def traced(wl: W.Workload, root: Path, check: reference.OutputCheck) -> dict[str, float]:
    serial = wl.with_workers(1) if wl.workers > 1 else wl
    untraced, _, steps = _run_checked(serial, root, check)
    spans = wl.out_dir.parent / "spans.json"
    profile, outputs, traced_steps = _run_checked(
        serial, root, check, mode="trace", spans=str(spans), workload=wl.name, seed=wl.seed,
        probe=wl.probe)
    if untraced is None or profile is None or steps == 0 or traced_steps != steps:
        return {}
    stats = outputs.get("replay_stats.json")
    metrics = layers.per_layer_metrics(
        profile, steps, load_rows=wl.config["horizon"],
        match_frac=stats["matched_fraction"] if stats else None)
    serial_sps = steps / untraced["wall_s"]
    traced_sps = steps / profile["main"]["duration"]
    metrics["experiments.serial_steps_per_s"] = serial_sps
    metrics["tracing.overhead_frac"] = 1.0 - traced_sps / serial_sps
    if wl.workers > 1:
        pooled, _, _ = _run_checked(wl, root, check)
        if pooled is None:
            return {}
        oracle = metrics["value.oracle_s"]
        metrics["experiments.pool_efficiency"] = \
            (untraced["wall_s"] - oracle) / (wl.workers * (pooled["wall_s"] - oracle))
    else:
        metrics["experiments.pool_efficiency"] = 1.0  # one process, no pool
    if profile["missing"]:
        print("not measured (absent or changed in this version): "
              + ", ".join(profile["missing"]))
    print(f"traced command runs in one process: {traced_sps:.6g} steps/s traced, "
          f"{serial_sps:.6g} untraced")
    print(f"traced wall {profile['main']['duration']:.3f} s; layer self times cover "
          f"{metrics['tracing.self_coverage']:.3f} of it; spans in {spans}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(W.SIZES), default="full",
                    help="workload size; 'tiny' is for the self-test")
    ap.add_argument("--reference", type=Path, help="reference file to check against "
                    "(default: the stored one for this workload and scale)")
    args = ap.parse_args(argv)

    root = runner.checkout_root()
    if not (runner.src_dir(root) / "banditsgd" / "__init__.py").is_file():
        print(f"error: no package at {runner.src_dir(root)}/banditsgd; "
              "run from the root of a banditsgd checkout", file=sys.stderr)
        return 2
    # Metric names and units are declared once, in BENCHMARK.json.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / runner.WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = W.generate(args.workload, args.seed, work, args.scale)
    ref = reference.load_reference(wl, args.scale, args.reference)
    check = reference.OutputCheck(wl, ref)
    prov = provenance(root, wl)
    print("provenance " + json.dumps(prov))
    print(f"output check: {'reference outputs' if ref else 'structure only (no reference)'}")

    if args.trace:
        metrics, declared = traced(wl, root, check), spec["per_layer"]
    else:
        metrics, declared = measure(wl, root, args.seconds, check), spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for problem in check.problems[:20]:
        print(f"check failed: {problem}")
    if set(metrics) != set(units):
        print("error: the workload did not complete; no metrics", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    fail_frac = check.failed / max(check.attempted, 1)
    print(f"fail_frac = {fail_frac:.6g} ratio ({check.failed} of {check.attempted})")
    result = {"correct": check.failed == 0, "attempted": check.attempted,
              "failed": check.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (work / "result.json").write_text(json.dumps(dict(result, provenance=prov,
                                                      fail_frac=fail_frac), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
