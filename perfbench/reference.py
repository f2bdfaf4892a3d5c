"""Output checks: reference outputs, structure, and run-to-run agreement.

Reference outputs are the full-precision JSON files written by the package at
the commit that defined the benchmark, stored per workload and seed under
``reference/``.  Later outputs must match them at a relative tolerance of
1e-9; keys a later version adds are ignored, keys it drops are mismatches.
Seeds without a reference get a structure check: the expected file set, strict
JSON, no NaN estimates, and a replay match fraction of 0.5 +- 0.01.

    python3 perfbench/reference.py --seeds 0-31     # record references
"""
from __future__ import annotations

import argparse
import gzip
import json
import math
import sys
from pathlib import Path

import runner
import workloads as W

REF_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12
MATCH_FRACTION = (0.49, 0.51)
# Of the stream's per-checkpoint reports, every 100th is stored in full.
STREAM_REF_EVERY = 100


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_outputs(wl: W.Workload) -> dict:
    """Every JSON file in the output directory, parsed strictly; None if invalid."""
    out = {}
    if not wl.out_dir.is_dir():
        return out
    for path in sorted(wl.out_dir.iterdir()):
        if path.suffix != ".json":
            continue
        try:
            out[path.name] = json.loads(path.read_text(), parse_constant=_strict_constant)
        except ValueError:
            out[path.name] = None
    return out


def expected_names(wl: W.Workload, outputs: dict) -> list[str]:
    stats = outputs.get("replay_stats.json") or {}
    return [n.format(matched=stats.get("matched", "?")) if n == W.FINAL_REPLAY_REPORT else n
            for n in wl.expected_files]


def close(ref, got) -> bool:
    """Recursive comparison; floats at REL_TOL, extra keys in ``got`` allowed."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and close(v, got[k])
                                             for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) \
            and all(close(a, b) for a, b in zip(ref, got))
    if isinstance(ref, float) or isinstance(got, float):
        if not (W.finite(ref) and W.finite(got)):
            return ref == got
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return ref == got


def _report_ok(doc, p: int) -> bool:
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        return False
    names = [r.get("name") for r in doc["rows"] if isinstance(r, dict)]
    want = [f"beta0_{i + 1}" for i in range(p)] + [f"beta1_{i + 1}" for i in range(p)]
    return names[:2 * p + 1] == want + ["V_opt"] \
        and all(W.finite(r.get("estimate")) for r in doc["rows"])


def structure_ok(wl: W.Workload, name: str, doc) -> bool:
    """Shape and sanity of one output file, without reference numbers."""
    if doc is None:
        return False
    p = wl.config["p"]
    if name.startswith("report_t"):
        return _report_ok(doc, p)
    if name == "replay_stats.json":
        frac = doc.get("matched_fraction")
        return W.finite(frac) and MATCH_FRACTION[0] <= frac <= MATCH_FRACTION[1] \
            and doc.get("matched", 0) >= 1
    if name == "mc_meta.json":
        return doc.get("reps") == wl.reps and isinstance(doc.get("failures"), int)
    if name == "mc_summary.json":
        rows = doc.get("rows")
        # One row per parameter and one for the value, at each checkpoint.
        return isinstance(rows, list) and rows and len(rows) % (2 * p + 1) == 0 \
            and all(W.finite(r.get("coverage")) for r in rows)
    return True


def reference_subset(wl: W.Workload, names: list[str]) -> list[str]:
    """The output files whose full contents are kept as reference."""
    if wl.name == "stream-checkpoints":
        return names[STREAM_REF_EVERY - 1::STREAM_REF_EVERY]
    return names


def _ref_path(wl: W.Workload, scale: str) -> Path:
    return REF_DIR / f"{wl.name}-{scale}.json.gz"


def load_reference(wl: W.Workload, scale: str, path: Path | None = None) -> dict | None:
    """Stored outputs for this exact command, or None."""
    path = path or _ref_path(wl, scale)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        table = json.load(fh)
    entry = table.get(str(wl.seed))
    if entry is None or entry["spec"] != wl.spec_digest():
        return None
    return entry["outputs"]


class OutputCheck:
    """Counts checked operations and failures over the commands of one run."""

    def __init__(self, wl: W.Workload, reference: dict | None):
        self.wl = wl
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outputs: dict) -> int:
        """Check one command's outputs; returns the replications that failed."""
        wl = self.wl
        names = expected_names(wl, outputs)
        failures = 0
        if wl.name == "mc-logistic":
            meta = outputs.get("mc_meta.json") or {}
            failures = meta.get("failures", wl.reps)
            if not isinstance(failures, int):
                failures = wl.reps
            self.attempted += wl.reps
            self.failed += failures
            if failures:
                self.problems.append(f"{failures} replication(s) failed")
        for name in names:
            self.attempted += 1
            doc = outputs.get(name)
            bad = ""
            if name not in outputs:
                bad = "missing"
            elif not structure_ok(wl, name, doc):
                bad = "bad structure"
            elif self.reference is not None and name in self.reference \
                    and not close(self.reference[name], doc):
                bad = "differs from reference"
            elif self.first is not None and self.first.get(name) != doc:
                bad = "differs from the run's first command"
            if bad:
                self.failed += 1
                self.problems.append(f"{name}: {bad}")
        if self.reference is not None:
            for name in self.reference:
                if name not in names:
                    self.attempted += 1
                    self.failed += 1
                    self.problems.append(f"{name}: in reference, not expected")
        if self.first is None:
            self.first = outputs
        return failures


def snapshot(wl: W.Workload, root: Path) -> dict:
    """Run the workload's command once; its reference entry (spec and outputs)."""
    result = runner.run_command(wl, root)
    if result.get("rc") != 0:
        raise SystemExit(f"{wl.name} seed {wl.seed}: command failed: {result}")
    outputs = read_outputs(wl)
    check = OutputCheck(wl, None)
    check.check(outputs)
    if check.failed:
        raise SystemExit(f"{wl.name} seed {wl.seed}: {check.problems}")
    keep = reference_subset(wl, expected_names(wl, outputs))
    return {"spec": wl.spec_digest(), "outputs": {n: outputs[n] for n in keep}}


def write_table(path: Path, table: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")


def record(names, seeds, scale: str, root: Path) -> None:
    """Run each workload once per seed and store its outputs as reference."""
    work = root / runner.WORK_DIR / "record"
    for name in names:
        table = {}
        for seed in seeds:
            wl = W.generate(name, seed, work / name, scale)
            table[str(seed)] = snapshot(wl, root)
            print(f"recorded {name} seed {seed}: {len(table[str(seed)]['outputs'])} file(s)",
                  flush=True)
        write_table(_ref_path(wl, scale), table)


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record reference outputs.")
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--workload", action="append", choices=W.NAMES)
    args = ap.parse_args(argv)
    record(args.workload or W.NAMES, _seed_range(args.seeds), "full", runner.checkout_root())
    return 0


if __name__ == "__main__":
    sys.exit(main())
