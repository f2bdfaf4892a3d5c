"""Self-test of the benchmark at a tiny size (well under a minute).

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json prints with its unit on every
workload, that a perturbed reference value makes the failure fraction
positive, and that the traced run writes its span file.  Exits nonzero on the
first failed check.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import reference
import runner
import workloads as W

SEED = 1


def bench(root: Path, workload: str, trace: int, ref: Path | None = None) -> tuple[dict, str]:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if ref is not None:
        cmd += ["--reference", str(ref)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: "
                             f"{proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok: {what}")


def check_metrics(result: dict, stdout: str, declared: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{label}: every declared metric reported with its unit")
    printed = all(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                      for line in stdout.splitlines()) for name, unit in want.items())
    expect(printed, f"{label}: every metric printed as 'name = value unit'")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{label}: outputs pass the check")


def main() -> int:
    root = runner.checkout_root()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for name in W.NAMES:
        result, out = bench(root, name, 0)
        check_metrics(result, out, spec["end_to_end"], f"{name} trace=0")
        result, out = bench(root, name, 1)
        check_metrics(result, out, spec["per_layer"], f"{name} trace=1")
        spans = root / runner.WORK_DIR / name / "spans.json"
        doc = json.loads(spans.read_text()) if spans.exists() else {}
        roots = [s for s in doc.get("spans", []) if s["parent"] is None]
        expect(any(s["name"] == "cli.main" for s in roots)
               and all({"name", "start", "end", "parent", "rid"} <= set(s)
                       for s in doc["spans"]),
               f"{name} trace=1: span file written with a cli.main root")

    # A reference recorded now passes; one perturbed value makes fail_frac > 0.
    work = root / runner.WORK_DIR / "selftest"
    wl = W.generate("replay-news", SEED, work / "replay-news", "tiny")
    entry = reference.snapshot(wl, root)
    good, bad = work / "good.json.gz", work / "bad.json.gz"
    reference.write_table(good, {str(SEED): entry})
    perturbed = copy.deepcopy(entry)
    report = next(n for n in perturbed["outputs"] if n.startswith("report_t"))
    perturbed["outputs"][report]["rows"][0]["estimate"] *= 1 + 1e-6
    reference.write_table(bad, {str(SEED): perturbed})
    result, out = bench(root, "replay-news", 0, good)
    expect(result["failed"] == 0 and "reference outputs" in out,
           "recorded reference matches")
    result, out = bench(root, "replay-news", 0, bad)
    expect(result["failed"] > 0 and not result["correct"] and "fail_frac = 0 " not in out,
           f"perturbed reference gives fail_frac > 0 ({result['failed']} of "
           f"{result['attempted']})")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"self-test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
