"""Workload definitions and the seeded input generator.

A workload is one command line of the ``banditsgd`` CLI plus the input files
it reads.  ``generate`` turns (workload name, seed) into that command line and
writes the inputs; the same seed always gives the same inputs, and none of
this runs inside a timed region.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Click-model truth of the acceptance suite's replay fixture (logistic, p=5).
CLICK_TRUTH = (-2.8, -0.4, -0.4, 0.2, -1.1, -2.6, -0.3, -0.4, -0.1, -1.1)

# Sizes per scale.  "full" is what the benchmark measures; "tiny" is the
# self-test size and finishes in about a second per command.
SIZES = {
    "full": {"mc_reps": 16, "mc_horizon": 10_000,
             "stream_horizon": 50_000, "stream_every": 100,
             "replay_rows": 100_000,
             "probe_rows": 20_000, "probe_horizon": 10_000},
    "tiny": {"mc_reps": 4, "mc_horizon": 1_000,
             "stream_horizon": 2_000, "stream_every": 100,
             "replay_rows": 20_000,
             "probe_rows": 2_000, "probe_horizon": 1_000},
}

# BENCHMARK.json declares the first two; replay-news runs on request (NOTES.md).
NAMES = ("mc-logistic", "stream-checkpoints", "replay-news")

# Replay reports at its last matched step, which is known only from its stats.
FINAL_REPLAY_REPORT = "report_t{matched}.json"


@dataclass
class Workload:
    """One generated workload: the CLI argv, its config values and its outputs."""

    name: str
    seed: int
    argv: list[str]
    config: dict            # build_config overrides equivalent to argv
    out_dir: Path
    expected_files: list[str]
    reps: int = 1           # replications per command (mc only)
    workers: int = 1
    probe: dict = field(default_factory=dict)   # sizes of the traced run's probes

    def with_workers(self, workers: int) -> "Workload":
        """The same command with another ``--workers`` value."""
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return replace(self, argv=argv, config=dict(self.config, workers=workers),
                       workers=workers)

    def spec_digest(self) -> str:
        """Identifies the command independent of where the checkout lives."""
        text = json.dumps([self.name, self.seed,
                           [a.replace(str(self.out_dir.parent), "<work>") for a in self.argv]])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _join(values) -> str:
    return ",".join(values)


def write_replay_log(path: Path, x: np.ndarray, actions: np.ndarray,
                     rewards: np.ndarray) -> None:
    """CSV in the documented replay schema.

    Written here rather than with the package's own writer, so that the inputs
    do not depend on the code being measured.
    """
    p = x.shape[1]
    lines = [_join([f"x{i + 1}" for i in range(p)] + ["action", "reward", "propensity"])]
    for i in range(x.shape[0]):
        lines.append(_join([repr(float(v)) for v in x[i]]
                           + [str(int(actions[i])), repr(float(rewards[i])), "0.5"]))
    path.write_text("\n".join(lines) + "\n")


def uniform_log(gen: np.random.Generator, model: str, truth: np.ndarray, rows: int,
                uniform_features: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A uniformly randomized log: features, logged actions, rewards."""
    p = truth.shape[0] // 2
    x = np.empty((rows, p))
    x[:, 0] = 1.0
    if uniform_features:
        x[:, 1:] = gen.uniform(0.0, 1.0, size=(rows, p - 1))
    else:
        x[:, 1:] = gen.standard_normal((rows, p - 1))
    actions = gen.integers(0, 2, size=rows)
    u = np.where(actions == 1, x @ truth[p:], x @ truth[:p])
    if model == "logistic":
        rewards = (gen.random(rows) < 1.0 / (1.0 + np.exp(-u))).astype(float)
    else:
        rewards = u + 0.1 * gen.standard_normal(rows)
    return x, actions, rewards


def generate(name: str, seed: int, work: Path, scale: str = "full") -> Workload:
    """Build the workload's argv and write its input files under ``work``."""
    size = SIZES[scale]
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    probe = {"rows": size["probe_rows"], "horizon": size["probe_horizon"]}
    if name == "mc-logistic":
        reps, horizon = size["mc_reps"], size["mc_horizon"]
        config = {"model": "logistic", "p": 3, "horizon": horizon, "reps": reps,
                  "workers": 2, "seed": seed, "format": "json", "out": str(out)}
        argv = ["mc", "--model", "logistic", "--p", "3", "--horizon", str(horizon),
                "--reps", str(reps), "--workers", "2", "--seed", str(seed),
                "--format", "json", "--out", str(out)]
        return Workload(name, seed, argv, config, out,
                        ["mc_summary.json", "mc_meta.json"], reps=reps, workers=2, probe=probe)
    if name == "stream-checkpoints":
        gen = np.random.default_rng([seed, 1])
        truth = np.round(gen.normal(0.0, 0.5, size=20), 4)
        horizon, every = size["stream_horizon"], size["stream_every"]
        cps = tuple(range(every, horizon + 1, every))
        beta0 = _join(repr(float(v)) for v in truth)
        config = {"model": "linear", "p": 10, "beta0": tuple(float(v) for v in truth),
                  "horizon": horizon, "checkpoints": cps, "seed": seed,
                  "format": "json", "out": str(out)}
        # --beta0 in the '=' form: argparse would read a leading '-' as a flag.
        argv = ["run", "--model", "linear", "--p", "10", f"--beta0={beta0}",
                "--horizon", str(horizon), "--checkpoints", _join(str(t) for t in cps),
                "--seed", str(seed), "--format", "json", "--out", str(out)]
        return Workload(name, seed, argv, config, out,
                        [f"report_t{t}.json" for t in cps], probe=probe)
    if name == "replay-news":
        rows = size["replay_rows"]
        gen = np.random.default_rng([seed, 2])
        truth = np.asarray(CLICK_TRUTH)
        log = work / "click_log.csv"
        write_replay_log(log, *uniform_log(gen, "logistic", truth, rows, True))
        beta0 = _join(repr(v) for v in CLICK_TRUTH)
        config = {"model": "logistic", "p": 5, "beta0": CLICK_TRUTH, "horizon": rows,
                  "replay_log": str(log), "seed": seed, "format": "json", "out": str(out)}
        argv = ["replay", "--replay-log", str(log), "--model", "logistic", "--p", "5",
                f"--beta0={beta0}", "--horizon", str(rows), "--seed", str(seed),
                "--format", "json", "--out", str(out)]
        # The run ends when the log is exhausted, at about rows/2 matched steps.
        expected = [f"report_t{t}.json" for t in (1_000, 10_000) if t < rows // 3]
        return Workload(name, seed, argv, config, out,
                        expected + [FINAL_REPLAY_REPORT, "replay_stats.json"], probe=probe)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def steps_done(wl: Workload, outputs: dict, failures: int) -> int:
    """Decision steps the command completed, read from its outputs."""
    if wl.name == "mc-logistic":
        return (wl.reps - failures) * wl.config["horizon"]
    if wl.name == "replay-news":
        stats = outputs.get("replay_stats.json") or {}
        return int(stats.get("matched", 0))
    return wl.config["horizon"]


def finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
