"""Offline evaluation against a uniformly randomized log.

Builds a synthetic click log in the documented CSV schema (here: five
features as in a news-recommendation setting, binary rewards), then replays
the epsilon-greedy learner against it: each logged entry is matched when the
policy's sampled action agrees with the logged action, otherwise dropped.
About half the entries match, and the matched sub-population stays
representative of the full log.
"""
import numpy as np

from banditsgd import (ExperimentConfig, LogisticModel, ReplayLog, run_single,
                       write_replay_log)

P = 5
N_ENTRIES = 30_000
TRUTH = np.array([-2.8, -0.4, -0.4, 0.2, -1.1, -2.6, -0.3, -0.4, -0.1, -1.1])

gen = np.random.default_rng(1)
model = LogisticModel(P)
x = np.empty((N_ENTRIES, P))
x[:, 0] = 1.0
x[:, 1:] = gen.uniform(0.0, 1.0, size=(N_ENTRIES, P - 1))
actions = gen.integers(0, 2, size=N_ENTRIES)
u = np.where(actions == 1, x @ TRUTH[P:], x @ TRUTH[:P])
clicks = (gen.random(N_ENTRIES) < model.mean_from_index_array(u)).astype(float)

write_replay_log("results/demo_click_log.csv", ReplayLog(x, actions, clicks))
print(f"wrote {N_ENTRIES} logged entries; mean click rate {clicks.mean():.4f}")

config = ExperimentConfig(
    model="logistic", p=P, beta0=tuple(TRUTH),
    replay_log="results/demo_click_log.csv",
    horizon=N_ENTRIES, checkpoints=(5_000, 10_000),
    seed=7, out="results/replay_demo",
)
out = run_single(config)
stats = out.replay_stats
print(f"matched {stats['matched']} of {stats['consumed']} entries "
      f"(fraction {stats['matched_fraction']:.3f})")
# The reports' last checkpoint is the final matched step.
report = out.reports
print(f"\ninference at final matched step t={report.t[-1]}:")
for name, est, se in zip(report.names, report.estimate[-1], report.se[-1]):
    print(f"  {name:10s} {est: .4f} (se {se:.4f})")
