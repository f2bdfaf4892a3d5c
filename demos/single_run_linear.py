"""One seeded run of the linear setting, printed as an inference table.

The stream makes epsilon-greedy decisions, learns by averaged SGD with
inverse-propensity-weighted gradients, and keeps the plug-in and value sums
online.  At its one checkpoint, the final step, we print Wald intervals for
every coordinate and for the optimal-rule value.
"""
import numpy as np

from banditsgd import (ExplorationSchedule, LearningSchedule, LinearModel, RngStream,
                       SyntheticConfig, SyntheticEnvironment, checkpoint_reports,
                       oracle_value, run_stream)

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])

model = LinearModel(3)
rng = RngStream(seed=20090501)
env = SyntheticEnvironment(SyntheticConfig(model, BETA0, sigma2=0.01), rng)

result = run_stream(
    env, model,
    LearningSchedule(alpha=0.5, gamma=0.501),
    ExplorationSchedule.fixed(0.2, burn_in=50),
    rng, horizon=10_000, checkpoints=(10_000,),
)

# One record of (checkpoint, row) columns; row 0 of each is the one checkpoint.
report = checkpoint_reports(result.checkpoints, level=0.95)

print(f"{'name':10s} {'truth':>8s} {'estimate':>9s} {'se':>8s} {'95% CI':>20s}")
truth_v, _ = oracle_value(model, BETA0, 1_000_000, RngStream(1))
truths = list(BETA0) + [truth_v]
for name, truth, est, se, lo, hi in zip(report.names, truths, report.estimate[0],
                                        report.se[0], report.ci_lo[0], report.ci_hi[0]):
    ci = f"[{lo: .4f}, {hi: .4f}]"
    print(f"{name:10s} {truth:8.4f} {est:9.4f} {se:8.4f} {ci:>20s}")
print(f"\ncumulative reward over {result.steps} steps: "
      f"{result.total_reward:.1f}")
