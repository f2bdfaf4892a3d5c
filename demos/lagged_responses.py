"""Decision making when rewards arrive late.

Compares three delivery patterns on the same ground truth: immediate rewards,
a constant three-step lag, and independent geometric lags.  The rule freezes
between updates; each arriving reward triggers exactly one update with the
propensity recorded when its action was taken.  Estimates stay consistent,
with the pending tail simply never contributing.
"""
import numpy as np

from banditsgd import (ExplorationSchedule, LearningSchedule, LinearModel,
                       RngStream, SyntheticConfig, SyntheticEnvironment,
                       geometric_lag, run_stream)

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])
HORIZON = 20_000
learn = LearningSchedule(0.5, 0.501)
explore = ExplorationSchedule.fixed(0.2, burn_in=50)


def run(lag, seed=99):
    model = LinearModel(3)
    rng = RngStream(seed)
    env = SyntheticEnvironment(SyntheticConfig(model, BETA0, sigma2=0.01), rng)
    return run_stream(env, model, learn, explore, rng, HORIZON, lag=lag)


print(f"{'delivery':16s} {'updates':>8s} {'pending':>8s} {'max |bar - truth|':>18s}")
for name, lag in (("immediate", 0), ("constant lag 3", 3),
                  ("geometric lag", geometric_lag(0.25))):
    res = run(lag)
    err = np.abs(res.bar_beta - BETA0).max()
    print(f"{name:16s} {res.updates:8d} {res.pending:8d} {err:18.4f}")
