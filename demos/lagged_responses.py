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
                       run_stream, run_stream_lagged)
from banditsgd.environments import LaggedSyntheticEnvironment, geometric_lag

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])
HORIZON = 20_000
learn = LearningSchedule(0.5, 0.501)
explore = ExplorationSchedule.fixed(0.2, burn_in=50)


def fresh(seed=99):
    model = LinearModel(3)
    rng = RngStream(seed)
    return model, SyntheticConfig(model, BETA0, sigma2=0.01), rng


model, config, rng = fresh()
plain = run_stream(SyntheticEnvironment(config, rng), model, learn, explore,
                   rng, HORIZON)

model, config, rng = fresh()
lag3 = run_stream_lagged(LaggedSyntheticEnvironment(config, rng, lag=3),
                         model, learn, explore, rng, HORIZON)

model, config, rng = fresh()
geo = run_stream_lagged(LaggedSyntheticEnvironment(config, rng, lag=geometric_lag(0.25)),
                        model, learn, explore, rng, HORIZON)

print(f"{'delivery':16s} {'updates':>8s} {'pending':>8s} {'max |bar - truth|':>18s}")
for name, res in (("immediate", plain), ("constant lag 3", lag3),
                  ("geometric lag", geo)):
    err = np.abs(res.state.bar_beta - BETA0).max()
    print(f"{name:16s} {res.summary.updates:8d} {res.summary.pending:8d} {err:18.4f}")
