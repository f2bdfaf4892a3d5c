"""Statistical acceptance suite.

One test per criterion, each printing a single summary line (run with -s to
see them on success; pytest shows them on failure).  Everything is seeded, so
reruns are bit-identical.  The heavy replication suites use two worker
processes and dominate the runtime (minutes).
"""
import math
import os
from functools import partial

import numpy as np
import pytest

from banditsgd import (ExperimentConfig, ExplorationSchedule, LaggedSyntheticEnvironment,
                       LearningSchedule, LinearModel, LogisticModel, ReplayLog, RngStream,
                       SyntheticConfig, SyntheticEnvironment, oracle_value,
                       run_monte_carlo, run_single, run_stream, run_stream_lagged,
                       tune_alpha, write_replay_log)
from banditsgd.experiments import _launch, _mc_batch
from banditsgd.models import make_model
from banditsgd.policy import exploration_rate

import oracle
from oracle import Observation, report_row

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])
WORKERS = max(1, min(4, os.cpu_count() or 1))


def report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# 1. Coverage, linear reward model.
# ---------------------------------------------------------------------------

def test_criterion_01_linear_coverage():
    cfg = ExperimentConfig(model="linear", horizon=10_000, reps=1000,
                           seed=20250801, checkpoints=(10_000,), workers=WORKERS)
    s = run_monte_carlo(cfg, write=False)
    beta_rows = [r for r in s.rows if r.name.startswith("beta")]
    value_row = s.row(10_000, "V_opt")
    covs = [r.coverage for r in beta_rows]
    ratios = [r.ratio for r in beta_rows]
    report(f"criterion 1 (linear coverage, R=1000, t=1e4): "
           f"beta coverage {min(covs):.3f}-{max(covs):.3f}, "
           f"value coverage {value_row.coverage:.3f}, "
           f"ratio {min(ratios):.3f}-{max(ratios):.3f}")
    assert s.failures == 0
    for r in beta_rows:
        assert 0.90 <= r.coverage <= 0.96, f"{r.name} coverage {r.coverage}"
        assert 0.85 <= r.ratio <= 1.08, f"{r.name} ratio {r.ratio}"
    assert 0.91 <= value_row.coverage <= 0.97


# ---------------------------------------------------------------------------
# 2. Coverage, logistic reward model (both horizons).
# ---------------------------------------------------------------------------

def test_criterion_02_logistic_coverage():
    cfg = ExperimentConfig(model="logistic", horizon=10_000, reps=1000,
                           seed=20250802, checkpoints=(10_000,), workers=WORKERS)
    s = run_monte_carlo(cfg, write=False)
    beta_rows = [r for r in s.rows if r.name.startswith("beta")]
    value_row = s.row(10_000, "V_opt")

    cfg5 = ExperimentConfig(model="logistic", horizon=100_000, reps=500,
                            seed=20250803, checkpoints=(100_000,), workers=WORKERS)
    s5 = run_monte_carlo(cfg5, write=False, collect_inference=False)
    value_row5 = s5.row(100_000, "V_opt")

    covs = [r.coverage for r in beta_rows]
    report(f"criterion 2 (logistic coverage): t=1e4 beta "
           f"{min(covs):.3f}-{max(covs):.3f}, value {value_row.coverage:.3f}; "
           f"t=1e5 value {value_row5.coverage:.3f}")
    for r in beta_rows:
        assert 0.89 <= r.coverage <= 0.96, f"{r.name} coverage {r.coverage}"
    assert 0.86 <= value_row.coverage <= 0.95
    assert 0.90 <= value_row5.coverage <= 0.97


# ---------------------------------------------------------------------------
# 3. Interval length scales like the inverse root of the exploration rate.
# ---------------------------------------------------------------------------

def test_criterion_03_ci_length_scaling():
    lengths = {}
    for i, eps in enumerate((0.1, 0.2)):
        cfg = ExperimentConfig(model="linear", horizon=10_000, reps=80,
                               seed=20250805 + i, eps=f"fixed:{eps}",
                               checkpoints=(10_000,), workers=WORKERS)
        s = run_monte_carlo(cfg, write=False)
        lengths[eps] = float(np.mean([r.ci_length for r in s.rows
                                      if r.name.startswith("beta")]))
    ratio = lengths[0.1] / lengths[0.2]
    gap = abs(ratio / math.sqrt(2.0) - 1.0)
    report(f"criterion 3 (CI-length scaling): ratio {ratio:.3f} vs sqrt(2), "
           f"relative gap {gap:.3f}")
    assert gap <= 0.15


# ---------------------------------------------------------------------------
# 4. Weighted-gradient mean matches the uniform-rule gradient mean.
# ---------------------------------------------------------------------------

def _gradient_mean_gap(model, beta, x, pi, n, gen):
    u_true = np.array([float(x @ BETA0[:3]), float(x @ BETA0[3:])])
    index_at = np.array([float(x @ beta[:3]), float(x @ beta[3:])])

    def sample(prob, weighted):
        a = (gen.random(n) < prob).astype(int)
        if model.tag == "linear":
            y = u_true[a] + 0.1 * gen.standard_normal(n)
            resid = index_at[a] - y
        else:
            y = (gen.random(n) < model.mean_from_index_array(u_true[a])).astype(float)
            resid = model.mean_from_index_array(index_at[a]) - y
        w = np.where(a == 1, 0.5 / prob, 0.5 / (1.0 - prob)) if weighted else np.ones(n)
        g = np.zeros((n, 6))
        g[a == 0, :3] = (w * resid)[a == 0, None] * x
        g[a == 1, 3:] = (w * resid)[a == 1, None] * x
        return g

    g_pi = sample(pi, True)
    g_half = sample(0.5, False)
    gap = g_pi.mean(axis=0) - g_half.mean(axis=0)
    se = np.sqrt(g_pi.var(axis=0, ddof=1) / n + g_half.var(axis=0, ddof=1) / n)
    return gap, se


def test_criterion_04_ipw_gradient_martingale():
    gen = np.random.default_rng(20250806)
    n = 100_000
    worst = 0.0
    for k in range(20):
        model = make_model("linear" if k < 10 else "logistic", 3)
        beta = 1.2 * gen.standard_normal(6)
        x = np.append(1.0, gen.standard_normal(2))
        pi = float(gen.uniform(0.1, 0.9))
        gap, se = _gradient_mean_gap(model, beta, x, pi, n, gen)
        z = np.max(np.abs(gap) / np.where(se > 0, se, np.inf))
        worst = max(worst, z)
        assert (np.abs(gap) <= 4.0 * se).all(), f"triple {k}: |gap|/se = {z:.2f}"
    report(f"criterion 4 (weighted-gradient mean, 20 triples x 1e5 draws): "
           f"worst |gap|/se = {worst:.2f} (limit 4)")


# ---------------------------------------------------------------------------
# 5. Gradient and curvature match finite differences.
# ---------------------------------------------------------------------------

def test_criterion_05_finite_difference_checks():
    gen = np.random.default_rng(20250807)
    worst_g, worst_h = 0.0, 0.0
    for k in range(100):
        family = "linear" if k % 2 == 0 else "logistic"
        model = make_model(family, 3)
        beta = 1.5 * gen.standard_normal(6)
        x = np.append(1.0, gen.standard_normal(2))
        a = int(gen.integers(0, 2))
        y = float(gen.integers(0, 2)) if family == "logistic" \
            else float(gen.standard_normal())
        obs = Observation(x, a, y)

        g = oracle.loss_gradient(model, beta, obs)
        fd_g = np.empty(6)
        for j in range(6):
            h = 1e-6 * (1.0 + abs(beta[j]))
            hi, lo = beta.copy(), beta.copy()
            hi[j] += h
            lo[j] -= h
            fd_g[j] = (oracle.loss(model, hi, obs) - oracle.loss(model, lo, obs)) / (2 * h)
        scale_g = max(1.0, np.abs(g).max())
        worst_g = max(worst_g, np.abs(g - fd_g).max() / scale_g)

        H = oracle.loss_hessian(model, beta, obs, "exact")
        fd_h = np.empty((6, 6))
        for j in range(6):
            h = 1e-6 * (1.0 + abs(beta[j]))
            hi, lo = beta.copy(), beta.copy()
            hi[j] += h
            lo[j] -= h
            fd_h[:, j] = (oracle.loss_gradient(model, hi, obs)
                          - oracle.loss_gradient(model, lo, obs)) / (2 * h)
        scale_h = max(1.0, np.abs(H).max())
        worst_h = max(worst_h, np.abs(H - fd_h).max() / scale_h)
    report(f"criterion 5 (finite differences, 100 points): "
           f"gradient rel err {worst_g:.2e} (<1e-6), "
           f"curvature rel err {worst_h:.2e} (<1e-5)")
    assert worst_g < 1e-6
    assert worst_h < 1e-5


# ---------------------------------------------------------------------------
# 6. Plugin curvature matches a brute-force Monte Carlo oracle.
# ---------------------------------------------------------------------------

def test_criterion_06_curvature_oracle():
    model = LinearModel(3)
    rng = RngStream(20250808)
    env = SyntheticEnvironment(SyntheticConfig(model, BETA0, sigma2=0.01), rng)
    res = run_stream(env, model, LearningSchedule(0.5, 0.501),
                     ExplorationSchedule.fixed(0.2), rng, 100_000,
                     collect_value=False, checkpoints=(100_000,))
    cps = res.checkpoints
    h_hat = cps.H[-1] / cps.n[-1]

    # Oracle: average curvature-times-weight under the uniform-random rule
    # (the weight is identically one there), recomputed by simulation.
    gen = np.random.default_rng(20250809)
    n = 2_000_000
    oracle_h = np.zeros((6, 6))
    for _ in range(8):
        m = n // 8
        x = np.hstack([np.ones((m, 1)), gen.standard_normal((m, 2))])
        act = gen.integers(0, 2, m)
        x0, x1 = x[act == 0], x[act == 1]
        oracle_h[:3, :3] += x0.T @ x0
        oracle_h[3:, 3:] += x1.T @ x1
    oracle_h /= n
    gap = np.abs(h_hat - oracle_h).max()
    report(f"criterion 6 (curvature oracle, t=1e5): max entry gap {gap:.4f} "
           f"(tol 0.02); oracle diag ~ {np.diag(oracle_h).mean():.3f}")
    assert gap < 0.02


# ---------------------------------------------------------------------------
# 7. Value estimate is consistent for the optimal-rule value.
# ---------------------------------------------------------------------------

def test_criterion_07_value_consistency():
    cfg = ExperimentConfig(model="logistic", horizon=100_000, reps=200,
                           seed=20250804, checkpoints=(100_000,), workers=WORKERS)
    (results,) = _launch(partial(_mc_batch, collect_inference=False), [cfg])
    estimates = np.array([report_row(r.reports, 100_000, "V_opt").estimate for r in results])
    truth, truth_se = oracle_value(LogisticModel(3), BETA0, 1_000_000,
                                   RngStream(20250810))
    rep_se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    rep_sd = estimates.std(ddof=1)
    gap = abs(estimates.mean() - truth)
    report(f"criterion 7 (value consistency, 200 reps, t=1e5): "
           f"mean V {estimates.mean():.6f} vs oracle {truth:.6f} "
           f"(gap {gap:.6f}, 2*SE-of-mean {2 * rep_se:.6f}, "
           f"oracle SE {truth_se:.6f}; gap/per-rep SD = {gap / rep_sd:.2f})")
    # At finite horizons the estimate is unbiased for the running average of
    # the learned rules' values, which sits a few 1e-4 below the optimal value
    # here; that intrinsic drag exceeds this two-SE-of-the-mean budget.
    assert gap <= 2.0 * rep_se


# ---------------------------------------------------------------------------
# 8. Learning-rate tuning by streaming loss.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_criterion_08_alpha_tuning(family):
    cfg = ExperimentConfig(model=family, horizon=4000, reps=200,
                           seed=20250811, checkpoints=(4000,), workers=WORKERS)
    result = tune_alpha(cfg, [0.1, 0.5, 1.0], write=False)
    finals = {a: round(v, 5) for a, v in result.final_loss.items()}
    report(f"criterion 8 (alpha tuning, {family}): finals {finals}, "
           f"best {result.best_alpha}")
    assert result.best_alpha == 0.5, (
        f"{family}: expected 0.5 to attain the lowest final mean loss, "
        f"got {result.best_alpha} (finals {finals})")


# ---------------------------------------------------------------------------
# 9. Replay matching on a uniformly randomized log.
# ---------------------------------------------------------------------------

def test_criterion_09_replay_matching():
    n = 100_000
    gen = np.random.default_rng(20250812)
    model = LogisticModel(3)
    x = np.hstack([np.ones((n, 1)), gen.standard_normal((n, 2))])
    actions = gen.integers(0, 2, n)
    u = np.where(actions == 1, x @ BETA0[3:], x @ BETA0[:3])
    rewards = (gen.random(n) < model.mean_from_index_array(u)).astype(float)
    cursor = oracle.MeanTrackingCursor(ReplayLog(x, actions, rewards))
    rng = RngStream(20250813)
    run_stream(cursor, model, LearningSchedule(0.5, 0.501),
               ExplorationSchedule.fixed(0.2), rng, n)
    frac = cursor.matched / cursor.consumed
    means_gap = np.abs(cursor.feature_mean_matched() - cursor.feature_mean_all())
    sd = x.std(axis=0, ddof=1)
    limit = 4.0 * sd / math.sqrt(cursor.matched)
    report(f"criterion 9 (replay matching, 1e5 entries): matched fraction "
           f"{frac:.4f} (within 0.01 of 0.5); feature-mean gaps "
           f"{means_gap.round(4).tolist()} vs limits {limit.round(4).tolist()}")
    assert cursor.consumed == n
    assert abs(frac - 0.5) <= 0.01
    assert means_gap[0] == 0.0
    assert (means_gap[1:] <= limit[1:]).all()


# ---------------------------------------------------------------------------
# 10. Lagged execution equals a store-and-replay reference.
# ---------------------------------------------------------------------------

class _Recorder:
    def __init__(self, inner):
        self.inner = inner
        self.events = []

    def next_feature(self):
        return self.inner.next_feature()

    def submit(self, step, x, a):
        self.events.append(("action", step, x.copy(), a))
        self.inner.submit(step, x, a)

    def arrivals(self, now):
        out = self.inner.arrivals(now)
        self.events.extend(("arrival", s, y) for s, y in out)
        return out


def _reference_fold(model, learn, explore, events):
    state = oracle.zero_state(model.p)
    stored = {}
    for ev in events:
        if ev[0] == "action":
            _, step, x, a = ev
            eps = exploration_rate(explore, state.t + 1)
            greedy = int(float(x @ state.bar_beta[model.p:])
                         > float(x @ state.bar_beta[:model.p]))
            stored[step] = (x, a, 1.0 - eps / 2.0 if greedy else eps / 2.0)
        else:
            _, step, y = ev
            x, a, pi = stored.pop(step)
            state = oracle.sgd_step(state, model, learn, Observation(x, a, y), pi)
    return state


def test_criterion_10_lagged_equivalence():
    model = LinearModel(3)
    rng = RngStream(20250814)
    env = _Recorder(LaggedSyntheticEnvironment(SyntheticConfig(model, BETA0, sigma2=0.01),
                                               rng, lag=3))
    learn = LearningSchedule(0.5, 0.501)
    explore = ExplorationSchedule.fixed(0.2)
    res = run_stream_lagged(env, model, learn, explore, rng, 500)
    ref = _reference_fold(model, learn, explore, env.events)
    rel = np.abs(res.bar_beta - ref.bar_beta) / (1e-30 + np.abs(ref.bar_beta))
    report(f"criterion 10 (lagged equivalence, lag 3): max relative gap "
           f"{rel.max():.2e} (tol 1e-10); updates {res.updates}, "
           f"pending {res.pending}")
    assert res.updates == ref.t
    assert rel.max() < 1e-10


# ---------------------------------------------------------------------------
# Fixture-log smoke test: replay produces a full inference table.
# ---------------------------------------------------------------------------

def test_fixture_replay_report(tmp_path):
    p = 5
    n = 4000
    gen = np.random.default_rng(20250815)
    truth = np.array([-2.8, -0.4, -0.4, 0.2, -1.1, -2.6, -0.3, -0.4, -0.1, -1.1])
    model = LogisticModel(p)
    x = np.empty((n, p))
    x[:, 0] = 1.0
    x[:, 1:] = gen.uniform(0.0, 1.0, size=(n, p - 1))
    actions = gen.integers(0, 2, n)
    u = np.where(actions == 1, x @ truth[p:], x @ truth[:p])
    clicks = (gen.random(n) < model.mean_from_index_array(u)).astype(float)
    log_path = tmp_path / "fixture_log.csv"
    write_replay_log(log_path, ReplayLog(x, actions, clicks))

    cfg = ExperimentConfig(model="logistic", p=p, beta0=tuple(truth),
                           replay_log=str(log_path), horizon=n, seed=20250816,
                           checkpoints=(500,), out=str(tmp_path / "out"))
    out = run_single(cfg)
    final_t = max(out.reports.t.tolist())
    names = out.reports.names
    report(f"fixture replay: matched {out.replay_stats['matched']} of {n}; "
           f"final report at t={final_t} with rows {names}")
    assert names == [f"beta0_{i}" for i in range(1, 6)] \
        + [f"beta1_{i}" for i in range(1, 6)] + ["V_opt"]
    assert (tmp_path / "out" / f"report_t{final_t}.csv").exists()
    assert 0.4 < out.replay_stats["matched_fraction"] < 0.6
