import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (ExplorationSchedule, LearningSchedule, LinearModel, LogisticModel,
                       ReplayCursor, ReplayLog, RngStream, SyntheticConfig,
                       SyntheticEnvironment, geometric_lag, run_stream)
from banditsgd import engine
from banditsgd.experiments import _map_jobs, _step_losses, _trace_steps
from banditsgd.inference import ipw_weight
from banditsgd.models import make_model
from banditsgd.policy import exploration_rate

from oracle import (Observation, RecordingEnvironment, RecordingLag, State, accumulate,
                    assert_same_checkpoints, assert_same_results, decide_optimal,
                    fifo_events, ipw_gradient, lagged_fold, loss, loss_gradient,
                    mean_reward, propensity, recorded_steps, sgd_step, update_value,
                    zero_state)

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])
LEARN = LearningSchedule(0.5, 0.501)
EXPLORE = ExplorationSchedule.fixed(0.2, burn_in=50)


def make_env(family="linear", seed=1, sigma2=0.01):
    model = make_model(family, 3)
    rng = RngStream(seed)
    env = SyntheticEnvironment(SyntheticConfig(model, BETA0, sigma2=sigma2), rng)
    return model, env, rng


def _distance_to_truth(seed):
    """Distance of the averaged iterate from BETA0 after 10,000 linear steps."""
    m, env, rng = make_env(seed=seed)
    res = run_stream(env, m, LEARN, EXPLORE, rng, 10_000,
                     collect_inference=False, collect_value=False)
    return np.linalg.norm(res.bar_beta - BETA0)


class TestIpwGradient:
    def test_half_propensity_is_unweighted(self):
        m = LinearModel(3)
        obs = Observation([1.0, 0.3, -0.2], 1, 0.7)
        np.testing.assert_allclose(ipw_gradient(m, BETA0, obs, 0.5),
                                   loss_gradient(m, BETA0, obs), rtol=1e-15)

    def test_action_one_scaling(self):
        m = LinearModel(3)
        obs = Observation([1.0, 0.3, -0.2], 1, 0.7)
        np.testing.assert_allclose(ipw_gradient(m, BETA0, obs, 0.9),
                                   loss_gradient(m, BETA0, obs) / 1.8, rtol=1e-15)

    def test_action_zero_scaling(self):
        m = LinearModel(3)
        obs = Observation([1.0, 0.3, -0.2], 0, 0.7)
        np.testing.assert_allclose(ipw_gradient(m, BETA0, obs, 0.9),
                                   loss_gradient(m, BETA0, obs) / 0.2, rtol=1e-15)

    def test_propensity_bounds(self):
        m = LinearModel(3)
        obs = Observation([1.0, 0.3, -0.2], 0, 0.7)
        for pi in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ipw_gradient(m, BETA0, obs, pi)

    def test_mean_matches_uniform_rule_gradient(self):
        # Weighted gradient under Bernoulli(pi) actions has the same mean as
        # the plain gradient under uniform actions (one configuration here;
        # the acceptance suite checks twenty).
        rng = np.random.default_rng(101)
        m = LinearModel(3)
        beta = rng.standard_normal(6)
        x = np.append(1.0, rng.standard_normal(2))
        pi = 0.85
        n = 100_000
        diff = _mc_gradient_mean_gap(m, beta, x, pi, n, rng)
        assert (np.abs(diff[0]) <= 4.0 * diff[1]).all()


def _mc_gradient_mean_gap(model, beta, x, pi, n, rng):
    """Mean IPW gradient under Bernoulli(pi) minus mean plain gradient under
    Bernoulli(1/2), with the combined standard error; rewards from the truth."""
    u = np.array([float(x @ BETA0[:3]), float(x @ BETA0[3:])])
    mean_at = np.array([float(x @ beta[:3]), float(x @ beta[3:])])

    def draws(prob, weighted):
        a = (rng.random(n) < prob).astype(int)
        if model.tag == "linear":
            y = u[a] + 0.1 * rng.standard_normal(n)
            resid = mean_at[a] - y
        else:
            mu_true = model.mean_from_index_array(u[a])
            y = (rng.random(n) < mu_true).astype(float)
            resid = model.mean_from_index_array(mean_at[a]) - y
        w = np.where(a == 1, 0.5 / prob, 0.5 / (1.0 - prob)) if weighted else 1.0
        g = np.zeros((n, 6))
        g[a == 0, :3] = (w * resid)[a == 0, None] * x
        g[a == 1, 3:] = (w * resid)[a == 1, None] * x
        return g

    g_pi = draws(pi, weighted=True)
    g_half = draws(0.5, weighted=False)
    gap = g_pi.mean(axis=0) - g_half.mean(axis=0)
    se = np.sqrt(g_pi.var(axis=0, ddof=1) / n + g_half.var(axis=0, ddof=1) / n)
    return gap, se


class TestSgdStep:
    def test_hand_computed_first_step(self):
        m = LinearModel(3)
        state = zero_state(3)
        obs = Observation([1.0, 0.0, 0.0], 1, 1.0)
        new = sgd_step(state, m, LEARN, obs, 0.5)
        np.testing.assert_allclose(new.hat_beta, [0, 0, 0, 0.5, 0, 0], atol=1e-15)
        np.testing.assert_allclose(new.bar_beta, new.hat_beta, atol=1e-15)
        assert new.t == 1

    def test_zero_gradient_fixed_point(self):
        m = LinearModel(3)
        hat = BETA0.copy()
        state = State(hat, hat.copy(), 5)
        x = np.array([1.0, 0.2, -0.1])
        obs = Observation(x, 1, mean_reward(m, 1, x, BETA0))
        new = sgd_step(state, m, LEARN, obs, 0.7)
        np.testing.assert_array_equal(new.hat_beta, state.hat_beta)
        np.testing.assert_allclose(new.bar_beta, state.bar_beta, rtol=1e-15)
        assert new.t == 6

    def test_value_semantics(self):
        m = LinearModel(3)
        state = zero_state(3)
        before_hat = state.hat_beta.copy()
        obs = Observation([1.0, 1.0, -1.0], 0, 2.0)
        sgd_step(state, m, LEARN, obs, 0.4)
        np.testing.assert_array_equal(state.hat_beta, before_hat)
        assert state.t == 0

    def test_inactive_block_never_touched(self):
        m = LogisticModel(3)
        rng = np.random.default_rng(61)
        state = State(rng.standard_normal(6), rng.standard_normal(6), 3)
        for _ in range(30):
            x = np.append(1.0, rng.standard_normal(2))
            a = int(rng.integers(0, 2))
            obs = Observation(x, a, float(rng.integers(0, 2)))
            new = sgd_step(state, m, LEARN, obs, float(rng.uniform(0.2, 0.8)))
            inactive = slice(3, 6) if a == 0 else slice(0, 3)
            np.testing.assert_array_equal(new.hat_beta[inactive],
                                          state.hat_beta[inactive])
            state = new

    def test_average_matches_store_all_oracle(self):
        m = LogisticModel(3)
        rng = np.random.default_rng(55)
        state = zero_state(3)
        iterates = []
        for _ in range(500):
            x = np.append(1.0, rng.standard_normal(2))
            obs = Observation(x, int(rng.integers(0, 2)), float(rng.integers(0, 2)))
            state = sgd_step(state, m, LEARN, obs, float(rng.uniform(0.1, 0.9)))
            iterates.append(state.hat_beta)
        oracle = np.mean(iterates, axis=0)
        np.testing.assert_allclose(state.bar_beta, oracle, rtol=1e-12)


class TestRunStream:
    def test_single_step_burn_in(self):
        m, env, rng = make_env()
        env = RecordingEnvironment(env)
        res = run_stream(env, m, LEARN, EXPLORE, rng, 1, checkpoints=(1,))
        seen = [(pi, eps) for _, _, pi, eps, _ in recorded_steps(m, env, res)]
        cps = res.checkpoints
        assert res.steps == 1 and cps.n.tolist() == cps.value_t.tolist() == [1]
        assert seen == [(0.5, 1.0)]

    def test_fixed_seed_bit_identical(self):
        m1, env1, rng1 = make_env(seed=42)
        m2, env2, rng2 = make_env(seed=42)
        r1 = run_stream(env1, m1, LEARN, EXPLORE, rng1, 3000, checkpoints=(3000,))
        r2 = run_stream(env2, m2, LEARN, EXPLORE, rng2, 3000, checkpoints=(3000,))
        np.testing.assert_array_equal(r1.bar_beta, r2.bar_beta)
        assert_same_checkpoints(r1.checkpoints, r2.checkpoints)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_engine_matches_public_operations(self, family):
        # The engine's fused update must reproduce the per-step operations
        # applied one at a time.
        m, env, rng = make_env(family, seed=7)
        env = RecordingEnvironment(env)
        res = run_stream(env, m, LEARN,
                         ExplorationSchedule.fixed(0.2, burn_in=10), rng, 1500,
                         checkpoints=range(1, 1501))
        state = zero_state(3)
        s_sum, h_sum, val = np.zeros((6, 6)), np.zeros((6, 6)), np.zeros(2)
        for bar_prev, obs, pi, eps, greedy in recorded_steps(m, env, res):
            np.testing.assert_allclose(bar_prev, state.bar_beta, rtol=1e-10, atol=1e-13)
            accumulate(s_sum, h_sum, m, state.bar_beta, obs, pi)
            update_value(val, obs, greedy, eps)
            state = sgd_step(state, m, LEARN, obs, pi)
        cps = res.checkpoints
        np.testing.assert_allclose(res.hat_beta, state.hat_beta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(res.bar_beta, state.bar_beta, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(cps.S[-1], s_sum, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(cps.H[-1], h_sum, rtol=1e-12, atol=1e-13)
        assert cps.n[-1] == cps.value_t[-1] == 1500
        assert cps.value[-1, 0] == pytest.approx(val[0], rel=1e-13)

    @pytest.mark.parametrize("kind", ["plain", "lagged", "synthetic"])
    def test_unknown_hessian_variant_rejected(self, kind):
        m, env, rng = make_env("logistic", seed=6)
        with pytest.raises(ValueError, match="unknown hessian variant 'bogus'"):
            if kind == "synthetic":
                engine._run_synthetic(SyntheticConfig(m, BETA0), LEARN, EXPLORE, [6], 100,
                                      hessian="bogus")
            else:
                run_stream(env, m, LEARN, EXPLORE, rng, 100, hessian="bogus",
                           lag=2 if kind == "lagged" else 0)

    def test_non_integral_checkpoint_names_its_value(self):
        m, env, rng = make_env(seed=6)
        with pytest.raises(ValueError, match=r"^checkpoint 2\.7 is not a whole step$"):
            run_stream(env, m, LEARN, EXPLORE, rng, 10, checkpoints=(2.7, 10))

    @pytest.mark.parametrize("bad", [0, -3, 11, 20.0])
    @pytest.mark.parametrize("kind", ["plain", "lagged", "synthetic"])
    def test_checkpoint_outside_the_horizon_names_its_value(self, kind, bad):
        m, env, rng = make_env(seed=6)
        cps = (5, bad, 10)
        with pytest.raises(ValueError, match=rf"^checkpoint {int(bad)} outside \[1, 10\]$"):
            if kind == "synthetic":
                engine._run_synthetic(SyntheticConfig(m, BETA0), LEARN, EXPLORE, [6], 10,
                                      checkpoints=cps)
            else:
                run_stream(env, m, LEARN, EXPLORE, rng, 10, checkpoints=cps,
                           lag=2 if kind == "lagged" else 0)

    @pytest.mark.parametrize("kind", ["plain", "lagged", "synthetic"])
    def test_horizon_below_one_rejected_before_the_environment(self, kind):
        m, env, rng = make_env(seed=6)
        # The synthetic engine's environment is its per-chunk draw.
        env = mock.Mock(wraps=env)
        with mock.patch.object(engine, "_draw_chunk") as draw, \
                pytest.raises(ValueError, match="^horizon must be at least 1$"):
            if kind == "synthetic":
                engine._run_synthetic(SyntheticConfig(m, BETA0), LEARN, EXPLORE, [6], 0)
            else:
                run_stream(env, m, LEARN, EXPLORE, rng, 0, lag=2 if kind == "lagged" else 0)
        assert env.mock_calls == [] and draw.mock_calls == []

    @pytest.mark.parametrize("lagged", [False, True], ids=["plain", "lagged"])
    def test_bare_run_reports_the_same_total_reward(self, lagged):
        # Without sums or a hook the total still comes from the folded steps.
        totals = []
        for sums in (True, False):
            m, env, rng = make_env(seed=8)
            res = run_stream(env, m, LEARN, EXPLORE, rng, 3000, lag=2 if lagged else 0,
                             collect_inference=sums, collect_value=sums)
            totals.append(res.total_reward)
        assert totals[0] == totals[1] != 0.0

    def test_consistency_over_replications(self):
        # At horizon 1e4 the averaged iterate should be inside a 0.1 ball
        # around the truth in at least 99 of 100 seeded replications.
        seeds = [1000 + rep for rep in range(100)]
        hits = sum(d < 0.1 for d in _map_jobs(_distance_to_truth, seeds, 2))
        assert hits >= 99

    def test_losses_recorded_at_running_average(self):
        m, env, rng = make_env(seed=3)
        env = RecordingEnvironment(env)
        recorded = []
        res = run_stream(env, m, LEARN, EXPLORE, rng, 200, checkpoints=range(1, 201),
                         on_steps=lambda t, act, greedy, y, eps, ubar:
                         recorded.extend(_step_losses(m, act, y, ubar)[:, 0]))
        losses = np.array(recorded)
        assert losses.shape == (200,)
        assert np.isfinite(losses).all()
        assert (losses >= 0).all()
        want = [loss(m, bar, obs) for bar, obs, *_ in recorded_steps(m, env, res)]
        assert np.array_equal(losses, want)

    def test_trace_emission(self, tmp_path):
        for family in ("linear", "logistic"):
            m, env, rng = make_env(family, seed=4)
            path = tmp_path / f"trace_{family}.csv"
            with open(path, "w", newline="") as fh:
                res = run_stream(env, m, LEARN, EXPLORE, rng, 5,
                                 on_steps=_trace_steps(fh, m))
            rows = list(csv.DictReader(open(path)))
            assert len(rows) == 5
            assert list(rows[0]) == ["step", "eps", "pi", "action", "reward", "loss"]
            assert float(rows[0]["eps"]) == 1.0 and float(rows[0]["pi"]) == 0.5
            total = sum(float(r["reward"]) for r in rows)
            assert total == pytest.approx(res.total_reward, rel=1e-12)
            # Every loss cell is a plain number, not a numpy scalar's repr.
            assert all(math.isfinite(float(r["loss"])) for r in rows)

    def test_checkpoint_snapshots_are_frozen_copies(self):
        m, env, rng = make_env(seed=5)
        res = run_stream(env, m, LEARN, EXPLORE, rng, 400, checkpoints=(100, 400))
        cps = res.checkpoints
        assert cps.t.tolist() == cps.n.tolist() == [100, 400]
        assert cps.value_t[0] == 100
        assert not np.array_equal(cps.bar_beta[0], res.bar_beta)
        np.testing.assert_array_equal(cps.bar_beta[1], res.bar_beta)

    def test_environment_exhaustion_stops_cleanly(self):
        rng_np = np.random.default_rng(6)
        rows = [(np.append(1.0, rng_np.standard_normal(2)),
                 int(rng_np.integers(0, 2)), float(rng_np.integers(0, 2)))
                for _ in range(40)]
        m = LogisticModel(3)
        cursor = ReplayCursor(ReplayLog(*map(np.array, zip(*rows))))
        res = run_stream(cursor, m, LEARN, EXPLORE,
                         RngStream(8), 1000)
        assert res.exhausted
        assert res.steps == cursor.matched
        assert cursor.consumed == 40

    def test_value_burn_in_exclusion_switch(self):
        m1, env1, rng1 = make_env(seed=9)
        keep = run_stream(env1, m1, LEARN, EXPLORE, rng1, 200, checkpoints=(200,))
        m2, env2, rng2 = make_env(seed=9)
        skip = run_stream(env2, m2, LEARN, EXPLORE, rng2, 200, skip_value_burn_in=True,
                          checkpoints=(200,))
        assert keep.checkpoints.value_t.tolist() == [200]
        assert skip.checkpoints.value_t.tolist() == [200 - EXPLORE.burn_in]
        np.testing.assert_array_equal(keep.bar_beta, skip.bar_beta)


def _assert_same_sums(got, want):
    """Two runs with equal checkpoints, every field; runs that end with a
    checkpoint so have equal final sums."""
    assert_same_checkpoints(got.checkpoints, want.checkpoints)


def _replay_log(rows, seed=6):
    """A logged logistic trial of ``rows`` entries with p = 3."""
    gen = np.random.default_rng(seed)
    return ReplayLog(np.column_stack([np.ones(rows), gen.standard_normal((rows, 2))]),
                     gen.integers(0, 2, rows), gen.integers(0, 2, rows).astype(float))


class TestExhaustedRunRecord:
    # A decaying rate tells the final step's clock from the next one's.
    explore = ExplorationSchedule.decaying(0.3, 0.01, burn_in=5)

    def _run(self, log, checkpoints=()):
        return run_stream(ReplayCursor(log), LogisticModel(3), LEARN, self.explore,
                          RngStream(8), 1000, checkpoints=checkpoints)

    @pytest.mark.parametrize("lagged", [False, True], ids=["plain", "lagged"])
    def test_final_step_is_recorded(self, lagged):
        def run(checkpoints):
            if not lagged:
                return self._run(_replay_log(40), checkpoints)
            # A zero lag through the queue: each reward arrives at once, so
            # the exploration clock is the step's.
            model, rng = LogisticModel(3), RngStream(8)
            env = SyntheticEnvironment(SyntheticConfig(model, BETA0), rng)
            return run_stream(_FeatureBudget(env, 40), model, LEARN, self.explore, rng, 1000,
                              checkpoints=checkpoints, lag=lambda step, gen: 0)
        res = run((5,))
        steps = res.steps
        assert res.exhausted and 5 < steps < 1000
        cps = res.checkpoints
        assert cps.t.tolist() == [5, steps]
        assert cps.eps[-1] == exploration_rate(self.explore, steps)
        assert cps.eps[-1] != exploration_rate(self.explore, steps + 1)
        np.testing.assert_array_equal(cps.bar_beta[-1], res.bar_beta)
        assert cps.n[-1] == cps.value_t[-1] == steps
        # The record equals that of the run asked for a checkpoint there.
        assert_same_results(run((5, steps)), res)

    def test_final_checkpoint_is_not_recorded_twice(self):
        log = _replay_log(40)
        steps = self._run(log).steps
        res = self._run(log, checkpoints=(5, steps))
        assert res.checkpoints.t.tolist() == [5, steps]

    def test_no_record_without_a_matched_step(self):
        # Of two one-entry logs that differ in the logged action, exactly one
        # matches the run's first action.
        runs = [self._run(ReplayLog(np.array([[1.0, 0.2, -0.3]]), [a], [1.0]))
                for a in (0, 1)]
        assert sorted(r.steps for r in runs) == [0, 1]
        for res in runs:
            assert res.exhausted
            want = [1] if res.steps else []
            assert res.checkpoints.t.tolist() == want


def _folded_sums(rows, horizon, checkpoints, *, family="linear", p=3, env_wrapper=None,
                 **kw):
    """A seeded run whose pending block holds at most ``rows`` steps
    (``None`` keeps the default), with a checkpoint at its final step too."""
    model = make_model(family, p)
    rng = RngStream(11)
    config = SyntheticConfig(model, np.linspace(-0.5, 0.6, 2 * p))
    with mock.patch.object(engine, "_BLOCK_ROWS", rows or engine._BLOCK_ROWS):
        env = SyntheticEnvironment(config, rng)
        if env_wrapper is not None:
            env = env_wrapper(env)
        checkpoints = sorted({*checkpoints, horizon})
        res = run_stream(env, model, LEARN, EXPLORE, rng, horizon, checkpoints=checkpoints,
                         **kw)
    assert res.checkpoints.t.tolist() == checkpoints
    return res


class _FeatureBudget:
    """Environment that runs out after ``budget`` feature rows."""

    def __init__(self, inner, budget):
        self.inner, self.budget = inner, budget

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def next_feature(self):
        self.budget -= 1
        return None if self.budget < 0 else self.inner.next_feature()


class _OneFeatureBuffer:
    """Synthetic environment that writes every feature row into one array."""

    def __init__(self, inner):
        self.inner = inner
        self.buf = None

    def next_feature(self):
        x = self.inner.next_feature()
        if self.buf is None:
            self.buf = np.empty_like(x)
        self.buf[:] = x
        return self.buf

    def outcome(self, x, a):
        return self.inner.outcome(x, a)


FOLD_CASES = [
    dict(family="linear", hessian="exact"),
    dict(family="linear", hessian="outer", aipw=True),
    dict(family="logistic", hessian="exact", aipw=True, skip_value_burn_in=True),
    dict(family="logistic", hessian="outer", skip_value_burn_in=True),
    dict(family="logistic", lag=0, aipw=True),
    dict(family="linear", lag=3, aipw=True, skip_value_burn_in=True),
    dict(family="logistic", p=1, aipw=True),
    dict(family="linear", p=64, aipw=True),
]


class TestBlockFolding:
    """Deferred folding of the accumulator terms must not change one bit."""

    @pytest.mark.parametrize("case", FOLD_CASES,
                             ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_sums_identical_at_block_sizes_1_7_and_default(self, case):
        p = case.get("p", 3)
        full = engine._block_rows(p)
        if p == 64:
            assert full == 16  # the float budget shrinks the block
        # Checkpoints just inside and just past the first boundary of both
        # the 7-step and the default block, then after several full blocks.
        cps = sorted({6, 8, full - 1, full + 1, 3 * full + 2})
        horizon = 4 * full + 3
        # Block size 1 folds every step as it arrives.
        want = _folded_sums(1, horizon, cps, **case)
        _assert_same_sums(_folded_sums(7, horizon, cps, **case), want)
        _assert_same_sums(_folded_sums(None, horizon, cps, **case), want)

    @pytest.mark.parametrize("family,hessian", [("linear", "exact"),
                                                ("logistic", "outer")])
    def test_matches_stepwise_public_operations(self, family, hessian):
        # The value sums equal update_value's, and the plugin blocks equal
        # x x^T times the step's coefficient added one step at a time.
        m, env, rng = make_env(family, seed=13)
        env = RecordingEnvironment(env)
        res = run_stream(env, m, LEARN, EXPLORE, rng, 2500, hessian=hessian,
                         aipw=True, checkpoints=range(1, 2501))
        s_sum, h_sum, val = np.zeros((6, 6)), np.zeros((6, 6)), np.zeros(4)
        steps = recorded_steps(m, env, res)
        for bar, obs, pi, eps, greedy in steps:
            x, a, y = obs.x, obs.a, obs.y
            blk = slice(3, 6) if a == 1 else slice(0, 3)
            mu = m.mean_from_index(float(x @ bar[blk]))
            w = ipw_weight(a, pi)
            gw = (mu - y) * w
            xx = np.outer(x, x)
            s_sum[blk, blk] += xx * (gw * gw)
            h_sum[blk, blk] += xx * (m.hessian_scale(mu, y, hessian) * w)
            g_blk = slice(3, 6) if greedy == 1 else slice(0, 3)
            update_value(val, obs, greedy, eps, m.mean_from_index(float(x @ bar[g_blk])))
        cps = res.checkpoints
        np.testing.assert_array_equal(cps.S[-1], s_sum)
        np.testing.assert_array_equal(cps.H[-1], h_sum)
        assert cps.n[-1] == len(steps) == cps.value_t[-1]
        assert cps.value[-1].tolist() == val.tolist()

    def test_environment_reusing_one_feature_array(self):
        cps = (100, 1500)
        plain = _folded_sums(None, 2500, cps, family="logistic", aipw=True)
        reused = _folded_sums(None, 2500, cps, family="logistic", aipw=True,
                              env_wrapper=_OneFeatureBuffer)
        _assert_same_sums(reused, plain)

    def test_lagged_environment_reusing_one_feature_array(self):
        cps = (100, 1500)
        plain = _folded_sums(None, 2000, cps, lag=3, aipw=True)
        reused = _folded_sums(None, 2000, cps, lag=3, aipw=True,
                              env_wrapper=_OneFeatureBuffer)
        _assert_same_sums(reused, plain)

    def test_eps_check_fires_at_the_offending_step(self):
        # The schedule validates its rate, so bypass it to reach the check.
        m, env, rng = make_env(seed=14)
        env = RecordingEnvironment(env)
        bad = ExplorationSchedule.fixed(0.2, burn_in=2)
        object.__setattr__(bad, "eps_fixed", 1.5)
        with pytest.raises(ValueError, match=r"exploration rate must lie in \(0, 1\], got 1.5"):
            run_stream(env, m, LEARN, bad, rng, 10)
        assert env.draws == len(env.steps) == 3


@settings(max_examples=25, deadline=None)
@given(horizon=st.integers(1, 3000), rows=st.integers(2, 1100), data=st.data())
def test_block_size_never_changes_the_sums(horizon, rows, data):
    checkpoints = data.draw(st.sets(st.integers(1, horizon), max_size=6))
    family = data.draw(st.sampled_from(["linear", "logistic"]))
    aipw = data.draw(st.booleans())
    want = _folded_sums(1, horizon, checkpoints, family=family, aipw=aipw)
    got = _folded_sums(rows, horizon, checkpoints, family=family, aipw=aipw)
    _assert_same_sums(got, want)


# Per case: horizon, hessian, exploration, aipw, value_skip_burn_in, and
# whether the parameter and value sums are collected.
TABLE_CASES = [
    (600, "exact", "fixed:0.2", True, False, True),
    (4096, "outer", "fixed:1", False, True, True),
    (4097, "exact", "decay:0.3,0.1", True, True, True),
    (8200, "outer", "decay:0.3,0.1", True, False, True),
    (4100, "exact", "fixed:0.2", False, False, False),
]


class TestSyntheticTables:
    """A one-stream ``_run_synthetic`` against ``run_stream`` on a
    ``SyntheticEnvironment``."""

    @staticmethod
    def _both(family, p, case):
        horizon, hessian, eps, aipw, skip, collect = case
        model = make_model(family, p)
        synth = SyntheticConfig(model, np.linspace(-0.6, 0.9, 2 * p))
        explore = (ExplorationSchedule.fixed(float(eps[6:]), burn_in=50)
                   if eps.startswith("fixed") else ExplorationSchedule.decaying(0.3, 0.1))
        cps = sorted({t for t in (1, 50, 51, 4096, 4097, horizon) if t <= horizon})
        kw = dict(hessian=hessian, aipw=aipw, skip_value_burn_in=skip, checkpoints=cps,
                  collect_inference=collect, collect_value=collect)
        seed = 500 + p
        rng = RngStream(seed)
        want = run_stream(SyntheticEnvironment(synth, rng), model, LEARN, explore, rng,
                          horizon, **kw)
        (got,) = engine._run_synthetic(synth, LEARN, explore, [seed], horizon, **kw)
        return want, got

    @pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: f"h{c[0]}-{c[1]}-{c[2]}")
    @pytest.mark.parametrize("p", [1, 3, 10])
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_matches_run_stream(self, family, p, case):
        want, got = self._both(family, p, case)
        assert got.steps == case[0]
        assert_same_results(got, want)
        if not case[5]:
            cps = got.checkpoints
            assert cps.S is cps.H is cps.value is None


def _seen_steps(run, *args, **kw) -> list[np.ndarray]:
    """The columns ``on_steps`` sees over a whole run, each joined over calls."""
    calls = []
    run(*args, **kw, on_steps=lambda *cols: calls.append([np.array(c) for c in cols]))
    n, reps = calls[0][1].shape
    assert [c.shape for c in calls[0]] == [(n,), (n, reps), (n, reps), (n, reps), (n,),
                                           (n, reps, 2)]
    assert calls[0][1].dtype == calls[0][2].dtype == np.uint8
    return [np.concatenate(cols) for cols in zip(*calls)]


class TestOnSteps:
    """Both engines show each step once, in order, with the same columns."""

    @pytest.mark.parametrize("collect", [True, False], ids=["sums", "no-sums"])
    @pytest.mark.parametrize("family,reps", [("linear", 1), ("logistic", 2), ("logistic", 7)])
    def test_engines_show_the_same_steps(self, family, reps, collect):
        # Checkpoints at the first step and across the draw-chunk edge, and
        # runs of more than a full pending block between them.
        horizon = 4100
        model = make_model(family, 3)
        synth = SyntheticConfig(model, BETA0)
        kw = dict(checkpoints=(1, 1500, 4096, 4097), aipw=True,
                  collect_inference=collect, collect_value=collect)
        seeds = [60 + r for r in range(reps)]
        got = _seen_steps(engine._run_synthetic, synth, LEARN, EXPLORE, seeds, horizon, **kw)
        assert np.array_equal(got[0], np.arange(1, horizon + 1))
        for r, seed in enumerate(seeds):
            rng = RngStream(seed)
            want = _seen_steps(run_stream, SyntheticEnvironment(synth, rng), model, LEARN,
                               EXPLORE, rng, horizon, **kw)
            for k in (0, 4):
                assert np.array_equal(got[k], want[k])
            for k in (1, 2, 3, 5):
                assert np.array_equal(got[k][:, r], want[k][:, 0])


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["linear", "logistic"]),
       hessian=st.sampled_from(["exact", "outer"]), aipw=st.booleans(),
       skip=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       horizon=st.integers(1, 2500), data=st.data())
def test_zero_lag_equals_plain_stream_bit_for_bit(family, hessian, aipw, skip, seed,
                                                  horizon, data):
    # An int lag of 0 applies each reward at once; a lag function that
    # gives 0 sends every reward through the queue.
    checkpoints = data.draw(st.sets(st.integers(1, horizon), max_size=5))
    # A budget below the horizon makes the environment run out.
    budget = data.draw(st.integers(0, horizon + 1))
    model = make_model(family, 3)
    config = SyntheticConfig(model, BETA0)
    kw = dict(hessian=hessian, aipw=aipw, skip_value_burn_in=skip, checkpoints=checkpoints)
    runs = []
    for lag in (0, lambda step, gen: 0):
        rng = RngStream(seed)
        runs.append(run_stream(_FeatureBudget(SyntheticEnvironment(config, rng), budget),
                               model, LEARN, EXPLORE, rng, horizon, lag=lag, **kw))
    plain, queued = runs
    assert plain.exhausted == (budget < horizon) and queued.pending == 0
    assert_same_results(queued, plain)


def _lagged_run(family, seed, lag, horizon, explore=EXPLORE, **kw):
    """A seeded run at ``lag`` with its recorded decision steps (one
    ``Observation`` each) and the lag of each."""
    m, env, rng = make_env(family, seed=seed)
    env = RecordingEnvironment(env)
    if callable(lag):
        lag = RecordingLag(lag)
    res = run_stream(env, m, LEARN, explore, rng, horizon, lag=lag, **kw)
    lags = lag.lags if callable(lag) else [lag] * res.steps
    assert len(env.steps) == len(lags) == res.steps
    return m, res, env.steps, lags


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["linear", "logistic"]), aipw=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), horizon=st.integers(1, 300), data=st.data())
def test_lagged_run_is_a_fifo_fold(family, aipw, seed, horizon, data):
    # Short lags drawn per step, and at a few steps a lag past the horizon,
    # which holds back every later reward too.  A short burn-in and a
    # decaying rate make each decision depend on the updates before it.
    drawn = data.draw(st.lists(st.integers(0, 5), min_size=horizon, max_size=horizon))
    for step in data.draw(st.sets(st.integers(1, horizon), max_size=2)):
        drawn[step - 1] = data.draw(st.integers(horizon - step + 1, 2 * horizon))
    checkpoints = data.draw(st.sets(st.integers(1, horizon), max_size=4))
    explore = ExplorationSchedule.decaying(0.3, 0.1, burn_in=3)
    seen = []

    def on_steps(t, act, greedy, y, eps, ubar):
        seen.extend(zip(t.tolist(), act[:, 0].tolist(), y[:, 0].tolist(), eps.tolist(),
                        ubar[:, 0].tolist()))

    m, res, steps, lags = _lagged_run(family, seed, lambda step, gen: drawn[step - 1],
                                      horizon, explore, aipw=aipw, checkpoints=checkpoints,
                                      on_steps=on_steps)
    assert lags == drawn
    assert res.updates + res.pending == res.steps == horizon
    # on_steps sees each update once, in the order the rewards arrive, with
    # both indexes at the average in force at the update.
    want = []
    ref = lagged_fold(m, LEARN, explore, steps, lags,
                      on_update=lambda i, bar, eps: want.append(
                          (steps[i], eps, [float(steps[i].x @ bar[:3]),
                                           float(steps[i].x @ bar[3:])])))
    assert res.updates == ref.t == len(want) == len(seen)
    for k, ((t, a, y, eps, ubar), (obs, eps_ref, ubar_ref)) in enumerate(zip(seen, want)):
        assert (t, a, y, eps) == (k + 1, obs.a, obs.y, eps_ref)
        np.testing.assert_allclose(ubar, ubar_ref, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.bar_beta, ref.bar_beta, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.hat_beta, ref.hat_beta, rtol=1e-10, atol=1e-12)


class TestRunStreamLagged:
    """``run_stream`` with a ``lag``."""

    def test_zero_lag_equals_plain_stream(self):
        m1, env1, rng1 = make_env(seed=21)
        lag_res = run_stream(env1, m1, LEARN, EXPLORE, rng1, 800, checkpoints=(800,),
                             lag=lambda step, gen: 0)
        m2, env2, rng2 = make_env(seed=21)
        plain = run_stream(env2, m2, LEARN, EXPLORE, rng2, 800, checkpoints=(800,))
        assert_same_results(lag_res, plain)

    def test_unit_lag_is_one_update_behind(self):
        # With constant lag one the decisions coincide with the lag-free run;
        # only the final reward is still outstanding.
        m1, env1, rng1 = make_env(seed=22)
        lag_res = run_stream(env1, m1, LEARN, EXPLORE, rng1, 600, lag=1)
        m2, env2, rng2 = make_env(seed=22)
        env2 = RecordingEnvironment(env2)
        plain = run_stream(env2, m2, LEARN, EXPLORE, rng2, 600, checkpoints=range(1, 601))
        state = zero_state(3)
        for bar_prev, obs, pi, eps, greedy in recorded_steps(m2, env2, plain)[:-1]:
            state = sgd_step(state, m2, LEARN, obs, pi)
        assert lag_res.updates == 599
        assert lag_res.pending == 1
        np.testing.assert_allclose(lag_res.bar_beta, state.bar_beta,
                                   rtol=1e-12, atol=1e-14)

    def test_delivered_rewards_leave_the_queue(self):
        m, env, rng = make_env(seed=24)
        res = run_stream(env, m, LEARN, EXPLORE, rng, 2000, lag=3)
        assert res.pending == 3
        assert res.updates == res.steps - res.pending == 1997

    @pytest.mark.parametrize("lag", [2, 5])
    def test_constant_lag_matches_reference(self, lag):
        m, res, steps, lags = _lagged_run("linear", 23 + lag, lag, 500)
        ref = lagged_fold(m, LEARN, EXPLORE, steps, lags)
        assert res.updates == ref.t == 500 - lag
        np.testing.assert_allclose(res.bar_beta, ref.bar_beta,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.hat_beta, ref.hat_beta,
                                   rtol=1e-10, atol=1e-12)

    def test_geometric_lag_matches_reference(self):
        m, res, steps, lags = _lagged_run("logistic", 31, geometric_lag(0.4), 400)
        ref = lagged_fold(m, LEARN, EXPLORE, steps, lags)
        assert res.updates == ref.t
        assert res.updates + res.pending == res.steps
        np.testing.assert_allclose(res.bar_beta, ref.bar_beta,
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("family,lag", [("linear", 3), ("logistic", geometric_lag(0.4))],
                             ids=["lag-3", "geometric"])
    def test_sums_match_stepwise_reference(self, family, lag):
        # Epsilon, the greedy action, the propensity and value inclusion come
        # from the decision clock; the plug-in mean and the AIPW mu_hat from
        # the average in force at the update.
        explore = ExplorationSchedule.decaying(0.3, 0.1, burn_in=20)
        bars = []  # bars[k]: the average after k updates
        step = engine._sgd_step

        def spy(hat, bar, *args):
            bars.append(bar.copy())
            step(hat, bar, *args)

        with mock.patch.object(engine, "_sgd_step", spy):
            m, res, steps, lags = _lagged_run(family, 35, lag, 700, explore, aipw=True,
                                              skip_value_burn_in=True, checkpoints=(700,))
        bars.append(res.bar_beta)
        s_sum, h_sum, val = np.zeros((6, 6)), np.zeros((6, 6)), np.zeros(4)
        stored, updates, value_steps = {}, 0, 0
        for kind, i in fifo_events(lags):
            bar = bars[updates]
            x, a, y = steps[i].x, steps[i].a, steps[i].y
            if kind == "decide":
                eps = exploration_rate(explore, updates + 1)
                stored[i] = (propensity(m, bar, x, eps), eps, decide_optimal(m, bar, x),
                             updates + 1 > explore.burn_in)
                continue
            pi, eps, greedy, include = stored.pop(i)
            blk = slice(3, 6) if a == 1 else slice(0, 3)
            mu = m.mean_from_index(float(x @ bar[blk]))
            gw = (mu - y) * ipw_weight(a, pi)
            xx = np.outer(x, x)
            s_sum[blk, blk] += xx * (gw * gw)
            h_sum[blk, blk] += xx * (m.hessian_scale(mu, y, "exact") * ipw_weight(a, pi))
            if include:
                g_blk = slice(3, 6) if greedy == 1 else slice(0, 3)
                update_value(val, steps[i], greedy, eps,
                             m.mean_from_index(float(x @ bar[g_blk])))
                value_steps += 1
            updates += 1
        cps = res.checkpoints
        assert updates == res.updates == cps.n[-1] > 600
        assert 0 < value_steps == cps.value_t[-1] < updates
        np.testing.assert_array_equal(cps.S[-1], s_sum)
        np.testing.assert_array_equal(cps.H[-1], h_sum)
        assert cps.value[-1].tolist() == val.tolist()

    def test_replay_with_a_lag_matches_reference(self):
        # A dropped entry is no decision step and calls no lag.  At lag 1 the
        # last reward is due at the step the log runs out, and arrives.
        cursor = ReplayCursor(_replay_log(400))
        env, lag = RecordingEnvironment(cursor), RecordingLag(lambda step, gen: 1)
        m = LogisticModel(3)
        res = run_stream(env, m, LEARN, EXPLORE, RngStream(8), 1000, lag=lag)
        assert res.exhausted and cursor.consumed == 400
        assert res.steps == cursor.matched == len(lag.lags) == len(env.steps)
        assert res.updates == res.steps and res.pending == 0
        ref = lagged_fold(m, LEARN, EXPLORE, env.steps, lag.lags, end=res.steps + 1)
        assert ref.t == res.updates
        np.testing.assert_allclose(res.bar_beta, ref.bar_beta, rtol=1e-10, atol=1e-12)

    def test_missing_rewards_never_update(self):
        # From step 4 on every reward is due after the horizon.
        m, env, rng = make_env(seed=44)
        res = run_stream(env, m, LEARN, EXPLORE, rng, 10,
                         lag=lambda step, gen: 0 if step <= 3 else 10)
        assert res.updates == 3
        assert res.pending == 7

    def test_lag_validation(self):
        # A bad lag is rejected at the call, before the environment or the
        # generator is read.
        m, env, rng = make_env(seed=14)
        env = mock.Mock(wraps=env)
        for bad, message in ((-1, r"^lag must be nonnegative$"),
                             (np.int64(-1), r"^lag must be nonnegative$"),
                             (2.0, r"^lag must be a whole number .* got 2\.0$")):
            with pytest.raises(ValueError, match=message):
                run_stream(env, m, LEARN, EXPLORE, rng, 10, lag=bad)
        assert env.mock_calls == []
        assert rng.uniform() == RngStream(14).uniform()
        with pytest.raises(ValueError, match=r"^success probability must lie in \(0, 1\]$"):
            geometric_lag(0.0)

    def test_any_integral_lag_is_a_constant_lag(self):
        def run(lag):
            m, env, rng = make_env(seed=14)
            return run_stream(env, m, LearningSchedule(0.5),
                              ExplorationSchedule.fixed(0.2, burn_in=5), rng, 10, lag=lag)
        assert_same_results(run(np.int64(2)), run(2))
        assert run(2).pending == 2
