import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (ExperimentConfig, LinearModel, LogisticModel, RngStream,
                       checkpoint_reports, oracle_value)
from banditsgd.engine import Checkpoints
from banditsgd.experiments import _launch, _mc_batch
from banditsgd.inference import normal_quantile
from banditsgd.value import _value_columns

from oracle import Observation, report_row, update_value

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


def _checkpoints(sums, t, eps):
    """A record of checkpoints 1..K with value sums ``sums`` (K, 2 or 4) over
    ``t`` (K,) steps at exploration rates ``eps`` (K,), and no parameter sums."""
    k = len(sums)
    return Checkpoints(t=np.arange(1, k + 1), eps=np.asarray(eps, dtype=float),
                       n=np.arange(1, k + 1), value_t=np.asarray(t),
                       bar_beta=np.zeros((k, 2)), S=None, H=None,
                       value=np.asarray(sums, dtype=float))


def _row(sums, t, eps, name="V_opt"):
    """The report row ``name`` of one checkpoint with value sums ``sums``."""
    return report_row(checkpoint_reports(_checkpoints([sums], [t], [eps])), 1, name)


def _raw(sums, t, eps, aipw=False):
    """The plug-in variance of one checkpoint's sums before clamping."""
    j = 2 if aipw else 0
    return float(_value_columns(*(np.array([v]) for v in sums[j:j + 2]), np.array([t]),
                                np.array([eps]), aipw)[1][0])


class TestUpdateValue:
    def test_single_consistent_step(self):
        sums = update_value(np.zeros(2), Observation([1.0], 1, 2.0), decided_optimal=1,
                            eps_t=0.2)
        assert _row(sums, 1, 0.2).estimate == pytest.approx(2.0 / 0.9)

    def test_inconsistent_step_contributes_nothing(self):
        sums = update_value(np.zeros(2), Observation([1.0], 0, 5.0), decided_optimal=1,
                            eps_t=0.2)
        assert sums.tolist() == [0.0, 0.0]
        assert _row(sums, 1, 0.2).estimate == 0.0

    def test_burn_in_step_doubles_reward(self):
        sums = update_value(np.zeros(2), Observation([1.0], 1, 3.0), decided_optimal=1,
                            eps_t=1.0)
        assert sums[0] == pytest.approx(6.0)

    def test_eps_bounds(self):
        for eps in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                update_value(np.zeros(2), Observation([1.0], 1, 1.0), 1, eps)

    def test_estimate_closed_form(self):
        sums = np.zeros(2)
        for _ in range(40):
            update_value(sums, Observation([1.0], 1, 1.0), 1, 0.3)
        assert _row(sums, 40, 0.3).estimate == pytest.approx(1.0 / 0.85)

    def test_empty_sums_flag_no_value_steps(self):
        row = _row(np.zeros(2), 0, 0.2)
        assert math.isnan(row.estimate) and math.isnan(row.se)
        assert row.flag == "no_value_steps"

    def test_merge(self):
        a = update_value(np.zeros(2), Observation([1.0], 1, 2.0), 1, 0.2)
        b = update_value(np.zeros(2), Observation([1.0], 0, 1.0), 0, 0.4)
        assert (a + b)[0] == pytest.approx(2.0 / 0.9 + 1.0 / 0.8)
        assert _row(a + b, 2, 0.4).estimate == pytest.approx((2.0 / 0.9 + 1.0 / 0.8) / 2)


class TestValueVariance:
    def test_degenerate_reward_formula(self):
        c, eps = 2.5, 0.3
        sums = np.zeros(2)
        for _ in range(50):
            update_value(sums, Observation([1.0], 1, c), 1, eps)
        pi_c = 1.0 - eps / 2.0
        expected = (2.0 / (2.0 - eps)) * c * c / pi_c - (c / pi_c) ** 2
        assert _raw(sums, 50, eps) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0, abs=1e-12)  # 2/(2-eps) == 1/pi_c
        assert _row(sums, 50, eps).se >= 0.0

    def test_vanishing_exploration_limit(self):
        sums = np.zeros(2)
        for _ in range(20):
            update_value(sums, Observation([1.0], 1, 2.0), 1, 1e-9)
        assert _row(sums, 20, 1e-9).se ** 2 * 20 == pytest.approx(0.0, abs=1e-6)

    def test_clamp_flags_negative_raw(self):
        sums = update_value(np.zeros(2), Observation([1.0], 1, 1.0), 1, 0.2)
        # evaluating the variance at a smaller current rate can go negative
        assert _raw(sums, 1, 0.01) < 0.0
        row = _row(sums, 1, 0.01)
        assert repr(row.se) == "0.0" and row.flag == "variance_clamped"
        # A raw variance of -0.0 (2 * -0.0 / 5 - 0.0) or below zero gives a
        # standard error of +0.0; only the one below zero is flagged.
        for sum_v2, raw, flag in ((-0.0, "-0.0", ""), (-1.0, "-0.4", "variance_clamped")):
            assert repr(_raw([0.0, sum_v2], 5, 1.0)) == raw
            row = _row([0.0, sum_v2], 5, 1.0)
            assert repr(row.se) == "0.0" and row.flag == flag

    def test_nan_sums_give_nan(self):
        row = _row([math.nan, math.nan], 5, 0.2)
        assert math.isnan(row.estimate) and math.isnan(row.se)

    def test_standard_error_scaling(self):
        sums = np.zeros(2)
        rng = np.random.default_rng(1)
        for _ in range(400):
            y = float(rng.normal(1.0, 0.5))
            consistent = int(rng.random() < 0.9)
            update_value(sums, Observation([1.0], consistent, y), 1, 0.2)
        raw = _raw(sums, 400, 0.2)
        assert raw > 0.0
        assert _row(sums, 400, 0.2).se == pytest.approx(math.sqrt(raw / 400))


def _same(a: float, b: float) -> bool:
    """Equal bits, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _scalar_value(total: float, total_sq: float, t: int, eps: float, aipw: bool):
    """One checkpoint's value estimate, raw and clamped plug-in variance and
    standard error from one estimator's sums, in Python float arithmetic."""
    mean = total / t
    raw = (1.0 if aipw else 2.0 / (2.0 - eps)) * total_sq / t - mean * mean
    var = 0.0 if raw <= 0.0 else raw
    return mean, raw, var, math.sqrt(var / t)


# Sums of every sign and size, NaN, +-0.0 and subnormals included; each step
# count also comes as 0, a checkpoint without value steps.
_checkpoint_sums = st.tuples(
    *[st.one_of(st.floats(allow_infinity=False), st.sampled_from([0.0, -0.0, math.nan]))] * 4,
    st.integers(0, 10 ** 9), st.floats(0.0, 1.0, exclude_min=True))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_checkpoint_sums, min_size=1, max_size=8))
def test_value_columns_and_report_rows_equal_the_scalar_functions(rows):
    sums = np.array([row[:4] for row in rows])
    t = np.array([row[4] for row in rows])
    eps = np.array([row[5] for row in rows])
    reports = checkpoint_reports(_checkpoints(sums, t, eps))
    for j, name in enumerate(("V_opt", "V_opt_aipw")):
        aipw = j == 1
        with np.errstate(all="ignore"):
            columns = _value_columns(sums[:, 2 * j], sums[:, 2 * j + 1], t, eps, aipw)
        for k, (*row_sums, t_k, eps_k) in enumerate(rows):
            row = report_row(reports, k + 1, name)
            if t_k == 0:
                assert math.isnan(row.estimate) and math.isnan(row.se)
                assert row.flag == "no_value_steps"
                continue
            est, raw, _, se = _scalar_value(*row_sums[2 * j:2 * j + 2], t_k, eps_k, aipw)
            assert _same(columns[0][k], est) and _same(columns[1][k], raw)
            # The report row is the value Wald record of the clamped variance,
            # whose standard error is never -0.0.
            assert _same(row.estimate, est) and _same(row.se, se)
            assert math.isnan(row.se) or math.copysign(1.0, row.se) == 1.0
            z = normal_quantile(0.975)
            assert _same(row.ci_lo, est - z * se) and _same(row.ci_hi, est + z * se)
            assert row.t_value is None and row.p_value is None
            assert row.flag == ("experimental" if aipw else
                                "variance_clamped" if raw < 0.0 else "")


class TestAipwAccumulation:
    def test_requires_model_mean(self):
        with pytest.raises(ValueError):
            update_value(np.zeros(4), Observation([1.0], 1, 1.0), 1, 0.2)

    def test_correction_cancels_for_exact_model(self):
        # With mu_hat equal to the realized conditional mean of C*y/pi_c the
        # augmented terms are centered; with consistent steps and y == mu_hat
        # the estimate reduces to mu_hat exactly.
        sums = np.zeros(4)
        for _ in range(10):
            update_value(sums, Observation([1.0], 1, 0.7), 1, 0.2, mu_hat=0.7)
        assert _row(sums, 10, 0.2, "V_opt_aipw").estimate == pytest.approx(0.7, rel=1e-12)

    def test_disabled_accumulator_rejects_aipw_queries(self):
        # Sums without the AIPW columns give no V_opt_aipw row.
        sums = update_value(np.zeros(2), Observation([1.0], 1, 1.0), 1, 0.2)
        with pytest.raises(KeyError):
            _row(sums, 1, 0.2, "V_opt_aipw")

    def test_matches_ipw_in_expectation(self):
        # Replicated linear runs: the augmented and plain estimates agree on
        # average (paired comparison across 200 seeded replications).
        config = ExperimentConfig(model="linear", horizon=10_000, reps=200,
                                  seed=909, aipw=True, checkpoints=(10_000,),
                                  workers=2)
        results = _launch(partial(_mc_batch, collect_inference=False), config)
        assert results[0].reports.names == ["V_opt", "V_opt_aipw"]
        diffs = np.array([r.reports.estimate[0, 1] - r.reports.estimate[0, 0] for r in results])
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) < 4.0 * se


class TestOracleValue:
    def test_constant_margin_model(self):
        # Intercept-only features: value of the greedy rule is exactly the
        # larger intercept.
        m = LinearModel(1)
        v, se = oracle_value(m, np.array([0.4, 1.1]), 10_000, RngStream(5))
        assert v == pytest.approx(1.1, rel=1e-12)
        assert se < 1e-9

    def test_reproducible_across_seeds(self):
        m = LogisticModel(3)
        v1, se1 = oracle_value(m, BETA0, 300_000, RngStream(1))
        v2, se2 = oracle_value(m, BETA0, 300_000, RngStream(2))
        assert abs(v1 - v2) < 3.0 * math.hypot(se1, se2)

    @pytest.mark.parametrize("model,scale,want", [
        (LinearModel(3), 1.0, (1.0882406948373715, 0.0017495172102303287)),
        (LogisticModel(3), 1.0, (0.7384389404640069, 0.00031015412064372064)),
        (LogisticModel(3), 400.0, (0.9989735302906306, 0.00011807287902864683)),
    ])
    def test_pinned_values(self, model, scale, want):
        # Two feature batches; the values are those of the formula that
        # linked both actions' indexes before choosing.
        assert oracle_value(model, BETA0 * scale, 70_000, RngStream(12)) == want

    def test_expected_reward_agrees_with_noisy_draws(self):
        # Averaging the modeled mean equals averaging noisy rewards up to
        # Monte Carlo error; the noisy version is the independent check.
        m = LinearModel(3)
        n = 200_000
        v, se = oracle_value(m, BETA0, n, RngStream(7))
        gen = np.random.default_rng(123)
        x = np.hstack([np.ones((n, 1)), gen.standard_normal((n, 2))])
        u0, u1 = x @ BETA0[:3], x @ BETA0[3:]
        noisy = np.where(u1 > u0, u1, u0) + 0.2 * gen.standard_normal(n)
        se_noisy = noisy.std(ddof=1) / math.sqrt(n)
        assert abs(v - noisy.mean()) < 4.0 * math.hypot(se, se_noisy)

    def test_consistency_indicator_mean_recovers_rule_value(self):
        # For a frozen rule, the weighted consistent rewards average to the
        # rule's value.
        m = LogisticModel(3)
        gen = np.random.default_rng(31)
        frozen = np.array([0.1, 0.4, -0.6, 0.2, -0.3, 0.5])
        eps = 0.3
        n = 200_000
        x = np.hstack([np.ones((n, 1)), gen.standard_normal((n, 2))])
        d_hat = (x @ frozen[3:] > x @ frozen[:3]).astype(int)
        pi = np.where(d_hat == 1, 1.0 - eps / 2.0, eps / 2.0)
        a = (gen.random(n) < pi).astype(int)
        u_true = np.where(a == 1, x @ BETA0[3:], x @ BETA0[:3])
        y = (gen.random(n) < m.mean_from_index_array(u_true)).astype(float)
        c = (a == d_hat).astype(float)
        ipw_terms = c * y / (1.0 - eps / 2.0)
        # direct Monte Carlo of the frozen rule's value on fresh features
        x2 = np.hstack([np.ones((n, 1)), gen.standard_normal((n, 2))])
        d2 = (x2 @ frozen[3:] > x2 @ frozen[:3])
        mu2 = np.where(d2, m.mean_from_index_array(x2 @ BETA0[3:]),
                       m.mean_from_index_array(x2 @ BETA0[:3]))
        se = math.hypot(ipw_terms.std(ddof=1) / math.sqrt(n),
                        mu2.std(ddof=1) / math.sqrt(n))
        assert abs(ipw_terms.mean() - mu2.mean()) < 4.0 * se

    def test_draw_count_validation(self):
        with pytest.raises(ValueError):
            oracle_value(LinearModel(1), np.array([0.0, 1.0]), 0, RngStream(0))
