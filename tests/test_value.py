import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (LinearModel, LogisticModel, RngStream, normal_quantile,
                       oracle_value, raw_value_variance, value_estimate,
                       value_standard_error, value_variance)
from banditsgd.engine import Checkpoints
from banditsgd.experiments import ExperimentConfig, _checkpoint_reports, _launch, _mc_batch
from banditsgd.value import ValueAccumulator, _value_columns

from oracle import Observation, merge_value, update_value

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


class TestUpdateValue:
    def test_single_consistent_step(self):
        acc = ValueAccumulator()
        update_value(acc, Observation([1.0], 1, 2.0), decided_optimal=1, eps_t=0.2)
        assert value_estimate(acc) == pytest.approx(2.0 / 0.9)

    def test_inconsistent_step_contributes_nothing(self):
        acc = ValueAccumulator()
        update_value(acc, Observation([1.0], 0, 5.0), decided_optimal=1, eps_t=0.2)
        assert acc.t == 1 and acc.sum_v == 0.0 and acc.sum_v2 == 0.0

    def test_burn_in_step_doubles_reward(self):
        acc = ValueAccumulator()
        update_value(acc, Observation([1.0], 1, 3.0), decided_optimal=1, eps_t=1.0)
        assert acc.sum_v == pytest.approx(6.0)

    def test_eps_bounds(self):
        acc = ValueAccumulator()
        for eps in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                update_value(acc, Observation([1.0], 1, 1.0), 1, eps)

    def test_estimate_closed_form(self):
        acc = ValueAccumulator()
        for _ in range(40):
            update_value(acc, Observation([1.0], 1, 1.0), 1, 0.3)
        assert value_estimate(acc) == pytest.approx(1.0 / 0.85)

    def test_empty_accumulator_errors(self):
        acc = ValueAccumulator()
        with pytest.raises(ValueError):
            value_estimate(acc)
        with pytest.raises(ValueError):
            value_variance(acc, 0.2)

    def test_merge(self):
        a, b = ValueAccumulator(), ValueAccumulator()
        update_value(a, Observation([1.0], 1, 2.0), 1, 0.2)
        update_value(b, Observation([1.0], 0, 1.0), 0, 0.4)
        merge_value(a, b)
        assert a.t == 2
        assert a.sum_v == pytest.approx(2.0 / 0.9 + 1.0 / 0.8)


class TestValueVariance:
    def test_degenerate_reward_formula(self):
        c, eps = 2.5, 0.3
        acc = ValueAccumulator()
        for _ in range(50):
            update_value(acc, Observation([1.0], 1, c), 1, eps)
        pi_c = 1.0 - eps / 2.0
        expected = (2.0 / (2.0 - eps)) * c * c / pi_c - (c / pi_c) ** 2
        assert raw_value_variance(acc, eps) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0, abs=1e-12)  # 2/(2-eps) == 1/pi_c
        assert value_variance(acc, eps) >= 0.0

    def test_vanishing_exploration_limit(self):
        acc = ValueAccumulator()
        for _ in range(20):
            update_value(acc, Observation([1.0], 1, 2.0), 1, 1e-9)
        assert value_variance(acc, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_clamp_flags_negative_raw(self):
        acc = ValueAccumulator()
        update_value(acc, Observation([1.0], 1, 1.0), 1, 0.2)
        # evaluating the variance at a smaller current rate can go negative
        assert raw_value_variance(acc, 0.01) < 0.0
        assert value_variance(acc, 0.01) == 0.0
        # A raw variance of -0.0 (2 * -0.0 / 5 - 0.0) or below zero reads +0.0.
        for sum_v2, raw in ((-0.0, "-0.0"), (-1.0, "-0.4")):
            acc = ValueAccumulator()
            acc.sum_v2, acc.t = sum_v2, 5
            assert repr(raw_value_variance(acc, 1.0)) == raw
            assert repr(value_variance(acc, 1.0)) == "0.0"

    def test_nan_sums_give_nan(self):
        acc = ValueAccumulator()
        acc.sum_v = acc.sum_v2 = math.nan
        acc.t = 5
        assert math.isnan(value_variance(acc, 0.2))

    def test_standard_error_scaling(self):
        acc = ValueAccumulator()
        rng = np.random.default_rng(1)
        for _ in range(400):
            y = float(rng.normal(1.0, 0.5))
            consistent = int(rng.random() < 0.9)
            update_value(acc, Observation([1.0], consistent, y), 1, 0.2)
        se = value_standard_error(acc, 0.2)
        assert se == pytest.approx(math.sqrt(value_variance(acc, 0.2) / acc.t))


def _same(a: float, b: float) -> bool:
    """Equal bits, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


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
    steps = np.arange(1, len(rows) + 1)
    cps = Checkpoints(t=steps, eps=eps, n=steps, value_t=t, bar_beta=np.zeros((len(rows), 2)),
                      S=None, H=None, value=sums)
    reports = _checkpoint_reports(cps, ExperimentConfig(p=1, beta0=(0.0, 0.0), aipw=True))
    for j, name in enumerate(("V_opt", "V_opt_aipw")):
        aipw = j == 1
        with np.errstate(all="ignore"):
            columns = _value_columns(sums[:, 2 * j], sums[:, 2 * j + 1], t, eps, aipw)
        for k, (s_v, s_v2, s_a, s_a2, t_k, eps_k) in enumerate(rows):
            row = reports[k + 1].row(name)
            if t_k == 0:
                assert math.isnan(row.estimate) and math.isnan(row.se)
                assert row.flag == "no_value_steps"
                continue
            acc = ValueAccumulator(aipw=True)
            acc.sum_v, acc.sum_v2, acc.sum_aipw, acc.sum_aipw2, acc.t = s_v, s_v2, s_a, s_a2, t_k
            raw = raw_value_variance(acc, eps_k, aipw)
            want = (value_estimate(acc, aipw), raw, value_variance(acc, eps_k, aipw))
            assert all(map(_same, (c[k] for c in columns), want))
            # The report row is the value Wald record of the clamped variance.
            se = value_standard_error(acc, eps_k, aipw)
            assert _same(row.estimate, want[0]) and _same(row.se, se)
            z = normal_quantile(0.975)
            assert _same(row.ci_lo, want[0] - z * se) and _same(row.ci_hi, want[0] + z * se)
            assert row.t_value is None and row.p_value is None
            assert row.flag == ("experimental" if aipw else
                                "variance_clamped" if raw < 0.0 else "")


class TestAipwAccumulation:
    def test_requires_model_mean(self):
        acc = ValueAccumulator(aipw=True)
        with pytest.raises(ValueError):
            update_value(acc, Observation([1.0], 1, 1.0), 1, 0.2)

    def test_correction_cancels_for_exact_model(self):
        # With mu_hat equal to the realized conditional mean of C*y/pi_c the
        # augmented terms are centered; with consistent steps and y == mu_hat
        # the estimate reduces to mu_hat exactly.
        acc = ValueAccumulator(aipw=True)
        for _ in range(10):
            update_value(acc, Observation([1.0], 1, 0.7), 1, 0.2, mu_hat=0.7)
        assert value_estimate(acc, aipw=True) == pytest.approx(0.7, rel=1e-12)

    def test_disabled_accumulator_rejects_aipw_queries(self):
        acc = ValueAccumulator()
        update_value(acc, Observation([1.0], 1, 1.0), 1, 0.2)
        with pytest.raises(ValueError):
            value_estimate(acc, aipw=True)

    def test_matches_ipw_in_expectation(self):
        # Replicated linear runs: the augmented and plain estimates agree on
        # average (paired comparison across 200 seeded replications).
        config = ExperimentConfig(model="linear", horizon=10_000, reps=200,
                                  seed=909, aipw=True, checkpoints=(10_000,),
                                  workers=2)
        (results,) = _launch(partial(_mc_batch, collect_inference=False), [config])
        diffs = []
        for r in results:
            report = r.reports[10_000]
            diffs.append(report.row("V_opt_aipw").estimate - report.row("V_opt").estimate)
        diffs = np.asarray(diffs)
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
