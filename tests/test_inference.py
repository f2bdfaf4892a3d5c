import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (ExplorationSchedule, LearningSchedule, LinearModel,
                       LogisticModel, RngStream, SingularHessianError,
                       SyntheticConfig, SyntheticEnvironment, normal_cdf,
                       normal_quantile, run_stream, sandwich_covariance,
                       two_sided_p, wald_report)
from banditsgd import inference
from banditsgd.inference import PluginAccumulators, ipw_weight, value_report_row

import oracle
from oracle import Observation

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


class TestAccumulate:
    def test_unit_feature_curvature_entry(self):
        # At pi = 1/2 the inverse weight is one for either action, so a unit
        # feature puts exactly 1 in the active diagonal entry.
        acc = PluginAccumulators(6)
        m = LinearModel(3)
        obs = Observation([1.0, 0.0, 0.0], 0, 0.0)
        oracle.accumulate(acc, m, BETA0, obs, 0.5)
        assert acc.H_sum[0, 0] == 1.0
        assert acc.n == 1
        assert np.count_nonzero(acc.H_sum) == 1

    def test_single_step_rank_one(self):
        acc = PluginAccumulators(6)
        m = LogisticModel(3)
        oracle.accumulate(acc, m, BETA0, Observation([1.0, 0.5, -0.3], 1, 1.0), 0.8)
        assert np.linalg.matrix_rank(acc.S_sum, tol=1e-12) == 1
        assert np.linalg.matrix_rank(acc.H_sum, tol=1e-12) == 1

    def test_weight_definition(self):
        assert ipw_weight(1, 0.25) == 2.0
        assert ipw_weight(0, 0.25) == pytest.approx(1.0 / 1.5)
        with pytest.raises(ValueError):
            ipw_weight(1, 0.0)

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(3)
        m = LinearModel(3)
        full = PluginAccumulators(6)
        left, right = PluginAccumulators(6), PluginAccumulators(6)
        for i in range(60):
            beta = rng.standard_normal(6)
            obs = Observation(np.append(1.0, rng.standard_normal(2)),
                              int(rng.integers(0, 2)), float(rng.standard_normal()))
            pi = float(rng.uniform(0.1, 0.9))
            oracle.accumulate(full, m, beta, obs, pi)
            oracle.accumulate(left if i % 2 == 0 else right, m, beta, obs, pi)
        merged = oracle.merge_plugin(left.copy(), right)
        assert merged.n == full.n
        np.testing.assert_allclose(merged.S_sum, full.S_sum, rtol=1e-10)
        np.testing.assert_allclose(merged.H_sum, full.H_sum, rtol=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        m = LogisticModel(3)
        acc = PluginAccumulators(6)
        for _ in range(200):
            oracle.accumulate(acc, m, rng.standard_normal(6),
                       Observation(np.append(1.0, rng.standard_normal(2)),
                                   int(rng.integers(0, 2)), float(rng.integers(0, 2))),
                       float(rng.uniform(0.1, 0.9)))
        for mat in (acc.S_sum, acc.H_sum):
            np.testing.assert_allclose(mat, mat.T, atol=1e-12)
            assert np.linalg.eigvalsh(mat).min() >= -1e-10


class TestSandwichCovariance:
    def test_diagonal_closed_form(self):
        acc = PluginAccumulators(4)
        n, c, d = 50, 2.0, 3.0
        acc.n = n
        acc.H_sum = c * n * np.eye(4)
        acc.S_sum = d * n * np.eye(4)
        cov = sandwich_covariance(acc)
        np.testing.assert_allclose(cov, d / (c * c * n) * np.eye(4), rtol=1e-12)

    def test_structure_on_random_accumulators(self):
        rng = np.random.default_rng(11)
        m = LinearModel(2)
        acc = PluginAccumulators(4)
        for _ in range(300):
            oracle.accumulate(acc, m, rng.standard_normal(4),
                       Observation(np.append(1.0, rng.standard_normal(1)),
                                   int(rng.integers(0, 2)), float(rng.standard_normal())),
                       float(rng.uniform(0.2, 0.8)))
        cov = sandwich_covariance(acc)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_singular_raises_with_condition(self):
        acc = PluginAccumulators(6)
        oracle.accumulate(acc, LinearModel(3), BETA0,
                   Observation([1.0, 0.2, 0.1], 1, 0.5), 0.5)
        with pytest.raises(SingularHessianError) as err:
            sandwich_covariance(acc)
        assert err.value.condition > 1e12 or math.isinf(err.value.condition)

    def test_ridge_fallback_recovers(self):
        acc = PluginAccumulators(6)
        m = LinearModel(3)
        rng = np.random.default_rng(13)
        for _ in range(4):  # rank-deficient: only action 1 observed
            oracle.accumulate(acc, m, BETA0,
                       Observation(np.append(1.0, rng.standard_normal(2)), 1, 0.3), 0.6)
        cov = sandwich_covariance(acc, ridge=True)
        assert np.isfinite(cov).all()

    def test_negative_ridged_variance_raises(self):
        # One step leaves the curvature rank one; the ridged inverse then
        # scales rounding errors into a negative diagonal entry.
        m = LinearModel(3)
        rng = RngStream(1)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0), rng)
        res = run_stream(env, m, LearningSchedule(0.5, 0.501),
                         ExplorationSchedule.fixed(0.2), rng, 1)
        with mock.patch.object(inference, "_VARIANCE_TOL", math.inf):
            assert np.diag(sandwich_covariance(res.plugin, ridge=True)).min() < -1e-10
        with pytest.raises(SingularHessianError):
            sandwich_covariance(res.plugin, ridge=True)

    def test_error_after_the_ridge_says_so(self):
        # The horizon-1 run above: the unridged curvature is rank one, so its
        # condition is infinite and the advice is to enable the ridge.
        m = LinearModel(3)
        rng = RngStream(1)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0), rng)
        res = run_stream(env, m, LearningSchedule(0.5, 0.501),
                         ExplorationSchedule.fixed(0.2), rng, 1)
        with pytest.raises(SingularHessianError, match="enable the ridge") as plain:
            sandwich_covariance(res.plugin)
        assert math.isinf(plain.value.condition)
        with pytest.raises(SingularHessianError, match="ridge fallback was applied") as ridged:
            sandwich_covariance(res.plugin, ridge=True)
        assert "enable the ridge" not in str(ridged.value)
        # Ridging a rank-one trace-T matrix with 1e-8 * T / 6 on the diagonal
        # leaves eigenvalues T + lam and lam: condition 1 + 6e8.
        assert ridged.value.condition == pytest.approx(1.0 + 6.0 / 1e-8, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_raises(self):
        # alpha=50 overflows the linear iterate; the gradient sums turn NaN
        # while the curvature, which does not depend on it, stays finite.
        m = LinearModel(3)
        rng = RngStream(321)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=0.01), rng)
        res = run_stream(env, m, LearningSchedule(50.0, 0.501),
                         ExplorationSchedule.fixed(0.2, burn_in=50), rng, 2000)
        assert np.isfinite(res.plugin.H_sum).all()
        with pytest.raises(SingularHessianError):
            sandwich_covariance(res.plugin)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_names_its_non_finite_sums(self):
        # The run of test_diverged_run_raises: its curvature is well
        # conditioned, so the error names the NaN gradient sums instead.
        m = LinearModel(3)
        rng = RngStream(321)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=0.01), rng)
        res = run_stream(env, m, LearningSchedule(50.0, 0.501),
                         ExplorationSchedule.fixed(0.2, burn_in=50), rng, 2000)
        assert not np.isfinite(res.plugin.S_sum).all()
        for ridge in (False, True):
            with pytest.raises(SingularHessianError, match="plug-in sums are not finite") as err:
                sandwich_covariance(res.plugin, ridge=ridge)
            assert "smaller learning-rate constant alpha" in str(err.value)
            assert "numerically singular" not in str(err.value)

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError):
            sandwich_covariance(PluginAccumulators(4))


def _reference_sandwich(acc, ridge):
    """The one-matrix sandwich as first written, kept as the reference: the
    covariance and whether the ridge was applied, or the error it raises."""
    def condition(lam):
        lam_abs = np.abs(lam)
        return math.inf if lam_abs.min() == 0.0 else float(lam_abs.max() / lam_abs.min())
    h = acc.H_sum / acc.n
    lam, q = np.linalg.eigh(h)
    cond, ridged = condition(lam), False
    if lam.min() <= 0.0 or cond > 1e12:
        if not ridge:
            return SingularHessianError(cond)
        h = h + (1e-8 * np.trace(h) / acc.dim) * np.eye(acc.dim)
        lam, q = np.linalg.eigh(h)
        cond, ridged = condition(lam), True
        if lam.min() <= 0.0:
            return SingularHessianError(cond, ridged)
    s = acc.S_sum / acc.n
    core = (q.T @ s @ q) / np.outer(lam, lam)
    cov = (q @ core @ q.T) / acc.n
    cov = 0.5 * (cov + cov.T)
    if np.diag(cov).min() < -1e-10:
        return SingularHessianError(cond, ridged)
    return cov, ridged


def _curvature(gen, kind, dim):
    """A symmetric curvature sum of the given kind."""
    a = gen.standard_normal((dim, dim))
    if kind == "full":
        return a @ a.T + 0.1 * np.eye(dim)
    if kind == "rank_deficient":
        b = gen.standard_normal((dim, dim - 1))
        return b @ b.T
    if kind == "ill_conditioned":
        q, _ = np.linalg.qr(a)
        # Condition numbers on both sides of the 1e12 limit.
        return (q * np.geomspace(1.0, 10.0 ** -gen.uniform(10.0, 14.0), dim)) @ q.T
    if kind == "indefinite":
        return a @ a.T - 0.5 * np.trace(a @ a.T) / dim * np.eye(dim)
    return np.zeros((dim, dim))


@st.composite
def accumulator_stacks(draw):
    dim = 2 * draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = []
    for kind in draw(st.lists(st.sampled_from(["full", "full", "rank_deficient",
                                               "ill_conditioned", "indefinite", "zero"]),
                              min_size=1, max_size=7)):
        acc = PluginAccumulators(dim)
        acc.n = draw(st.integers(1, 10_000))
        g = gen.standard_normal((dim, dim + 1))
        acc.S_sum = (g @ g.T) * acc.n
        acc.H_sum = _curvature(gen, kind, dim) * acc.n
        stack.append(acc)
    return stack


def _same_outcome(got, want):
    """Bit-for-bit equal covariances and ridge flags, or equal errors."""
    if isinstance(want, SingularHessianError):
        assert isinstance(got, SingularHessianError)
        assert str(got) == str(want)
        assert np.float64(got.condition).tobytes() == np.float64(want.condition).tobytes()
    else:
        assert not isinstance(got, SingularHessianError)
        assert got[1] == want[1]
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()


def _outcomes(stack, ridge):
    """``_sandwiches``' columns as one outcome per accumulator: the covariance
    and whether the ridge was applied, or the error its one-matrix call
    raises.  Rows without a covariance must be NaN."""
    cov, ridged, cond, ok = inference._sandwiches(stack, ridge=ridge)
    assert np.isnan(cov[~ok]).all()
    return [(c, bool(r)) if o else SingularHessianError(float(k), bool(r))
            for c, r, k, o in zip(cov, ridged, cond, ok)]


@settings(max_examples=60, deadline=None)
@given(stack=accumulator_stacks(), ridge=st.booleans())
def test_stacked_sandwiches_equal_one_matrix_calls(stack, ridge):
    stacked = _outcomes(stack, ridge)
    assert len(stacked) == len(stack)
    for acc, got in zip(stack, stacked):
        (single,) = _outcomes([acc], ridge)
        _same_outcome(got, single)
        _same_outcome(got, _reference_sandwich(acc, ridge))
        try:
            public = sandwich_covariance(acc, ridge=ridge)
        except SingularHessianError as exc:
            _same_outcome(exc, got)
            continue
        assert public.tobytes() == got[0].tobytes()
        cov = got[0]
        np.testing.assert_array_equal(cov, cov.T)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -1e-8 * np.abs(eig).max()


class TestConvergedRunMagnitudes:
    def test_parameter_se_matches_reported_scale(self):
        # One converged linear run at horizon 1e4 with eps = 0.2: the reported
        # coordinate standard errors sit in the low-0.003 range (published
        # interval lengths 0.009-0.011 imply SE about 0.0023-0.0028).
        m = LinearModel(3)
        rng = RngStream(77)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=0.01), rng)
        res = run_stream(env, m, LearningSchedule(0.5, 0.501),
                         ExplorationSchedule.fixed(0.2), rng, 10_000)
        se = np.sqrt(np.diag(sandwich_covariance(res.plugin)))
        assert (se > 0.0015).all() and (se < 0.004).all()

    def test_curvature_estimate_near_half_identity(self):
        # Weighted curvature averages to 1/2 I (intercept-plus-standard-normal
        # features make the feature second moment the identity).
        m = LinearModel(3)
        rng = RngStream(78)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=0.01), rng)
        res = run_stream(env, m, LearningSchedule(0.5, 0.501),
                         ExplorationSchedule.fixed(0.2), rng, 20_000)
        np.testing.assert_allclose(oracle.h_hat(res.plugin), 0.5 * np.eye(6), atol=0.05)

    def test_gradient_second_moment_matches_simulated_target(self):
        # At 1e5 steps the running second moment of the weighted gradients is
        # within 10% of its population target, computed here by simulating
        # features and weighting each action's residual covariance by the
        # limiting propensity of the true greedy rule.
        sigma2 = 0.01
        m = LinearModel(3)
        rng = RngStream(79)
        env = SyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=sigma2), rng)
        res = run_stream(env, m, LearningSchedule(0.5, 0.501),
                         ExplorationSchedule.fixed(0.2), rng, 100_000,
                         collect_value=False)
        s_hat = oracle.s_hat(res.plugin)

        gen = np.random.default_rng(80)
        n = 1_000_000
        x = np.hstack([np.ones((n, 1)), gen.standard_normal((n, 2))])
        greedy = x @ BETA0[3:] > x @ BETA0[:3]
        pi_star = np.where(greedy, 0.9, 0.1)
        s_oracle = np.zeros((6, 6))
        s_oracle[:3, :3] = 0.25 * sigma2 * (x / (1.0 - pi_star)[:, None]).T @ x / n
        s_oracle[3:, 3:] = 0.25 * sigma2 * (x / pi_star[:, None]).T @ x / n
        scale = np.abs(np.diag(s_oracle)).max()
        np.testing.assert_allclose(s_hat, s_oracle, rtol=0.10, atol=0.10 * scale)


class TestWaldReport:
    def test_standard_normal_interval(self):
        report = wald_report(np.zeros(2), np.eye(2), level=0.95)
        row = report.rows[0]
        assert row.ci_lo == pytest.approx(-1.959963984540054, rel=1e-9)
        assert row.ci_hi == pytest.approx(1.959963984540054, rel=1e-9)
        assert row.t_value == 0.0 and row.p_value == pytest.approx(1.0)

    def test_reported_click_model_row(self):
        # Reproduce one published row: estimate -2.8226 with SE 0.0810.
        report = wald_report(np.array([-2.8226, 0.0]),
                             np.diag([0.0810 ** 2, 1.0]), level=0.95)
        row = report.rows[0]
        assert row.ci_lo == pytest.approx(-2.9814, abs=1e-3)
        assert row.ci_hi == pytest.approx(-2.6637, abs=1e-3)
        assert row.t_value == pytest.approx(-34.83, abs=0.02)
        assert row.p_value < 1e-100

    def test_level_nesting(self):
        est, cov = np.array([1.0]), np.array([[0.25]])
        narrow = wald_report(est, cov, level=0.95).rows[0]
        wide = wald_report(est, cov, level=0.99).rows[0]
        assert wide.ci_lo < narrow.ci_lo < narrow.ci_hi < wide.ci_hi

    def test_zero_se_conventions(self):
        report = wald_report(np.array([0.0, 1.0]), np.zeros((2, 2)))
        assert report.rows[0].t_value == 0.0 and report.rows[0].p_value == 1.0
        assert report.rows[1].t_value == math.inf and report.rows[1].p_value == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            wald_report(np.zeros(1), np.array([[-1e-6]]))
        # tiny negative from rounding is clamped instead
        report = wald_report(np.zeros(1), np.array([[-1e-12]]))
        assert report.rows[0].se == 0.0

    def test_row_names_follow_block_layout(self):
        report = wald_report(np.zeros(4), np.eye(4))
        assert [r.name for r in report.rows] == ["beta0_1", "beta0_2", "beta1_1", "beta1_2"]

    def test_custom_null(self):
        report = wald_report(np.array([2.0]), np.array([[1.0]]), null=np.array([2.0]))
        assert report.rows[0].t_value == 0.0

    @pytest.mark.parametrize("null", [np.ones(1), np.ones((4, 4)), np.ones(2)],
                             ids=["length-1", "4x4", "length-2"])
    def test_null_of_another_shape_rejected(self, null):
        # Not broadcast to every coordinate, nor read off its first row.
        with pytest.raises(ValueError) as err:
            wald_report(np.zeros(4), np.eye(4), null=null)
        assert str(err.value) == f"null shape {null.shape} does not match estimate shape (4,)"

    def test_value_row_has_no_t_or_p(self):
        row = value_report_row(1.5, 0.1, 0.95)
        assert row.name == "V_opt"
        assert row.t_value is None and row.p_value is None
        assert row.ci_lo < 1.5 < row.ci_hi


class TestNormalFunctions:
    def test_cdf_reference_points(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-6)

    def test_quantile_roundtrip(self):
        for p in np.concatenate([np.linspace(1e-6, 1 - 1e-6, 101),
                                 [1e-10, 1e-300, 1 - 1e-12]]):
            q = normal_quantile(float(p))
            assert normal_cdf(q) == pytest.approx(p, rel=1e-8, abs=1e-300)

    def test_quantile_symmetry(self):
        for p in (0.001, 0.025, 0.2, 0.45):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), rel=1e-12)

    def test_quantile_bounds(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_two_sided_p_identity(self):
        for t in (0.0, 0.5, 1.96, 5.0, -3.0):
            assert two_sided_p(t) == pytest.approx(2.0 * (1.0 - normal_cdf(abs(t))), abs=1e-15)
