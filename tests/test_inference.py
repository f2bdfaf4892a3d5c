import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (ExplorationSchedule, LaggedSyntheticEnvironment, LearningSchedule,
                       LinearModel, LogisticModel, RngStream, SyntheticConfig,
                       SyntheticEnvironment, checkpoint_reports, run_stream, run_stream_lagged)
from banditsgd import inference
from banditsgd.engine import Checkpoints
from banditsgd.inference import ipw_weight, normal_cdf, normal_quantile, two_sided_p
from banditsgd.models import make_model

import oracle
from oracle import Observation, report_rows

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


def _zeros(dim):
    """Empty plug-in sums ``S`` and ``H``."""
    return np.zeros((dim, dim)), np.zeros((dim, dim))


def _sandwich(S, H, n, ridge=False):
    """The one-row ``_sandwiches`` columns of one pair of sums over ``n`` steps."""
    cov, ridged, cond, ok = inference._sandwiches(S[None], H[None], np.array([n]), ridge=ridge)
    return cov[0], bool(ridged[0]), float(cond[0]), bool(ok[0])


def _final_run(horizon, alpha=0.5, seed=1, **kw):
    """A linear run with one checkpoint, at its final step."""
    m = LinearModel(3)
    rng = RngStream(seed)
    env = SyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=0.01), rng)
    return run_stream(env, m, LearningSchedule(alpha, 0.501), ExplorationSchedule.fixed(0.2),
                      rng, horizon, checkpoints=(horizon,), **kw)


class TestAccumulate:
    def test_unit_feature_curvature_entry(self):
        # At pi = 1/2 the inverse weight is one for either action, so a unit
        # feature puts exactly 1 in the active diagonal entry.
        S, H = _zeros(6)
        obs = Observation([1.0, 0.0, 0.0], 0, 0.0)
        oracle.accumulate(S, H, LinearModel(3), BETA0, obs, 0.5)
        assert H[0, 0] == 1.0
        assert np.count_nonzero(H) == 1

    def test_single_step_rank_one(self):
        S, H = _zeros(6)
        oracle.accumulate(S, H, LogisticModel(3), BETA0,
                          Observation([1.0, 0.5, -0.3], 1, 1.0), 0.8)
        assert np.linalg.matrix_rank(S, tol=1e-12) == 1
        assert np.linalg.matrix_rank(H, tol=1e-12) == 1

    def test_weight_definition(self):
        assert ipw_weight(1, 0.25) == 2.0
        assert ipw_weight(0, 0.25) == pytest.approx(1.0 / 1.5)
        with pytest.raises(ValueError):
            ipw_weight(1, 0.0)

    def test_merge_equals_single_stream(self):
        # The sums of two interleaved halves of a stream add up to its sums.
        rng = np.random.default_rng(3)
        m = LinearModel(3)
        full, left, right = _zeros(6), _zeros(6), _zeros(6)
        for i in range(60):
            beta = rng.standard_normal(6)
            obs = Observation(np.append(1.0, rng.standard_normal(2)),
                              int(rng.integers(0, 2)), float(rng.standard_normal()))
            pi = float(rng.uniform(0.1, 0.9))
            oracle.accumulate(*full, m, beta, obs, pi)
            oracle.accumulate(*(left if i % 2 == 0 else right), m, beta, obs, pi)
        for a, b, whole in zip(left, right, full):
            np.testing.assert_allclose(a + b, whole, rtol=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(5)
        m = LogisticModel(3)
        S, H = _zeros(6)
        for _ in range(200):
            oracle.accumulate(S, H, m, rng.standard_normal(6),
                              Observation(np.append(1.0, rng.standard_normal(2)),
                                          int(rng.integers(0, 2)), float(rng.integers(0, 2))),
                              float(rng.uniform(0.1, 0.9)))
        for mat in (S, H):
            np.testing.assert_allclose(mat, mat.T, atol=1e-12)
            assert np.linalg.eigvalsh(mat).min() >= -1e-10


class TestSandwichCovariance:
    def test_diagonal_closed_form(self):
        n, c, d = 50, 2.0, 3.0
        cov, ridged, _, ok = _sandwich(d * n * np.eye(4), c * n * np.eye(4), n)
        assert ok and not ridged
        np.testing.assert_allclose(cov, d / (c * c * n) * np.eye(4), rtol=1e-12)

    def test_structure_on_random_accumulators(self):
        rng = np.random.default_rng(11)
        m = LinearModel(2)
        S, H = _zeros(4)
        for _ in range(300):
            beta = rng.standard_normal(4)
            obs = Observation(np.append(1.0, rng.standard_normal(1)),
                              int(rng.integers(0, 2)), float(rng.standard_normal()))
            oracle.accumulate(S, H, m, beta, obs, float(rng.uniform(0.2, 0.8)))
        cov, _, _, ok = _sandwich(S, H, 300)
        assert ok
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_singular_flagged_with_condition(self):
        S, H = _zeros(6)
        oracle.accumulate(S, H, LinearModel(3), BETA0,
                          Observation([1.0, 0.2, 0.1], 1, 0.5), 0.5)
        cov, ridged, cond, ok = _sandwich(S, H, 1)
        assert not ok and not ridged and np.isnan(cov).all()
        assert cond > 1e12 or math.isinf(cond)

    def test_ridge_fallback_recovers(self):
        S, H = _zeros(6)
        m = LinearModel(3)
        rng = np.random.default_rng(13)
        for _ in range(4):  # rank-deficient: only action 1 observed
            oracle.accumulate(S, H, m, BETA0,
                              Observation(np.append(1.0, rng.standard_normal(2)), 1, 0.3), 0.6)
        assert not _sandwich(S, H, 4)[3]
        cov, ridged, _, ok = _sandwich(S, H, 4, ridge=True)
        assert ok and ridged and np.isfinite(cov).all()

    def test_negative_ridged_variance_flagged(self):
        # One step leaves the curvature rank one; the ridged inverse then
        # scales rounding errors into a negative diagonal entry.
        cps = _final_run(1).checkpoints
        sums = (cps.S[0], cps.H[0], 1)
        with mock.patch.object(inference, "_VARIANCE_TOL", math.inf):
            assert np.diag(_sandwich(*sums, ridge=True)[0]).min() < -1e-10
        cov, ridged, _, ok = _sandwich(*sums, ridge=True)
        assert ridged and not ok and np.isnan(cov).all()
        rows = report_rows(checkpoint_reports(cps, ridge=True), 1)[:6]
        assert all(r.flag == "singular_hessian" and math.isnan(r.se) for r in rows)

    def test_condition_after_the_ridge_is_the_ridged_one(self):
        # The horizon-1 run above: the unridged curvature is rank one, so its
        # condition is infinite.
        cps = _final_run(1).checkpoints
        _, ridged, plain, ok = _sandwich(cps.S[0], cps.H[0], 1)
        assert not ridged and not ok and math.isinf(plain)
        _, ridged, cond, ok = _sandwich(cps.S[0], cps.H[0], 1, ridge=True)
        assert ridged and not ok
        # Ridging a rank-one trace-T matrix with 1e-8 * T / 6 on the diagonal
        # leaves eigenvalues T + lam and lam: condition 1 + 6e8.
        assert cond == pytest.approx(1.0 + 6.0 / 1e-8, rel=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_flagged(self):
        # alpha=50 overflows the linear iterate; the gradient sums turn NaN
        # while the curvature, which does not depend on it, stays finite and
        # well conditioned.  Neither setting of the ridge gives a covariance.
        cps = _final_run(2000, alpha=50.0, seed=321).checkpoints
        assert np.isfinite(cps.H).all() and not np.isfinite(cps.S).all()
        for ridge in (False, True):
            _, ridged, cond, ok = _sandwich(cps.S[0], cps.H[0], 2000, ridge=ridge)
            assert not ok and not ridged and cond < 1e12
            rows = report_rows(checkpoint_reports(cps, ridge=ridge), 2000)[:6]
            assert all(r.flag == "singular_hessian" and math.isnan(r.se) for r in rows)

    @pytest.mark.filterwarnings("error")
    def test_empty_accumulator_rejected(self):
        # A row without steps has a zero curvature, which is singular with or
        # without the ridge, so no covariance comes out; its report rows are
        # flagged (TestCheckpointReports), not raised.
        for ridge in (False, True):
            cov, ridged, cond, ok = _sandwich(*_zeros(4), 0, ridge=ridge)
            assert not ok and ridged == ridge and math.isinf(cond) and np.isnan(cov).all()


def _reference_sandwich(S, H, n, ridge):
    """The one-matrix sandwich as first written, kept as the reference: the
    covariance (``None`` where none comes out), whether the ridge was
    applied, and the condition estimate of the curvature last factored."""
    def condition(lam):
        lam_abs = np.abs(lam)
        return math.inf if lam_abs.min() == 0.0 else float(lam_abs.max() / lam_abs.min())
    dim = H.shape[0]
    h = H / n
    lam, q = np.linalg.eigh(h)
    cond, ridged = condition(lam), False
    if lam.min() <= 0.0 or cond > 1e12:
        if not ridge:
            return None, ridged, cond
        h = h + (1e-8 * np.trace(h) / dim) * np.eye(dim)
        lam, q = np.linalg.eigh(h)
        cond, ridged = condition(lam), True
        if lam.min() <= 0.0:
            return None, ridged, cond
    s = S / n
    core = (q.T @ s @ q) / np.outer(lam, lam)
    cov = (q @ core @ q.T) / n
    cov = 0.5 * (cov + cov.T)
    if np.diag(cov).min() < -1e-10:
        return None, ridged, cond
    return cov, ridged, cond


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
def sum_stacks(draw):
    """A stack of plug-in sums ``S`` and ``H`` (K, dim, dim) with step counts (K,)."""
    dim = 2 * draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["full", "full", "rank_deficient",
                                           "ill_conditioned", "indefinite", "zero"]),
                          min_size=1, max_size=7))
    n = np.array([draw(st.integers(1, 10_000)) for _ in kinds])
    S, H = [], []
    for kind, n_k in zip(kinds, n):
        g = gen.standard_normal((dim, dim + 1))
        S.append((g @ g.T) * n_k)
        H.append(_curvature(gen, kind, dim) * n_k)
    return np.array(S), np.array(H), n


def _same_outcome(got, want):
    """Bit-for-bit equal covariances (or both none), ridge flags and
    condition estimates."""
    assert (got[0] is None) == (want[0] is None)
    if want[0] is not None:
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


@settings(max_examples=60, deadline=None)
@given(stack=sum_stacks(), ridge=st.booleans())
def test_stacked_sandwiches_equal_one_matrix_calls(stack, ridge):
    # A stack equals its one-row slices, and each slice the reference.
    S, H, n = stack
    cov, ridged, cond, ok = inference._sandwiches(S, H, n, ridge=ridge)
    assert len(ok) == len(n)
    assert np.isnan(cov[~ok]).all()
    for k in range(len(n)):
        got = (cov[k] if ok[k] else None, bool(ridged[k]), float(cond[k]))
        single = _sandwich(S[k], H[k], n[k], ridge=ridge)
        _same_outcome(got, (single[0] if single[3] else None, *single[1:3]))
        _same_outcome(got, _reference_sandwich(S[k], H[k], n[k], ridge))
        if ok[k]:
            np.testing.assert_array_equal(cov[k], cov[k].T)
            eig = np.linalg.eigvalsh(cov[k])
            assert eig.min() >= -1e-8 * np.abs(eig).max()


class TestConvergedRunMagnitudes:
    def test_parameter_se_matches_reported_scale(self):
        # One converged linear run at horizon 1e4 with eps = 0.2: the reported
        # coordinate standard errors sit in the low-0.003 range (published
        # interval lengths 0.009-0.011 imply SE about 0.0023-0.0028).
        se = checkpoint_reports(_final_run(10_000, seed=77).checkpoints).se[0, :6]
        assert (se > 0.0015).all() and (se < 0.004).all()

    def test_curvature_estimate_near_half_identity(self):
        # Weighted curvature averages to 1/2 I (intercept-plus-standard-normal
        # features make the feature second moment the identity).
        cps = _final_run(20_000, seed=78).checkpoints
        np.testing.assert_allclose(cps.H[0] / cps.n[0], 0.5 * np.eye(6), atol=0.05)

    def test_gradient_second_moment_matches_simulated_target(self):
        # At 1e5 steps the running second moment of the weighted gradients is
        # within 10% of its population target, computed here by simulating
        # features and weighting each action's residual covariance by the
        # limiting propensity of the true greedy rule.
        sigma2 = 0.01
        cps = _final_run(100_000, seed=79, collect_value=False).checkpoints
        s_hat = cps.S[0] / cps.n[0]

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


def _wald(est, cov, level=0.95):
    """The parameter rows that ``checkpoint_reports`` gives a one-step
    checkpoint with the average ``est`` whose sandwich is ``cov``: with
    ``H`` the identity over one step, the sandwich is ``S`` itself."""
    dim = len(est)
    cps = Checkpoints(t=np.array([1]), eps=np.array([0.2]), n=np.array([1]),
                      value_t=np.array([0]), bar_beta=np.array([est], dtype=float),
                      S=np.array([cov], dtype=float), H=np.eye(dim)[None], value=None)
    return report_rows(checkpoint_reports(cps, level), 1)


class TestWaldReport:
    def test_standard_normal_interval(self):
        row = _wald(np.zeros(2), np.eye(2), level=0.95)[0]
        assert row.ci_lo == pytest.approx(-1.959963984540054, rel=1e-9)
        assert row.ci_hi == pytest.approx(1.959963984540054, rel=1e-9)
        assert row.t_value == 0.0 and row.p_value == pytest.approx(1.0)

    def test_reported_click_model_row(self):
        # Reproduce one published row: estimate -2.8226 with SE 0.0810.
        row = _wald(np.array([-2.8226, 0.0]), np.diag([0.0810 ** 2, 1.0]), level=0.95)[0]
        assert row.ci_lo == pytest.approx(-2.9814, abs=1e-3)
        assert row.ci_hi == pytest.approx(-2.6637, abs=1e-3)
        assert row.t_value == pytest.approx(-34.83, abs=0.02)
        assert row.p_value < 1e-100

    def test_level_nesting(self):
        est, cov = np.array([1.0, 0.0]), np.diag([0.25, 1.0])
        narrow = _wald(est, cov, level=0.95)[0]
        wide = _wald(est, cov, level=0.99)[0]
        assert wide.ci_lo < narrow.ci_lo < narrow.ci_hi < wide.ci_hi

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\), got "):
            _wald(np.zeros(2), np.eye(2), level=level)

    def test_zero_se_conventions(self):
        rows = _wald(np.array([0.0, 1.0]), np.zeros((2, 2)))
        assert rows[0].t_value == 0.0 and rows[0].p_value == 1.0
        assert rows[1].t_value == math.inf and rows[1].p_value == 0.0

    def test_negative_variance_rejected(self):
        # A variance below -1e-10 leaves the checkpoint without a covariance.
        rows = _wald(np.zeros(2), np.diag([-1e-6, 1.0]))
        assert all(r.flag == "singular_hessian" and math.isnan(r.se) for r in rows)
        # tiny negative from rounding is clamped instead
        rows = _wald(np.zeros(2), np.diag([-1e-12, 1.0]))
        assert rows[0].se == 0.0 and rows[0].flag == ""

    def test_row_names_follow_block_layout(self):
        rows = _wald(np.zeros(4), np.eye(4))
        assert [r.name for r in rows] == ["beta0_1", "beta0_2", "beta1_1", "beta1_2"]

    def test_custom_null(self):
        *_, t, p = inference._wald_columns(np.array([[2.0]]), np.array([[1.0]]), 0.95,
                                           np.array([2.0]))
        assert t.tolist() == [[0.0]] and p.tolist() == [[1.0]]

    def test_value_row_has_no_t_or_p(self):
        # Without a null only the estimate, SE and interval come out.
        est, se, lo, hi = (c.item() for c in inference._wald_columns(
            np.array([[1.5]]), np.array([[0.01]]), 0.95))
        assert est == 1.5 and se == 0.1 and lo < 1.5 < hi


class TestCheckpointReports:
    """Records that lack one kind of sums, or a checkpoint's steps."""

    def test_without_value_sums_gives_parameter_rows_only(self):
        cps = _final_run(300, collect_value=False).checkpoints
        assert cps.value is None
        rows = report_rows(checkpoint_reports(cps), 300)
        assert [r.name for r in rows] == inference._parameter_names(6)
        assert all(r.flag == "" and r.se > 0.0 for r in rows)

    def test_without_parameter_sums_gives_value_rows_only(self):
        for aipw, names in ((False, ["V_opt"]), (True, ["V_opt", "V_opt_aipw"])):
            cps = _final_run(300, collect_inference=False, aipw=aipw).checkpoints
            assert cps.S is cps.H is None
            rows = report_rows(checkpoint_reports(cps), 300)
            assert [r.name for r in rows] == names
            assert all(r.se > 0.0 for r in rows)

    @pytest.mark.filterwarnings("error")
    def test_lagged_checkpoint_before_the_first_update_is_flagged(self):
        # At lag 5 no update precedes the checkpoint after step 2; the report
        # at step 20 equals that of the run without that checkpoint.
        def run(checkpoints):
            m, rng = LinearModel(3), RngStream(5)
            env = LaggedSyntheticEnvironment(SyntheticConfig(m, BETA0, sigma2=0.01), rng, lag=5)
            return run_stream_lagged(env, m, LearningSchedule(0.5, 0.501),
                                     ExplorationSchedule.fixed(0.2, burn_in=5), rng, 20,
                                     checkpoints=checkpoints).checkpoints
        cps = run((2, 20))
        assert cps.n.tolist() == cps.value_t.tolist() == [0, 15]
        for ridge in (False, True):
            reports = checkpoint_reports(cps, ridge=ridge)
            *params, value = report_rows(reports, 2)
            assert all(r.flag == "singular_hessian" and math.isnan(r.se) for r in params)
            assert value.flag == "no_value_steps" and math.isnan(value.estimate)
            want = report_rows(checkpoint_reports(run((20,)), ridge=ridge), 20)
            assert report_rows(reports, 20) == want and all(r.flag == "" for r in want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(["linear", "logistic"]),
       p=st.integers(1, 4), aipw=st.booleans(), ridge=st.booleans(),
       burn_in=st.integers(0, 30), skip=st.booleans(), horizon=st.integers(1, 80),
       level=st.floats(0.5, 0.999))
def test_report_intervals_bracket_their_estimates(seed, family, p, aipw, ridge, burn_in,
                                                  skip, horizon, level):
    # A report at every step of a short run: early checkpoints have singular
    # curvatures, and with the burn-in skipped, no value steps.
    model, rng = make_model(family, p), RngStream(seed)
    beta0 = np.random.default_rng(seed).normal(size=2 * p)
    env = SyntheticEnvironment(SyntheticConfig(model, beta0, sigma2=0.01), rng)
    cps = run_stream(env, model, LearningSchedule(0.5), ExplorationSchedule.fixed(0.2, burn_in),
                     rng, horizon, aipw=aipw, skip_value_burn_in=skip,
                     checkpoints=range(1, horizon + 1)).checkpoints
    r = checkpoint_reports(cps, level, ridge=ridge)
    assert (r.se[np.isfinite(r.se)] >= 0.0).all()
    finite = np.isfinite(r.estimate) & np.isfinite(r.ci_lo) & np.isfinite(r.ci_hi)
    assert (r.ci_lo[finite] <= r.estimate[finite]).all()
    assert (r.estimate[finite] <= r.ci_hi[finite]).all()


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
