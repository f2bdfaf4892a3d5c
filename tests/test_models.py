import math

import numpy as np
import pytest

from banditsgd import (HESSIAN_EXACT, HESSIAN_OUTER, LinearModel, LogisticModel,
                       Observation, make_model)
from banditsgd.types import DimensionError

from oracle import linear_index, loss, loss_gradient, loss_hessian, mean_reward

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])
E1 = np.array([1.0, 0.0, 0.0])


def fd_gradient(model, beta, obs):
    """Central finite differences of the loss, step 1e-6 * (1 + |beta_j|)."""
    g = np.empty_like(beta)
    for j in range(beta.shape[0]):
        h = 1e-6 * (1.0 + abs(beta[j]))
        hi, lo = beta.copy(), beta.copy()
        hi[j] += h
        lo[j] -= h
        g[j] = (loss(model, hi, obs) - loss(model, lo, obs)) / (2.0 * h)
    return g


def fd_hessian(model, beta, obs):
    """Central finite differences of the gradient."""
    n = beta.shape[0]
    H = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * (1.0 + abs(beta[j]))
        hi, lo = beta.copy(), beta.copy()
        hi[j] += h
        lo[j] -= h
        H[:, j] = (loss_gradient(model, hi, obs) - loss_gradient(model, lo, obs)) / (2.0 * h)
    return H


def random_observation(rng, family, p=3):
    x = np.append(1.0, rng.standard_normal(p - 1))
    a = int(rng.integers(0, 2))
    if family == "logistic":
        y = float(rng.integers(0, 2))
    else:
        y = float(rng.standard_normal())
    return Observation(x, a, y)


class TestLinearIndex:
    def test_selects_intercepts(self):
        m = LinearModel(3)
        assert linear_index(m, 1, E1, BETA0) == pytest.approx(0.8)
        assert linear_index(m, 0, E1, BETA0) == pytest.approx(0.3)

    def test_zero_parameters(self):
        m = LinearModel(3)
        rng = np.random.default_rng(3)
        for a in (0, 1):
            x = np.append(1.0, rng.standard_normal(2))
            assert linear_index(m, a, x, np.zeros(6)) == 0.0

    def test_dimension_errors(self):
        m = LinearModel(3)
        with pytest.raises(DimensionError):
            linear_index(m, 0, np.ones(2), BETA0)
        with pytest.raises(DimensionError):
            linear_index(m, 0, E1, np.ones(5))


class TestMeanReward:
    def test_logistic_symmetry_point(self):
        assert LogisticModel(3).mean_from_index(0.0) == 0.5

    def test_logistic_reference_value(self):
        # Independent evaluation of 1 / (1 + exp(-0.8)).
        expected = 1.0 / (1.0 + math.exp(-0.8))
        got = mean_reward(LogisticModel(3), 1, E1, BETA0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.6899744811276125, rel=1e-12)

    def test_linear_sum(self):
        m = LinearModel(3)
        assert mean_reward(m, 0, np.ones(3), BETA0) == pytest.approx(0.9)

    def test_logistic_bounds_at_extremes(self):
        m = LogisticModel(3)
        assert 0.0 < m.mean_from_index(-800.0) < 1.0
        assert 0.0 < m.mean_from_index(800.0) < 1.0

    def test_array_link_matches_scalar(self):
        m = LogisticModel(3)
        u = np.linspace(-30, 30, 101)
        vec = m.mean_from_index_array(u)
        scal = np.array([m.mean_from_index(float(v)) for v in u])
        np.testing.assert_allclose(vec, scal, rtol=1e-14)

    def test_array_link_equals_masked_formula(self):
        def masked(u):
            out = np.empty_like(u)
            pos = u >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
            z = np.exp(u[~pos])
            out[~pos] = z / (1.0 + z)
            return np.clip(out, 1e-300, 1.0 - 1e-16)

        gen = np.random.default_rng(3)
        u = np.concatenate([gen.normal(0.0, 5.0, 10_000), gen.normal(0.0, 400.0, 1000),
                            [0.0, -0.0, 36.7, -36.7, 745.2, -745.2, 800.0, -800.0,
                             1e308, -1e308]])
        got = LogisticModel(3).mean_from_index_array(u)
        assert np.array_equal(got, masked(u))
        assert np.array_equal(np.signbit(got), np.signbit(masked(u)))


class TestLoss:
    def test_perfect_fit_is_zero(self):
        m = LinearModel(3)
        u = mean_reward(m, 1, E1, BETA0)
        assert loss(m, BETA0, Observation(E1, 1, u)) == 0.0

    def test_logistic_symmetry_case(self):
        m = LogisticModel(3)
        obs = Observation(E1, 0, 1.0)
        assert loss(m, np.zeros(6), obs) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_small_residual(self):
        m = LinearModel(3)
        u = mean_reward(m, 0, E1, BETA0)
        assert loss(m, BETA0, Observation(E1, 0, u + 0.1)) == pytest.approx(0.005)

    def test_logistic_rejects_nonbinary_reward(self):
        m = LogisticModel(3)
        with pytest.raises(ValueError):
            loss(m, BETA0, Observation(E1, 0, 0.5))
        with pytest.raises(ValueError):
            loss_gradient(m, BETA0, Observation(E1, 0, -1.0))

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for family in ("linear", "logistic"):
            m = make_model(family, 3)
            for _ in range(50):
                beta = rng.standard_normal(6)
                assert loss(m, beta, random_observation(rng, family)) >= 0.0

    def test_extreme_index_is_finite(self):
        m = LogisticModel(1)
        big = np.array([800.0, -800.0])
        for a, y in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
            obs = Observation(np.array([1.0]), a, y)
            assert math.isfinite(loss(m, big, obs))
            assert np.isfinite(loss_gradient(m, big, obs)).all()


class TestGradient:
    def test_inactive_block_is_zero(self):
        rng = np.random.default_rng(9)
        for family in ("linear", "logistic"):
            m = make_model(family, 3)
            for _ in range(50):
                beta = rng.standard_normal(6)
                obs = random_observation(rng, family)
                g = loss_gradient(m, beta, obs)
                inactive = g[3:] if obs.a == 0 else g[:3]
                assert not inactive.any()

    def test_hand_computed_residual(self):
        m = LinearModel(3)
        g = loss_gradient(m, BETA0, Observation(E1, 0, 0.0))
        np.testing.assert_allclose(g, [0.3, 0, 0, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_matches_finite_differences(self, family):
        m = make_model(family, 3)
        rng = np.random.default_rng(13)
        for _ in range(100):
            beta = rng.standard_normal(6) * 1.5
            obs = random_observation(rng, family)
            g = loss_gradient(m, beta, obs)
            fd = fd_gradient(m, beta, obs)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6 * (1 + np.abs(g).max()))


class TestHessian:
    def test_unit_feature_single_entry(self):
        m = LinearModel(3)
        H = loss_hessian(m, BETA0, Observation(E1, 0, 0.0))
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(H, expected)

    def test_logistic_exact_quarter_at_zero_index(self):
        m = LogisticModel(3)
        x = np.array([1.0, 0.5, -0.5])
        H = loss_hessian(m, np.zeros(6), Observation(x, 1, 1.0), HESSIAN_EXACT)
        np.testing.assert_allclose(H[3:, 3:], 0.25 * np.outer(x, x), rtol=1e-12)
        assert not H[:3, :3].any()

    def test_outer_variant_uses_squared_residual(self):
        m = LogisticModel(3)
        x = np.array([1.0, 0.4, 0.2])
        obs = Observation(x, 1, 1.0)
        mu = mean_reward(m, 1, x, BETA0)
        H = loss_hessian(m, BETA0, obs, HESSIAN_OUTER)
        np.testing.assert_allclose(H[3:, 3:], (mu - 1.0) ** 2 * np.outer(x, x), rtol=1e-12)

    def test_linear_variants_coincide(self):
        m = LinearModel(3)
        rng = np.random.default_rng(17)
        beta = rng.standard_normal(6)
        obs = random_observation(rng, "linear")
        np.testing.assert_array_equal(loss_hessian(m, beta, obs, HESSIAN_EXACT),
                                      loss_hessian(m, beta, obs, HESSIAN_OUTER))

    def test_exact_logistic_is_scaled_linear_curvature(self):
        lin, log = LinearModel(3), LogisticModel(3)
        rng = np.random.default_rng(19)
        beta = rng.standard_normal(6)
        obs_log = random_observation(rng, "logistic")
        obs_lin = Observation(obs_log.x, obs_log.a, 0.0)
        mu = mean_reward(log, obs_log.a, obs_log.x, beta)
        np.testing.assert_allclose(loss_hessian(log, beta, obs_log),
                                   mu * (1 - mu) * loss_hessian(lin, beta, obs_lin),
                                   rtol=1e-12)

    def test_structure_symmetric_psd_rank_one(self):
        rng = np.random.default_rng(23)
        for family in ("linear", "logistic"):
            m = make_model(family, 4)
            for _ in range(25):
                beta = rng.standard_normal(8)
                obs = random_observation(rng, family, p=4)
                H = loss_hessian(m, beta, obs)
                np.testing.assert_allclose(H, H.T, atol=1e-15)
                eig = np.linalg.eigvalsh(H)
                assert eig.min() >= -1e-12
                assert np.linalg.matrix_rank(H, tol=1e-10) <= 1

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_exact_matches_finite_differences(self, family):
        m = make_model(family, 3)
        rng = np.random.default_rng(29)
        for _ in range(40):
            beta = rng.standard_normal(6)
            obs = random_observation(rng, family)
            H = loss_hessian(m, beta, obs, HESSIAN_EXACT)
            fd = fd_hessian(m, beta, obs)
            np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-5 * (1 + np.abs(H).max()))

    def test_unknown_variant_rejected(self):
        m = LinearModel(3)
        with pytest.raises(ValueError):
            loss_hessian(m, BETA0, Observation(E1, 0, 0.0), "bogus")


class TestPopulationProperties:
    def test_gradient_mean_vanishes_at_truth_under_random_rule(self):
        # Under actions drawn uniformly at random, the expected gradient at the
        # true parameters is zero for both families; check by simulation.
        rng = np.random.default_rng(31)
        n = 100_000
        for family in ("linear", "logistic"):
            m = make_model(family, 3)
            x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
            a = rng.integers(0, 2, size=n)
            u = np.where(a == 1, x @ BETA0[3:], x @ BETA0[:3])
            if family == "linear":
                y = u + 0.1 * rng.standard_normal(n)
                resid = u - y
            else:
                mu = m.mean_from_index_array(u)
                y = (rng.random(n) < mu).astype(float)
                resid = mu - y
            # gradient rows: residual times x in the active block
            g = np.zeros((n, 6))
            g[a == 0, :3] = resid[a == 0, None] * x[a == 0]
            g[a == 1, 3:] = resid[a == 1, None] * x[a == 1]
            mean = g.mean(axis=0)
            se = g.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.linalg.norm(mean) < 4.0 * np.linalg.norm(se)

    def test_cross_entropy_convex_along_lines(self):
        m = LogisticModel(3)
        rng = np.random.default_rng(37)
        for _ in range(30):
            beta = rng.standard_normal(6)
            direction = rng.standard_normal(6)
            obs = random_observation(rng, "logistic")
            ts = np.linspace(-1.0, 1.0, 21)
            vals = np.array([loss(m, beta + t * direction, obs) for t in ts])
            second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert second_diff.min() >= -1e-10


def test_make_model_rejects_unknown_family():
    with pytest.raises(ValueError):
        make_model("poisson", 3)
