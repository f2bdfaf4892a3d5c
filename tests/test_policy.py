import math

import numpy as np
import pytest

from banditsgd import ExplorationSchedule, LearningSchedule, LinearModel, RngStream
from banditsgd.policy import derive_seed, exploration_rate, learning_rate, splitmix64

from oracle import propensity, sample_action

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


class TestLearningRate:
    def test_first_step_equals_alpha(self):
        assert learning_rate(LearningSchedule(0.5, 0.501), 1) == 0.5

    def test_reference_value(self):
        got = learning_rate(LearningSchedule(0.5, 0.501), 4)
        assert got == pytest.approx(0.5 * 4.0 ** (-0.501), rel=1e-15)
        assert got == pytest.approx(0.24965366652525722, rel=1e-12)

    def test_strictly_decreasing(self):
        sched = LearningSchedule(1.3, 0.7)
        rates = [learning_rate(sched, t) for t in range(1, 200)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            learning_rate(LearningSchedule(0.5, 0.501), 0)


class TestExplorationRate:
    def test_burn_in_boundary(self):
        sched = ExplorationSchedule.fixed(0.2, burn_in=50)
        assert exploration_rate(sched, 50) == 1.0
        assert exploration_rate(sched, 51) == 0.2

    def test_decay_floor_engages(self):
        sched = ExplorationSchedule.decaying(0.3, 0.1, burn_in=50)
        assert exploration_rate(sched, 10**6) == 0.1
        # before the floor binds the rate is the raw power law
        assert exploration_rate(sched, 100) == pytest.approx(100.0 ** -0.3)

    def test_nonincreasing_after_burn_in(self):
        for sched in (ExplorationSchedule.fixed(0.2),
                      ExplorationSchedule.decaying(0.3, 0.1)):
            rates = [exploration_rate(sched, t) for t in range(51, 4000)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))
            assert all(0.0 < r <= 1.0 for r in rates)
            assert min(rates[-100:]) >= sched.eps_limit


class TestPropensity:
    def test_greedy_action_one(self):
        model = LinearModel(3)
        x = np.array([1.0, 0.0, 0.0])
        assert propensity(model, BETA0, x, 0.2) == pytest.approx(0.9)

    def test_greedy_action_zero(self):
        model = LinearModel(3)
        flipped = np.concatenate([BETA0[3:], BETA0[:3]])
        x = np.array([1.0, 0.0, 0.0])
        assert propensity(model, flipped, x, 0.2) == pytest.approx(0.1)

    def test_pure_exploration(self):
        model = LinearModel(3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = np.append(1.0, rng.standard_normal(2))
            assert propensity(model, BETA0, x, 1.0) == 0.5

    def test_overlap_bound(self):
        # min(pi, 1 - pi) is exactly eps / 2 for every input
        model = LinearModel(3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            beta = rng.standard_normal(6)
            x = np.append(1.0, rng.standard_normal(2))
            eps = float(rng.uniform(0.01, 1.0))
            pi = propensity(model, beta, x, eps)
            assert min(pi, 1.0 - pi) == pytest.approx(eps / 2.0)

    def test_invalid_eps(self):
        model = LinearModel(3)
        x = np.array([1.0, 0.0, 0.0])
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                propensity(model, BETA0, x, eps)


class TestSampleAction:
    def test_bounds(self):
        rng = RngStream(0)
        for pi in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                sample_action(pi, rng)

    def test_deterministic_given_seed(self):
        a = [sample_action(0.37, RngStream(123)) for _ in range(1)]
        acts1 = _draw_actions(RngStream(99), 200)
        acts2 = _draw_actions(RngStream(99), 200)
        assert acts1 == acts2
        assert a[0] in (0, 1)

    def test_frequency_matches_binomial(self):
        rng = RngStream(2024)
        n = 100_000
        hits = sum(sample_action(0.9, rng) for _ in range(n))
        se = math.sqrt(0.9 * 0.1 / n)
        assert abs(hits / n - 0.9) < 4.0 * se

    def test_consumes_exactly_one_uniform(self):
        a, b = RngStream(7), RngStream(7)
        sample_action(0.5, a)
        b.uniform()
        assert a.uniform() == b.uniform()


def _draw_actions(rng, n):
    return [sample_action(0.37, rng) for _ in range(n)]


class TestRngStream:
    def test_same_seed_same_stream(self):
        a, b = RngStream(5), RngStream(5)
        np.testing.assert_array_equal(a.gen.standard_normal(64), b.gen.standard_normal(64))
        assert a.uniform() == b.uniform()

    def test_seed_attributes(self):
        s = RngStream(17)
        assert s.seed == 17


class TestSeedDerivation:
    def test_splitmix_reference_vector(self):
        # First output of the reference generator seeded with 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_outputs_distinct(self):
        outs = {splitmix64(i) for i in range(2000)}
        assert len(outs) == 2000

    def test_derive_seed_is_xor(self):
        assert derive_seed(0, 123) == splitmix64(123)
        assert derive_seed(987, 123) == 987 ^ splitmix64(123)
        assert derive_seed(987, 0) != derive_seed(987, 1)
