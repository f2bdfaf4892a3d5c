import numpy as np
import pytest

from banditsgd import (DimensionError, ExplorationSchedule, LearningSchedule,
                       LinearModel, LogisticModel)

from oracle import Observation, decide_optimal

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


class TestDecideOptimal:
    def test_intercept_only_picks_bigger_block(self):
        model = LinearModel(3)
        x = np.array([1.0, 0.0, 0.0])
        assert decide_optimal(model, BETA0, x) == 1  # 0.8 > 0.3

    def test_tie_goes_to_zero(self):
        model = LinearModel(2)
        beta = np.array([0.4, -0.2, 0.4, -0.2])
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = np.append(1.0, rng.standard_normal(1))
            assert decide_optimal(model, beta, x) == 0

    def test_logistic_monotone_in_index(self):
        model = LogisticModel(3)
        x = np.array([1.0, 0.0, 0.0])
        assert decide_optimal(model, BETA0, x) == 1

    def test_logistic_agrees_with_linear_everywhere(self):
        # The logistic link is strictly increasing, so decisions match the
        # linear family's for any parameters and features.
        lin, log = LinearModel(4), LogisticModel(4)
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = rng.standard_normal(8) * 2.0
            x = np.append(1.0, rng.standard_normal(3))
            assert decide_optimal(lin, beta, x) == decide_optimal(log, beta, x)

    def test_positive_scaling_invariance(self):
        lin = LinearModel(3)
        rng = np.random.default_rng(11)
        for _ in range(100):
            beta = rng.standard_normal(6)
            x = np.append(1.0, rng.standard_normal(2))
            k = float(rng.uniform(0.01, 50.0))
            assert decide_optimal(lin, beta, x) == decide_optimal(lin, k * beta, x)

    def test_dimension_mismatch(self):
        model = LinearModel(3)
        with pytest.raises(DimensionError):
            decide_optimal(model, BETA0, np.ones(4))
        with pytest.raises(DimensionError):
            decide_optimal(model, np.zeros(4), np.ones(3))


class TestObservation:
    def test_valid(self):
        obs = Observation([1.0, 2.0], 1, 0.5)
        assert obs.p == 2 and obs.a == 1 and obs.y == 0.5

    def test_bad_action(self):
        with pytest.raises(ValueError):
            Observation([1.0], 2, 0.0)

    def test_nonfinite_reward(self):
        with pytest.raises(ValueError):
            Observation([1.0], 0, float("nan"))
        with pytest.raises(ValueError):
            Observation([1.0], 0, float("inf"))

    def test_matrix_feature_rejected(self):
        with pytest.raises(DimensionError):
            Observation(np.ones((2, 2)), 0, 0.0)


class TestSchedules:
    def test_learning_schedule_bounds(self):
        LearningSchedule(0.5, 0.501)
        with pytest.raises(ValueError):
            LearningSchedule(0.0, 0.6)
        with pytest.raises(ValueError):
            LearningSchedule(0.5, 0.5)
        with pytest.raises(ValueError):
            LearningSchedule(0.5, 1.0)

    def test_fixed_schedule(self):
        sched = ExplorationSchedule.fixed(0.2)
        assert sched.burn_in == 50 and sched.eps_limit == 0.2
        with pytest.raises(ValueError):
            ExplorationSchedule.fixed(0.0)
        with pytest.raises(ValueError):
            ExplorationSchedule.fixed(1.2)

    def test_decaying_schedule(self):
        sched = ExplorationSchedule.decaying(0.3, 0.1)
        assert sched.eps_limit == 0.1
        with pytest.raises(ValueError):
            ExplorationSchedule.decaying(-0.3, 0.1)
        with pytest.raises(ValueError):
            ExplorationSchedule.decaying(0.3, 0.0)

    def test_negative_burn_in(self):
        with pytest.raises(ValueError):
            ExplorationSchedule.fixed(0.2, burn_in=-1)

