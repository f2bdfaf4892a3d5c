import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (LinearModel, LogisticModel, ReplayCursor, ReplayExhausted,
                       ReplayLogEntry, ReplayLogError, RngStream, SyntheticConfig,
                       SyntheticEnvironment, load_replay_log, write_replay_log)
from banditsgd.environments import (LaggedSyntheticEnvironment, constant_lag,
                                    geometric_lag)
from banditsgd.types import DimensionError

from oracle import MeanTrackingCursor

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


def linear_config(sigma2=0.01):
    return SyntheticConfig(LinearModel(3, sigma2=sigma2), BETA0)


class TestDrawFeature:
    """Feature draws of ``SyntheticEnvironment.next_feature``."""

    def test_intercept_always_one(self):
        env = SyntheticEnvironment(linear_config(), RngStream(1))
        for _ in range(100):
            assert env.next_feature()[0] == 1.0

    def test_coordinate_moments(self):
        env = SyntheticEnvironment(linear_config(), RngStream(2))
        n = 100_000
        xs = np.array([env.next_feature() for _ in range(n)])
        assert abs(xs[:, 1].mean()) < 4.0 / math.sqrt(n)
        assert abs(xs[:, 2].var(ddof=1) - 1.0) < 0.05

    def test_custom_sampler(self):
        def uniform_features(gen, size):
            out = np.empty((size, 3))
            out[:, 0] = 1.0
            out[:, 1:] = gen.uniform(0.0, 1.0, size=(size, 2))
            return out

        cfg = SyntheticConfig(LinearModel(3), BETA0, feature_sampler=uniform_features)
        x = SyntheticEnvironment(cfg, RngStream(3)).next_feature()
        assert x[0] == 1.0 and 0.0 <= x[1] <= 1.0 and 0.0 <= x[2] <= 1.0


class TestDrawReward:
    """Reward draws of ``SyntheticEnvironment.outcome``."""

    def test_noiseless_linear_is_exact_mean(self):
        env = SyntheticEnvironment(linear_config(sigma2=0.0), RngStream(4))
        x = np.array([1.0, 0.5, -1.0])
        assert env.outcome(x, 0) == pytest.approx(float(x @ BETA0[:3]))
        assert env.outcome(x, 1) == pytest.approx(float(x @ BETA0[3:]))

    def test_linear_noise_variance(self):
        env = SyntheticEnvironment(linear_config(sigma2=0.04), RngStream(5))
        x = np.array([1.0, 0.0, 0.0])
        n = 100_000
        ys = np.array([env.outcome(x, 0) for _ in range(n)])
        assert abs(ys.var(ddof=1) - 0.04) < 0.002

    def test_logistic_frequency(self):
        cfg = SyntheticConfig(LogisticModel(3), BETA0)
        env = SyntheticEnvironment(cfg, RngStream(6))
        x = np.array([1.0, 0.0, 0.0])
        mu = cfg.model.mean_from_index(0.8)
        n = 100_000
        ys = np.array([env.outcome(x, 1) for _ in range(n)])
        assert set(np.unique(ys)) <= {0.0, 1.0}
        assert abs(ys.mean() - mu) < 4.0 * math.sqrt(mu * (1 - mu) / n)

    def test_beta0_length_checked(self):
        with pytest.raises(DimensionError):
            SyntheticConfig(LinearModel(3), np.zeros(4))


class TestSyntheticEnvironment:
    def test_streams_bit_identical(self):
        def collect(seed, n=5000):
            env = SyntheticEnvironment(linear_config(), RngStream(seed))
            out = []
            for _ in range(n):
                x = env.next_feature()
                out.append((x.copy(), env.outcome(x, 1)))
            return out

        a, b = collect(9), collect(9)
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            assert ya == yb

    def test_chunk_boundaries_keep_views_valid(self):
        env = SyntheticEnvironment(linear_config(), RngStream(10))
        first = env.next_feature()
        snapshot = first.copy()
        for _ in range(env._CHUNK + 10):
            env.next_feature()
        np.testing.assert_array_equal(first, snapshot)


class TestLaggedEnvironment:
    def test_constant_lag_delivery_times(self):
        env = LaggedSyntheticEnvironment(linear_config(), RngStream(11), lag=2)
        x = env.next_feature()
        env.submit(1, x, 1)
        assert env.arrivals(1) == [] and env.arrivals(2) == []
        got = env.arrivals(3)
        assert len(got) == 1 and got[0][0] == 1

    def test_zero_lag_same_step(self):
        env = LaggedSyntheticEnvironment(linear_config(), RngStream(12), lag=0)
        x = env.next_feature()
        env.submit(1, x, 0)
        got = env.arrivals(1)
        assert len(got) == 1 and got[0][0] == 1

    def test_fifo_serialization_under_random_lags(self):
        env = LaggedSyntheticEnvironment(linear_config(), RngStream(13),
                                         lag=geometric_lag(0.3))
        delivered = []
        for t in range(1, 200):
            delivered.extend(s for s, _ in env.arrivals(t))
            x = env.next_feature()
            env.submit(t, x, 0)
            delivered.extend(s for s, _ in env.arrivals(t))
        assert delivered == sorted(delivered)

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            constant_lag(-1)
        with pytest.raises(ValueError):
            geometric_lag(0.0)


def _make_entries(n, seed=0, p=3):
    gen = np.random.default_rng(seed)
    entries = []
    for _ in range(n):
        x = np.append(1.0, gen.standard_normal(p - 1))
        entries.append(ReplayLogEntry(x, int(gen.integers(0, 2)),
                                      float(gen.integers(0, 2))))
    return entries


class TestReplayLogIO:
    def test_roundtrip(self, tmp_path):
        entries = _make_entries(3)
        path = tmp_path / "log.csv"
        write_replay_log(path, entries)
        back = load_replay_log(path)
        assert len(back) == 3
        for a, b in zip(entries, back):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.action == b.action and a.reward == b.reward
            assert a.propensity == b.propensity

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,x3,action,reward\n")
        assert load_replay_log(path) == []

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("")
        with pytest.raises(ReplayLogError):
            load_replay_log(path)

    def test_bad_action_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,action,reward\n1.0,0,0.5\n1.0,2,0.5\n")
        with pytest.raises(ReplayLogError, match="row 2"):
            load_replay_log(path)

    def test_bad_propensity_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,action,reward,propensity\n1.0,0,0.5,1.5\n")
        with pytest.raises(ReplayLogError, match="row 1"):
            load_replay_log(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,action,reward\n1.0,0,0.5\n")
        with pytest.raises(ReplayLogError, match="row 1"):
            load_replay_log(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,action,reward\noops,0,0.5\n")
        with pytest.raises(ReplayLogError, match="row 1"):
            load_replay_log(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_row(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,action,reward\n1.0,0.5,0,1.0\n1.0,{value},1,0.0\n")
        with pytest.raises(ReplayLogError, match="row 2: features must be finite"):
            load_replay_log(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2,action,reward\n1.0,1.0,0,0.5\n")
        with pytest.raises(ReplayLogError, match="header"):
            load_replay_log(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 4), data=st.data())
def test_replay_log_round_trips(p, data, tmp_path_factory):
    """Every finite row written by write_replay_log reads back bit for bit."""
    rows = data.draw(st.lists(st.tuples(
        st.lists(_FINITE, min_size=p, max_size=p), st.integers(0, 1), _FINITE,
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)), min_size=1, max_size=20))
    entries = [ReplayLogEntry(np.array(x), a, y, prop) for x, a, y, prop in rows]
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_replay_log(path, entries)
    back = load_replay_log(path)
    assert len(back) == len(entries)
    for a, b in zip(entries, back):
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.action, a.reward, a.propensity) == (b.action, b.reward, b.propensity)
        assert math.copysign(1.0, a.reward) == math.copysign(1.0, b.reward)

class TestReplayCursor:
    def test_match_keeps_reward(self):
        entries = [ReplayLogEntry(np.array([1.0, 0.2]), 1, 0.7)]
        cursor = ReplayCursor(entries)
        obs = cursor.step(1)
        assert obs is not None and obs.y == 0.7 and obs.a == 1
        assert cursor.matched == 1 and cursor.skipped == 0 and cursor.exhausted

    def test_mismatch_drops_entry(self):
        entries = [ReplayLogEntry(np.array([1.0, 0.2]), 1, 0.7)]
        cursor = ReplayCursor(entries)
        assert cursor.step(0) is None
        assert cursor.matched == 0 and cursor.skipped == 1 and cursor.exhausted

    def test_exhaustion_reported_distinctly(self):
        cursor = ReplayCursor(_make_entries(1))
        cursor.step(1)
        with pytest.raises(ReplayExhausted):
            cursor.step(1)

    def test_every_entry_consumed_once(self):
        n = 500
        cursor = ReplayCursor(_make_entries(n, seed=2))
        gen = np.random.default_rng(3)
        while not cursor.exhausted:
            cursor.step(int(gen.integers(0, 2)))
        assert cursor.consumed == n == cursor.matched + cursor.skipped

    def test_uniform_log_matches_about_half(self):
        n = 20_000
        cursor = ReplayCursor(_make_entries(n, seed=4))
        while not cursor.exhausted:
            cursor.step(1)  # any proposal rule works against a uniform log
        se = 0.5 / math.sqrt(n)
        assert abs(cursor.matched / n - 0.5) < 4.0 * se

    def test_matched_subpopulation_representative(self):
        n = 20_000
        entries = _make_entries(n, seed=5)
        cursor = MeanTrackingCursor(entries)
        gen = np.random.default_rng(6)
        while not cursor.exhausted:
            cursor.step(int(gen.integers(0, 2)))
        sd = np.array([e.x for e in entries]).std(axis=0, ddof=1)
        gap = np.abs(cursor.feature_mean_matched() - cursor.feature_mean_all())
        assert (gap[1:] < 4.0 * sd[1:] / math.sqrt(cursor.matched)).all()
        assert gap[0] == 0.0  # intercept column
