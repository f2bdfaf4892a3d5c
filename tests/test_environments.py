import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (LinearModel, LogisticModel, ReplayCursor, ReplayExhausted, ReplayLog,
                       ReplayLogError, RngStream, SyntheticConfig, SyntheticEnvironment,
                       load_replay_log, write_replay_log)
from banditsgd.types import DimensionError

from oracle import MeanTrackingCursor

BETA0 = np.array([0.3, -0.1, 0.7, 0.8, 0.5, -0.4])


def linear_config(sigma2=0.01):
    return SyntheticConfig(LinearModel(3), BETA0, sigma2=sigma2)


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

    @pytest.mark.parametrize("field,value,match", [
        ("sigma2", math.nan, "noise variance"), ("sigma2", math.inf, "noise variance"),
        ("sigma2", -0.01, "noise variance"),
        ("beta0", [0.3, -0.1, 0.7, 0.8, 0.5, math.nan], "beta0 entries must be finite"),
        ("beta0", [0.3, -0.1, -math.inf, 0.8, 0.5, -0.4], "beta0 entries must be finite")])
    @pytest.mark.parametrize("model", [LinearModel(3), LogisticModel(3)])
    def test_non_finite_truth_rejected(self, model, field, value, match):
        kwargs = {"beta0": BETA0, "sigma2": 0.01, field: value}
        with pytest.raises(ValueError, match=match):
            SyntheticConfig(model, **kwargs)


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


def _make_log(n, seed=0, p=3):
    gen = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        x = np.append(1.0, gen.standard_normal(p - 1))
        rows.append((x, int(gen.integers(0, 2)), float(gen.integers(0, 2))))
    return ReplayLog(*map(np.array, zip(*rows)))


class TestReplayLogIO:
    def test_roundtrip(self, tmp_path):
        log = _make_log(3)
        path = tmp_path / "log.csv"
        write_replay_log(path, log)
        back = load_replay_log(path)
        assert len(back) == 3
        for i in range(3):
            np.testing.assert_array_equal(log.x[i], back.x[i])
            assert log.action[i] == back.action[i] and log.reward[i] == back.reward[i]

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,x3,action,reward\n")
        assert len(load_replay_log(path)) == 0

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

    def test_non_uniform_propensity_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,action,reward,propensity\n1.0,0,0.5,0.5\n1.0,1,0.5,0.8\n")
        with pytest.raises(ReplayLogError) as exc:
            load_replay_log(path)
        assert str(exc.value) == ("row 2: propensity must be 0.5 (replay needs a uniformly "
                                  "randomized log), got 0.8")

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

    def test_blank_record_counts_in_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,action,reward\n1.0,0.5,0,1.0\n\n1.0,0.5,2,1.0\n")
        with pytest.raises(ReplayLogError) as exc:
            load_replay_log(path)
        assert str(exc.value) == "row 3: action must be 0 or 1, got '2'"

    @pytest.mark.parametrize("later", ["1.0,oops,0.5", "1.0,0.5"], ids=["parse", "width"])
    def test_first_bad_record_is_named(self, tmp_path, later):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,action,reward\n1.0,0,inf\n1.0,1,0.5\n{later}\n")
        with pytest.raises(ReplayLogError) as exc:
            load_replay_log(path)
        assert str(exc.value) == "row 1: reward must be finite, got 'inf'"

    def test_log_built_in_memory_is_checked(self):
        with pytest.raises(ReplayLogError, match="row 2: action must be 0 or 1"):
            ReplayLog(np.ones((3, 2)), [0, 2, 1], [0.0, 1.0, 0.0])
        with pytest.raises(ReplayLogError, match="row 3: reward must be finite"):
            ReplayLog(np.ones((3, 2)), [0, 1, 1], [0.0, 1.0, math.nan])
        with pytest.raises(ReplayLogError, match=r"expected \(n, p\) features"):
            ReplayLog(np.ones(3), [0, 1, 1], [0.0, 1.0, 0.0])
        with pytest.raises(ReplayLogError, match="row 3: propensity must be 0.5 .*uniformly"):
            ReplayLog(np.ones((3, 2)), [0, 1, 1], [0.0, 1.0, 0.0], [0.5, 0.5, 0.2])
        assert len(ReplayLog(np.ones((3, 2)), [0, 1, 1], [0.0, 1.0, 0.0], 0.5)) == 3


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 4), data=st.data())
def test_replay_log_round_trips(p, data, tmp_path_factory):
    """Every finite row written by write_replay_log reads back bit for bit."""
    rows = data.draw(st.lists(st.tuples(
        st.lists(_FINITE, min_size=p, max_size=p), st.integers(0, 1), _FINITE),
        min_size=1, max_size=20))
    log = ReplayLog(*map(np.array, zip(*rows)))
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_replay_log(path, log)
    back = load_replay_log(path)
    assert len(back) == len(log)
    for i in range(len(log)):
        assert log.x[i].tobytes() == back.x[i].tobytes()
        assert (log.action[i], log.reward[i]) == (back.action[i], back.reward[i])
        assert math.copysign(1.0, log.reward[i]) == math.copysign(1.0, back.reward[i])

class TestReplayCursor:
    def test_match_keeps_reward(self):
        cursor = ReplayCursor(ReplayLog(np.array([[1.0, 0.2]]), [1], [0.7]))
        assert cursor.outcome(cursor.next_feature(), 1) == 0.7
        assert cursor.matched == 1 and cursor.skipped == 0 and cursor.exhausted

    def test_mismatch_drops_entry(self):
        cursor = ReplayCursor(ReplayLog(np.array([[1.0, 0.2]]), [1], [0.7]))
        assert cursor.outcome(cursor.next_feature(), 0) is None
        assert cursor.matched == 0 and cursor.skipped == 1 and cursor.exhausted

    def test_exhaustion_reported_distinctly(self):
        cursor = ReplayCursor(_make_log(1))
        cursor.outcome(cursor.next_feature(), 1)
        assert cursor.next_feature() is None
        with pytest.raises(ReplayExhausted):
            cursor.outcome(None, 1)

    def test_every_entry_consumed_once(self):
        n = 500
        cursor = ReplayCursor(_make_log(n, seed=2))
        gen = np.random.default_rng(3)
        while not cursor.exhausted:
            cursor.outcome(cursor.next_feature(), int(gen.integers(0, 2)))
        assert cursor.consumed == n == cursor.matched + cursor.skipped

    def test_uniform_log_matches_about_half(self):
        n = 20_000
        cursor = ReplayCursor(_make_log(n, seed=4))
        while not cursor.exhausted:
            cursor.outcome(cursor.next_feature(), 1)  # any proposal works on a uniform log
        se = 0.5 / math.sqrt(n)
        assert abs(cursor.matched / n - 0.5) < 4.0 * se

    def test_matched_subpopulation_representative(self):
        n = 20_000
        log = _make_log(n, seed=5)
        cursor = MeanTrackingCursor(log)
        gen = np.random.default_rng(6)
        while not cursor.exhausted:
            cursor.outcome(cursor.next_feature(), int(gen.integers(0, 2)))
        sd = log.x.std(axis=0, ddof=1)
        gap = np.abs(cursor.feature_mean_matched() - cursor.feature_mean_all())
        assert (gap[1:] < 4.0 * sd[1:] / math.sqrt(cursor.matched)).all()
        assert gap[0] == 0.0  # intercept column
