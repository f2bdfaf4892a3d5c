import csv
import json
import math
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import (ConfigError, ExperimentConfig, InferenceReport,
                       MonteCarloSummary, RngStream, SyntheticEnvironment,
                       TuneAlphaResult, build_config, checkpoint_reports,
                       load_config_file, run_monte_carlo, run_single, run_stream,
                       tune_alpha)
from banditsgd import experiments
from banditsgd.cli import _overrides_from_args, build_parser
from banditsgd.experiments import (McRow, TuneAlphaRow, _launch, _mc_batch, _report_tables,
                                   emit_report, oracle_truth_value, parse_eps_spec)

from oracle import report_row, report_rows


def small_config(**kw):
    base = dict(model="linear", horizon=400, reps=12, seed=321,
                checkpoints=(400,), oracle_draws=20_000, workers=1,
                out="unused", format="csv")
    base.update(kw)
    return ExperimentConfig(**base)


class TestEpsSpec:
    def test_fixed(self):
        sched = parse_eps_spec("fixed:0.2", 50)
        assert sched.kind == "fixed" and sched.eps_fixed == 0.2 and sched.burn_in == 50

    def test_decay(self):
        sched = parse_eps_spec("decay:0.3,0.1", 10)
        assert sched.kind == "decay"
        assert sched.decay_exponent == 0.3 and sched.eps_floor == 0.1

    @pytest.mark.parametrize("spec", ["fixed", "fixed:", "decay:0.3", "linear:0.1",
                                      "fixed:2.0", "decay:0.3,0.1,7"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ConfigError):
            parse_eps_spec(spec, 50)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        cfg.validate()
        np.testing.assert_array_equal(cfg.beta0_array(),
                                      [0.3, -0.1, 0.7, 0.8, 0.5, -0.4])

    def test_default_checkpoints_include_final_step(self):
        assert ExperimentConfig(horizon=1).effective_checkpoints() == (1,)
        assert ExperimentConfig(horizon=5000).effective_checkpoints() == (1000, 5000)
        assert ExperimentConfig(horizon=10_000).effective_checkpoints() == (1000, 10_000)

    def test_beta0_required_for_other_dimensions(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p=4).validate()
        ExperimentConfig(p=2, beta0=(0.1, 0.2, 0.3, 0.4)).validate()

    def test_replay_needs_no_beta0_but_checks_a_given_one(self):
        ExperimentConfig(p=4, replay_log="log.csv").validate()
        with pytest.raises(ConfigError, match="beta0 has length 2, expected 8"):
            ExperimentConfig(p=4, replay_log="log.csv", beta0=(0.1, 0.2)).validate()
        with pytest.raises(ConfigError, match="beta0 entries must be finite"):
            ExperimentConfig(p=1, replay_log="log.csv", beta0=(0.1, math.nan)).validate()

    @pytest.mark.parametrize("bad", [dict(model="probit"), dict(horizon=0),
                                     dict(reps=0), dict(format="yaml"),
                                     dict(hessian="fancy"), dict(level=1.5),
                                     dict(checkpoints=(9999,), horizon=100),
                                     dict(workers=0)])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad).validate()

    def test_file_roundtrip_and_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "model = logistic\n"
            "horizon = 2000\n"
            "beta0 = 0.3,-0.1,0.7,0.8,0.5,-0.4\n"
            "eps = decay:0.3,0.1\n"
            "burn-in = 25\n"
            "aipw = true\n"
            "checkpoints = 1000,2000\n"
        )
        values = load_config_file(path)
        cfg = build_config(values, {"horizon": 3000, "checkpoints": None})
        assert cfg.model == "logistic"
        assert cfg.horizon == 3000            # flag overrides file
        assert cfg.burn_in == 25 and cfg.aipw is True
        assert cfg.checkpoints == (1000, 2000)  # None override is ignored

    @pytest.mark.parametrize("field,value", [("alpha", math.inf), ("sigma2", math.inf),
                                             ("alpha", math.nan), ("gamma", math.nan)])
    def test_non_finite_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field,value", [("seed", -1), ("oracle_draws", 0),
                                             ("burn_in", -3), ("sigma2", -1.0)])
    def test_out_of_range_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be at least"):
            ExperimentConfig(**{field: value}).validate()

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta0_entry_rejected(self, entry):
        with pytest.raises(ConfigError, match="beta0 entries must be finite"):
            ExperimentConfig(beta0=(0.3, -0.1, 0.7, 0.8, 0.5, entry)).validate()

    def test_non_integral_checkpoint_names_its_value(self):
        with pytest.raises(ConfigError, match=r"^checkpoint 2\.7 is not a whole step$"):
            build_config(overrides=dict(checkpoints=(2.7, 100), horizon=100))
        assert build_config(overrides=dict(checkpoints=(2.0, 100), horizon=100)) \
            .effective_checkpoints() == (2, 100)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon = soon\n")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon 100\n")
        with pytest.raises(ConfigError):
            load_config_file(path)


def _config_file_text(cfg: ExperimentConfig) -> str:
    """``cfg`` as a ``key = value`` config file, every field written out."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        if isinstance(v, tuple):
            v = ",".join(map(repr, v))
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


_POSITIVE = st.floats(1e-6, 1e6)


def _draw_config(data) -> ExperimentConfig:
    """A valid config with every field drawn."""
    p = data.draw(st.integers(1, 4))
    horizon = data.draw(st.integers(1, 10 ** 6))
    return ExperimentConfig(
        model=data.draw(st.sampled_from(["linear", "logistic"])), p=p,
        beta0=tuple(data.draw(st.lists(st.floats(-10, 10), min_size=2 * p, max_size=2 * p))),
        sigma2=data.draw(st.floats(0.0, 100.0)), alpha=data.draw(_POSITIVE),
        gamma=data.draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
        eps=data.draw(st.sampled_from(["fixed:0.2", "fixed:1", "decay:0.3,0.1"])),
        burn_in=data.draw(st.integers(0, 1000)), horizon=horizon,
        reps=data.draw(st.integers(1, 10 ** 4)), seed=data.draw(st.integers(0, 2 ** 63)),
        checkpoints=data.draw(st.one_of(st.none(), st.sets(
            st.integers(1, horizon), min_size=1, max_size=5).map(lambda c: tuple(sorted(c))))),
        hessian=data.draw(st.sampled_from(["exact", "outer"])),
        aipw=data.draw(st.booleans()), ridge=data.draw(st.booleans()),
        level=data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        workers=data.draw(st.integers(1, 8)), value_skip_burn_in=data.draw(st.booleans()),
        oracle_draws=data.draw(st.integers(1, 10 ** 7)),
        replay_log=data.draw(st.one_of(st.none(), st.just("logs/clicks.csv"))),
        out=data.draw(st.sampled_from(["results", "out/run-1"])),
        format=data.draw(st.sampled_from(["csv", "json"]))).validate()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_file_round_trips(data, tmp_path_factory):
    """A valid config written as a config file reads back equal."""
    cfg = _draw_config(data)
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(_config_file_text(cfg))
    assert build_config(load_config_file(path)) == cfg


def _flags(cfg: ExperimentConfig) -> list[str]:
    """``cfg`` as command-line flags, every field but oracle_draws written out;
    lists take the ``--key=v1,v2`` form so a leading minus is not a flag."""
    flags = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "oracle_draws" or v is None or v is False:
            continue
        flag = "--" + f.name.replace("_", "-")
        if v is True:
            flags.append(flag)
        elif isinstance(v, tuple):
            flags.append(f"{flag}={','.join(map(repr, v))}")
        else:
            flags += [flag, repr(v) if isinstance(v, float) else str(v)]
    return flags


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flags_parse_as_config_file(data, tmp_path_factory):
    """A valid config given as flags builds the config its file gives."""
    cfg = replace(_draw_config(data), oracle_draws=ExperimentConfig.oracle_draws)
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(_config_file_text(cfg))
    args = build_parser().parse_args(["run", *_flags(cfg)])
    assert build_config(None, _overrides_from_args(args)) \
        == build_config(load_config_file(path)) == cfg


class TestRunSingle:
    def test_writes_checkpoint_reports(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "res"), checkpoints=(200, 400))
        out = run_single(cfg)
        assert out.reports.t.tolist() == [200, 400]
        assert (tmp_path / "res" / "report_t200.csv").exists()
        assert (tmp_path / "res" / "report_t400.csv").exists()
        assert out.reports.names == [f"beta0_{i}" for i in (1, 2, 3)] \
            + [f"beta1_{i}" for i in (1, 2, 3)] + ["V_opt"]

    def test_same_seed_byte_identical(self, tmp_path):
        cfg1 = small_config(out=str(tmp_path / "a"))
        cfg2 = small_config(out=str(tmp_path / "b"))
        run_single(cfg1)
        run_single(cfg2)
        a = (tmp_path / "a" / "report_t400.csv").read_bytes()
        b = (tmp_path / "b" / "report_t400.csv").read_bytes()
        assert a == b

    def test_degenerate_horizon_is_flagged_not_fatal(self, tmp_path):
        cfg = small_config(horizon=1, checkpoints=None, out=str(tmp_path / "t1"))
        out = run_single(cfg)
        rows = report_rows(out.reports, 1)
        assert all(r.flag == "singular_hessian" for r in rows[:-1])
        assert all(math.isnan(r.se) for r in rows[:-1])
        assert rows[-1].name == "V_opt" and math.isfinite(rows[-1].estimate)

    def test_negative_ridged_variance_is_flagged_not_fatal(self, tmp_path):
        # At horizon 1 the ridged sandwich of this seed has a negative variance.
        cfg = small_config(horizon=1, checkpoints=None, ridge=True,
                           out=str(tmp_path / "r1"))
        rows = report_rows(run_single(cfg).reports, 1)
        assert all(r.flag == "singular_hessian" for r in rows[:-1])
        assert all(math.isnan(r.se) for r in rows[:-1])

    def test_value_skip_within_burn_in_is_flagged_not_fatal(self, tmp_path):
        # Every step of a 30-step run is burn-in, so no step reaches the value sums.
        cfg = small_config(horizon=30, checkpoints=None, value_skip_burn_in=True,
                           aipw=True, out=str(tmp_path / "vs"))
        rows = report_rows(run_single(cfg).reports, 30)
        assert [r.name for r in rows[-2:]] == ["V_opt", "V_opt_aipw"]
        for r in rows[-2:]:
            assert r.flag == "no_value_steps"
            assert math.isnan(r.estimate) and math.isnan(r.se)
        assert all(math.isfinite(r.estimate) for r in rows[:-2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_is_flagged(self, tmp_path):
        # alpha=50 overflows the linear iterate: the plug-in sums turn NaN.
        cfg = small_config(alpha=50, horizon=2000, checkpoints=(2000,),
                           out=str(tmp_path / "dv"))
        rows = report_rows(run_single(cfg).reports, 2000)
        assert len(rows[:-1]) == 6
        assert all(r.flag == "singular_hessian" for r in rows[:-1])
        assert all(math.isnan(r.se) for r in rows[:-1])
        assert rows[-1].name == "V_opt" and rows[-1].flag == ""
        assert math.isfinite(rows[-1].estimate) and math.isfinite(rows[-1].se)

    def test_json_report_is_valid(self, tmp_path):
        cfg = small_config(format="json", out=str(tmp_path / "j"))
        run_single(cfg)
        payload = json.loads((tmp_path / "j" / "report_t400.json").read_text())
        assert len(payload["rows"]) == 7
        assert payload["rows"][-1]["name"] == "V_opt"
        assert payload["rows"][-1]["t_value"] is None

    def test_aipw_row_appended_and_flagged(self, tmp_path):
        cfg = small_config(aipw=True, out=str(tmp_path / "ai"))
        out = run_single(cfg)
        row = report_row(out.reports, 400, "V_opt_aipw")
        assert row.flag == "experimental"


PARITY_CASES = [
    dict(model="linear", checkpoints=(50, 400)),
    dict(model="logistic", aipw=True, checkpoints=(50, 400)),
    dict(model="linear", aipw=True, value_skip_burn_in=True, checkpoints=(20, 400)),
    dict(model="linear", horizon=1, checkpoints=None, ridge=True),
    dict(model="logistic", horizon=1, checkpoints=None, ridge=True),
    dict(model="logistic", aipw=True, value_skip_burn_in=True, ridge=True,
         checkpoints=(1, 20, 400)),
]


def _row_keys(report):
    # Every checkpoint's written rows; repr keeps every bit and lets NaN
    # compare equal to NaN.
    return repr(list(_report_tables(report)))


def _library_reports(cfg):
    """The reports a library caller reads off ``run_stream`` on the
    configured synthetic stream."""
    synth = cfg.synthetic_config()
    rng = RngStream(cfg.seed)
    res = run_stream(SyntheticEnvironment(synth, rng), synth.model, cfg.learning_schedule(),
                     cfg.exploration_schedule(), rng, cfg.horizon, hessian=cfg.hessian,
                     aipw=cfg.aipw, skip_value_burn_in=cfg.value_skip_burn_in,
                     checkpoints=cfg.effective_checkpoints())
    return checkpoint_reports(res.checkpoints, cfg.level, ridge=cfg.ridge)


@pytest.mark.parametrize("case", PARITY_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_run_and_replication_report_the_same_rows(case, tmp_path):
    # run, one mc replication and a library run: every field of every row.
    cfg = small_config(out=str(tmp_path), **case)
    single = run_single(cfg)
    (rep,) = _mc_batch((cfg, [(0, cfg.seed)]))
    library = _library_reports(cfg)
    assert rep.error is None
    assert _row_keys(rep.reports) == _row_keys(library) == _row_keys(single.reports)


class TestRunMonteCarlo:
    def test_summary_shape_and_sane_ranges(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "mc"))
        summary = run_monte_carlo(cfg)
        assert summary.failures == 0
        names = {r.name for r in summary.rows}
        assert "beta0_1" in names and "V_opt" in names
        for r in summary.rows:
            assert 0.0 <= r.coverage <= 1.0
            assert r.ci_length >= 0.0 and r.n_used <= cfg.reps
        assert (tmp_path / "mc" / "mc_summary.csv").exists()
        assert (tmp_path / "mc" / "mc_meta.json").exists()

    def test_identical_seed_identical_summary(self, tmp_path):
        s1 = run_monte_carlo(small_config(out=str(tmp_path / "m1")))
        s2 = run_monte_carlo(small_config(out=str(tmp_path / "m2")))
        for a, b in zip(s1.rows, s2.rows):
            assert (a.t, a.name, a.ratio, a.coverage, a.ci_length) \
                == (b.t, b.name, b.ratio, b.coverage, b.ci_length)

    def test_parallel_equals_serial(self):
        cfg = small_config(reps=6, horizon=300, checkpoints=(300,))
        (serial,) = _launch(_mc_batch, [cfg])
        (parallel,) = _launch(_mc_batch, [replace(cfg, workers=2)])
        for a, b in zip(serial, parallel):
            assert a.error is None and b.error is None
            np.testing.assert_array_equal(a.reports.estimate, b.reports.estimate)
            np.testing.assert_array_equal(a.reports.se, b.reports.se)

    def test_noiseless_degenerate_still_well_formed(self, tmp_path):
        cfg = small_config(sigma2=0.0, out=str(tmp_path / "d"))
        summary = run_monte_carlo(cfg)
        for r in summary.rows:
            assert r.n_used > 0

    def test_replication_failure_excluded_and_counted(self, tmp_path):
        cfg = small_config(reps=4, horizon=3, checkpoints=(3,),
                           out=str(tmp_path / "f"))
        # horizon 3 leaves the curvature singular: beta rows excluded, value kept
        summary = run_monte_carlo(cfg)
        beta_row = summary.row(3, "beta0_1")
        assert beta_row.n_used == 0 and beta_row.n_excluded == 4
        value_row = summary.row(3, "V_opt")
        assert value_row.n_used == 4

    def test_negative_ridged_variance_excluded_and_counted(self):
        cfg = small_config(reps=12, horizon=5, checkpoints=(5,), ridge=True)
        summary = run_monte_carlo(cfg, write=False)
        (reps,) = _launch(_mc_batch, [cfg])
        flagged = sum(report_row(rep.reports, 5, "beta0_1").flag == "singular_hessian"
                      for rep in reps)
        assert 0 < flagged < cfg.reps
        beta_row = summary.row(5, "beta0_1")
        assert beta_row.n_excluded == flagged
        assert beta_row.n_used == cfg.reps - flagged
        assert summary.row(5, "V_opt").n_used == cfg.reps

    def test_no_value_steps_excluded_from_value_rows(self):
        cfg = small_config(reps=4, horizon=30, checkpoints=(30,), value_skip_burn_in=True)
        summary = run_monte_carlo(cfg, write=False)
        assert summary.failures == 0
        assert summary.row(30, "beta0_1").n_used + summary.row(30, "beta0_1").n_excluded == 4
        value_row = summary.row(30, "V_opt")
        assert value_row.n_used == 0 and value_row.n_excluded == 4
        assert math.isnan(value_row.coverage)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_rows_excluded(self):
        cfg = small_config(alpha=1e3, aipw=True, reps=4, horizon=2000, checkpoints=(2000,))
        summary = run_monte_carlo(cfg, write=False)
        for row in summary.rows:
            if row.name == "V_opt":
                assert (row.n_used, row.n_excluded) == (4, 0)
            else:
                assert (row.n_used, row.n_excluded) == (0, 4)
        assert [r.name for r in summary.rows][-2:] == ["V_opt", "V_opt_aipw"]

    def test_pool_forks_at_most_one_process_per_batch(self):
        recorded = []

        class InlinePool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        cfg = small_config(reps=2, workers=8, horizon=50, checkpoints=(50,))
        with mock.patch("concurrent.futures.ProcessPoolExecutor", InlinePool):
            summary = run_monte_carlo(cfg, write=False)
        assert recorded == [2]
        assert summary.failures == 0

    def test_all_replications_failed_keeps_the_csv_header(self, tmp_path):
        cfg = small_config(reps=3, out=str(tmp_path / "x"))
        # Reports fail on either engine; a batch of 3 runs in lockstep.
        with mock.patch.object(experiments, "checkpoint_reports",
                               side_effect=RuntimeError("boom")):
            summary = run_monte_carlo(cfg)
        assert summary.failures == 3 and summary.rows == []
        assert (tmp_path / "x" / "mc_summary.csv").read_text().splitlines() \
            == ["t,name,ratio,coverage,coverage_se,ci_length,n_used,n_excluded"]

    def test_needs_two_reps(self):
        with pytest.raises(ConfigError):
            run_monte_carlo(small_config(reps=1), write=False)

    def test_wall_clock_roughly_linear(self):
        # 4x the work should cost about 4x the time; generous bound flags
        # superlinear blowups without being flaky on a noisy box.
        cfg1 = small_config(reps=4, horizon=1500, checkpoints=(1500,), oracle_draws=1000)
        cfg4 = small_config(reps=16, horizon=1500, checkpoints=(1500,), oracle_draws=1000)
        t0 = time.perf_counter()
        run_monte_carlo(cfg1, write=False)
        t1 = time.perf_counter()
        run_monte_carlo(cfg4, write=False)
        t2 = time.perf_counter()
        ratio = (t2 - t1) / max(t1 - t0, 1e-9)
        assert ratio < 12.0


class TestOracleTruth:
    def test_deterministic(self):
        cfg = small_config()
        v1, se1 = oracle_truth_value(cfg)
        v2, se2 = oracle_truth_value(cfg)
        assert v1 == v2 and se1 == se2

    def test_linear_truth_scale(self):
        # The optimal-rule value for the reference truth is near 1.09.
        cfg = small_config(oracle_draws=200_000)
        v, se = oracle_truth_value(cfg)
        assert 1.0 < v < 1.2 and se < 0.01


class TestTuneAlpha:
    def test_single_point_grid(self, tmp_path):
        cfg = small_config(reps=3, horizon=300, checkpoints=None, out=str(tmp_path / "t"))
        result = tune_alpha(cfg, [0.7])
        assert result.best_alpha == 0.7
        assert set(r.alpha for r in result.rows) == {0.7}
        assert (tmp_path / "t" / "tune_alpha.csv").exists()
        assert (tmp_path / "t" / "tune_alpha_summary.csv").exists()

    def test_noiseless_losses_shrink_for_every_alpha(self, tmp_path):
        cfg = small_config(sigma2=0.0, reps=3, horizon=2000, checkpoints=None,
                           out=str(tmp_path / "t0"))
        result = tune_alpha(cfg, [0.1, 0.5, 1.0], write=False)
        for a in (0.1, 0.5, 1.0):
            traj = [r.loss_mean for r in result.rows if r.alpha == a]
            # the cumulative mean of a noiseless run decays toward zero
            assert traj[-1] < 0.25 * traj[0]
            tail = traj[-15:]
            assert all(u > v for u, v in zip(tail, tail[1:]))

    def test_band_ordering(self, tmp_path):
        cfg = small_config(reps=5, horizon=300, checkpoints=None)
        result = tune_alpha(cfg, [0.5], write=False)
        for r in result.rows:
            assert r.loss_p05 <= r.loss_mean + 1e-12
            assert r.loss_mean <= r.loss_p95 + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            tune_alpha(small_config(), [], write=False)

    def test_repeated_constant_rejected(self):
        with pytest.raises(ConfigError, match="alpha grid repeats 0.5"):
            tune_alpha(small_config(), [0.5, 0.25, 0.5], write=False)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_constant_rejected(self, entry):
        with pytest.raises(ConfigError, match="alpha grid entries must be finite"):
            tune_alpha(small_config(), [0.5, entry], write=False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("grid", [[1e300, 0.5], [0.5, 1e300]])
    def test_diverged_constant_never_wins(self, grid):
        result = tune_alpha(small_config(reps=2, horizon=200, checkpoints=None), grid,
                            write=False)
        assert not math.isfinite(result.final_loss[1e300])
        assert result.best_alpha == 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_diverged_grid_has_no_best(self, tmp_path):
        cfg = small_config(reps=2, horizon=200, checkpoints=None, out=str(tmp_path / "t"),
                           format="json")
        result = tune_alpha(cfg, [1e300, 1e299])
        assert not any(map(math.isfinite, result.final_loss.values()))
        assert math.isnan(result.best_alpha)
        summary = json.loads((tmp_path / "t" / "tune_alpha_summary.json").read_text())
        assert summary["best_alpha"] is None


def _table(rows, level=0.95):
    """The written table of a one-checkpoint report with ``rows`` of
    ``(name, estimate, se, ci_lo, ci_hi, t_value, p_value, flag)``, the
    parameter rows first, then the value rows, whose t and p are None."""
    names, *numbers, t_value, p_value, flag = (list(col) for col in zip(*rows))
    m = sum(t is not None for t in t_value)
    report = InferenceReport(level, np.array([1]), names, *(np.array([c]) for c in numbers),
                             *(np.array([c[:m]]) for c in (t_value, p_value)),
                             np.array([flag], dtype=object))
    ((_, table),) = _report_tables(report)
    return table


class TestEmitReport:
    def test_csv_roundtrip_at_serialized_precision(self, tmp_path):
        cfg = small_config(out=str(tmp_path / "rr"))
        out = run_single(cfg)
        path = tmp_path / "rr" / "report_t400.csv"
        rows = list(csv.DictReader(open(path)))
        for row, orig in zip(rows, report_rows(out.reports, 400)):
            assert row["name"] == orig.name
            assert float(row["estimate"]) == pytest.approx(orig.estimate, rel=1e-5)
            assert float(row["se"]) == pytest.approx(orig.se, rel=1e-5)

    @pytest.mark.parametrize("obj, header, keys", [
        (_table([["beta0_1", 0.1, 0.01, 0.08, 0.12, 10.0, 0.0, ""]]),
         ["name", "estimate", "se", "ci_lo", "ci_hi", "t_value", "p_value", "flag"],
         ["level", "rows"]),
        (MonteCarloSummary(level=0.95, reps=2, failures=0, truth_value=1.0,
                           truth_value_se=0.01,
                           rows=[McRow(10, "V_opt", 1.0, 0.95, 0.1, 0.2, 2, 0)]),
         ["t", "name", "ratio", "coverage", "coverage_se", "ci_length", "n_used",
          "n_excluded"],
         ["level", "reps", "failures", "truth_value", "truth_value_se", "rows"]),
        (TuneAlphaResult(best_alpha=0.5, final_loss={0.5: 0.1},
                         rows=[TuneAlphaRow(0.5, 1, 0.2, 0.1, 0.3)]),
         ["alpha", "t", "loss_mean", "loss_p05", "loss_p95"],
         ["best_alpha", "final_loss", "rows"]),
        ({"entries": 3, "consumed": 3, "matched": 2, "skipped": 1,
          "matched_fraction": 2 / 3},
         ["entries", "consumed", "matched", "skipped", "matched_fraction"],
         ["entries", "consumed", "matched", "skipped", "matched_fraction"]),
    ], ids=["inference_report", "mc_summary", "tune_alpha", "dict"])
    def test_csv_header_and_json_key_order(self, tmp_path, obj, header, keys):
        emit_report(obj, "csv", tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().splitlines()[0].split(",") == header
        emit_report(obj, "json", tmp_path / "r.json")
        payload = json.loads((tmp_path / "r.json").read_text())
        assert list(payload) == keys
        if "rows" in payload:
            assert list(payload["rows"][0]) == header

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report({"a": 1}, "xml", tmp_path / "x.xml")

    def test_creates_missing_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "dir" / "r.json"
        emit_report({"a": 1.5}, "json", target)
        assert json.loads(target.read_text()) == {"a": 1.5}

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(object(), "csv", tmp_path / "bad.csv")


def reference_jsonify(obj):
    """The JSON-ready copy the writer once fed to ``json.dumps(indent=2)``,
    kept as the reference for the writer's bytes."""
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, list):
        return [reference_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: reference_jsonify(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return {f.name: reference_jsonify(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(type(obj).__name__)


@dataclass
class _Flat:
    name: str
    value: float
    count: int
    note: object = None


@dataclass
class _Nested:
    level: float
    rows: list
    extra: object = None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 0.1])
_scalars = (st.none() | st.booleans() | st.integers() | _floats | st.text()
            | _floats.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
            | st.floats(width=32).map(np.float32))
_keys = st.text() | _floats | st.integers() | st.booleans() | st.none()
_records = st.recursive(
    _scalars | st.builds(_Flat, st.text(), _floats, st.integers(), _scalars),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_keys, inner, max_size=4)
                   | st.builds(_Nested, _floats, st.lists(inner, max_size=4), inner)
                   | st.builds(_Flat, st.text(), _floats, st.integers(), inner)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(obj=_records)
def test_json_writer_matches_json_dumps(obj):
    text = experiments._json_text(obj)
    assert text == json.dumps(reference_jsonify(obj), indent=2)
    json.loads(text, parse_constant=_reject_constant)


# Edge values of a report: -0.0, NaN, 1e308, a value row and a non-ASCII flag.
_EDGE_ROWS = [["beta0_1", -0.0, math.nan, math.nan, math.nan, math.nan, math.nan, "x"],
              ["V_opt", 1e308, 0.0, 1e308, 1e308, None, None, "\u00e9\n"]]


def test_json_writer_on_reports(tmp_path):
    head, header, rows = _table(_EDGE_ROWS)
    report = dict(head, rows=[dict(zip(header, row)) for row in rows])
    tune = TuneAlphaResult(best_alpha=0.5, final_loss={0.5: math.inf, math.nan: 0.25},
                           rows=[])
    for k, (obj, want) in enumerate([((head, header, rows), report), (tune, tune),
                                     ({"matched_fraction": math.nan},) * 2]):
        path = emit_report(obj, "json", tmp_path / f"r{k}.json")
        text = path.read_text()
        assert text == json.dumps(reference_jsonify(want), indent=2) + "\n"
        json.loads(text, parse_constant=_reject_constant)


def test_csv_writer_on_reports(tmp_path):
    # Six significant digits, "" for a value row's t and p, and the flag as is.
    path = emit_report(_table(_EDGE_ROWS), "csv", tmp_path / "r.csv")
    assert path.read_bytes().decode() == (
        "name,estimate,se,ci_lo,ci_hi,t_value,p_value,flag\n"
        "beta0_1,-0,nan,nan,nan,nan,nan,x\n"
        "V_opt,1e+308,0,1e+308,1e+308,,,\u00e9\n\n")
