import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import banditsgd
from banditsgd import ExperimentConfig, ReplayLog, write_replay_log
from banditsgd.cli import build_parser, main


def run_flags(tmp_path, extra=()):
    return ["run", "--model", "linear", "--horizon", "300", "--seed", "11",
            "--checkpoints", "300", "--out", str(tmp_path), *extra]


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    assert main(run_flags(tmp_path / "a")) == 0
    out = capsys.readouterr().out
    assert "report_t300.csv" in out
    assert (tmp_path / "a" / "report_t300.csv").exists()


def test_run_deterministic_bytes(tmp_path):
    assert main(run_flags(tmp_path / "a")) == 0
    assert main(run_flags(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "report_t300.csv").read_bytes() \
        == (tmp_path / "b" / "report_t300.csv").read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = linear\nhorizon = 200\nseed = 5\ncheckpoints = 200\n")
    code = main(["run", "--config", str(cfg), "--seed", "6",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "report_t200.csv").exists()


def test_bad_config_exits_nonzero(tmp_path, capsys):
    code = main(["run", "--model", "linear", "--eps", "fixed:2.0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_format_exits_nonzero(tmp_path):
    # argparse rejects the invalid choice with a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", "--format", "yaml", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_replay_log_is_config_error(tmp_path, capsys):
    code = main(["replay", "--model", "logistic", "--out", str(tmp_path)])
    assert code == 1
    assert "replay-log" in capsys.readouterr().err


def _click_log(path):
    """A 400-row replay log of 0/1 rewards and three features, written to ``path``."""
    gen = np.random.default_rng(3)
    rows = [(np.append(1.0, gen.standard_normal(2)),
             int(gen.integers(0, 2)), float(gen.integers(0, 2)))
            for _ in range(400)]
    write_replay_log(path, ReplayLog(*map(np.array, zip(*rows))))
    return path


def test_replay_subcommand(tmp_path, capsys):
    log = _click_log(tmp_path / "log.csv")
    code = main(["replay", "--model", "logistic", "--replay-log", str(log),
                 "--horizon", "400", "--burn-in", "20", "--seed", "2",
                 "--checkpoints", "100", "--out", str(tmp_path / "r")])
    assert code == 0
    assert (tmp_path / "r" / "replay_stats.csv").exists()
    assert "matched" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "replay"])
def test_replay_log_prints_the_match_count(tmp_path, capsys, command):
    log = _click_log(tmp_path / "log.csv")
    code = main([command, "--model", "logistic", "--replay-log", str(log),
                 "--horizon", "400", "--seed", "2", "--checkpoints", "50",
                 "--format", "json", "--out", str(tmp_path / "r")])
    assert code == 0
    stats = json.loads((tmp_path / "r" / "replay_stats.json").read_text())
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"matched {stats['matched']} of 400 entries "
        f"(fraction {stats['matched_fraction']:.4f})")


@pytest.mark.parametrize("command", ["run", "replay"])
def test_trace_leaves_reports_unchanged(tmp_path, command):
    flags = [command, "--model", "logistic", "--horizon", "400", "--seed", "2",
             "--checkpoints", "50,400", "--format", "json"]
    if command == "replay":
        flags += ["--replay-log", str(_click_log(tmp_path / "log.csv"))]
    trace = tmp_path / "trace.csv"
    assert main([*flags, "--out", str(tmp_path / "plain")]) == 0
    assert main([*flags, "--out", str(tmp_path / "traced"), "--trace", str(trace)]) == 0
    plain, traced = ({f.name: f.read_bytes() for f in (tmp_path / d).iterdir()}
                     for d in ("plain", "traced"))
    assert traced == plain
    steps = 400
    if command == "replay":
        steps = json.loads(plain["replay_stats.json"])["matched"]
        assert 0 < steps < 400
    rows = trace.read_text().splitlines()
    assert rows[0] == "step,eps,pi,action,reward,loss"
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(1, steps + 1))


def test_trace_creates_its_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--horizon", "200", "--trace", "sub/trace.csv", "--out", "r"]) == 0
    assert len((tmp_path / "sub" / "trace.csv").read_text().splitlines()) == 201


def test_replay_log_width_must_match_p(tmp_path, capsys):
    log = tmp_path / "log.csv"
    write_replay_log(log, ReplayLog(np.tile([1.0, 0.5], (20, 1)), np.arange(20) % 2,
                                    np.ones(20)))
    code = main(["replay", "--model", "logistic", "--replay-log", str(log),
                 "--horizon", "20", "--out", str(tmp_path / "r")])
    assert code == 1
    assert "replay log rows have 2 features, but p is 3" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(1, 7))
def test_logistic_replay_rejects_a_nonbinary_reward_for_every_seed(tmp_path, capsys, seed):
    # Row 2 holds 0.5 and row 4 holds 2: the log is rejected before the first
    # step, whichever entries the seed would match, and nothing is written.
    log = tmp_path / "log.csv"
    log.write_text("x1,x2,action,reward\n1,0.5,1,1\n1,0.2,0,0.5\n1,0.1,1,0\n1,0.3,0,2\n")
    code = main(["replay", "--replay-log", str(log), "--model", "logistic", "--p", "2",
                 "--beta0=0,0,0,0", "--horizon", "10", "--seed", str(seed),
                 "--trace", str(tmp_path / "trace.csv"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: row 2: logistic rewards must be 0 or 1, got 0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]


def test_replay_reward_error_counts_rows_as_the_loader_does(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("x1,x2,action,reward\n1,0.5,1,1\n\n1,0.2,0,1\n1,0.3,0,2\n")
    code = main(["replay", "--replay-log", str(log), "--model", "logistic", "--p", "2",
                 "--horizon", "10", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: row 4: logistic rewards must be 0 or 1, got 2.0\n"


def test_header_only_log_width_must_match_p(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("x1,x2,x3,action,reward\n")
    code = main(["replay", "--model", "logistic", "--replay-log", str(log), "--p", "2",
                 "--beta0=0.1,0.2,0.3,0.4", "--horizon", "20", "--out", str(tmp_path / "r")])
    assert code == 1
    assert "replay log rows have 3 features, but p is 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--replay-log", "missing.csv"),
                                        ("--trace", "t.csv")])
@pytest.mark.parametrize("command", [["mc", "--reps", "2"],
                                     ["tune-alpha", "--alpha-grid", "0.5", "--reps", "2"]])
def test_suites_reject_stream_only_flags(tmp_path, capsys, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--horizon", "100", flag, value, "--out", "o"])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mc_subcommand(tmp_path, capsys):
    code = main(["mc", "--model", "linear", "--horizon", "200", "--reps", "6",
                 "--seed", "4", "--checkpoints", "200",
                 "--out", str(tmp_path / "m"), "--workers", "1"])
    assert code == 0
    assert (tmp_path / "m" / "mc_summary.csv").exists()
    meta = json.loads((tmp_path / "m" / "mc_meta.json").read_text())
    assert meta["reps"] == 6


def test_tune_alpha_subcommand(tmp_path, capsys):
    code = main(["tune-alpha", "--model", "linear", "--horizon", "200",
                 "--reps", "3", "--seed", "4", "--checkpoints", "200",
                 "--alpha-grid", "0.5", "--out", str(tmp_path / "t")])
    assert code == 0
    assert "best alpha: 0.5" in capsys.readouterr().out


def test_tune_alpha_rejects_repeated_constant(tmp_path, capsys):
    out = tmp_path / "t"
    code = main(["tune-alpha", "--model", "linear", "--horizon", "200", "--reps", "4",
                 "--alpha-grid", "0.5,0.5", "--out", str(out)])
    assert code == 1
    assert "alpha grid repeats 0.5" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("flag,field", [(("--alpha", "inf"), "alpha"),
                                        (("--sigma2", "inf"), "sigma2"),
                                        (("--beta0=0.3,-0.1,0.7,0.8,0.5,nan",), "beta0")])
def test_non_finite_flag_names_its_field(tmp_path, capsys, flag, field):
    out = tmp_path / "r"
    assert main(run_flags(out, extra=flag)) == 1
    assert f"error: {field} " in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_names_its_field(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(run_flags(out, extra=("--seed", "-1"))) == 1
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_tune_alpha_rejects_non_finite_constant(tmp_path, capsys):
    out = tmp_path / "t"
    code = main(["tune-alpha", "--horizon", "200", "--reps", "2",
                 "--alpha-grid", "0.5,inf", "--out", str(out)])
    assert code == 1
    assert "alpha grid entries must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_tune_alpha_warns_when_every_constant_diverges(tmp_path, capsys):
    code = main(["tune-alpha", "--horizon", "200", "--reps", "2",
                 "--alpha-grid", "1e300,1e299", "--out", str(tmp_path / "t")])
    assert code == 0
    captured = capsys.readouterr()
    assert "best alpha: nan" in captured.out
    assert "warning: no alpha reached a finite final loss" in captured.err

def test_hessian_paper_alias(tmp_path):
    code = main(run_flags(tmp_path / "h", extra=("--hessian", "paper")))
    assert code == 0


def test_config_file_paper_alias_matches_flag(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("hessian = paper\n")
    assert main(run_flags(tmp_path / "flag", extra=("--hessian", "paper"))) == 0
    assert main(run_flags(tmp_path / "file", extra=("--config", str(cfg)))) == 0
    assert (tmp_path / "file" / "report_t300.csv").read_bytes() \
        == (tmp_path / "flag" / "report_t300.csv").read_bytes()


def test_bad_list_flag_names_its_key(tmp_path, capsys):
    assert main(run_flags(tmp_path, extra=("--beta0", "1,2,x"))) == 1
    assert "error: beta0: " in capsys.readouterr().err
    # Scalar flags are parsed by the same code as list flags and config files.
    for flag, text in (("p", "abc"), ("alpha", "x"), ("seed", "1.5")):
        assert main(run_flags(tmp_path, extra=(f"--{flag}", text))) == 1
        assert f"error: {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("0.1,x", "alpha grid entries must be numbers: "),
    ("0.1,inf", "alpha grid entries must be finite, got (0.1, inf)"),
])
def test_bad_alpha_grid_entry_is_named(tmp_path, capsys, grid, message):
    code = main(["tune-alpha", "--alpha-grid", grid, "--reps", "2", "--horizon", "50",
                 "--out", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_config_file_value_error_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = linear\nhorizon = soon\n")
    assert main(run_flags(tmp_path, extra=("--config", str(cfg)))) == 1
    assert f"error: {cfg}:2: horizon: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "mc", "tune-alpha", "replay"])
def test_flags_are_the_config_fields(command):
    """Every config field but oracle_draws has a flag of its name, and no
    flag sets anything else but the config file and the alpha grid."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
    expected = {f.name for f in fields(ExperimentConfig)} - {"oracle_draws"} | {"config"}
    if command == "tune-alpha":
        expected.add("alpha_grid")
    assert dests == expected


def test_module_entry_point_help():
    # The child imports the package from where this process found it.
    where = str(Path(banditsgd.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [where] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "banditsgd", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "tune-alpha" in proc.stdout


def test_json_format_flag(tmp_path):
    code = main(run_flags(tmp_path / "j", extra=("--format", "json")))
    assert code == 0
    payload = json.loads((tmp_path / "j" / "report_t300.json").read_text())
    assert payload["rows"][-1]["name"] == "V_opt"


@pytest.mark.parametrize("reps", [2, 5])
def test_diverging_constant_warns_once_without_numpy_warnings(tmp_path, capsys, reps):
    # Batches of 2 take the scalar step, of 5 the stacked step.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tune-alpha", "--alpha-grid", "1e300,0.5", "--reps", str(reps),
                     "--horizon", "200", "--out", str(tmp_path / "t")])
    assert code == 0
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert "best alpha: 0.5" in captured.out
    assert captured.err == "warning: alpha 1e+300 diverged (final loss nan)\n"


DIVERGED = ["--model", "linear", "--p", "3", "--alpha", "1e3", "--horizon", "2000"]


def test_diverged_run_is_flagged_without_numpy_warnings(tmp_path, capsys):
    # A numpy warning here would be raised as an error (pyproject.toml).
    code = main(["run", *DIVERGED, "--checkpoints", "2000", "--format", "json",
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = json.loads((tmp_path / "report_t2000.json").read_text())["rows"]
    assert [row["flag"] for row in rows[:-1]] == ["singular_hessian"] * 6


def test_diverged_mc_workers_print_no_numpy_warnings(tmp_path):
    # Forked workers step outside this process's warning filters.
    where = str(Path(banditsgd.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [where] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "banditsgd", "mc", *DIVERGED, "--aipw",
                           "--reps", "4", "--workers", "2", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""


SATURATED = "--beta0=800,-800,800,-800,800,-800"


@pytest.mark.parametrize("argv,rows", [
    (["run", "--p", "1", "--beta0=0.5,-0.2"], ["beta0_1", "beta1_1", "V_opt"]),
    (["run", "--model", "logistic", SATURATED], None),
    (["mc", "--eps", "fixed:1", "--reps", "4"], None),
    (["mc", "--model", "logistic", SATURATED, "--reps", "4"], None),
], ids=["run-p1", "run-saturated-logistic", "mc-eps-1", "mc-saturated-logistic"])
def test_degenerate_inputs_give_finite_reports(tmp_path, capsys, argv, rows):
    out = tmp_path / "o"
    code = main(argv + ["--horizon", "300", "--checkpoints", "300", "--seed", "3",
                        "--format", "json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    (path,) = out.glob("report_t300.json") if argv[0] == "run" else [out / "mc_summary.json"]
    report = json.loads(path.read_text())
    if rows is not None:
        assert [row["name"] for row in report["rows"]] == rows
    flag, numbers = (("flag", ("estimate", "se", "ci_lo", "ci_hi")) if argv[0] == "run"
                     else ("n_excluded", ("coverage", "ci_length")))
    for row in report["rows"]:
        assert row[flag] in ("", 0)
        assert all(row[k] is not None for k in numbers)


def _replay_log(path, actions):
    """A replay log for p = 2 whose rows take ``actions``."""
    path.write_text("x1,x2,action,reward,propensity\n" + "".join(
        f"1.0,{0.25 * k},{a},{k % 2}.0,0.5\n" for k, a in enumerate(actions)))
    return path


@pytest.mark.parametrize("actions,seed,summary", [
    ([], 1, "matched 0 of 0 entries (fraction nan)"),
    # Seed 85 proposes action 0 for each of these entries during burn-in.
    ([1, 1, 1, 1], 85, "matched 0 of 4 entries (fraction 0.0000)"),
], ids=["header-only", "nothing-matches"])
def test_replay_without_a_match_warns_that_no_report_was_written(tmp_path, capsys,
                                                                  actions, seed, summary):
    log = _replay_log(tmp_path / "log.csv", actions)
    out = tmp_path / "o"
    code = main(["replay", "--replay-log", str(log), "--model", "logistic", "--p", "2",
                 "--beta0=0.1,0.2,0.3,0.4", "--horizon", "100", "--seed", str(seed),
                 "--out", str(out)])
    assert code == 0
    assert [p.name for p in out.iterdir()] == ["replay_stats.csv"]
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == summary
    assert captured.err == "warning: no log entry matched, so no report was written\n"
