import json
import subprocess
import sys

import numpy as np
import pytest

from banditsgd import ReplayLogEntry, write_replay_log
from banditsgd.cli import main


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


def test_replay_subcommand(tmp_path, capsys):
    gen = np.random.default_rng(3)
    entries = [ReplayLogEntry(np.append(1.0, gen.standard_normal(2)),
                              int(gen.integers(0, 2)), float(gen.integers(0, 2)))
               for _ in range(400)]
    log = tmp_path / "log.csv"
    write_replay_log(log, entries)
    code = main(["replay", "--model", "logistic", "--replay-log", str(log),
                 "--horizon", "400", "--burn-in", "20", "--seed", "2",
                 "--checkpoints", "100", "--out", str(tmp_path / "r")])
    assert code == 0
    assert (tmp_path / "r" / "replay_stats.csv").exists()
    assert "matched" in capsys.readouterr().out


def test_replay_log_width_must_match_p(tmp_path, capsys):
    entries = [ReplayLogEntry(np.array([1.0, 0.5]), i % 2, 1.0) for i in range(20)]
    log = tmp_path / "log.csv"
    write_replay_log(log, entries)
    code = main(["replay", "--model", "logistic", "--replay-log", str(log),
                 "--horizon", "20", "--out", str(tmp_path / "r")])
    assert code == 1
    assert "replay log rows have 2 features, but p is 3" in capsys.readouterr().err


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


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "banditsgd", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tune-alpha" in proc.stdout


def test_json_format_flag(tmp_path):
    code = main(run_flags(tmp_path / "j", extra=("--format", "json")))
    assert code == 0
    payload = json.loads((tmp_path / "j" / "report_t300.json").read_text())
    assert payload["rows"][-1]["name"] == "V_opt"
