"""Golden CLI bytes: small fixed-seed commands against recorded digests.

Each command runs through ``banditsgd.cli.main`` in a fresh directory; the
exit code and the sha256 of its stdout, its stderr and every file it writes
must equal the digests below.  A change that alters any output byte fails
here.  To record the digests of a checkout, run this file as a script from
the root of that checkout (``PYTHONPATH=src python tests/test_golden.py``)
and paste its output over ``GOLDEN``.
"""
import contextlib
import hashlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from banditsgd.cli import main

MC_CONFIG = "oracle_draws = 20000\nreps = 6\nhorizon = 400\ncheckpoints = 100,400\n"

COMMANDS = {
    "run-csv": ["run", "--horizon", "3000", "--checkpoints", "1,50,1000,3000",
                "--seed", "11"],
    "run-json": ["run", "--model", "logistic", "--horizon", "3000", "--aipw",
                 "--seed", "12", "--format", "json"],
    "trace-linear": ["run", "--horizon", "500", "--trace", "trace.csv", "--seed", "13"],
    "trace-logistic": ["run", "--model", "logistic", "--horizon", "500",
                       "--trace", "trace.csv", "--seed", "14", "--format", "json"],
    "aipw-ridge-1-5": ["run", "--model", "logistic", "--aipw", "--ridge", "--horizon", "5",
                       "--checkpoints", "1,2,3,4,5", "--seed", "15", "--format", "json"],
    "p1-decay": ["run", "--p", "1", "--beta0=0.5,-0.2", "--eps", "decay:0.3,0.1",
                 "--horizon", "5000", "--checkpoints", "100,4096,4097,5000",
                 "--seed", "16", "--format", "json"],
    "mc-workers-1": ["mc", "--config", "mc.cfg", "--workers", "1", "--seed", "17",
                     "--format", "json"],
    "mc-workers-2": ["mc", "--config", "mc.cfg", "--workers", "2", "--seed", "17",
                     "--format", "json"],
    "mc-2-reps-2-workers": ["mc", "--config", "mc.cfg", "--reps", "2", "--workers", "2",
                            "--seed", "20", "--format", "json"],
    "mc-4-reps-2-workers": ["mc", "--config", "mc.cfg", "--reps", "4", "--workers", "2",
                            "--seed", "21"],
    "tune-alpha-5-reps": ["tune-alpha", "--alpha-grid", "0.3,1.0", "--reps", "5",
                          "--horizon", "500", "--seed", "22", "--format", "json"],
    "tune-alpha-2-reps": ["tune-alpha", "--alpha-grid", "0.3,1.0", "--reps", "2",
                          "--horizon", "500", "--seed", "18", "--format", "json"],
    "replay-csv": ["replay", "--replay-log", "log.csv", "--model", "logistic", "--p", "2",
                   "--beta0=-0.5,0.4,0.3,-0.6", "--horizon", "3000", "--seed", "19"],
    "replay-json": ["replay", "--replay-log", "log.csv", "--model", "logistic", "--p", "2",
                    "--beta0=-0.5,0.4,0.3,-0.6", "--horizon", "3000", "--seed", "19",
                    "--format", "json"],
    "replay-trace": ["replay", "--replay-log", "log.csv", "--model", "logistic", "--p", "2",
                     "--beta0=-0.5,0.4,0.3,-0.6", "--horizon", "3000", "--seed", "23",
                     "--trace", "trace.csv"],
    "replay-no-propensity": ["replay", "--replay-log", "log-no-propensity.csv",
                             "--model", "logistic", "--p", "2", "--beta0=-0.5,0.4,0.3,-0.6",
                             "--horizon", "3000", "--seed", "24", "--format", "json"],
    # Singular curvature: t=3 flagged singular_hessian, t=10 and t=30 not.
    "singular-mixed": ["run", "--horizon", "30", "--checkpoints", "3,10,30", "--seed", "25",
                       "--format", "json"],
    "singular-all-1-5": ["run", "--model", "logistic", "--horizon", "5",
                         "--checkpoints", "1,2,3,4,5", "--seed", "25", "--format", "json"],
    # mc leaves the singular t=3 rows out: n_used 0, n_excluded 6.
    "mc-singular": ["mc", "--config", "mc.cfg", "--checkpoints", "3,100,400", "--seed", "26",
                    "--format", "json"],
    "mc-aipw": ["mc", "--config", "mc.cfg", "--aipw", "--seed", "27", "--format", "json"],
    # Checkpoints 10 and 50 fall inside the skipped burn-in: no_value_steps.
    "value-skip-aipw": ["run", "--model", "logistic", "--aipw", "--value-skip-burn-in",
                        "--horizon", "300", "--checkpoints", "10,50,51,300", "--seed", "28",
                        "--format", "json"],
    # A decaying eps with skipped burn-in value steps (no_value_steps at t=10
    # and t=20), AIPW, and the log running out at t=963.
    "replay-decay-skip-aipw": ["replay", "--replay-log", "log.csv", "--model", "logistic",
                               "--p", "2", "--beta0=-0.5,0.4,0.3,-0.6", "--eps",
                               "decay:0.3,0.1", "--burn-in", "20", "--value-skip-burn-in",
                               "--aipw", "--checkpoints", "10,20,21,500", "--horizon", "3000",
                               "--seed", "29", "--format", "json"],
}


def _write_inputs(work: Path) -> None:
    """The mc config file and a uniformly randomized logistic replay log, with
    and without its propensity column."""
    (work / "mc.cfg").write_text(MC_CONFIG)
    gen = np.random.default_rng(2024)
    rows = 2000
    x = np.column_stack([np.ones(rows), gen.standard_normal(rows)])
    actions = gen.integers(0, 2, rows)
    u = np.where(actions == 1, x @ [0.3, -0.6], x @ [-0.5, 0.4])
    rewards = (gen.random(rows) < 1.0 / (1.0 + np.exp(-u))).astype(float)
    rows = [f"{a!r},{b!r},{int(c)},{d!r}"
            for a, b, c, d in zip(x[:, 0].tolist(), x[:, 1].tolist(), actions, rewards.tolist())]
    (work / "log.csv").write_text(
        "\n".join(["x1,x2,action,reward,propensity"] + [r + ",0.5" for r in rows]) + "\n")
    (work / "log-no-propensity.csv").write_text("\n".join(["x1,x2,action,reward"] + rows) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, work: Path) -> dict:
    """Run one command in ``work`` and digest everything it produced."""
    work.mkdir(parents=True, exist_ok=True)
    _write_inputs(work)
    inputs = {p.name for p in work.iterdir()}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(COMMANDS[name] + ["--out", "out"])
    finally:
        os.chdir(cwd)
    files = {str(p.relative_to(work)): _sha(p.read_bytes())
             for p in sorted(work.rglob("*")) if p.is_file() and p.name not in inputs}
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


GOLDEN = {
    "aipw-ridge-1-5": {
        "exit": 0,
        "stdout": "66538a18bd3f3529a7c03d4bb39956d7e546c54bda8d052d4b7cdb08efd67c98",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t1.json": "c298be4957eb3b05c7b7a4e490bef7ad2bdfadfed30cc655411c5d49262782e3",
            "out/report_t2.json": "ff1bd7ea02670659555313f5a635b2c8a88531ae87f50a8b1de0cfc01796498a",
            "out/report_t3.json": "0e404ef5d537ef21556da9ab99af06bf1ea81268f05bb5fda8e553d070416321",
            "out/report_t4.json": "40b0dd3584165aabcb1eaa5cd38aa173744f89b90f844087e0c7a010d9eb0987",
            "out/report_t5.json": "2e595e7b2999c592af9cf96adefbf78b579d5903ec6721009178ad7819be893f"
        }
    },
    "mc-2-reps-2-workers": {
        "exit": 0,
        "stdout": "b9235c1830d425f3736b1fe1d3e233d6c7668bef7db20a9295dfe12aff8f0b5e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/mc_meta.json": "08b810a35543d20e57c92bbfe09e497cb23e81a0eb3a8d704d68c928e548502a",
            "out/mc_summary.json": "8d28e0c3522984d0c9e9c168c480cb1150c3a6735b897e09ddc65dcf9e18853a"
        }
    },
    "mc-4-reps-2-workers": {
        "exit": 0,
        "stdout": "9b88fc7aa4b0513de179a8ace1a4a594cacf96ff65fdcd5cbda57dafda2ac2e4",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/mc_meta.json": "a0bc5e66cd11d6ab3a4333b65db3451b01ad78f8b39fe0d4412ee969c2902bdc",
            "out/mc_summary.csv": "d1081ff8805384d48a3779f6f2078c63c8505583a64d65c1af2e776cda868918"
        }
    },
    "mc-aipw": {
        "exit": 0,
        "stdout": "b9235c1830d425f3736b1fe1d3e233d6c7668bef7db20a9295dfe12aff8f0b5e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/mc_meta.json": "85762334b7b8997f9a105a623b6c9b970a626953186a0db908ab92dff09ab01e",
            "out/mc_summary.json": "252ec9c01bc775bea207f9463144d5c45f5234aa60b52c60b2ae18b1b9b3e848"
        }
    },
    "mc-singular": {
        "exit": 0,
        "stdout": "b9235c1830d425f3736b1fe1d3e233d6c7668bef7db20a9295dfe12aff8f0b5e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/mc_meta.json": "1331a2b292da4030e142d6f6a4cf0452c1d1eda72181e51edd22efae8a94bf62",
            "out/mc_summary.json": "2fc5baebfa4eacf36ab1f4b048251211c0a4b0b51ea4112b043b3150726845c9"
        }
    },
    "mc-workers-1": {
        "exit": 0,
        "stdout": "b9235c1830d425f3736b1fe1d3e233d6c7668bef7db20a9295dfe12aff8f0b5e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/mc_meta.json": "e51670e541ff76cca44bdb70be6bc986c8b3c52eb96d58f5aef1afbe2f03b84c",
            "out/mc_summary.json": "3f4f77fe0201ddef7a26d98c6bf904f8c9ce1c916744f61afab5c49bfc602a2f"
        }
    },
    "mc-workers-2": {
        "exit": 0,
        "stdout": "b9235c1830d425f3736b1fe1d3e233d6c7668bef7db20a9295dfe12aff8f0b5e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/mc_meta.json": "e51670e541ff76cca44bdb70be6bc986c8b3c52eb96d58f5aef1afbe2f03b84c",
            "out/mc_summary.json": "3f4f77fe0201ddef7a26d98c6bf904f8c9ce1c916744f61afab5c49bfc602a2f"
        }
    },
    "p1-decay": {
        "exit": 0,
        "stdout": "46f94b7f82ab5179246de79bf9770148ae153a8243fe44c8fd94222505bb5e9d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t100.json": "573f23da04b035956edaaf8e5bc12c0600dbd5aa27f91eb4ef76a796c6f64ccd",
            "out/report_t4096.json": "bdc2353591c9dded34e90f3cd09529ca7380b1e752dd2f768a6b99670a20b349",
            "out/report_t4097.json": "cf7feb68c62b61bcb905c44b24c95204e00dac37b4b27d14c8d6a1b230e1373f",
            "out/report_t5000.json": "f9c54f452fe303598e4acecbd1b47e6f70c74b520705fd8f779b98c8d815c2f3"
        }
    },
    "replay-csv": {
        "exit": 0,
        "stdout": "f8ea8c916f1759aa51dc2077b0fda9c1c1ce2555e9a7fe697b85515ff695f101",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/replay_stats.csv": "45e672111613595a5dde1be441b478c9e9621fa0d586009ca3463325fd644883",
            "out/report_t978.csv": "a66bbe0aa59569fbf001bf433a23e946e3897c4ef5db7ea3175005a6013a0246"
        }
    },
    "replay-decay-skip-aipw": {
        "exit": 0,
        "stdout": "88e73e7f9b442afc5cbbd5c247184425b2571b87069a4a9201a71cb8e3147f0d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/replay_stats.json": "ff45e4c79f8371e83f89d73028257ca4d2b37bfa55a3edbcc9e05c571a16ae79",
            "out/report_t10.json": "666c430ae31ada182fc3be059e700edeec22213aed70cbf26423acf32858e272",
            "out/report_t20.json": "1deef950b02e5af5e1fdeef422c0a01967fd28a044d47260cc02a45dbc4ff0b2",
            "out/report_t21.json": "f89a0e94c2b2e0f0faf3e312fc6120c38a62294c554de68f0614a9631c14e562",
            "out/report_t500.json": "779f33f447dea0775d181cc48b8738ef6c67995306190954ad12bf592f9d93de",
            "out/report_t963.json": "19d80b9e785a735c7b2cc3a8ff23e620bc6f00f2a915885e24abb31c8256aabe"
        }
    },
    "replay-json": {
        "exit": 0,
        "stdout": "194de6ec460f98390af5008a4fbbc457d11a703cafa048558d19f07f15394a46",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/replay_stats.json": "4d93f4767e09dcee395302f28ee8cfb0ce6138ac910d8781bb5992d9a1412ae9",
            "out/report_t978.json": "b61b4625b22aa814a287cffc53c2467e5a5e6b901d03dafe49842ace71ab46bf"
        }
    },
    "replay-no-propensity": {
        "exit": 0,
        "stdout": "5797507029ab9a55802c1ef8d6b2e474bd499e428eddc980c32e8541b1c4a9f9",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/replay_stats.json": "efc54d2063e42bbf031fb09da9939a1377194096036d4bc6e6dd5f35ee1c7997",
            "out/report_t955.json": "2dce5b9068c3a22f9fee01533c90c1e6d0b19e6f51deb0049bc65739320cb433"
        }
    },
    "replay-trace": {
        "exit": 0,
        "stdout": "aecd57ae40e0425aa4fd4562c8d20e1da33fecab26fb9f2e3917a6c4ebef03c3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/replay_stats.csv": "0349009985bbbb278e0dbd22cc08c6e36e04eb13a773de81c80c2f89d1bf1008",
            "out/report_t1000.csv": "910ee118a089b407261df158822613c50a29de9a561f52cc9e787303b4cac519",
            "out/report_t1005.csv": "7dd650430960c691a3d46430a8713de1218bbc9664a9867308fd694881b3cb4e",
            "trace.csv": "4db93dc98510dad6c0e305825567c8ed9080de18286cb082ff04fe887ac91840"
        }
    },
    "run-csv": {
        "exit": 0,
        "stdout": "d3025f9da48cf9fedff640da7a6e3d3f0a71507e28ebe85eaeb6ff2096d180d7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t1.csv": "b42be31ac1b5fedc96e0011b63f8ad55c6fff2ed121c2a6baf573936808c5965",
            "out/report_t1000.csv": "73eecfa1b9fb07fe14eeb200ca51759d81ff34f0a6217dd46dd275cc8a182677",
            "out/report_t3000.csv": "cedb421fd3d2bb126326385abfd6a10cf318eadae37b5aef9aaed351c9bb5255",
            "out/report_t50.csv": "a7d94c5eec660a58c3cfba518be04cd7f9b0216dcdc86a1c259326fecbb14c90"
        }
    },
    "run-json": {
        "exit": 0,
        "stdout": "5d7c6c874ff97540fc7bb9d4871e819b7f21121def6112e72712d701a4517eb5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t1000.json": "558693d78cf55466284616eb0564037e73f349733a0d314c2e55ebcee53dbdc7",
            "out/report_t3000.json": "7f295fcfca7c5648c16ac957037a743d7efa8cfbd75a8220f862c0fd6be0ecf1"
        }
    },
    "singular-all-1-5": {
        "exit": 0,
        "stdout": "66538a18bd3f3529a7c03d4bb39956d7e546c54bda8d052d4b7cdb08efd67c98",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t1.json": "11b65674a81ccd96c1381bd4b545a5e93ffb2762bf545958ff1b4bef4c8998b6",
            "out/report_t2.json": "562e4cf34120653803d5bc18147cbfc51b4225495b5a23a82bf648338508a8ab",
            "out/report_t3.json": "2ebe4c42313cf780dee8f5cdbd87f185813bb2b3fc7b21f86e5f3cbacf135f2f",
            "out/report_t4.json": "b818822c14f0ac88e601ef8d4c4ab970b4b5fee3447fbe25fd8170cd2b80b5ef",
            "out/report_t5.json": "489659c0260bded1ce4ba0b7fab5867d3ca33542700b44c517282e9ddb5aa678"
        }
    },
    "singular-mixed": {
        "exit": 0,
        "stdout": "d89f4091a1918a87e271c50adb8aa8bb30ddb47a4a383c27c4c0e3aee0dcf7ee",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t10.json": "e9804b2fce9cbaa42d8e5f342c3ccadb26d7419e69bdb4a24ea7445ed752d22c",
            "out/report_t3.json": "e3a528fff7f0003b245e3a8bba798081fcad1632e1e44f35e0265fec2e5c8b0f",
            "out/report_t30.json": "5d290622dcb4da30ff5acda1506f7894bf4cf067f8fab56e543bf785030baedc"
        }
    },
    "trace-linear": {
        "exit": 0,
        "stdout": "0a601e81ad11fe88b58fceec7ed88c211531fa98cc9e7dbdd46979415d2faa51",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t500.csv": "a8f93a4ca62f2dcd7bf6af04364366c92cbac539754c26b5a39260715ce7745a",
            "trace.csv": "36e5f34e5968e9f02928d8462caa44b084c7091bb4e2a1c5072729f41bdcdb6f"
        }
    },
    "trace-logistic": {
        "exit": 0,
        "stdout": "9cb74f4f2cc0229cc13fb626674f2feb97110c83e5cabe8f0041ba941383beb2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t500.json": "0b85282aa308ff2a8393b6856530424970ce0dbac94f7ccffaec3fcb9aa11cf8",
            "trace.csv": "c1ce7917dc3d5f32de4ecf57067261cf5435b0f47718cfe9e8524eda330be0ba"
        }
    },
    "tune-alpha-2-reps": {
        "exit": 0,
        "stdout": "0f79905c3229a95ea32802ec9c951751874d00b3b4c9b7435f275ca3d82cd5f1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/tune_alpha.json": "c13230b1de28e91396f3dfdf3db78159402fbb0f6c60b907f04b35cc458715b5",
            "out/tune_alpha_summary.json": "29af83b26b463cb20fbff3408f18159c47fb56ec708848f16c15d8fa8d63c3ae"
        }
    },
    "tune-alpha-5-reps": {
        "exit": 0,
        "stdout": "0f79905c3229a95ea32802ec9c951751874d00b3b4c9b7435f275ca3d82cd5f1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/tune_alpha.json": "50bbe8f9bdceef209e802af7d412a04c44fdd8ffc67eb5b38c5634f938d95632",
            "out/tune_alpha_summary.json": "4daab5392de77764577da36ba8ba9a84389e07ae0bdceef31ecd58dc4384fbc8"
        }
    },
    "value-skip-aipw": {
        "exit": 0,
        "stdout": "14eb7c92381f6edb1e62b5e9241c9fe828bb3fcdced7a160e867369ff9cc8ac9",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "out/report_t10.json": "2f538ef3e07c3c1110a289f897e33b33d794af534005b1f0d237a76e7b0ee86c",
            "out/report_t300.json": "8487f498689df76849af11a71a350dd0edbf845a34db6fdc25b943c44a7513c9",
            "out/report_t50.json": "44c7f2343750cb4c1657c7881f2f43234ef5a7837c07730a557f95e526ed92ef",
            "out/report_t51.json": "b601e6f2e5a89f385956ee2de5ea4e69eb31387aae90bc2101cbcc8b02bba0ca"
        }
    }
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_bytes_match_recorded_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


def test_worker_count_never_changes_mc_bytes():
    assert GOLDEN["mc-workers-1"] == GOLDEN["mc-workers-2"]


if __name__ == "__main__":
    import json
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: digests(name, Path(tmp) / name) for name in sorted(COMMANDS)}
    print("GOLDEN = " + json.dumps(recorded, indent=4))
