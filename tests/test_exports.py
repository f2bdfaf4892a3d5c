"""The package's public names, listed so that a change to them shows in a diff,
and checked against the list README's library section documents."""
import inspect
import re
from pathlib import Path

import banditsgd

EXPORTS = {
    # engine
    "StreamResult", "run_stream",
    # environments
    "ReplayCursor", "ReplayExhausted", "ReplayLog", "ReplayLogError", "SyntheticConfig",
    "SyntheticEnvironment", "geometric_lag", "load_replay_log", "write_replay_log",
    # experiments
    "ConfigError", "ExperimentConfig", "MonteCarloSummary", "TuneAlphaResult",
    "build_config", "load_config_file", "run_monte_carlo", "run_single", "tune_alpha",
    # inference
    "checkpoint_reports",
    # models
    "LinearModel", "LogisticModel", "ModelFamily",
    # policy
    "RngStream",
    # types
    "DimensionError", "ExplorationSchedule", "InferenceReport", "LearningSchedule",
    # value
    "oracle_value",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def _public_names() -> dict[str, str]:
    return {name: getattr(obj, "__module__", None) for name, obj in vars(banditsgd).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def _documented() -> list[tuple[str, str]]:
    """(module, name) of each name line of README's library section: a bullet
    opening with the name in backticks, under a line naming its module."""
    section = README.read_text().split("\n## Library quick start\n")[1].split("\n## ")[0]
    out, module = [], None
    for line in section.splitlines():
        if m := re.match(r"`(banditsgd\.\w+)`", line):
            module = m.group(1)
        elif m := re.match(r"- `(\w+)", line):
            out.append((module, m.group(1)))
    return out


def test_exported_names():
    assert set(_public_names()) == EXPORTS
    assert len(EXPORTS) == 30


def test_readme_lists_each_export_once_under_its_module():
    documented = _documented()
    assert sorted(name for _, name in documented) == sorted(EXPORTS)
    assert sorted(documented) == sorted((module, name)
                                        for name, module in _public_names().items())
