"""The package's public names, listed so that a change to them shows in a diff."""
import inspect

import banditsgd

EXPORTS = {
    # engine
    "ProtocolError", "StreamResult", "run_stream", "run_stream_lagged",
    # environments
    "LaggedSyntheticEnvironment", "ReplayCursor", "ReplayExhausted", "ReplayLog",
    "ReplayLogError", "SyntheticConfig", "SyntheticEnvironment",
    "constant_lag", "geometric_lag", "load_replay_log", "write_replay_log",
    # experiments
    "ConfigError", "ExperimentConfig", "MonteCarloSummary", "TuneAlphaResult",
    "build_config", "emit_report", "load_config_file", "oracle_truth_value",
    "run_monte_carlo", "run_replication", "run_single", "tune_alpha",
    # inference
    "checkpoint_reports", "normal_cdf", "normal_quantile", "two_sided_p",
    # models
    "HESSIAN_EXACT", "HESSIAN_OUTER", "LinearModel", "LogisticModel", "ModelFamily",
    "make_model",
    # policy
    "RngStream", "derive_seed", "exploration_rate", "learning_rate", "splitmix64",
    # types
    "DimensionError", "ExplorationSchedule", "InferenceReport", "LearningSchedule",
    "ParameterState", "ReportRow",
    # value
    "oracle_value",
}


def test_exported_names():
    public = {name for name, obj in vars(banditsgd).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == EXPORTS
    assert len(EXPORTS) == 49
