"""Streaming epsilon-greedy contextual bandits with fully online inference.

The package makes binary decisions with an epsilon-greedy rule, learns the
reward-model parameters by averaged SGD with inverse-propensity-weighted
gradients, and maintains everything needed for inference online: a sandwich
covariance for the parameter average and an inverse-propensity-weighted
estimate of the optimal rule's value with its plugin variance.  Storage is
O(p^2) regardless of stream length.
"""

from .engine import ProtocolError, StreamResult, run_stream, run_stream_lagged
from .environments import (LaggedSyntheticEnvironment, ReplayCursor, ReplayExhausted,
                           ReplayLog, ReplayLogError, SyntheticConfig,
                           SyntheticEnvironment, constant_lag, geometric_lag,
                           load_replay_log, write_replay_log)
from .experiments import (ConfigError, ExperimentConfig, MonteCarloSummary,
                          TuneAlphaResult, build_config, emit_report,
                          load_config_file, oracle_truth_value, run_monte_carlo,
                          run_replication, run_single, tune_alpha)
from .inference import checkpoint_reports, normal_cdf, normal_quantile, two_sided_p
from .models import (HESSIAN_EXACT, HESSIAN_OUTER, LinearModel, LogisticModel,
                     ModelFamily, make_model)
from .policy import (RngStream, derive_seed, exploration_rate, learning_rate,
                     splitmix64)
from .types import (DimensionError, ExplorationSchedule, InferenceReport,
                    LearningSchedule, ParameterState, ReportRow)
from .value import oracle_value

__version__ = "0.1.0"
