"""Streaming epsilon-greedy contextual bandits with fully online inference.

The package makes binary decisions with an epsilon-greedy rule, learns the
reward-model parameters by averaged SGD with inverse-propensity-weighted
gradients, and maintains everything needed for inference online: a sandwich
covariance for the parameter average and an inverse-propensity-weighted
estimate of the optimal rule's value with its plugin variance.  Storage is
O(p^2) regardless of stream length.  The names below are the public API,
one README line each; everything else stays in its module.
"""

from .engine import StreamResult, run_stream
from .environments import (ReplayCursor, ReplayExhausted, ReplayLog, ReplayLogError,
                           SyntheticConfig, SyntheticEnvironment, geometric_lag,
                           load_replay_log, write_replay_log)
from .experiments import (ConfigError, ExperimentConfig, MonteCarloSummary,
                          TuneAlphaResult, build_config, load_config_file,
                          run_monte_carlo, run_single, tune_alpha)
from .inference import checkpoint_reports
from .models import LinearModel, LogisticModel, ModelFamily
from .policy import RngStream
from .types import DimensionError, ExplorationSchedule, InferenceReport, LearningSchedule
from .value import oracle_value

__version__ = "0.1.0"
