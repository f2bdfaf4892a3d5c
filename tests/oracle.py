"""Per-observation reference operations that the engine is checked against.

The package forms its accumulator terms in blocks (``engine._fold_steps``)
and takes SGD steps on in-place arrays.  The functions here state the same
quantities one observation at a time, straight from the paper's formulas:
the loss of one observation with its gradient and curvature, the greedy
decision and its propensity, one IPW-SGD step with its running average, and
one step of the plug-in and value sums.  Tests compare the engine with them
and check them against finite differences.
"""
from __future__ import annotations

import math

import numpy as np

from banditsgd.inference import PluginAccumulators, ipw_weight
from banditsgd.environments import ReplayCursor
from banditsgd.models import HESSIAN_EXACT, _HESSIAN_VARIANTS
from banditsgd.policy import RngStream, learning_rate
from banditsgd.types import (DimensionError, LearningSchedule, Observation, ParameterState,
                             as_float_vector)
from banditsgd.value import ValueAccumulator


# ---------------------------------------------------------------------------
# One observation of a model family.
# ---------------------------------------------------------------------------

def linear_index(model, a: int, x, beta) -> float:
    """The block-linear index ``x . beta[:p]`` (action 0) or ``x . beta[p:]``."""
    x = as_float_vector(x, "x")
    beta = as_float_vector(beta, "beta")
    p = model.p
    if x.shape[0] != p:
        raise DimensionError(f"x has length {x.shape[0]}, expected {p}")
    if beta.shape[0] != 2 * p:
        raise DimensionError(f"beta has length {beta.shape[0]}, expected {2 * p}")
    if a not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {a!r}")
    block = beta[p:] if a == 1 else beta[:p]
    return float(x @ block)


def mean_reward(model, a: int, x, beta) -> float:
    u = linear_index(model, a, x, beta)
    if not math.isfinite(u):
        raise ValueError(f"linear index is not finite: {u!r}")
    return model.mean_from_index(u)


def loss(model, beta, obs: Observation) -> float:
    model.validate_reward(obs.y)
    return model.loss_from_mean(mean_reward(model, obs.a, obs.x, beta), obs.y)


def loss_gradient(model, beta, obs: Observation) -> np.ndarray:
    """(mean - y) x in the taken action's block, zero in the other."""
    model.validate_reward(obs.y)
    mu = mean_reward(model, obs.a, obs.x, beta)
    p = model.p
    g = np.zeros(2 * p)
    off = p if obs.a == 1 else 0
    g[off:off + p] = (mu - obs.y) * obs.x
    return g


def loss_hessian(model, beta, obs: Observation, variant: str = HESSIAN_EXACT) -> np.ndarray:
    """The curvature scale times x x^T in the taken action's diagonal block."""
    if variant not in _HESSIAN_VARIANTS:
        raise ValueError(f"unknown hessian variant {variant!r}")
    model.validate_reward(obs.y)
    mu = mean_reward(model, obs.a, obs.x, beta)
    p = model.p
    h = np.zeros((2 * p, 2 * p))
    off = p if obs.a == 1 else 0
    h[off:off + p, off:off + p] = model.hessian_scale(mu, obs.y, variant) * np.outer(obs.x, obs.x)
    return h


# ---------------------------------------------------------------------------
# The epsilon-greedy decision.
# ---------------------------------------------------------------------------

def decide_optimal(model, beta, x) -> int:
    """Greedy action: 1 iff the modeled mean reward of action 1 strictly exceeds
    that of action 0; exact ties resolve to 0.

    Both shipped families are index models whose mean is strictly increasing in
    the linear index, so the comparison is done on the index itself.  This is
    equivalent to comparing mean rewards and is robust where the mean saturates
    in floating point.
    """
    u0 = linear_index(model, 0, x, beta)
    u1 = linear_index(model, 1, x, beta)
    return 1 if u1 > u0 else 0


def propensity(model, bar_beta, x, eps: float) -> float:
    """Probability of taking action 1 under the epsilon-greedy rule.

    Returns 1 - eps/2 when the greedy action is 1 and eps/2 otherwise, so the
    probability of either action is at least eps/2 > 0.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"exploration rate must lie in (0, 1], got {eps}")
    if decide_optimal(model, bar_beta, x) == 1:
        return 1.0 - eps / 2.0
    return eps / 2.0


def sample_action(pi: float, rng: RngStream) -> int:
    """Draw an action from Bernoulli(pi) by inversion; consumes one uniform."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"propensity must lie strictly in (0, 1), got {pi}")
    return 1 if rng.uniform() < pi else 0


# ---------------------------------------------------------------------------
# One IPW-SGD step.
# ---------------------------------------------------------------------------

def zero_state(p: int) -> ParameterState:
    return ParameterState(np.zeros(2 * p), np.zeros(2 * p), 0)


def ipw_gradient(model, beta_prev, obs: Observation, pi_prev: float) -> np.ndarray:
    """Loss gradient reweighted toward the uniform-random action rule."""
    return ipw_weight(obs.a, pi_prev) * loss_gradient(model, beta_prev, obs)


def sgd_step(state: ParameterState, model, schedule: LearningSchedule,
             obs: Observation, pi_used: float) -> ParameterState:
    """One weighted SGD step plus the recursive average; returns a new state."""
    t_next = state.t + 1
    g = ipw_gradient(model, state.hat_beta, obs, pi_used)
    hat = state.hat_beta - learning_rate(schedule, t_next) * g
    bar = (hat + state.t * state.bar_beta) / t_next
    return ParameterState(hat, bar, t_next)


# ---------------------------------------------------------------------------
# One step of the plug-in and value sums.
# ---------------------------------------------------------------------------

def accumulate(acc: PluginAccumulators, model, bar_beta_prev, obs: Observation,
               pi_prev: float, variant: str = "exact") -> PluginAccumulators:
    """Add one step to the running sums.

    ``bar_beta_prev`` must be the averaged iterate before the step and
    ``pi_prev`` the propensity that actually sampled ``obs.a``.  Mutates and
    returns ``acc``.
    """
    w = ipw_weight(obs.a, pi_prev)
    g = w * loss_gradient(model, bar_beta_prev, obs)
    acc.S_sum += np.outer(g, g)
    acc.H_sum += w * loss_hessian(model, bar_beta_prev, obs, variant)
    acc.n += 1
    return acc


def merge_plugin(acc: PluginAccumulators, other: PluginAccumulators) -> PluginAccumulators:
    """Combine streams by summing sums and counts."""
    if other.dim != acc.dim:
        raise ValueError("cannot merge accumulators of different dimensions")
    acc.S_sum += other.S_sum
    acc.H_sum += other.H_sum
    acc.n += other.n
    return acc


def s_hat(acc: PluginAccumulators) -> np.ndarray:
    if acc.n < 1:
        raise ValueError("no accumulated steps")
    return acc.S_sum / acc.n


def h_hat(acc: PluginAccumulators) -> np.ndarray:
    if acc.n < 1:
        raise ValueError("no accumulated steps")
    return acc.H_sum / acc.n


def add_scalars(acc: ValueAccumulator, a: int, y: float, decided_optimal: int,
                eps_t: float, mu_hat: float | None = None) -> None:
    """Add one step's value terms: C y / pi_C and C y^2 / pi_C, and with aipw
    the augmented term and its square."""
    if not 0.0 < eps_t <= 1.0:
        raise ValueError(f"exploration rate must lie in (0, 1], got {eps_t}")
    pi_c = 1.0 - eps_t / 2.0
    consistent = a == decided_optimal
    if consistent:
        w = y / pi_c
        acc.sum_v += w
        acc.sum_v2 += y * w
    if acc.aipw:
        if mu_hat is None:
            raise ValueError("augmented estimator requires the modeled mean reward")
        c = 1.0 if consistent else 0.0
        term = c * y / pi_c - (c - pi_c) / pi_c * mu_hat
        acc.sum_aipw += term
        acc.sum_aipw2 += term * term
    acc.t += 1


def update_value(acc: ValueAccumulator, obs: Observation, decided_optimal: int,
                 eps_t: float, mu_hat: float | None = None) -> ValueAccumulator:
    """Add one step; ``decided_optimal`` is the greedy action under the
    pre-step averaged iterate and ``eps_t`` the exploration rate in force when
    the action was sampled.  Mutates and returns ``acc``."""
    add_scalars(acc, obs.a, obs.y, decided_optimal, eps_t, mu_hat)
    return acc


def merge_value(acc: ValueAccumulator, other: ValueAccumulator) -> ValueAccumulator:
    acc.sum_v += other.sum_v
    acc.sum_v2 += other.sum_v2
    acc.sum_aipw += other.sum_aipw
    acc.sum_aipw2 += other.sum_aipw2
    acc.t += other.t
    return acc


# ---------------------------------------------------------------------------
# Replay bookkeeping.
# ---------------------------------------------------------------------------

class MeanTrackingCursor(ReplayCursor):
    """A replay cursor that also sums the features of the entries it consumes
    and of those it matches."""

    def __init__(self, entries):
        super().__init__(entries)
        p = self.entries[0].x.shape[0] if self.entries else 0
        self._sum_all = np.zeros(p)
        self._sum_matched = np.zeros(p)

    def step(self, proposed: int):
        x = None if self.exhausted else self.entries[self.consumed].x
        obs = super().step(proposed)
        self._sum_all += x
        if obs is not None:
            self._sum_matched += x
        return obs

    def feature_mean_all(self) -> np.ndarray:
        if self.consumed == 0:
            raise ValueError("no entries consumed yet")
        return self._sum_all / self.consumed

    def feature_mean_matched(self) -> np.ndarray:
        if self.matched == 0:
            raise ValueError("no matched entries yet")
        return self._sum_matched / self.matched
