"""Online inverse-propensity-weighted estimate of the optimal-rule value.

Each step contributes C * y / pi_C where C indicates that the sampled action
agreed with the current greedy action and pi_C = 1 - eps/2 is the known
probability of that agreement.  A running sum of C * y^2 / pi_C supports the
plugin variance.  The augmented variant adds a model-based correction and is
experimental: its variance is reported through the same plugin form applied
to its summands, which has no established guarantee.  The engine forms the
per-step terms and adds them to these sums (``engine._Sums.add``).
"""
from __future__ import annotations

import math

import numpy as np

_ORACLE_BATCH = 65536  # feature rows per numpy pass of oracle_value


class ValueAccumulator:
    """Running sums for the value estimate and its plugin variance."""

    def __init__(self, aipw: bool = False):
        self.sum_v = 0.0
        self.sum_v2 = 0.0
        self.sum_aipw = 0.0
        self.sum_aipw2 = 0.0
        self.t = 0
        self.aipw = bool(aipw)


def value_estimate(acc: ValueAccumulator, aipw: bool = False) -> float:
    if acc.t < 1:
        raise ValueError("no accumulated steps")
    if aipw:
        if not acc.aipw:
            raise ValueError("accumulator was not collecting the augmented estimator")
        return acc.sum_aipw / acc.t
    return acc.sum_v / acc.t


def _value_columns(total, total_sq, t, eps_t, aipw: bool):
    """The estimate ``total / t`` from a value estimator's sums of terms and
    of squared terms over ``t`` steps at exploration rate ``eps_t``, and its
    plug-in variance before clamping; floats, or (K,) arrays of K checkpoints."""
    mean = total / t
    return mean, (1.0 if aipw else 2.0 / (2.0 - eps_t)) * total_sq / t - mean * mean


def raw_value_variance(acc: ValueAccumulator, eps_t: float, aipw: bool = False) -> float:
    """Plugin variance before clamping; may be slightly negative in finite samples."""
    if acc.t < 1:
        raise ValueError("no accumulated steps")
    if not 0.0 < eps_t <= 1.0:
        raise ValueError(f"exploration rate must lie in (0, 1], got {eps_t}")
    if aipw and not acc.aipw:
        raise ValueError("accumulator was not collecting the augmented estimator")
    sums = (acc.sum_aipw, acc.sum_aipw2) if aipw else (acc.sum_v, acc.sum_v2)
    return _value_columns(*sums, acc.t, eps_t, aipw)[1]


def value_variance(acc: ValueAccumulator, eps_t: float, aipw: bool = False) -> float:
    """Plugin variance clamped at zero (NaN stays NaN); callers flag the clamp
    via the raw form."""
    raw = raw_value_variance(acc, eps_t, aipw=aipw)
    return 0.0 if raw <= 0.0 else raw


def value_standard_error(acc: ValueAccumulator, eps_t: float, aipw: bool = False) -> float:
    return math.sqrt(value_variance(acc, eps_t, aipw=aipw) / acc.t)


def draw_features(gen: np.random.Generator, size: int, p: int) -> np.ndarray:
    """``size`` feature rows: intercept plus p-1 independent standard normals."""
    x = np.empty((size, p))
    x[:, 0] = 1.0
    if p > 1:
        x[:, 1:] = gen.standard_normal((size, p - 1))
    return x


def oracle_value(model, beta0, n: int, rng) -> tuple[float, float]:
    """Monte Carlo value of the greedy rule under the true parameters.

    Simulates ``n`` i.i.d. feature vectors, applies the greedy decision under
    ``beta0``, and averages the modeled mean reward (not noisy draws).
    Returns the mean and its standard error.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    beta0 = np.asarray(beta0, dtype=np.float64)
    p = model.p
    b0, b1 = beta0[:p], beta0[p:]
    gen = rng.gen
    total = 0.0
    total_sq = 0.0
    remaining = n
    while remaining > 0:
        m = min(_ORACLE_BATCH, remaining)
        x = draw_features(gen, m, p)
        u0, u1 = x @ b0, x @ b1
        rewards = model.mean_from_index_array(np.where(u1 > u0, u1, u0))
        total += float(rewards.sum())
        total_sq += float((rewards * rewards).sum())
        remaining -= m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n)
    return mean, se
