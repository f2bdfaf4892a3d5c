"""Inverse-propensity-weighted estimate of the optimal-rule value, and the
Monte Carlo value of the true greedy rule.

Each step contributes C * y / pi_C where C indicates that the sampled action
agreed with the current greedy action and pi_C = 1 - eps/2 is the known
probability of that agreement.  A running sum of C * y^2 / pi_C supports the
plugin variance.  The augmented variant adds a model-based correction and is
experimental: its variance is reported through the same plugin form applied
to its summands, which has no established guarantee.  The engine forms the
per-step terms and adds them to its sums (``engine._Sums.add``);
``inference.checkpoint_reports`` reads the estimates off its checkpoints.
"""
from __future__ import annotations

import math

import numpy as np

_ORACLE_BATCH = 65536  # feature rows per numpy pass of oracle_value


def _value_columns(total, total_sq, t, eps_t, aipw: bool):
    """The estimate ``total / t`` from a value estimator's sums of terms and
    of squared terms over ``t`` steps at exploration rate ``eps_t``, and its
    plug-in variance before clamping, as (K,) arrays over K checkpoints."""
    mean = total / t
    return mean, (1.0 if aipw else 2.0 / (2.0 - eps_t)) * total_sq / t - mean * mean


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
