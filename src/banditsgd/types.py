"""Shared data model: schedules, and reports as columns.

Parameter vectors follow a fixed block layout: a model with feature dimension
``p`` carries ``2p`` parameters, the first ``p`` for action 0 and the last
``p`` for action 1.  Every matrix in the package uses the same block order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """A vector or matrix does not match the configured dimension."""


def as_float_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting anything else."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LearningSchedule:
    """Step sizes ``alpha * t**(-gamma)`` with ``alpha > 0`` and ``gamma`` in (0.5, 1)."""

    alpha: float
    gamma: float = 0.501

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1), got {self.gamma}")


@dataclass(frozen=True)
class ExplorationSchedule:
    """Exploration rate per step.

    The rate is 1 (pure exploration) for the first ``burn_in`` steps.  After
    burn-in a ``fixed`` schedule emits ``eps_fixed`` forever, while a ``decay``
    schedule emits ``max(t**-decay_exponent, eps_floor)`` with the clock ``t``
    being the absolute step index.  The emitted rate is always in (0, 1] and
    non-increasing after burn-in, so inverse-propensity weights stay bounded.
    """

    kind: str
    eps_fixed: float | None = None
    decay_exponent: float | None = None
    eps_floor: float | None = None
    burn_in: int = 50

    def __post_init__(self):
        if self.kind not in ("fixed", "decay"):
            raise ValueError(f"kind must be 'fixed' or 'decay', got {self.kind!r}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.kind == "fixed":
            if self.eps_fixed is None or not 0 < self.eps_fixed <= 1:
                raise ValueError(f"eps_fixed must lie in (0, 1], got {self.eps_fixed}")
        else:
            if self.decay_exponent is None or not self.decay_exponent > 0:
                raise ValueError(f"decay_exponent must be positive, got {self.decay_exponent}")
            if self.eps_floor is None or not 0 < self.eps_floor <= 1:
                raise ValueError(f"eps_floor must lie in (0, 1], got {self.eps_floor}")
        # At a greedy propensity of 1 the other action's IPW weight is undefined.
        if not 1.0 - self.eps_limit / 2.0 < 1.0:
            raise ValueError(f"exploration rate {self.eps_limit!r} is too small: "
                             f"the greedy propensity 1 - eps/2 rounds to 1.0")

    @classmethod
    def fixed(cls, eps: float, burn_in: int = 50) -> "ExplorationSchedule":
        return cls("fixed", eps_fixed=eps, burn_in=burn_in)

    @classmethod
    def decaying(cls, exponent: float, floor: float, burn_in: int = 50) -> "ExplorationSchedule":
        return cls("decay", decay_exponent=exponent, eps_floor=floor, burn_in=burn_in)

    @property
    def eps_limit(self) -> float:
        """The limiting exploration rate (strictly positive by construction)."""
        return self.eps_fixed if self.kind == "fixed" else self.eps_floor


@dataclass
class InferenceReport:
    """A run's reports as columns over its checkpoint steps ``t`` (K,) and
    row ``names`` (n): the parameter rows, then ``V_opt``, then ``V_opt_aipw``
    under AIPW.  ``estimate``, ``se``, ``ci_lo``, ``ci_hi`` and ``flag`` are
    (K, n); ``t_value`` and ``p_value`` are (K, m), over the m parameter
    rows, as a value row has no test."""

    level: float
    t: np.ndarray
    names: list[str]
    estimate: np.ndarray
    se: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    t_value: np.ndarray
    p_value: np.ndarray
    flag: np.ndarray
