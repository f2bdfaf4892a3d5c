"""Per-step learning rates, exploration rates, propensities, and RNG streams."""
from __future__ import annotations

import numpy as np

from .types import ExplorationSchedule, LearningSchedule

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(v: int) -> int:
    """SplitMix64 mixing function (Vigna's reference constants).

    Used to derive independent per-replication seeds from a base seed and a
    replication index.
    """
    z = (v + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Per-replication seed: base seed XOR splitmix64 of the replication index."""
    return (int(seed) & _MASK64) ^ splitmix64(int(index))


class RngStream:
    """Seeded random stream; identical seeds give identical draws.

    Thin wrapper over numpy's PCG64 generator.  One stream is owned by one
    replication; never share a stream across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self) -> float:
        """One uniform draw on [0, 1)."""
        return float(self.gen.random())


def learning_rate(schedule: LearningSchedule, t: int) -> float:
    """Step size alpha * t**(-gamma) at step t >= 1."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return schedule.alpha * float(t) ** (-schedule.gamma)


def exploration_rate(schedule: ExplorationSchedule, t: int) -> float:
    """Exploration rate at step t >= 1; exactly 1 during burn-in."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if t <= schedule.burn_in:
        return 1.0
    if schedule.kind == "fixed":
        return schedule.eps_fixed
    return max(float(t) ** (-schedule.decay_exponent), schedule.eps_floor)
