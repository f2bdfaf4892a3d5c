"""Observation sources: synthetic streams, lagged delivery, and replay logs.

Replay follows the match/drop evaluation for uniformly randomized logs: the
policy proposes an action for each logged entry; on agreement with the logged
action the entry's reward is kept as a decision step, otherwise the entry is
dropped and the next one is read.  The decision clock counts matched steps
only, since those are the steps the algorithm actually takes.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .policy import RngStream
from .types import DimensionError, Observation, as_float_vector
from .value import default_feature_sampler


@dataclass
class SyntheticConfig:
    """Ground truth for a simulated stream.

    ``beta0`` is the true parameter vector; ``sigma2`` is the reward noise
    variance (linear families only) and defaults to the model's own value.
    Features default to an intercept plus p-1 independent standard normal
    coordinates; a custom sampler must be a callable ``(generator, size) ->
    (size, p) array``.
    """

    model: object
    beta0: np.ndarray
    sigma2: float | None = None
    feature_sampler: object = None

    def __post_init__(self):
        self.beta0 = as_float_vector(self.beta0, "beta0")
        if self.beta0.shape[0] != 2 * self.model.p:
            raise DimensionError(
                f"beta0 has length {self.beta0.shape[0]}, expected {2 * self.model.p}"
            )
        if self.sigma2 is None:
            self.sigma2 = float(getattr(self.model, "sigma2", 0.0))
        if self.sigma2 < 0:
            raise ValueError("noise variance must be nonnegative")


class SyntheticEnvironment:
    """Infinite stream of simulated observations, owned by one run.

    Random draws are generated in chunks (features, reward noise) for speed;
    the stream is a pure function of the seed either way.  Returned feature
    vectors are read-only views into the current chunk.
    """

    _CHUNK = 4096

    def __init__(self, config: SyntheticConfig, rng: RngStream):
        self.config = config
        self.rng = rng
        self._gen = rng.gen
        p = config.model.p
        self._sample_chunk = default_feature_sampler(p)
        self._blocks = (config.beta0[:p].copy(), config.beta0[p:].copy())
        self._sd = math.sqrt(config.sigma2)
        self._linear = config.model.tag == "linear"
        self._link = config.model.mean_from_index
        self._features = None
        self._fi = self._CHUNK
        self._draws = None
        self._di = self._CHUNK

    def next_feature(self):
        if self.config.feature_sampler is not None:
            return np.asarray(self.config.feature_sampler(self._gen, 1), dtype=np.float64)[0]
        if self._fi >= self._CHUNK:
            self._features = self._sample_chunk(self._gen, self._CHUNK)
            self._fi = 0
        x = self._features[self._fi]
        self._fi += 1
        return x

    def _next_draw(self) -> float:
        if self._di >= self._CHUNK:
            if self._linear:
                self._draws = self._gen.standard_normal(self._CHUNK)
            else:
                self._draws = self._gen.random(self._CHUNK)
            self._di = 0
        d = self._draws[self._di]
        self._di += 1
        return d

    def outcome(self, x, a: int) -> float:
        u = float(x @ self._blocks[a])
        if self._linear:
            return u + self._sd * self._next_draw()
        return 1.0 if self._next_draw() < self._link(u) else 0.0


def constant_lag(lag: int):
    """Every reward arrives exactly ``lag`` steps after its action."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    return lambda step, gen: lag


def geometric_lag(success_prob: float):
    """Independent geometric lags on {0, 1, 2, ...} with the given success rate."""
    if not 0.0 < success_prob <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    return lambda step, gen: int(gen.geometric(success_prob)) - 1


class LaggedSyntheticEnvironment:
    """Synthetic stream whose rewards are delivered after a configurable lag.

    Delivery is serialized first-in-first-out: a reward becomes available only
    once every earlier reward has been delivered, matching the in-order
    consumption the lagged engine requires.
    """

    def __init__(self, config: SyntheticConfig, rng: RngStream, lag=1):
        self._inner = SyntheticEnvironment(config, rng)
        self._lag_fn = constant_lag(lag) if isinstance(lag, int) else lag
        self._queue: list[tuple[int, float, int]] = []  # (step, reward, due)
        self._head = 0

    def next_feature(self):
        return self._inner.next_feature()

    def submit(self, step: int, x, a: int) -> None:
        y = self._inner.outcome(x, a)
        due = step + int(self._lag_fn(step, self._inner._gen))
        self._queue.append((step, y, due))

    def arrivals(self, now: int):
        out = []
        while self._head < len(self._queue) and self._queue[self._head][2] <= now:
            step, y, _ = self._queue[self._head]
            out.append((step, y))
            self._head += 1
        return out


# ---------------------------------------------------------------------------
# Replay over logged randomized trials.
# ---------------------------------------------------------------------------

class ReplayLogError(ValueError):
    """A replay log file failed validation; the message carries the row index."""


class ReplayExhausted(Exception):
    """The replay cursor has consumed every log entry."""


@dataclass(frozen=True)
class ReplayLogEntry:
    """One logged randomized-trial record."""

    x: np.ndarray
    action: int
    reward: float
    propensity: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "x", as_float_vector(self.x, "x"))
        if self.action not in (0, 1):
            raise ValueError(f"logged action must be 0 or 1, got {self.action!r}")
        if not 0.0 < self.propensity < 1.0:
            raise ValueError(f"logged propensity must lie in (0, 1), got {self.propensity}")


def load_replay_log(path) -> list[ReplayLogEntry]:
    """Read a replay log CSV with header ``x1,...,xp,action,reward[,propensity]``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ReplayLogError("empty file: missing header") from None
        header = [h.strip() for h in header]
        has_prop = header and header[-1] == "propensity"
        feat_cols = header[:-3] if has_prop else header[:-2]
        tail = header[len(feat_cols):]
        expected_tail = ["action", "reward", "propensity"] if has_prop else ["action", "reward"]
        expected_feats = [f"x{i + 1}" for i in range(len(feat_cols))]
        if not feat_cols or feat_cols != expected_feats or tail != expected_tail:
            raise ReplayLogError(
                f"bad header {header!r}; expected x1,...,xp,action,reward[,propensity]"
            )
        p = len(feat_cols)
        entries = []
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ReplayLogError(f"row {i}: expected {len(header)} fields, got {len(row)}")
            try:
                x = np.array([float(v) for v in row[:p]])
                action_f = float(row[p])
                reward = float(row[p + 1])
                prop = float(row[p + 2]) if has_prop else 0.5
            except ValueError as exc:
                raise ReplayLogError(f"row {i}: {exc}") from None
            if action_f not in (0.0, 1.0):
                raise ReplayLogError(f"row {i}: action must be 0 or 1, got {row[p]!r}")
            if not 0.0 < prop < 1.0:
                raise ReplayLogError(f"row {i}: propensity must lie in (0, 1), got {prop}")
            if not math.isfinite(reward):
                raise ReplayLogError(f"row {i}: reward must be finite, got {row[p + 1]!r}")
            entries.append(ReplayLogEntry(x, int(action_f), reward, prop))
    return entries


def write_replay_log(path, entries) -> None:
    """Write entries in the documented CSV schema (propensity column included)."""
    if not entries:
        raise ValueError("refusing to write an empty replay log")
    p = entries[0].x.shape[0]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(p)] + ["action", "reward", "propensity"])
        for e in entries:
            writer.writerow([repr(float(v)) for v in e.x]
                            + [e.action, repr(float(e.reward)), repr(float(e.propensity))])


class ReplayCursor:
    """Single pass over a replay log with match/drop bookkeeping."""

    def __init__(self, entries):
        self.entries = list(entries)
        self._i = 0
        self.matched = 0
        self.skipped = 0
        p = self.entries[0].x.shape[0] if self.entries else 0
        self._sum_all = np.zeros(p)
        self._sum_matched = np.zeros(p)

    @property
    def exhausted(self) -> bool:
        return self._i >= len(self.entries)

    @property
    def consumed(self) -> int:
        return self._i

    def peek_feature(self):
        if self.exhausted:
            return None
        return self.entries[self._i].x

    def step(self, proposed: int):
        """Consume one entry; return the matched observation or None on drop."""
        if self.exhausted:
            raise ReplayExhausted(f"all {len(self.entries)} entries consumed")
        if proposed not in (0, 1):
            raise ValueError(f"proposed action must be 0 or 1, got {proposed!r}")
        entry = self.entries[self._i]
        self._i += 1
        self._sum_all += entry.x
        if proposed == entry.action:
            self.matched += 1
            self._sum_matched += entry.x
            return Observation(entry.x, proposed, entry.reward)
        self.skipped += 1
        return None

    def feature_mean_all(self) -> np.ndarray:
        if self.consumed == 0:
            raise ValueError("no entries consumed yet")
        return self._sum_all / self.consumed

    def feature_mean_matched(self) -> np.ndarray:
        if self.matched == 0:
            raise ValueError("no matched entries yet")
        return self._sum_matched / self.matched


class ReplayEnvironment:
    """Adapter exposing a replay cursor through the engine's interface."""

    def __init__(self, cursor: ReplayCursor):
        self.cursor = cursor

    def next_feature(self):
        return self.cursor.peek_feature()

    def outcome(self, x, a: int):
        obs = self.cursor.step(a)
        return None if obs is None else obs.y
