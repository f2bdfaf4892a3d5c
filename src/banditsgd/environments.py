"""Feature and reward sources: synthetic streams, reward lags, replay logs.

Replay follows the match/drop evaluation for uniformly randomized logs: the
policy proposes an action for each logged entry; on agreement with the logged
action the entry's reward is kept as a decision step, otherwise the entry is
dropped and the next one is read.  The decision clock counts matched steps
only, since those are the steps the algorithm actually takes.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import InitVar, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .policy import RngStream
from .types import DimensionError, as_float_vector
from .value import draw_features


@dataclass
class SyntheticConfig:
    """Ground truth for a simulated stream.

    ``beta0`` is the true parameter vector, with finite entries; ``sigma2``
    is the finite reward noise variance, passed to ``model.reward`` as the
    scale ``sqrt(sigma2)`` (the linear family adds it times a standard
    normal draw; the logistic family ignores it).  Features are an
    intercept plus p-1 independent standard normal coordinates.
    """

    model: object
    beta0: np.ndarray
    sigma2: float = 0.01

    def __post_init__(self):
        self.beta0 = as_float_vector(self.beta0, "beta0")
        if self.beta0.shape[0] != 2 * self.model.p:
            raise DimensionError(
                f"beta0 has length {self.beta0.shape[0]}, expected {2 * self.model.p}"
            )
        if not np.isfinite(self.beta0).all():
            raise ValueError(f"beta0 entries must be finite, got {self.beta0.tolist()!r}")
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError(f"noise variance must be finite and nonnegative, "
                             f"got {self.sigma2!r}")


class SyntheticEnvironment:
    """Infinite stream of simulated observations, owned by one run.

    Random draws are generated in chunks (features, reward draws) for speed;
    the stream is a pure function of the seed either way.  Returned feature
    vectors are views into the current chunk, which later draws never
    overwrite: each chunk is a new array.
    """

    _CHUNK = 4096

    def __init__(self, config: SyntheticConfig, rng: RngStream):
        self.rng = rng
        self._gen = rng.gen
        p = self._p = config.model.p
        self._blocks = (config.beta0[:p].copy(), config.beta0[p:].copy())
        self._sd = math.sqrt(config.sigma2)
        self._model = config.model
        self._features = None
        self._fi = self._CHUNK
        self._draws = None
        self._di = self._CHUNK

    def next_feature(self):
        if self._fi >= self._CHUNK:
            self._features = draw_features(self._gen, self._CHUNK, self._p)
            self._fi = 0
        x = self._features[self._fi]
        self._fi += 1
        return x

    def _next_draw(self) -> float:
        if self._di >= self._CHUNK:
            # Python floats: a numpy scalar would slow every step's reward.
            self._draws = self._model.reward_draws(self._gen, self._CHUNK).tolist()
            self._di = 0
        d = self._draws[self._di]
        self._di += 1
        return d

    def outcome(self, x, a: int) -> float:
        model = self._model
        return model.reward(model.mean_from_index(float(x @ self._blocks[a])),
                            self._next_draw(), self._sd)


def geometric_lag(success_prob: float):
    """Independent geometric lags on {0, 1, 2, ...} with the given success
    rate, for ``run_stream``'s ``lag``."""
    if not 0.0 < success_prob <= 1.0:
        raise ValueError("success probability must lie in (0, 1]")
    return lambda step, gen: int(gen.geometric(success_prob)) - 1


# ---------------------------------------------------------------------------
# Replay over logged randomized trials.
# ---------------------------------------------------------------------------

class ReplayLogError(ValueError):
    """A replay log failed validation; the message names the record."""


class ReplayExhausted(Exception):
    """The replay cursor has consumed every log entry."""


@dataclass(frozen=True)
class ReplayLog:
    """A logged uniformly randomized trial as columns: features (n, p), logged
    action in {0, 1} and finite reward.

    ``propensity``, the logged action's propensity (a column or one value),
    is checked to be 0.5 in every row and not kept: match/drop replay is
    unbiased only for a uniformly randomized log.  ``record(i)`` gives row
    ``i``'s record number and fields as written, for error messages; by
    default rows count from 1 and show their values.
    """

    x: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    propensity: InitVar[object] = 0.5
    record: InitVar[object] = None

    def __post_init__(self, propensity, record):
        x = np.asarray(self.x, dtype=np.float64)
        action, reward = np.asarray(self.action), np.asarray(self.reward, dtype=np.float64)
        if x.ndim != 2 or not x.shape[1] or not action.shape == reward.shape == x.shape[:1]:
            raise ReplayLogError(f"expected (n, p) features and n actions and rewards, got "
                                 f"shapes {x.shape}, {action.shape} and {reward.shape}")
        prop = np.broadcast_to(np.asarray(propensity, dtype=np.float64), action.shape)
        checks = (~np.isfinite(x).all(axis=1), (action != 0) & (action != 1),
                  prop != 0.5, ~np.isfinite(reward))
        bad = np.logical_or.reduce(checks)
        if bad.any():
            i, p = int(bad.argmax()), x.shape[1]
            number, fields = record(i) if record else (
                i + 1, x[i].tolist() + [action[i].item(), reward[i].item()])
            messages = (f"features must be finite, got {fields[:p]!r}",
                        f"action must be 0 or 1, got {fields[p]!r}",
                        f"propensity must be 0.5 (replay needs a uniformly randomized "
                        f"log), got {float(prop[i])}",
                        f"reward must be finite, got {fields[p + 1]!r}")
            k = next(k for k, check in enumerate(checks) if check[i])
            raise ReplayLogError(f"row {number}: {messages[k]}")
        for name, column in zip(("x", "action", "reward"),
                                (x, action.astype(np.int64, copy=False), reward)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.x.shape[0]


def _data_records(reader):
    """``(record number, fields)`` of each non-blank record after the header."""
    for number, row in enumerate(reader, start=1):
        if row and not (len(row) == 1 and not row[0].strip()):
            yield number, row


def _log_record(path, i: int) -> tuple[int, list[str]]:
    """Row ``i`` of the replay log CSV at ``path`` as ``(record number,
    fields)``, numbered as ``load_replay_log`` names rows in its errors.  For
    error paths: it reads the file again up to that row."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return next(islice(_data_records(rows), i, None))


def load_replay_log(path) -> ReplayLog:
    """Read a replay log CSV with header ``x1,...,xp,action,reward[,propensity]``.

    Rows are named by record number after the header, blank records counted.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ReplayLogError("empty file: missing header") from None
        has_prop = header[-1:] == ["propensity"]
        p, width = len(header) - 2 - has_prop, len(header)
        if p < 1 or header != [f"x{i + 1}" for i in range(p)] \
                + ["action", "reward", "propensity"][:2 + has_prop]:
            raise ReplayLogError(f"bad header {header!r}; "
                                 "expected x1,...,xp,action,reward[,propensity]")
        buf = array("d")

        def columns():
            data = np.frombuffer(buf, dtype=np.float64).reshape(-1, width)
            return ReplayLog(data[:, :p], data[:, p], data[:, p + 1],
                             data[:, p + 2] if has_prop else 0.5,
                             record=lambda i: _log_record(path, i))

        for number, row in _data_records(reader):
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                buf.extend(map(float, row))
            except ValueError as exc:
                # An earlier record's range error is the first error in the file.
                del buf[len(buf) - len(buf) % width:]
                columns()
                raise ReplayLogError(f"row {number}: {exc}") from None
    return columns()


def write_replay_log(path, log: ReplayLog) -> None:
    """Write a log in the documented CSV schema, without the propensity column."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(log.x.shape[1])] + ["action", "reward"])
        for x, a, y in zip(log.x.tolist(), log.action.tolist(), log.reward.tolist()):
            writer.writerow([*map(repr, x), a, repr(y)])


class ReplayCursor:
    """The engine's environment for replay: one pass over a log, match/drop.

    ``next_feature()`` gives the current entry's features (``None`` once the
    log is exhausted); ``outcome(x, a)`` consumes the entry and gives its
    reward when ``a`` is the logged action, ``None`` when the entry is dropped.
    """

    def __init__(self, log: ReplayLog):
        self.log = log
        self.consumed = self.matched = self.skipped = 0

    @property
    def exhausted(self) -> bool:
        return self.consumed >= len(self.log)

    def next_feature(self):
        return None if self.exhausted else self.log.x[self.consumed]

    def outcome(self, x, a: int):
        i = self.consumed
        if i >= len(self.log):
            raise ReplayExhausted(f"all {len(self.log)} entries consumed")
        self.consumed = i + 1
        if a == self.log.action[i]:
            self.matched += 1
            return float(self.log.reward[i])
        self.skipped += 1
        return None
