"""Streaming execution: decide, act, observe, update.

``run_stream`` performs one inverse-propensity-weighted SGD step per observed
reward and maintains the running average of the iterates.  Inference and
value accumulators are fed with the pre-step average, the sampling
propensity, and the exploration rate in force at sampling time, before the
step is applied.  With a ``lag`` rewards arrive after later actions have
already been taken: one first-in-first-out queue holds each decision until
its reward is due, decisions use the most recent average under a propensity
that stays frozen between updates, and each arriving reward triggers exactly
one update.  ``_run_synthetic`` runs a batch of synthetic streams from
per-block draw tables, each equal bit for bit to ``run_stream`` on a
``SyntheticEnvironment``.  Every engine hands its steps to one record,
``_Sums``, which shows them to the ``on_steps`` hook, keeps every sum as one
array across the streams, holds the checkpoint schedule and builds each
stream's checkpoints and result.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from numbers import Integral

import numpy as np

from .environments import SyntheticConfig, SyntheticEnvironment
from .inference import ipw_weight
from .models import _HESSIAN_VARIANTS
from .policy import RngStream, exploration_rate, learning_rate
from .types import ExplorationSchedule, LearningSchedule
from .value import draw_features


@dataclass
class Checkpoints:
    """A stream's K checkpoints, oldest first, as arrays over them: the step
    ``t``, the exploration rate ``eps`` then in force, the step counts ``n``
    of the plug-in and ``value_t`` of the value sums, the averages
    ``bar_beta`` (K, 2p), and the sums ``S`` and ``H`` (K, 2p, 2p) and
    ``value``, ``None`` when not collected.  ``value`` (K, 2) holds the sums
    of the IPW value terms and of their squares; with AIPW it is (K, 4),
    the sums of the AIPW terms and of their squares following."""

    t: np.ndarray
    eps: np.ndarray
    n: np.ndarray
    value_t: np.ndarray
    bar_beta: np.ndarray
    S: np.ndarray | None
    H: np.ndarray | None
    value: np.ndarray | None


@dataclass
class StreamResult:
    """One stream's result: copies of the final iterate ``hat_beta`` and its
    running average ``bar_beta`` (2p,); the decision ``steps`` taken and the
    SGD ``updates`` applied; the ``total_reward`` of the updates; whether the
    environment ran out before the horizon, ``exhausted``; the decisions
    whose rewards never arrived, ``pending`` (0 without a ``lag``); and the
    ``checkpoints``, views of the rows its engine recorded."""

    hat_beta: np.ndarray
    bar_beta: np.ndarray
    steps: int
    updates: int
    total_reward: float
    exhausted: bool
    pending: int
    checkpoints: Checkpoints


# Steps held in the pending block before it is folded into the sums (and
# steps per table block of a lockstep batch).  Each fold builds a
# (rows, p, p) array, so rows shrink with p to stay within the float budget.
_BLOCK_ROWS = 1024
_BLOCK_FLOATS = 2 ** 16


def _block_rows(p: int) -> int:
    return max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // (p * p)))


def _fold_rows(acc: np.ndarray, outer: np.ndarray, coef: np.ndarray) -> None:
    """Add ``outer[i] * coef[i]`` to ``acc`` in order of ``i``, in place."""
    stack = np.concatenate((acc[None], outer * coef[:, None, None]))
    if acc.size == 1:
        # A contiguous 1-D reduce adds pairwise; accumulate adds in order.
        acc[...] = np.add.accumulate(stack.ravel())[-1]
    else:
        # Across the outer axis, reduce adds one row after another.
        acc[...] = np.add.reduce(stack, axis=0)


class _Sums:
    """The one record of a batch of ``reps`` streams (one for the per-step
    engines): the checkpoint steps ``due``; every sum on a stream axis: the
    plug-in sums ``S`` and ``H`` (R, 2p, 2p) and the value sums (R, 2), or
    (R, 4) with ``aipw``, ``None`` when not collected, and the total rewards
    (R,); and the first ``k`` checkpoints' ``rows``, with a stream axis after
    the checkpoint axis in per-stream fields.  Its step counts ``n`` and
    ``t`` hold for every stream."""

    def __init__(self, model, hessian: str, reps: int, horizon: int, checkpoints,
                 collect_inference: bool, collect_value: bool, aipw: bool, on_steps=None):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        if hessian not in _HESSIAN_VARIANTS:
            raise ValueError(f"unknown hessian variant {hessian!r}")
        self.model, self.hessian, self.aipw, self.on_steps = model, hessian, aipw, on_steps
        self.due = set()
        for c in checkpoints:
            if not float(c).is_integer():
                raise ValueError(f"checkpoint {c!r} is not a whole step")
            if not 1 <= int(c) <= horizon:
                raise ValueError(f"checkpoint {int(c)} outside [1, {horizon}]")
            self.due.add(int(c))
        dim = 2 * model.p
        self.S = np.zeros((reps, dim, dim)) if collect_inference else None
        self.H = np.zeros((reps, dim, dim)) if collect_inference else None
        self.value = np.zeros((reps, 4 if aipw else 2)) if collect_value else None
        self.total_reward = np.zeros(reps)
        self.n = self.t = self.k = 0
        # A row per due step, and one for the final step of a run whose
        # environment runs out; step counts stay integers.
        k = len(self.due) + 1
        self.rows = Checkpoints(*(
            None if a is None else np.empty((k,) + np.shape(a), np.result_type(a))
            for a in self._row(0, np.empty((reps, dim)), 0.0)))

    def add(self, t: np.ndarray, x: np.ndarray, act: np.ndarray, greedy: np.ndarray,
            y: np.ndarray, w: np.ndarray, eps: np.ndarray, include: np.ndarray,
            ubar: np.ndarray) -> None:
        """Add a run of steps to each stream's sums and total reward.

        Row ``i`` is a step, oldest first, and column ``r`` a stream.  Per
        step: its index ``t`` (steps,) and exploration rate ``eps`` (steps,),
        and whether its value terms count, ``include`` (steps, 1).  Per step
        and stream: the feature row ``x`` (steps, R, p), the taken and the
        greedy action (uint8), the reward ``y``, the taken action's IPW weight
        ``w`` and both actions' indexes at the pre-step average, ``ubar``
        (steps, R, 2).  Every sum ends bit-identical to adding each step's
        term as it arrives.
        """
        if self.on_steps is not None:
            self.on_steps(t, act, greedy, y, eps, ubar)
        model, link = self.model, self.model.mean_from_index_array
        if self.S is not None:
            p = x.shape[-1]
            mu = link(np.where(act, ubar[..., 1], ubar[..., 0]))
            gw = (mu - y) * w
            # hessian_scale is + - x only, so it takes the arrays whole.
            coefs = (gw * gw, model.hessian_scale(mu, y, self.hessian) * w)
            block = _block_rows(p)
            for r in range(x.shape[1]):
                for a, d in ((0, slice(0, p)), (1, slice(p, 2 * p))):
                    taken = np.flatnonzero(act[:, r] == a)
                    for b in range(0, len(taken), block):
                        j = taken[b:b + block]
                        xr = x[j, r]
                        outer = xr[:, :, None] * xr[:, None, :]
                        _fold_rows(self.S[r, d, d], outer, coefs[0][j, r])
                        _fold_rows(self.H[r, d, d], outer, coefs[1][j, r])
        if self.value is not None:
            pi_c = (1.0 - eps / 2.0)[:, None]
            consistent = act == greedy
            v = y / pi_c
            # A zero in place of a skipped term leaves a sum unchanged: sums
            # start at +0.0 and so never become -0.0.
            terms = [np.where(consistent & include, v, 0.0),
                     np.where(consistent & include, y * v, 0.0)]
            if self.aipw:
                c = consistent.astype(np.float64)
                mu_g = link(np.where(greedy, ubar[..., 1], ubar[..., 0]))
                term = np.where(include, c * y / pi_c - (c - pi_c) / pi_c * mu_g, 0.0)
                terms += [term, term * term]
            for j, term in enumerate(terms):
                self.value[:, j] = np.add.accumulate(
                    np.concatenate((self.value[None, :, j], term)))[-1]
        self.n += len(y)
        self.t += int(include.sum())
        self.total_reward[:] = np.add.accumulate(
            np.concatenate((self.total_reward[None], y)))[-1]

    def _row(self, t: int, bar: np.ndarray, eps: float) -> tuple:
        """The fields of a checkpoint after step ``t``, in ``Checkpoints``
        order, with the averages ``bar`` (R, 2p)."""
        return t, eps, self.n, self.t, bar, self.S, self.H, self.value

    def checkpoint(self, t: int, bar: np.ndarray, eps: float) -> None:
        """Record every stream's checkpoint after step ``t`` as the next row."""
        for stack, field in zip(vars(self.rows).values(), self._row(t, bar, eps)):
            if stack is not None:
                stack[self.k] = field
        self.k += 1

    def result(self, r: int, hat: np.ndarray, bar: np.ndarray, steps: int, updates: int,
               exhausted: bool = False, pending: int = 0) -> StreamResult:
        """Stream ``r``'s result, with the final iterate ``hat`` and average
        ``bar``, its total reward and its checkpoints (views of its rows)."""
        return StreamResult(hat.copy(), bar.copy(), steps, updates, float(self.total_reward[r]),
                            exhausted, pending, Checkpoints(*(
                                None if a is None else a[:self.k] if a.ndim == 1
                                else a[:self.k, r] for a in vars(self.rows).values())))


def _average(bar: np.ndarray, hat: np.ndarray, t: int) -> None:
    """Make ``bar`` the average of the first ``t`` iterates, ``hat`` being the
    last, in place so that the callers' views stay valid."""
    bar *= float(t - 1)
    bar += hat
    bar /= float(t)


def _sgd_step(hat: np.ndarray, bar: np.ndarray, block: np.ndarray, x: np.ndarray,
              y: float, w: float, alpha_t: float, t: int, link) -> None:
    """The ``t``-th IPW-SGD step, in place: ``block`` (the taken action's view
    of the iterate ``hat``) moves against the weighted gradient
    ``(link(block . x) - y) * w * x`` with step size ``alpha_t``, then
    ``bar`` takes the new iterate into its running average."""
    block -= (alpha_t * ((link(float(block.dot(x))) - y) * w)) * x
    _average(bar, hat, t)


class _UpdateCore:
    """Per-step arithmetic of ``run_stream``.

    ``sample`` makes the epsilon-greedy decision and ``apply`` consumes its
    reward.  Keeps the raw iterate and its running average as plain arrays
    with cached block views; the IPW weight and the step size are the
    package's own ``ipw_weight`` and ``learning_rate``.

    ``apply`` takes the SGD step at once but defers the step's record: a
    copy of ``x`` and the decision with its reward and weight wait in a
    pending block of at most ``_block_rows(p)`` steps, which ``fold`` hands
    to ``sums.add`` (one stream) before every checkpoint that ``snapshot``
    has ``sums`` record, when the block fills and before the result.
    """

    def __init__(self, model, learn: LearningSchedule, sums: _Sums):
        self.learn = learn
        self.sums = sums
        p = model.p
        self.hat = np.zeros(2 * p)
        self.bar = np.zeros(2 * p)
        self._hat_blocks = (self.hat[:p], self.hat[p:])
        self._bar_blocks = (self.bar[:p], self.bar[p:])
        self._rows = _block_rows(p)
        self._x = np.empty((self._rows, p))
        self._pending: list[tuple] = []
        self._link = model.mean_from_index
        self._check_reward = model.validate_reward
        self.updates = 0

    def indexes(self, x) -> tuple[float, float]:
        """Both actions' indexes at the current average."""
        return float(self._bar_blocks[0].dot(x)), float(self._bar_blocks[1].dot(x))

    def sample(self, x, eps: float, uniform: float, include: bool) -> tuple:
        """The epsilon-greedy decision at the current average, taking action 1
        when ``uniform`` falls below its propensity: the tuple ``(a, greedy,
        pi, eps, include, u0, u1)`` of the sampled and the greedy action, the
        propensity of action 1, the exploration rate, whether the step's value
        terms count, and both indexes."""
        u0, u1 = self.indexes(x)
        greedy = 1 if u1 > u0 else 0
        pi = 1.0 - eps / 2.0 if greedy == 1 else eps / 2.0
        return 1 if uniform < pi else 0, greedy, pi, eps, include, u0, u1

    def apply(self, x, decision: tuple, y: float) -> None:
        """Consume the reward ``y`` of ``sample``'s ``decision``: record the
        decision with ``y`` and the IPW weight, then take the SGD step with
        ordinal ``updates + 1``."""
        a, _, pi, eps, include = decision[:5]
        self._check_reward(y)
        w = ipw_weight(a, pi)
        ordinal = self.updates + 1
        if self.sums.value is not None and include and not 0.0 < eps <= 1.0:
            raise ValueError(f"exploration rate must lie in (0, 1], got {eps}")
        self._x[len(self._pending)] = x
        self._pending.append(decision + (y, w))

        _sgd_step(self.hat, self.bar, self._hat_blocks[a], x, y, w,
                  learning_rate(self.learn, ordinal), ordinal, self._link)
        self.updates = ordinal
        if len(self._pending) == self._rows:
            self.fold()

    def fold(self) -> None:
        """Hand the pending steps to the sums, oldest first."""
        if self._pending:
            n = len(self._pending)
            # (steps, R = 1, fields) in the order of apply's record.
            rec = np.fromiter(chain.from_iterable(self._pending), np.float64,
                              9 * n).reshape(n, 1, 9)
            a, greedy, _, eps, include, _, _, y, w = (rec[..., k] for k in range(9))
            self.sums.add(np.arange(self.updates - n + 1, self.updates + 1), self._x[:n, None],
                          a.astype(np.uint8), greedy.astype(np.uint8), y, w, eps[:, 0],
                          include != 0.0, rec[..., 5:7])
            self._pending.clear()

    def snapshot(self, t: int, eps: float) -> None:
        self.fold()
        self.sums.checkpoint(t, self.bar[None], eps)


def _lag_function(lag):
    """``run_stream``'s ``lag`` as a function ``lag(step, gen)``, or ``None``
    for a lag of 0, whose rewards are applied at once."""
    if callable(lag):
        return lag
    if not isinstance(lag, Integral):
        raise ValueError(f"lag must be a whole number of steps or a function, got {lag!r}")
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    lag = int(lag)
    return None if lag == 0 else lambda step, gen: lag


def run_stream(env, model, learn: LearningSchedule, explore: ExplorationSchedule,
               rng: RngStream, horizon: int, *, hessian: str = "exact",
               aipw: bool = False, collect_inference: bool = True,
               collect_value: bool = True, checkpoints=(),
               skip_value_burn_in: bool = False, on_steps=None, lag=0) -> StreamResult:
    """Run ``horizon`` decision steps against an environment.

    The environment supplies features via ``next_feature()`` (``None`` once
    exhausted, which stops the run cleanly) and rewards via
    ``outcome(x, action)``; an ``outcome`` of ``None`` marks a skipped replay
    entry, which consumes the entry but not a decision step.  A run whose
    environment runs out after at least one step ends with a checkpoint of
    its final step, unless that step already is one, holding every update
    made by then.  Reports come from the checkpoints alone:
    ``inference.checkpoint_reports`` reads one per checkpoint off
    ``result.checkpoints``, so a run that should report at its end passes
    ``checkpoints=(horizon,)``.  Fixed seeds give bit-identical runs.  Each
    run of steps added to the sums is first passed to
    ``on_steps(t, act, greedy, y, eps, ubar)``, if given, oldest first: the
    update ordinals (n,), the taken and greedy actions (uint8) and rewards
    (n, R = 1), the exploration rates (n,) and both indexes at the average
    in force at the update (n, R, 2), in arrays valid only during the call.

    ``lag`` delays each reward: a whole number of steps, or a function
    ``lag(step, gen)`` such as ``geometric_lag(q)``, called right after the
    step's reward is drawn with the generator of ``rng``.  The reward of
    decision step ``s`` arrives at step ``s + lag``, after every earlier
    reward, first in, first out; rewards due at step ``t`` are applied
    before the environment is read for its decision, and after the
    decision.  Updates use the propensity stored with the decision and the
    learning-rate index equal to the update ordinal.  The exploration clock
    advances with completed updates, so the rule stays frozen while rewards
    are outstanding.  Rewards still due at the end never update;
    ``result.pending`` counts them.  A lag of 0 applies each reward at once,
    so the clock is the decision step.
    """
    delay = _lag_function(lag)
    sums = _Sums(model, hessian, 1, horizon, checkpoints, collect_inference,
                 collect_value, aipw, on_steps)
    core = _UpdateCore(model, learn, sums)
    steps, eps, exhausted = 0, 1.0, False
    # (due step, copy of x, decision, reward) per decision awaiting its reward.
    queue: deque[tuple] = deque()

    def deliver(now: int) -> None:
        while queue and queue[0][0] <= now:
            _, x, decision, y = queue.popleft()
            # The sums take both indexes at the average in force at the update.
            core.apply(x, decision[:5] + core.indexes(x), y)

    for t in range(1, horizon + 1):
        if queue:
            deliver(t)
        clock = core.updates + 1
        rate = exploration_rate(explore, clock)
        include = not (skip_value_burn_in and clock <= explore.burn_in)
        while (x := env.next_feature()) is not None:
            decision = core.sample(x, rate, rng.uniform(), include)
            y = env.outcome(x, decision[0])
            if y is not None:
                break
        if x is None:
            exhausted = True
            break
        if delay is None:
            core.apply(x, decision, float(y))
        else:
            # A copy: an environment may reuse one feature array for every step.
            queue.append((t + int(delay(t, rng.gen)), x.copy(), decision, float(y)))
            deliver(t)
        steps, eps = t, rate
        if t in sums.due:
            core.snapshot(t, eps)
    if exhausted and steps >= 1 and steps not in sums.due:
        core.snapshot(steps, eps)
    core.fold()
    return sums.result(0, core.hat, core.bar, steps, core.updates, exhausted, len(queue))


# ---------------------------------------------------------------------------
# Synthetic streams fed from per-chunk draw tables.
# ---------------------------------------------------------------------------

def _rewards(model, u: np.ndarray, d: np.ndarray, sd: float) -> np.ndarray:
    """Rewards at true indexes ``u`` for reward draws ``d`` (broadcast to
    ``u``'s shape), equal entry for entry to ``SyntheticEnvironment.outcome``:
    ``u + sd * d`` (linear) or ``d < mean_from_index(u)`` (logistic)."""
    if model.tag == "linear":
        return u + sd * d
    return (d < model.mean_from_index_array(u)).astype(np.float64)


def _reward_table(model, x: np.ndarray, truth: np.ndarray, d: np.ndarray,
                  sd: float) -> np.ndarray:
    """Both actions' rewards (a last axis of 2) at feature rows ``x`` (last
    axis p) for reward draws ``d`` (``x``'s shape without its last axis).
    ``truth`` is the true parameter vector as a (2, p, 1) array; one stacked
    1 x p by p x 1 ``matmul`` gives each true index by the BLAS dot call of
    ``x @ block``."""
    u = (x[..., None, None, :] @ truth)[..., 0, 0]
    return _rewards(model, u, d[..., None], sd)


def _draw_chunk(gen, p: int, linear: bool, n: int):
    """One draw chunk of a synthetic stream whose first ``n`` steps are used,
    read from ``gen`` in the order ``run_stream`` on a ``SyntheticEnvironment``
    reads it: the feature chunk, the first step's action uniform, the
    reward-draw chunk (normal noise or uniforms), then one uniform per
    remaining step.  Returns the features, the ``n`` uniforms and the draws."""
    chunk = SyntheticEnvironment._CHUNK
    x = draw_features(gen, chunk, p)
    uni = np.empty(n)
    uni[0] = gen.random()
    d = gen.standard_normal(chunk) if linear else gen.random(chunk)
    uni[1:] = gen.random(n - 1)
    return x, uni, d


# Per replication and step of a draw chunk, a batch holds its feature row,
# action uniform and reward draw, and per step of a block (a quarter of the
# chunk) about 30 floats of tables, records and fold temporaries: p + 10
# floats per chunk step.  The budget counts p + 14 for the allocator's
# overhead; peak RSS grows by about p + 12 (README).
_BATCH_FLOATS = 2 ** 22

# Batches of fewer replications step each one with ``_sgd_step``; larger ones
# step all of them in one stacked numpy pass (README, "Defaults").
_MIN_BATCH = 3


def _batch_capacity(p: int) -> int:
    """Most replications one synthetic batch holds within the float budget."""
    return max(1, _BATCH_FLOATS // (SyntheticEnvironment._CHUNK * (p + 14)))


def _run_synthetic(synth: SyntheticConfig, learn: LearningSchedule,
                   explore: ExplorationSchedule, seeds, horizon: int, *,
                   hessian: str = "exact", aipw: bool = False,
                   collect_inference: bool = True, collect_value: bool = True,
                   checkpoints=(), skip_value_burn_in: bool = False, on_steps=None):
    """``run_stream`` on ``SyntheticEnvironment(synth, RngStream(seed))`` for
    every seed, equal bit for bit (README, "Defaults"), and with ``on_steps``
    seeing the columns it would see, one per seed.

    Returns each seed's ``StreamResult``.  Per block of ``_BLOCK_ROWS``
    steps, tables hold what does not depend on the learned state: both
    actions' rewards and, per greedy action, the taken action and its IPW
    weight.  Per step remain the indexes at the average, the greedy
    comparison and the update; a step records the greedy action and both
    indexes at the average.  The tables and records go to ``_Sums.add`` at
    the end of each block and at checkpoints.  Exceptions propagate.
    """
    model = synth.model
    p, reps, chunk = model.p, len(seeds), SyntheticEnvironment._CHUNK
    sums = _Sums(model, hessian, reps, horizon, checkpoints, collect_inference,
                 collect_value, aipw, on_steps)
    gens = [RngStream(s).gen for s in seeds]
    linear = model.tag == "linear"
    sd = math.sqrt(synth.sigma2)
    # Averages and iterates.  A stacked 1 x p by p x 1 matmul gives every
    # index, each by the BLAS dot call of ``block.dot(x)``.
    blocks = np.zeros((2, reps, 2, p))
    bar, hat = blocks
    hat_rows = hat.reshape(2 * reps, p)
    state = blocks[..., None]
    truth = synth.beta0.reshape(2, p, 1)
    feats = np.empty((chunk, reps, p))
    uni, draws = np.empty((2, chunk, reps))
    # Per step of a block: the indexes at the average and the iterate, by
    # replication and action, and the greedy action.
    dots = np.empty((_BLOCK_ROWS, 2, reps, 2, 1, 1))
    ubar = dots[:, 0, ..., 0, 0]
    greedy_k = np.empty((_BLOCK_ROWS, reps), dtype=np.uint8)
    # Flat offset of each replication's pair in a (reps, 2) table.
    pair = 2 * np.arange(reps)
    value_from = explore.burn_in if skip_value_burn_in else 0

    def stacked(i0: int, i1: int) -> None:
        """Steps i0..i1-1 of the current block, every replication at once."""
        for j in range(i0, i1):
            t = t0 + j + 1
            np.matmul(x_dot[j], state, out=dots[j])
            g = np.greater(ubar[j, :, 1], ubar[j, :, 0], out=greedy_k[j])
            ig = pair + g
            ia = ia_t[j].take(ig)
            # The step coefficient (mu_hat - y) * w * alpha_t.
            z = model.mean_from_index_array(dots[j, 1].take(ia))
            z -= y_t[j].take(ia)
            z *= w_t[j].take(ig)
            z *= alpha_b[j]
            # Each replication takes one row of its own pair, so no row repeats.
            hat_rows[ia] -= z[:, None] * x_k[j]
            _average(bar, hat, t)

    def scalar(i0: int, i1: int) -> None:
        """Steps i0..i1-1 of the current block, one replication after another."""
        span = slice(i0, i1)
        for r in range(reps):
            hat_r, bar_r = hat[r], bar[r]
            (bar0, bar1), taken = bar_r, tuple(hat_r)
            rec = []
            for t, x, alpha_t, y, act, w in zip(
                    range(t0 + i0 + 1, t0 + i1 + 1), x_k[span, r], alpha_b[span],
                    y_t[span, r].tolist(), act_t[span, r].tolist(), w_t[span, r].tolist()):
                u0 = float(bar0.dot(x))
                u1 = float(bar1.dot(x))
                g = 1 if u1 > u0 else 0
                a = act[g]
                _sgd_step(hat_r, bar_r, taken[a], x, y[a], w[g], alpha_t, t,
                          model.mean_from_index)
                rec.append((g, u0, u1))
            rec = np.array(rec)
            greedy_k[span, r] = rec[:, 0]
            ubar[span, r] = rec[:, 1:]

    advance = stacked if reps >= _MIN_BATCH else scalar

    def fold(i0: int, i1: int) -> None:
        """Hand steps i0..i1-1 of the current block to the sums."""
        span, t = slice(i0, i1), np.arange(t0 + i0 + 1, t0 + i1 + 1)
        greedy = greedy_k[span]
        act = np.where(greedy, act_t[span, :, 1], act_t[span, :, 0])
        y = np.where(act, y_t[span, :, 1], y_t[span, :, 0])
        w = np.where(greedy, w_t[span, :, 1], w_t[span, :, 0])
        sums.add(t, x_k[span], act, greedy, y, w, eps_k[span], t[:, None] > value_from,
                 ubar[span])

    for start in range(0, horizon, chunk):
        n = min(chunk, horizon - start)
        for r, gen in enumerate(gens):
            feats[:, r], uni[:n, r], draws[:, r] = _draw_chunk(gen, p, linear, n)
        for b0 in range(0, n, _BLOCK_ROWS):
            b1 = min(b0 + _BLOCK_ROWS, n)
            t0 = start + b0
            steps = range(t0 + 1, start + b1 + 1)
            eps_b = [exploration_rate(explore, t) for t in steps]
            alpha_b = [learning_rate(learn, t) for t in steps]
            x_k = feats[b0:b1]
            # Tables: rewards by action; taken action and weight by greedy action.
            y_t = _reward_table(model, x_k, truth, draws[b0:b1], sd)
            eps_k = np.array(eps_b)
            pi = np.stack((eps_k / 2.0, 1.0 - eps_k / 2.0), axis=1)[:, None, :]
            act_t = (uni[b0:b1, :, None] < pi).view(np.uint8)
            w_t = 1.0 / (2.0 * np.where(act_t, pi, 1.0 - pi))
            # The taken action's flat offset in a replication's pair.
            ia_t = act_t + pair[:, None]
            x_dot = x_k[:, None, :, None, None, :]
            i0 = 0
            for i1 in sorted({t - t0 for t in sums.due.intersection(steps)} | {b1 - b0}):
                advance(i0, i1)
                fold(i0, i1)
                if t0 + i1 in sums.due:
                    sums.checkpoint(t0 + i1, bar.reshape(reps, 2 * p), eps_b[i1 - 1])
                i0 = i1
    return [sums.result(r, hat[r].reshape(2 * p), bar[r].reshape(2 * p), horizon, horizon)
            for r in range(reps)]
