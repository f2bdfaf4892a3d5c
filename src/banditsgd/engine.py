"""Streaming execution: decide, act, observe, update.

``run_stream`` performs one inverse-propensity-weighted SGD step per observed
reward and maintains the running average of the iterates.  Inference and
value accumulators are fed with the pre-step average, the sampling
propensity, and the exploration rate in force at sampling time, before the
step is applied.  ``run_stream_lagged`` handles rewards that arrive after
later actions have already been taken: decisions use the most recent
average under a propensity that stays frozen between updates, and each
arriving reward triggers exactly one update, in first-in-first-out order.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .environments import SyntheticConfig, SyntheticEnvironment
from .inference import PluginAccumulators, ipw_weight
from .models import _HESSIAN_VARIANTS
from .policy import RngStream, exploration_rate, learning_rate
from .types import ExplorationSchedule, LearningSchedule, Observation, ParameterState
from .value import ValueAccumulator, default_feature_sampler


class ProtocolError(RuntimeError):
    """A lagged environment violated the reward-delivery contract."""


@dataclass
class StepRecord:
    """Pending decision awaiting its reward in lagged mode."""

    x: np.ndarray
    a: int
    pi_used: float
    eps_used: float
    greedy: int
    step: int
    include_value: bool = True


@dataclass
class Checkpoint:
    """State snapshot taken immediately after a given decision step."""

    t: int
    bar_beta: np.ndarray
    eps: float
    plugin: PluginAccumulators | None
    value: ValueAccumulator | None


@dataclass
class RunSummary:
    steps: int = 0
    updates: int = 0
    total_reward: float = 0.0
    exhausted: bool = False
    pending: int = 0
    checkpoints: list[Checkpoint] = field(default_factory=list)


@dataclass
class StreamResult:
    state: ParameterState
    plugin: PluginAccumulators | None
    value: ValueAccumulator | None
    summary: RunSummary


def ipw_gradient(model, beta_prev, obs: Observation, pi_prev: float) -> np.ndarray:
    """Loss gradient reweighted toward the uniform-random action rule."""
    return ipw_weight(obs.a, pi_prev) * model.loss_gradient(beta_prev, obs)


def sgd_step(state: ParameterState, model, schedule: LearningSchedule,
             obs: Observation, pi_used: float) -> ParameterState:
    """One weighted SGD step plus the recursive average; returns a new state."""
    t_next = state.t + 1
    g = ipw_gradient(model, state.hat_beta, obs, pi_used)
    hat = state.hat_beta - learning_rate(schedule, t_next) * g
    bar = (hat + state.t * state.bar_beta) / t_next
    return ParameterState(hat, bar, t_next)


# Steps held in the pending block before it is folded into the sums.  Each
# fold builds a (rows, p, p) array, so rows shrink with p to stay within the
# float budget.
_BLOCK_ROWS = 1024
_BLOCK_FLOATS = 2 ** 16


def _block_rows(p: int) -> int:
    return max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // (p * p)))


def _fold_rows(acc: np.ndarray, outer: np.ndarray, coef: list) -> None:
    """Add ``outer[i] * coef[i]`` to ``acc`` in order of ``i``, in place."""
    stack = np.concatenate((acc[None], outer * np.array(coef)[:, None, None]))
    if acc.size == 1:
        # A contiguous 1-D reduce adds pairwise; accumulate adds in order.
        acc[...] = np.add.accumulate(stack.ravel())[-1]
    else:
        # Across the outer axis, reduce adds one row after another.
        acc[...] = np.add.reduce(stack, axis=0)


class _UpdateCore:
    """Shared per-step arithmetic for both engine loops.

    ``sample`` makes the epsilon-greedy decision and ``apply`` consumes its
    reward.  Keeps the raw iterate and its running average as plain arrays
    with cached block views.  The IPW weight, the step size and the value
    update are the package's own ``ipw_weight``, ``learning_rate`` and
    ``ValueAccumulator.add_scalars``; the SGD step and the plug-in terms
    mirror ``sgd_step`` and ``accumulate`` (tests assert the equivalence).

    The value sums take each step's terms as it arrives.  The plug-in terms
    are computed with the same scalar arithmetic as one-step-at-a-time
    folding, but their p x p sums are deferred: a copy of ``x`` and the
    scalar coefficients wait in a pending block of at most ``_block_rows(p)``
    steps, which ``fold`` adds to the sums before every snapshot, when the
    block fills and before the result is returned.  Folding forms the same
    per-step terms and adds them in the order the steps came, so every sum is
    bit-identical to adding each step's term as it arrives.
    """

    def __init__(self, model, learn: LearningSchedule, *, variant: str,
                 collect_inference: bool, collect_value: bool, aipw: bool):
        if variant not in _HESSIAN_VARIANTS:
            raise ValueError(f"unknown hessian variant {variant!r}")
        self.learn = learn
        self.variant = variant
        p = model.p
        dim = 2 * p
        self.hat = np.zeros(dim)
        self.bar = np.zeros(dim)
        self._hat_blocks = (self.hat[:p], self.hat[p:])
        self._bar_blocks = (self.bar[:p], self.bar[p:])
        self._rows = _block_rows(p)
        self._pending = 0
        self.plugin = PluginAccumulators(dim) if collect_inference else None
        if self.plugin is not None:
            s, h = self.plugin.S_sum, self.plugin.H_sum
            self._s_blocks = (s[:p, :p], s[p:, p:])
            self._h_blocks = (h[:p, :p], h[p:, p:])
            # Per action block: features, gradient-square and curvature
            # coefficients of the pending steps.
            self._px = (np.empty((self._rows, p)), np.empty((self._rows, p)))
            self._ps = ([], [])
            self._ph = ([], [])
        self.value = ValueAccumulator(aipw=aipw) if collect_value else None
        self._link = model.mean_from_index
        self._hess_scale = model.hessian_scale
        self._check_reward = model.validate_reward
        self.updates = 0

    def sample(self, x, eps: float, rng: RngStream) -> tuple[int, float, int, float]:
        """Epsilon-greedy draw at the current average: the greedy action, the
        propensity of action 1, the sampled action and its linear index."""
        # Same expression as the update-time recomputation so that zero-lag
        # delivery reproduces the plain stream bit for bit.
        u0 = float(x @ self._bar_blocks[0])
        u1 = float(x @ self._bar_blocks[1])
        greedy = 1 if u1 > u0 else 0
        pi = 1.0 - eps / 2.0 if greedy == 1 else eps / 2.0
        a = 1 if rng.uniform() < pi else 0
        return greedy, pi, a, (u1 if a == 1 else u0)

    def apply(self, x, a: int, y: float, pi: float, eps: float, greedy: int,
              include_value: bool = True, u_bar: float | None = None) -> None:
        """Consume one reward: add the accumulator terms at the pre-step
        average to the pending block, then take the SGD step with ordinal
        ``updates + 1``.

        ``u_bar`` may carry the active-block index at the current average when
        the caller already computed it for the decision.
        """
        self._check_reward(y)
        w = ipw_weight(a, pi)
        ordinal = self.updates + 1

        if self.plugin is not None:
            if u_bar is None:
                u_bar = float(x @ self._bar_blocks[a])
            mu_bar = self._link(u_bar)
            gw = (mu_bar - y) * w
            s_coef = self._ps[a]
            self._px[a][len(s_coef)] = x
            s_coef.append(gw * gw)
            self._ph[a].append(self._hess_scale(mu_bar, y, self.variant) * w)
            self.plugin.n += 1
        if self.value is not None and include_value:
            mu_greedy = (self._link(float(x @ self._bar_blocks[greedy]))
                         if self.value.aipw else None)
            self.value.add_scalars(a, y, greedy, eps, mu_greedy)

        hat_block = self._hat_blocks[a]
        u_hat = float(x @ hat_block)
        g_scale = (self._link(u_hat) - y) * w
        alpha_t = learning_rate(self.learn, ordinal)
        hat_block -= (alpha_t * g_scale) * x
        # In-place running average keeps the cached views valid.
        bar = self.bar
        bar *= float(ordinal - 1)
        bar += self.hat
        bar /= float(ordinal)
        self.updates = ordinal
        self._pending += 1
        if self._pending == self._rows:
            self.fold()

    def fold(self) -> None:
        """Add the pending steps to the plug-in sums, oldest first."""
        if self.plugin is not None:
            for a in (0, 1):
                s_coef, h_coef = self._ps[a], self._ph[a]
                if s_coef:
                    x = self._px[a][:len(s_coef)]
                    outer = x[:, :, None] * x[:, None, :]
                    _fold_rows(self._s_blocks[a], outer, s_coef)
                    _fold_rows(self._h_blocks[a], outer, h_coef)
                    s_coef.clear()
                    h_coef.clear()
        self._pending = 0

    def snapshot(self, t: int, eps: float) -> Checkpoint:
        self.fold()
        return Checkpoint(
            t=t, bar_beta=self.bar.copy(), eps=eps,
            plugin=self.plugin.copy() if self.plugin is not None else None,
            value=self.value.copy() if self.value is not None else None,
        )

    def result(self, summary: RunSummary) -> StreamResult:
        self.fold()
        summary.updates = self.updates
        state = ParameterState(self.hat.copy(), self.bar.copy(), self.updates)
        return StreamResult(state, self.plugin, self.value, summary)


def run_stream(env, model, learn: LearningSchedule, explore: ExplorationSchedule,
               rng: RngStream, horizon: int, *, hessian: str = "exact",
               aipw: bool = False, collect_inference: bool = True,
               collect_value: bool = True, checkpoints=(),
               skip_value_burn_in: bool = False, observer=None) -> StreamResult:
    """Run ``horizon`` decision steps against an environment.

    The environment supplies features via ``next_feature()`` (``None`` once
    exhausted, which stops the run cleanly) and rewards via
    ``outcome(x, action)``; an ``outcome`` of ``None`` marks a skipped replay
    entry, which consumes the entry but not a decision step.  Fixed seeds give
    bit-identical runs.  ``observer``, if given, is called once per decision
    step, before the update, as ``observer(t, x, a, y, pi, eps, greedy, bar)``;
    ``bar`` is the live pre-step average, so an observer that keeps it must
    copy it.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    core = _UpdateCore(model, learn, variant=hessian,
                       collect_inference=collect_inference,
                       collect_value=collect_value, aipw=aipw)
    summary = RunSummary()
    cp_set = set(int(c) for c in checkpoints)
    for t in range(1, horizon + 1):
        eps = exploration_rate(explore, t)
        while True:
            x = env.next_feature()
            if x is None:
                summary.exhausted = True
                break
            greedy, pi, a, u_a = core.sample(x, eps, rng)
            y = env.outcome(x, a)
            if y is not None:
                break
        if summary.exhausted:
            break
        if observer is not None:
            observer(t, x, a, y, pi, eps, greedy, core.bar)
        include_value = not (skip_value_burn_in and t <= explore.burn_in)
        core.apply(x, a, float(y), pi, eps, greedy, include_value, u_bar=u_a)
        summary.total_reward += y
        summary.steps = t
        if t in cp_set:
            summary.checkpoints.append(core.snapshot(t, eps))
    return core.result(summary)


def run_stream_lagged(env, model, learn: LearningSchedule, explore: ExplorationSchedule,
                      rng: RngStream, horizon: int, *, hessian: str = "exact",
                      aipw: bool = False, collect_inference: bool = True,
                      collect_value: bool = True, checkpoints=(),
                      skip_value_burn_in: bool = False) -> StreamResult:
    """Run with delayed reward delivery.

    The environment exposes ``next_feature()``, ``submit(step, x, action)``
    and ``arrivals(step)``; the latter returns ``(step_index, reward)`` pairs
    that have just become available and must follow the order actions were
    taken.  Updates use the propensity stored with the pending record and the
    learning-rate index equal to the update ordinal.  The exploration clock
    advances with completed updates, so the rule stays frozen while rewards
    are outstanding.  Records whose rewards never arrive simply never update
    (they remain counted in ``summary.pending``).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    core = _UpdateCore(model, learn, variant=hessian,
                       collect_inference=collect_inference,
                       collect_value=collect_value, aipw=aipw)
    summary = RunSummary()
    cp_set = set(int(c) for c in checkpoints)
    pending: deque[StepRecord] = deque()

    def drain(now: int) -> None:
        for step_idx, y in env.arrivals(now):
            if not pending:
                raise ProtocolError(f"reward for step {step_idx} has no pending record")
            head = pending[0]
            if head.step != step_idx:
                raise ProtocolError(
                    f"reward for step {step_idx} arrived out of order; "
                    f"expected step {head.step}"
                )
            pending.popleft()
            core.apply(head.x, head.a, float(y), head.pi_used, head.eps_used,
                       head.greedy, head.include_value)
            summary.total_reward += y

    for t in range(1, horizon + 1):
        drain(t)
        x = env.next_feature()
        if x is None:
            summary.exhausted = True
            break
        ordinal_next = core.updates + 1
        eps = exploration_rate(explore, ordinal_next)
        greedy, pi, a, _ = core.sample(x, eps, rng)
        include_value = not (skip_value_burn_in and ordinal_next <= explore.burn_in)
        # A copy: an environment may reuse one feature array for every step.
        pending.append(StepRecord(x.copy(), a, pi, eps, greedy, t, include_value))
        env.submit(t, x, a)
        drain(t)
        summary.steps = t
        if t in cp_set:
            summary.checkpoints.append(core.snapshot(t, eps))
    summary.pending = len(pending)
    return core.result(summary)


# Per replication and step of a draw chunk, a lockstep batch holds its
# feature row and about 16 floats of draws, step records and temporaries.
_LOCKSTEP_FLOATS = 2 ** 22


def _lockstep_capacity(p: int) -> int:
    """Most replications one lockstep batch holds within the float budget."""
    return max(1, _LOCKSTEP_FLOATS // (SyntheticEnvironment._CHUNK * (p + 16)))


def _each(fn, *columns: np.ndarray) -> np.ndarray:
    """``fn`` on the entries of equally shaped arrays, one Python float each."""
    return np.reshape(list(map(fn, *(c.ravel().tolist() for c in columns))), columns[0].shape)


def _run_lockstep(synth: SyntheticConfig, learn: LearningSchedule,
                  explore: ExplorationSchedule, seeds, horizon: int, *,
                  hessian: str = "exact", aipw: bool = False,
                  collect_inference: bool = True, collect_value: bool = True,
                  checkpoints=(), skip_value_burn_in: bool = False, loss_grid=()):
    """``run_stream`` on ``SyntheticEnvironment(synth, RngStream(seed))`` for
    every seed, advanced together and equal bit for bit (README, "Defaults").

    Returns each replication's checkpoints and, given ``loss_grid``, each
    one's running mean loss at the pre-step average at those steps (else
    None).  Links and losses are the model's scalar hooks per entry; the
    rest is elementwise + - x / and in-order sums, folded every
    ``_BLOCK_ROWS`` steps and at checkpoints.  Exceptions propagate.
    """
    model, link = synth.model, synth.model.mean_from_index
    p, reps, chunk = model.p, len(seeds), SyntheticEnvironment._CHUNK
    gens = [RngStream(s).gen for s in seeds]
    sample = default_feature_sampler(p)
    linear = model.tag == "linear"
    sd = math.sqrt(synth.sigma2)
    cp_set = set(int(c) for c in checkpoints)
    grid = {int(t): j for j, t in enumerate(loss_grid)}
    # Averages, iterates and true blocks: one stacked 1 x p by p x 1 matmul
    # gives every index, each by the BLAS dot call of ``x @ block``.
    blocks = np.zeros((3, reps, 2, p))
    blocks[2] = synth.beta0.reshape(2, p)
    bar, hat = blocks[0], blocks[1]
    feats = np.empty((chunk, reps, p))
    uni, draws, y_k, w_k = (np.empty((chunk, reps)) for _ in range(4))
    # Per step: the action, the greedy action, both indexes at the average.
    act_k, greedy_k = np.empty((2, chunk, reps), dtype=bool)
    ubar_k = np.empty((chunk, reps, 2))
    eps_k = np.empty(chunk)
    plugins = [PluginAccumulators(2 * p) for _ in seeds] if collect_inference else []
    values = [ValueAccumulator(aipw=aipw) for _ in seeds] if collect_value else []
    loss_total = np.zeros(reps)
    losses = np.empty((reps, len(grid))) if grid else None
    block = _block_rows(p)

    def fold(i0: int, i1: int, t0: int) -> None:
        """Add chunk steps i0..i1-1, which are steps t0+1.., to the sums."""
        rows = slice(i0, i1)
        y, act = y_k[rows], act_k[rows]
        if collect_inference or grid:
            mu = _each(link, np.where(act, ubar_k[rows, :, 1], ubar_k[rows, :, 0]))
        if collect_inference:
            gw = (mu - y) * w_k[rows]
            # hessian_scale is + - x only, so it takes the arrays whole.
            coefs = (gw * gw, model.hessian_scale(mu, y, hessian) * w_k[rows])
            for r, plugin in enumerate(plugins):
                for a, d in ((0, slice(0, p)), (1, slice(p, 2 * p))):
                    taken = np.flatnonzero(act[:, r] == bool(a))
                    for b in range(0, len(taken), block):
                        j = taken[b:b + block]
                        x = feats[i0 + j, r]
                        outer = x[:, :, None] * x[:, None, :]
                        _fold_rows(plugin.S_sum[d, d], outer, coefs[0][j, r])
                        _fold_rows(plugin.H_sum[d, d], outer, coefs[1][j, r])
                plugin.n += i1 - i0
        if collect_value:
            include = np.arange(t0 + 1, t0 + 1 + i1 - i0)[:, None] > (
                explore.burn_in if skip_value_burn_in else 0)
            pi_c = (1.0 - eps_k[rows] / 2.0)[:, None]
            consistent = act == greedy_k[rows]
            v = y / pi_c
            # A zero in place of a skipped term leaves a sum unchanged: sums
            # start at +0.0 and so never become -0.0.
            terms = [np.where(consistent & include, v, 0.0),
                     np.where(consistent & include, y * v, 0.0)]
            if aipw:
                c = consistent.astype(np.float64)
                mu_g = _each(link, np.where(greedy_k[rows], ubar_k[rows, :, 1],
                                            ubar_k[rows, :, 0]))
                term = np.where(include, c * y / pi_c - (c - pi_c) / pi_c * mu_g, 0.0)
                terms += [term, term * term]
            sums = np.array([[a.sum_v, a.sum_v2, a.sum_aipw, a.sum_aipw2] for a in values]).T
            for j, term in enumerate(terms):
                sums[j] = np.add.accumulate(np.concatenate((sums[j][None], term)))[-1]
            included = int(include.sum())
            for value, column in zip(values, sums.T.tolist()):
                value.sum_v, value.sum_v2, value.sum_aipw, value.sum_aipw2 = column
                value.t += included
        if grid:
            running = np.add.accumulate(np.concatenate(
                (loss_total[None], _each(model.loss_from_mean, mu, y))))
            loss_total[:] = running[-1]
            for t in grid.keys() & range(t0 + 1, t0 + 1 + i1 - i0):
                losses[:, grid[t]] = running[t - t0] / t

    snaps: list[list[Checkpoint]] = [[] for _ in seeds]
    rep_index = np.arange(reps)
    for start in range(0, horizon, chunk):
        n = min(chunk, horizon - start)
        for r, gen in enumerate(gens):
            feats[:, r] = sample(gen, chunk)
            uni[0, r] = gen.random()
            draws[:, r] = gen.standard_normal(chunk) if linear else gen.random(chunk)
            uni[1:n, r] = gen.random(n - 1)
        folded = 0
        for k in range(n):
            t = start + k + 1
            eps = exploration_rate(explore, t)
            x = feats[k]
            dots = (x[:, None, None, :] @ blocks[..., None])[..., 0, 0]
            greedy = dots[0, :, 1] > dots[0, :, 0]
            pi = np.where(greedy, 1.0 - eps / 2.0, eps / 2.0)
            act = uni[k] < pi
            # The taken action's index at the iterate and at the truth.
            u = np.where(act, dots[1:, :, 1], dots[1:, :, 0])
            mu_hat, mu_true = _each(link, u)
            y = u[1] + sd * draws[k] if linear else (draws[k] < mu_true).astype(np.float64)
            w = 1.0 / (2.0 * np.where(act, pi, 1.0 - pi))
            act_k[k], greedy_k[k], ubar_k[k], y_k[k], w_k[k], eps_k[k] = (
                act, greedy, dots[0], y, w, eps)
            step = (learning_rate(learn, t) * ((mu_hat - y) * w))[:, None] * x
            hat[rep_index, act.astype(np.intp)] -= step
            bar *= float(t - 1)
            bar += hat
            bar /= float(t)
            if t in cp_set or k + 1 - folded == _BLOCK_ROWS:
                fold(folded, k + 1, start + folded)
                folded = k + 1
            if t in cp_set:
                for r in range(reps):
                    snaps[r].append(Checkpoint(
                        t=t, bar_beta=bar[r].reshape(2 * p).copy(), eps=eps,
                        plugin=plugins[r].copy() if plugins else None,
                        value=values[r].copy() if values else None))
        fold(folded, n, start + folded)
    return snaps, losses
