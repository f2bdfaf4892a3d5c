"""Per-observation reference operations that the engine is checked against.

The package forms its accumulator terms in blocks (``engine._Sums.add``)
and takes SGD steps on in-place arrays.  The functions here state the same
quantities one observation at a time, straight from the paper's formulas:
the loss of one observation with its gradient and curvature, the greedy
decision and its propensity, one IPW-SGD step with its running average, and
one step of the plug-in and value sums.  Tests compare the engine with them
and check them against finite differences.  A ``RecordingEnvironment`` and a
snapshot at every step give a run's steps for that comparison; with a
``RecordingLag`` too, ``fifo_events`` and ``lagged_fold`` replay a lagged
run's decisions and updates in first-in-first-out order.
``report_rows`` and ``report_row`` read one checkpoint of a columnar
``InferenceReport`` as the report writers format it.
"""
from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from banditsgd.inference import ipw_weight
from banditsgd.environments import ReplayCursor
from banditsgd.experiments import _report_tables
from banditsgd.models import HESSIAN_EXACT, _HESSIAN_VARIANTS
from banditsgd.policy import RngStream, exploration_rate, learning_rate
from banditsgd.types import DimensionError, LearningSchedule, as_float_vector


@dataclass(frozen=True)
class Observation:
    """One decision step: feature vector ``x``, binary action ``a``, reward ``y``."""

    x: np.ndarray
    a: int
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_float_vector(self.x, "x"))
        if self.a not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {self.a!r}")
        object.__setattr__(self, "y", float(self.y))
        if not math.isfinite(self.y):
            raise ValueError(f"reward must be finite, got {self.y!r}")

    @property
    def p(self) -> int:
        return self.x.shape[0]


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

# The raw iterate, its running average over the first ``t`` iterates, and ``t``.
State = namedtuple("State", "hat_beta bar_beta t")


def zero_state(p: int) -> State:
    return State(np.zeros(2 * p), np.zeros(2 * p), 0)


def ipw_gradient(model, beta_prev, obs: Observation, pi_prev: float) -> np.ndarray:
    """Loss gradient reweighted toward the uniform-random action rule."""
    return ipw_weight(obs.a, pi_prev) * loss_gradient(model, beta_prev, obs)


def sgd_step(state: State, model, schedule: LearningSchedule,
             obs: Observation, pi_used: float) -> State:
    """One weighted SGD step plus the recursive average; returns a new state."""
    t_next = state.t + 1
    g = ipw_gradient(model, state.hat_beta, obs, pi_used)
    hat = state.hat_beta - learning_rate(schedule, t_next) * g
    bar = (hat + state.t * state.bar_beta) / t_next
    return State(hat, bar, t_next)


# ---------------------------------------------------------------------------
# One step of the plug-in and value sums.
# ---------------------------------------------------------------------------

def accumulate(S: np.ndarray, H: np.ndarray, model, bar_beta_prev, obs: Observation,
               pi_prev: float, variant: str = "exact") -> None:
    """Add one step to the running plug-in sums ``S`` and ``H`` (2p, 2p), in
    place.

    ``bar_beta_prev`` must be the averaged iterate before the step and
    ``pi_prev`` the propensity that actually sampled ``obs.a``.
    """
    w = ipw_weight(obs.a, pi_prev)
    g = w * loss_gradient(model, bar_beta_prev, obs)
    S += np.outer(g, g)
    H += w * loss_hessian(model, bar_beta_prev, obs, variant)


def update_value(sums: np.ndarray, obs: Observation, decided_optimal: int,
                 eps_t: float, mu_hat: float | None = None) -> np.ndarray:
    """Add one step's value terms to ``sums``, in place and in the column
    order of ``Checkpoints.value``: C y / pi_C and C y^2 / pi_C, then, when
    ``sums`` has four entries, the augmented term and its square.
    ``decided_optimal`` is the greedy action under the pre-step averaged
    iterate and ``eps_t`` the exploration rate in force when the action was
    sampled.  Returns ``sums``."""
    if not 0.0 < eps_t <= 1.0:
        raise ValueError(f"exploration rate must lie in (0, 1], got {eps_t}")
    pi_c = 1.0 - eps_t / 2.0
    consistent = obs.a == decided_optimal
    if consistent:
        w = obs.y / pi_c
        sums[0] += w
        sums[1] += obs.y * w
    if len(sums) == 4:
        if mu_hat is None:
            raise ValueError("augmented estimator requires the modeled mean reward")
        c = 1.0 if consistent else 0.0
        term = c * obs.y / pi_c - (c - pi_c) / pi_c * mu_hat
        sums[2] += term
        sums[3] += term * term
    return sums


# ---------------------------------------------------------------------------
# Replay bookkeeping.
# ---------------------------------------------------------------------------

class MeanTrackingCursor(ReplayCursor):
    """A replay cursor that also sums the features of the entries it consumes
    and of those it matches."""

    def __init__(self, log):
        super().__init__(log)
        self._sum_all = np.zeros(log.x.shape[1])
        self._sum_matched = np.zeros(log.x.shape[1])

    def outcome(self, x, a: int):
        x = self.next_feature()
        y = super().outcome(x, a)
        self._sum_all += x
        if y is not None:
            self._sum_matched += x
        return y

    def feature_mean_all(self) -> np.ndarray:
        if self.consumed == 0:
            raise ValueError("no entries consumed yet")
        return self._sum_all / self.consumed

    def feature_mean_matched(self) -> np.ndarray:
        if self.matched == 0:
            raise ValueError("no matched entries yet")
        return self._sum_matched / self.matched


# ---------------------------------------------------------------------------
# The steps of a recorded run.
# ---------------------------------------------------------------------------

class RecordingEnvironment:
    """Wraps an environment, keeping the observation of each decision step and
    counting the feature draws."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0
        self.steps: list[Observation] = []

    def next_feature(self):
        self.draws += 1
        return self.inner.next_feature()

    def outcome(self, x, a: int):
        y = self.inner.outcome(x, a)
        if y is not None:
            self.steps.append(Observation(x.copy(), a, y))
        return y


def recorded_steps(model, env: RecordingEnvironment, result) -> list[tuple]:
    """Per decision step of a run on ``env`` with a snapshot at every step:
    the pre-step average, the observation, the propensity and exploration
    rate that sampled it, and the greedy action at the average."""
    cps = result.checkpoints
    assert cps.t.tolist() == list(range(1, len(env.steps) + 1))
    bars = [np.zeros(2 * model.p)] + list(cps.bar_beta[:-1])
    return [(bar, obs, propensity(model, bar, obs.x, eps), eps,
             decide_optimal(model, bar, obs.x))
            for bar, obs, eps in zip(bars, env.steps, cps.eps.tolist())]


class RecordingLag:
    """Wraps a lag function ``lag(step, gen)``, keeping each lag it gives."""

    def __init__(self, lag):
        self.lag = lag
        self.lags: list[int] = []

    def __call__(self, step, gen):
        d = self.lag(step, gen)
        self.lags.append(int(d))
        return d


def fifo_events(lags, end=None) -> list[tuple[str, int]]:
    """The order of a lagged run's decisions and updates when the reward of
    decision ``i`` (from 0) is due ``lags[i]`` steps after it, first in,
    first out: ``("decide", i)`` and ``("update", i)``.  Rewards due at a
    step are delivered before and after its decision; those due after step
    ``end`` (by default the last decision's) never are."""
    queue, events = deque(), []

    def deliver(now):
        while queue and queue[0][0] <= now:
            events.append(("update", queue.popleft()[1]))

    for i, lag in enumerate(lags):
        deliver(i + 1)
        events.append(("decide", i))
        queue.append((i + 1 + lag, i))
        deliver(i + 1)
    deliver(len(lags) if end is None else end)
    return events


def lagged_fold(model, learn, explore, steps, lags, end=None, on_update=None) -> State:
    """The state after a lagged run's updates, from its recorded decision
    ``steps`` (``Observation``s) and ``lags``, delivered as ``fifo_events``
    orders them: each decision is taken at the average after the updates so
    far, under the exploration rate of the next update's ordinal, and each
    update applies its decision's stored propensity.  Before each update of
    decision ``i``, ``on_update(i, bar, eps)`` (if given) sees the average
    then in force and the decision's exploration rate."""
    state = zero_state(model.p)
    stored = {}
    for kind, i in fifo_events(lags, end):
        if kind == "decide":
            eps = exploration_rate(explore, state.t + 1)
            stored[i] = propensity(model, state.bar_beta, steps[i].x, eps), eps
        else:
            pi, eps = stored.pop(i)
            if on_update is not None:
                on_update(i, state.bar_beta, eps)
            state = sgd_step(state, model, learn, steps[i], pi)
    return state


def assert_same_results(got, want):
    """Two runs' ``StreamResult``s equal in every field, exactly."""
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "checkpoints":
            assert_same_checkpoints(a, b)
        else:
            assert np.array_equal(a, b), f.name


def assert_same_checkpoints(got, want):
    """Two runs' ``Checkpoints`` equal in every field, exactly: the same
    fields collected, with equal shapes and entries."""
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if b is not None:
            assert a.shape == b.shape and np.array_equal(a, b), f.name


def report_rows(report, t):
    """The rows of checkpoint ``t`` of a report, one namespace per row with
    the written fields: ``name``, the numbers, and ``flag``; a value row's
    ``t_value`` and ``p_value`` are None."""
    _, header, rows = dict(_report_tables(report))[t]
    return [SimpleNamespace(**dict(zip(header, row))) for row in rows]


def report_row(report, t, name):
    """Row ``name`` of checkpoint ``t`` of a report (KeyError if absent)."""
    for row in report_rows(report, t):
        if row.name == name:
            return row
    raise KeyError(name)
