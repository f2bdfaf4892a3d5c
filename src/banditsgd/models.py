"""Reward-model families: linear and logistic index models.

Both families share the block-linear index

    u(a, x, beta) = x . beta[:p]    if a == 0
                    x . beta[p:]    if a == 1

and differ only in the link from index to mean reward, in the per-step
loss and in the synthetic reward draw.  Gradients factor as
(mean - y) * grad_u and curvatures as a scalar times the rank-one outer
product grad_u grad_u^T, where grad_u is x placed in the active block, so
the inactive block of every gradient and curvature is identically zero.
"""
from __future__ import annotations

import numpy as np

HESSIAN_EXACT = "exact"
HESSIAN_OUTER = "outer"  # squared-residual outer product (mean - y)^2 grad_u grad_u^T
_HESSIAN_VARIANTS = (HESSIAN_EXACT, HESSIAN_OUTER)

# Mean-reward probabilities are kept strictly inside (0, 1) so that logs and
# inverse weights remain finite even at extreme indexes.
_MU_MIN = 1e-300
_MU_MAX = 1.0 - 1e-16


def _stable_sigmoid(u: float) -> float:
    # numpy's exp, which gives a float the bits it gives the same value in an
    # array, so that this equals ``mean_from_index_array`` bit for bit.
    z = float(np.exp(-abs(u)))
    mu = (1.0 if u >= 0.0 else z) / (1.0 + z)
    if mu < _MU_MIN:
        return _MU_MIN
    if mu > _MU_MAX:
        return _MU_MAX
    return mu


class ModelFamily:
    """Common machinery for block-linear index families.

    Subclasses provide the index-to-mean link, the per-observation loss, the
    curvature scale and the synthetic reward draw; the engine assembles
    gradients and curvatures from them, because the rank-one structure is
    shared.
    """

    tag: str = ""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("feature dimension must be at least 1")
        self.p = int(p)

    # -- hooks implemented by subclasses ----------------------------------
    def mean_from_index(self, u: float) -> float:
        raise NotImplementedError

    def mean_from_index_array(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_from_mean(self, mu, y):
        """The loss at mean ``mu`` for reward ``y``, on floats or arrays alike."""
        raise NotImplementedError

    def hessian_scale(self, mu: float, y: float, variant: str = HESSIAN_EXACT) -> float:
        raise NotImplementedError

    def validate_reward(self, y: float) -> None:
        """Reject rewards outside the family's support (no-op by default)."""

    def reward_draws(self, gen, n: int) -> np.ndarray:
        """``n`` draws from ``gen`` of a synthetic stream's reward randomness,
        one per step, shared by both actions."""
        raise NotImplementedError

    def reward(self, mu, d, sd: float):
        """The reward at mean ``mu`` for draw ``d`` with noise scale ``sd``,
        on floats or arrays alike."""
        raise NotImplementedError


class LinearModel(ModelFamily):
    """Identity link with squared-error loss 0.5 * (y - u)^2.

    The curvature grad_u grad_u^T is exact for this loss, so both hessian
    variants coincide.
    """

    tag = "linear"

    def mean_from_index(self, u: float) -> float:
        return u

    def mean_from_index_array(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=np.float64)

    def loss_from_mean(self, mu, y):
        r = mu - y
        return 0.5 * r * r

    def hessian_scale(self, mu: float, y: float, variant: str = HESSIAN_EXACT) -> float:
        return 1.0

    def reward_draws(self, gen, n: int) -> np.ndarray:
        return gen.standard_normal(n)

    def reward(self, mu, d, sd: float):
        return mu + sd * d


class LogisticModel(ModelFamily):
    """Logistic link ``1 / (1 + exp(-u))`` with cross-entropy loss.

    Rewards must be 0 or 1.  Two curvature scales are available: ``exact`` is
    the analytic second derivative mu * (1 - mu); ``outer`` is the
    squared-residual form (mu - y)^2.  Both have the same expectation at the
    loss minimizer and either yields a consistent curvature estimate.
    """

    tag = "logistic"

    def mean_from_index(self, u: float) -> float:
        return _stable_sigmoid(u)

    def mean_from_index_array(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        # exp(-|u|) is exp(-u) where u >= 0 and exp(u) elsewhere.
        z = np.exp(-np.abs(u))
        # np.maximum and np.minimum give np.clip's bits, NaN included, in less time.
        return np.minimum(np.maximum(np.where(u >= 0, 1.0, z) / (1.0 + z), _MU_MIN), _MU_MAX)

    def validate_reward(self, y: float) -> None:
        if y not in (0.0, 1.0):
            raise ValueError(f"logistic rewards must be 0 or 1, got {y!r}")

    def loss_from_mean(self, mu, y):
        return -y * np.log(mu) - (1.0 - y) * np.log(1.0 - mu)

    def hessian_scale(self, mu: float, y: float, variant: str = HESSIAN_EXACT) -> float:
        if variant == HESSIAN_EXACT:
            return mu * (1.0 - mu)
        r = mu - y
        return r * r

    def reward_draws(self, gen, n: int) -> np.ndarray:
        return gen.random(n)

    def reward(self, mu, d, sd: float):
        return (d < mu) * 1.0


_FAMILIES = {cls.tag: cls for cls in (LinearModel, LogisticModel)}


def make_model(family: str, p: int) -> ModelFamily:
    """Construct a model family by tag (a key of ``_FAMILIES``)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return _FAMILIES[family](p)
