"""Online plugin accumulators, sandwich covariance, and Wald reporting.

The accumulators keep running sums of the weighted-gradient outer products
and of the inverse-propensity-weighted curvatures, both evaluated at the
running average of the iterates before each step.  Storage is O(p^2)
regardless of the stream length; the engine adds a fixed pending block of at
most 2^16 floats per array, whose steps it folds into the sums in order.
"""
from __future__ import annotations

import math

import numpy as np

from .types import InferenceReport, ReportRow

# A curvature estimate with a larger condition number is not inverted as is.
_MAX_CONDITION = 1e12
# A diagonal covariance entry below -_VARIANCE_TOL is not rounding noise.
_VARIANCE_TOL = 1e-10


class SingularHessianError(RuntimeError):
    """Curvature estimate too ill-conditioned to invert, or plug-in sums that
    are not finite (``finite`` false)."""

    def __init__(self, condition: float, ridged: bool = False, finite: bool = True):
        advice = ("the ridge fallback was applied; accumulate more steps" if ridged
                  else "accumulate more steps or enable the ridge fallback")
        message = (f"curvature matrix is numerically singular "
                   f"(condition estimate {condition:.3e}); {advice}")
        if not finite:
            message = ("plug-in sums are not finite (the iterate diverged); "
                       "use a smaller learning-rate constant alpha")
        super().__init__(message)
        self.condition = condition


class PluginAccumulators:
    """Running sums for the gradient second moment and the weighted curvature."""

    def __init__(self, dim: int):
        if dim < 2 or dim % 2 != 0:
            raise ValueError(f"accumulator dimension must be even and positive, got {dim}")
        self.dim = dim
        self.S_sum = np.zeros((dim, dim))
        self.H_sum = np.zeros((dim, dim))
        self.n = 0


def ipw_weight(a: int, pi: float) -> float:
    """Importance ratio toward the uniform-random rule: 1/(2*pi) for action 1,
    1/(2*(1-pi)) for action 0."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"propensity must lie strictly in (0, 1), got {pi}")
    return 1.0 / (2.0 * pi) if a == 1 else 1.0 / (2.0 * (1.0 - pi))


def sandwich_covariance(acc: PluginAccumulators, *, ridge: bool = False) -> np.ndarray:
    """Covariance estimate of the averaged iterate: Hhat^-1 Shat Hhat^-T / n.

    The curvature is factored symmetrically (eigendecomposition); no explicit
    cofactor inversion.  If its condition number exceeds 1e12 a
    SingularHessianError carrying the estimate is raised, unless ``ridge`` is
    set, in which case lam = 1e-8 * trace(Hhat) / dim is added to the diagonal
    before inverting.  A result with a diagonal entry below -1e-10 (seen with
    the ridge at very short horizons, where cancellation swamps the tiny
    eigenvalues) or NaN (a diverged run) also raises SingularHessianError.
    After the ridge, the error says so and carries the condition number of
    the ridged curvature; when a sum is not finite, it says so instead.
    """
    cov, ridged, cond, ok = _sandwiches(acc.S_sum[None], acc.H_sum[None], np.array([acc.n]),
                                        ridge=ridge)
    if not ok[0]:
        finite = np.isfinite(acc.S_sum).all() and np.isfinite(acc.H_sum).all()
        raise SingularHessianError(float(cond[0]), bool(ridged[0]), bool(finite))
    return cov[0]


def _sandwiches(S: np.ndarray, H: np.ndarray, n: np.ndarray, *, ridge: bool = False):
    """``sandwich_covariance`` of every row of the plug-in sums ``S`` and
    ``H`` (K, dim, dim) over ``n`` (K,) steps, as four columns: the
    covariances ``cov`` (K, dim, dim), NaN where none came out; whether the
    ridge was applied, ``ridged`` (K,); the condition estimate of the
    curvature that was inverted, ``cond`` (K,); and whether a covariance came
    out, ``ok`` (K,).  Where ``ok`` is false, the one-matrix call raises
    ``SingularHessianError(cond, ridged)``.

    One stacked ``eigh`` and stacked ``matmul`` calls serve all of them; each
    slice equals its one-matrix call bit for bit (README, "Defaults").  Only
    the curvatures that fail the condition check are factored again with the
    ridge.
    """
    if n.min() < 1:
        raise ValueError("no accumulated steps")
    dim = H.shape[-1]
    h = H / n[:, None, None]
    lam, q = np.linalg.eigh(h)
    cond = _conditions(lam)
    ok = (lam.min(axis=1) > 0.0) & (cond <= _MAX_CONDITION)
    ridged = ~ok & ridge
    if ridged.any():
        redo = np.flatnonzero(ridged)
        eye = np.eye(dim)
        h_r = np.array([h[k] + (1e-8 * np.trace(h[k]) / dim) * eye for k in redo])
        lam[redo], q[redo] = np.linalg.eigh(h_r)
        cond[redo] = _conditions(lam[redo])
        ok[redo] = lam[redo].min(axis=1) > 0.0
    lam, q, n = lam[ok], q[ok], n[ok]
    s = S[ok] / n[:, None, None]
    q_t = q.swapaxes(1, 2)
    core = (q_t @ s @ q) / (lam[:, :, None] * lam[:, None, :])
    kept = (q @ core @ q_t) / n[:, None, None]
    cov = np.full(h.shape, math.nan)
    cov[ok] = 0.5 * (kept + kept.swapaxes(1, 2))
    ok &= (np.diagonal(cov, axis1=1, axis2=2) >= -_VARIANCE_TOL).all(axis=1)
    cov[~ok] = math.nan
    return cov, ridged, cond, ok


def _conditions(lam: np.ndarray) -> np.ndarray:
    """Condition number of each row of eigenvalues (inf for a zero one)."""
    lam_abs = np.abs(lam)
    lo = lam_abs.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo == 0.0, math.inf, lam_abs.max(axis=1) / lo)


# ---------------------------------------------------------------------------
# Normal distribution helpers (no statistics-library dependency).
# ---------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def two_sided_p(t: float) -> float:
    """Two-sided tail probability 2 * (1 - Phi(|t|)) = erfc(|t| / sqrt(2))."""
    return math.erfc(abs(t) / math.sqrt(2.0))


# Rational-approximation coefficients for the inverse normal CDF
# (P. Acklam's algorithm; absolute error ~1.15e-9 before refinement).
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_P_LOW = 0.02425


def normal_quantile(prob: float) -> float:
    """Standard normal quantile, rational approximation plus one Halley step.

    Accurate to well below 1e-8 over (0, 1).
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {prob}")
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if prob < _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(prob))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif prob <= 1.0 - _ICDF_P_LOW:
        q = prob - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - prob))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # One Halley refinement against the erfc-based CDF.
    err = normal_cdf(x) - prob
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _parameter_names(dim: int) -> list[str]:
    if dim % 2 == 0 and dim > 0:
        p = dim // 2
        return [f"beta0_{j + 1}" for j in range(p)] + [f"beta1_{j + 1}" for j in range(p)]
    return [f"b{j + 1}" for j in range(dim)]


def wald_report(bar_beta, cov, level: float = 0.95, null=None) -> InferenceReport:
    """Per-coordinate Wald intervals, t statistics, and two-sided p values.

    A zero standard error yields t = +/-inf with p = 0, except when the
    estimate equals the null, in which case t = 0 and p = 1.
    """
    bar_beta = np.asarray(bar_beta, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    dim = bar_beta.shape[0]
    if cov.shape != (dim, dim):
        raise ValueError(f"covariance shape {cov.shape} does not match estimate length {dim}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    variances = np.diag(cov)
    if variances.min() < -_VARIANCE_TOL:
        raise ValueError(f"negative variance on the diagonal: {variances.min()}")
    null = np.zeros(dim) if null is None else np.asarray(null, dtype=np.float64)
    if null.shape != (dim,):
        raise ValueError(f"null shape {null.shape} does not match estimate shape {(dim,)}")
    (rows,) = _wald_rows(bar_beta[None], variances[None], level, _parameter_names(dim), [""], null)
    return InferenceReport(level=level, rows=rows)


def _wald_rows(est: np.ndarray, variances: np.ndarray, level: float, names, flags,
               null: np.ndarray | None = None) -> list[list[ReportRow]]:
    """``wald_report``'s rows, named ``names``, for each row of the (K, dim)
    estimates and variances, computed column-wise; row ``k``'s records carry
    ``flags[k]``.  A NaN variance gives NaN numbers.  Without a ``null`` the
    records have no t statistic or p value."""
    z = normal_quantile(0.5 * (1.0 + level))
    # max(v, 0.0) entry for entry, signed zeros and NaN included.
    se = np.sqrt(np.where(0.0 > variances, 0.0, variances))
    columns = [est, se, est - z * se, est + z * se]
    if null is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(se == 0.0, np.where(est == null, 0.0,
                                             np.where(est > null, math.inf, -math.inf)),
                         (est - null) / se)
        columns += [t, np.reshape(list(map(two_sided_p, t.ravel().tolist())), t.shape)]
    return [[ReportRow(name, *numbers, flag=flag) for name, *numbers in zip(names, *cols)]
            for flag, *cols in zip(flags, *(a.tolist() for a in columns))]
