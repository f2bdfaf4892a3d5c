"""Checkpoint inference: the plug-in sandwich covariance, and the Wald and
value reports read off a run's ``Checkpoints``.

The engine keeps running sums of the weighted-gradient outer products and
of the inverse-propensity-weighted curvatures, both evaluated at the running
average of the iterates before each step, and records them at every
checkpoint.  ``checkpoint_reports`` turns that record into one report of
(checkpoint, row) columns, for ``run``, ``mc`` and library callers alike.
"""
from __future__ import annotations

import math

import numpy as np

from .types import InferenceReport
from .value import _value_columns

# A curvature estimate with a larger condition number is not inverted as is.
_MAX_CONDITION = 1e12
# A diagonal covariance entry below -_VARIANCE_TOL is not rounding noise.
_VARIANCE_TOL = 1e-10
# Checkpoints whose sandwiches are stacked in one pass; stacking all 500
# reports of a run raised its peak memory by about 8 MB (README).
_REPORT_BLOCK = 64


def ipw_weight(a: int, pi: float) -> float:
    """Importance ratio toward the uniform-random rule: 1/(2*pi) for action 1,
    1/(2*(1-pi)) for action 0."""
    if not 0.0 < pi < 1.0:
        raise ValueError(f"propensity must lie strictly in (0, 1), got {pi}")
    return 1.0 / (2.0 * pi) if a == 1 else 1.0 / (2.0 * (1.0 - pi))


def _sandwiches(S: np.ndarray, H: np.ndarray, n: np.ndarray, *, ridge: bool = False):
    """Covariance estimates of the averaged iterate, Hhat^-1 Shat Hhat^-T / n,
    for every row of the plug-in sums ``S`` and ``H`` (K, dim, dim) over
    ``n`` (K,) steps, as four columns: the covariances ``cov``
    (K, dim, dim), NaN where none came out; whether the ridge was applied,
    ``ridged`` (K,); the condition estimate of the curvature that was
    inverted, ``cond`` (K,); and whether a covariance came out, ``ok`` (K,).

    Each curvature is factored symmetrically (one stacked ``eigh``; no
    explicit inversion), and each slice equals its one-row call bit for bit
    (README, "Defaults").  No covariance comes out of a curvature whose
    condition number exceeds 1e12, unless ``ridge`` is set, in which case
    only those curvatures are factored again with lam = 1e-8 * trace / dim
    added to the diagonal.  Nor does one come out where a diagonal entry
    falls below -1e-10 (seen with the ridge at very short horizons, where
    cancellation swamps the tiny eigenvalues) or is NaN (a diverged run).
    """
    dim = H.shape[-1]
    # A row without steps has a zero curvature, which comes out singular.
    n = np.maximum(n, 1)
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
    """The names of the ``dim`` coordinates, in block order."""
    p = dim // 2
    return [f"beta0_{j + 1}" for j in range(p)] + [f"beta1_{j + 1}" for j in range(p)]


def _wald_columns(est: np.ndarray, variances: np.ndarray, level: float,
                  null: float | None = None) -> list[np.ndarray]:
    """Wald columns of the (K, n) estimates and variances, entry for entry:
    the estimates, the standard errors, and the interval ends at ``level``;
    then, against a ``null``, the t statistics and two-sided p values.  A
    NaN variance gives NaN numbers.  A zero standard error gives t = +/-inf
    with p = 0, or t = 0 with p = 1 where the estimate equals the null."""
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
    return columns


def checkpoint_reports(checkpoints, level: float = 0.95, *,
                       ridge: bool = False) -> InferenceReport:
    """Every number of every checkpoint of a run's ``Checkpoints`` record, as
    one record of (checkpoint, row) columns.  The rows are the parameter
    rows when the run collected parameter sums, then ``V_opt`` when it
    collected value sums, then ``V_opt_aipw`` when those include the AIPW
    sums.  Intervals are at ``level``; ``ridge`` is the ridge fallback of
    ``_sandwiches``.  Rows without a covariance (singular curvature, or a
    negative or NaN variance) or value steps have NaN numbers, flagged
    ``singular_hessian`` or ``no_value_steps`` (README, "Report flags").
    Sandwiches and Wald columns are built for up to ``_REPORT_BLOCK``
    checkpoints at once."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    cps = checkpoints
    m = 0 if cps.S is None else cps.bar_beta.shape[1]
    names = _parameter_names(m)
    if cps.value is not None:
        names += ("V_opt", "V_opt_aipw")[:cps.value.shape[1] // 2]
    shape = (len(cps.t), len(names))
    # estimate, se, ci_lo, ci_hi over every row; t_value, p_value over the m parameter rows.
    columns = [np.empty(shape) for _ in range(4)] + [np.empty((shape[0], m)) for _ in range(2)]
    flag = np.empty(shape, dtype=object)
    if m:
        for b in range(0, shape[0], _REPORT_BLOCK):
            block = slice(b, b + _REPORT_BLOCK)
            cov, ridged, _, ok = _sandwiches(cps.S[block], cps.H[block], cps.n[block],
                                             ridge=ridge)
            flag[block, :m] = np.where(ok, np.where(ridged, "ridge", ""),
                                       "singular_hessian")[:, None]
            var = np.diagonal(cov, axis1=1, axis2=2)
            for col, wald in zip(columns, _wald_columns(cps.bar_beta[block], var, level, 0.0)):
                col[block, :m] = wald
    if cps.value is not None:
        t, empty = cps.value_t, cps.value_t == 0
        # Empty, NaN or overflowing sums give NaN or inf without a warning, as floats do.
        with np.errstate(all="ignore"):
            for j in range(len(names) - m):
                est, raw = _value_columns(*cps.value[:, 2 * j:2 * j + 2].T, t, cps.eps, j == 1)
                flag[:, m + j] = np.where(empty, "no_value_steps", "experimental" if j else
                                          np.where(raw < 0.0, "variance_clamped", ""))
                # The clamp at zero also reads a raw -0.0 as +0.0.
                est, var = (np.where(empty, math.nan, a)
                            for a in (est, np.where(raw <= 0.0, 0.0, raw) / t))
                for col, wald in zip(columns, _wald_columns(est, var, level)):
                    col[:, m + j] = wald
    return InferenceReport(level, cps.t, names, *columns, flag)
