"""Closed-form references, CLT diagnostics, and confidence regions.

The special functions (normal CDF, Kolmogorov tail, and the chi-square
law at the integer degrees of freedom it is asked for, a finite sum)
are built on the standard library, with no statistics dependency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import EstimatorState
from .schedule import StepParams

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SphereReferences:
    """Exact limit quantities for the median of the uniform sphere law.

    All four operators are positive multiples of the identity: the
    objective Hessian at the optimum, the gradient covariance there, the
    asymptotic covariance of the raw iterate, and the asymptotic
    covariance of the average (the sandwich of the first two).
    """

    dim: int
    hessian: np.ndarray
    gradient_covariance: np.ndarray
    iterate_covariance: np.ndarray
    average_covariance: np.ndarray


def sphere_references(d: int) -> SphereReferences:
    """Closed forms for dimension d >= 3."""
    if d < 3:
        raise ValueError("sphere references require dimension >= 3")
    eye = np.eye(d)
    return SphereReferences(
        dim=d,
        hessian=(d - 1) / d * eye,
        gradient_covariance=eye / d,
        iterate_covariance=eye / (2.0 * (d - 1)),
        average_covariance=d / (d - 1) ** 2 * eye,
    )


def normalize_iterate(point, truth, n: int, dim: int, params: StepParams) -> np.ndarray:
    """Rescale a raw iterate so each component is asymptotically N(0, 1).

    Returns sqrt(2(d-1)) * n^(1/3) * (point - truth). The factor is tied
    to the unit step scale with exponent 2/3 on the sphere problem, so any
    other (c_gamma, alpha) is refused.
    """
    if dim < 3:
        raise ValueError("normalization requires dimension >= 3")
    if abs(params.c_gamma - 1.0) > 1e-12 or abs(params.alpha - 2.0 / 3.0) > 1e-12:
        raise ValueError(
            "iterate normalization requires c_gamma=1 and alpha=2/3, "
            f"got c_gamma={params.c_gamma}, alpha={params.alpha}"
        )
    factor = math.sqrt(2.0 * (dim - 1)) * float(n) ** (1.0 / 3.0)
    return factor * (np.asarray(point, dtype=float) - np.asarray(truth, dtype=float))


def normalize_average(point, truth, n: int, dim: int) -> np.ndarray:
    """Rescale an averaged iterate so each component is asymptotically N(0, 1).

    Returns sqrt(n) * (d-1)/sqrt(d) * (point - truth), linear in the
    residual point - truth.
    """
    if dim < 3:
        raise ValueError("normalization requires dimension >= 3")
    factor = math.sqrt(n) * (dim - 1) / math.sqrt(dim)
    return factor * (np.asarray(point, dtype=float) - np.asarray(truth, dtype=float))


@dataclass(frozen=True)
class KsResult:
    """One-sample Kolmogorov-Smirnov outcome against the standard normal."""

    statistic: float
    p_value: float
    sample_size: int


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _kolmogorov_p(lam: float) -> float:
    """Tail of the Kolmogorov distribution at lam = sqrt(n) * D.

    Uses the alternating series 2 sum (-1)^(k-1) exp(-2 k^2 lam^2) for
    large arguments and the theta-function form of the same distribution
    for small ones, where the alternating series converges too slowly;
    terms below 1e-10 are dropped.
    """
    if lam <= 0:
        return 1.0
    if lam < 1.18:
        x = math.exp(-math.pi ** 2 / (8.0 * lam * lam))
        total = 0.0
        for k in range(1, 50):
            term = x ** ((2 * k - 1) ** 2)
            total += term
            if term < 1e-10:
                break
        cdf = math.sqrt(2.0 * math.pi) / lam * total
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    sign = 1.0
    for k in range(1, 10000):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_normal(samples) -> KsResult:
    """Two-sided one-sample KS test of the samples against N(0, 1).

    The statistic is the exact sup-distance between the empirical CDF and
    the normal CDF from the sorted-sample formula; the p-value comes from
    the asymptotic Kolmogorov distribution.
    """
    arr = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    n = arr.shape[0]
    if n == 0:
        raise ValueError("KS test requires at least one sample")
    if not np.isfinite(arr).all():
        raise ValueError("KS test requires finite samples")
    stat = 0.0
    for i, x in enumerate(arr, start=1):
        cdf = _normal_cdf(float(x))
        stat = max(stat, i / n - cdf, cdf - (i - 1) / n)
    return KsResult(stat, _kolmogorov_p(math.sqrt(n) * stat), n)


def frobenius_error(estimate, truth) -> float:
    """Frobenius norm of estimate - truth."""
    a = np.asarray(estimate, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _chi_square_sf(x: float, dof: int) -> float:
    """Upper tail P(chi2_dof > x) for x > 0 and an integer dof >= 1.

    With t = x/2 and a = (dof mod 2)/2 the tail is a finite sum:
    erfc(sqrt(t)) for odd dof, plus t^(j+a) e^-t / Gamma(j+a+1) for
    j < dof//2. Each term is formed in log-domain, since e^-t alone
    underflows once x exceeds ~1490.
    """
    t = x / 2.0
    a = (dof % 2) / 2.0
    log_t = math.log(t)
    total = math.erfc(math.sqrt(t)) if a else 0.0
    for j in range(dof // 2):
        total += math.exp((j + a) * log_t - t - math.lgamma(j + a + 1.0))
    return total


@functools.lru_cache(maxsize=256)
def chi_square_quantile(level: float, dof: int) -> float:
    """Quantile of the chi-square distribution with an integer dof >= 1.

    Bisection of _chi_square_sf against 1 - level, on the bracket [0, dof]
    doubled until it holds, to 1e-13 relative. The lower tail is taken as
    1 - sf, so a small level is met to about 1e-16 / level relative, and a
    level for which 1 - level rounds to 1 (below ~1.1e-16) is refused.
    Memoized on (level, dof), since every query asks for the same quantile.
    """
    if not 0.0 < 1.0 - level < 1.0:
        raise ValueError(
            "level must lie strictly between 0 and 1, and above ~1.1e-16 so that 1 - level < 1")
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError("dof must be a positive integer")
    dof = int(dof)
    tail = 1.0 - level
    lo, hi = 0.0, float(dof)
    while _chi_square_sf(hi, dof) > tail:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _chi_square_sf(mid, dof) > tail else (lo, mid)
    return 0.5 * (lo + hi)


_SOLVE_BLOCK = 25


def _forward_substitution(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower @ y = rhs for a lower-triangular, nonsingular factor.

    numpy has no triangular solver, and np.linalg.solve would run a full
    LU on the factor. Blocked substitution instead: each diagonal block
    of at most _SOLVE_BLOCK rows is solved by a small dense solve after
    the rows above it are subtracted with one matrix-vector product.
    """
    d = rhs.shape[0]
    if d <= _SOLVE_BLOCK:
        return np.linalg.solve(lower, rhs)
    y = rhs.copy()
    for lo in range(0, d, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, d)
        if lo:
            y[lo:hi] -= lower[lo:hi, :lo] @ y[:lo]
        y[lo:hi] = np.linalg.solve(lower[lo:hi, lo:hi], y[lo:hi])
    return y


@dataclass
class ConfidenceBall:
    """Asymptotic confidence region for the true parameter.

    The ellipsoidal form accepts a point when
    n * (center - point)' (Sigma + ridge I)^{-1} (center - point) stays
    below the chi-square(d) quantile; the spherical fallback replaces the
    quadratic form by the Euclidean ball of radius
    sqrt(quantile * lambda_max / n).
    """

    center: np.ndarray
    level: float
    quantile: float
    mahalanobis_radius: float
    spherical_radius: float | None
    _chol: np.ndarray | None = field(repr=False, default=None)
    _n: int = field(repr=False, default=0)

    def statistic(self, point) -> float:
        """Quadratic-form statistic of the tested point."""
        diff = self.center - np.asarray(point, dtype=float)
        if self._chol is None:
            raise ValueError("spherical ball does not define the quadratic form")
        y = _forward_substitution(self._chol, diff)
        return self._n * float(y @ y)

    def test(self, point) -> bool:
        """True when the point lies inside the confidence region."""
        if self.spherical_radius is not None:
            diff = self.center - np.asarray(point, dtype=float)
            return float(np.linalg.norm(diff)) <= self.spherical_radius
        return self.statistic(point) <= self.quantile


def confidence_ball(state: EstimatorState, level: float = 0.95,
                    ridge: float | None = None, spherical: bool = False) -> ConfidenceBall:
    """confidence_region around the state's average, from its Sigma_n and n."""
    # state.covariance is built on each read, so the ridge may go into it directly
    return _region(state.average, state.covariance, state.n, level, ridge, spherical)


def confidence_region(center, covariance, n: int, level: float = 0.95,
                      ridge: float | None = None, spherical: bool = False) -> ConfidenceBall:
    """Confidence region for the parameter from an average, its Sigma and count n.

    ridge defaults to 1e-8 * trace(Sigma)/d and must be positive when the
    covariance estimate is identically zero. The ridge goes into a copy,
    so the caller's covariance is never changed.
    """
    return _region(center, np.array(covariance, dtype=float), n, level, ridge, spherical)


def _region(center, regularized: np.ndarray, n: int, level: float,
            ridge: float | None, spherical: bool) -> ConfidenceBall:
    """confidence_region, adding the ridge to regularized in place."""
    d = regularized.shape[0]
    trace = float(regularized.trace())
    if ridge is None:
        ridge = 1e-8 * trace / d
    if trace == 0.0 and ridge == 0.0:
        raise ValueError("covariance estimate is zero; a positive ridge is required")
    regularized.flat[::d + 1] += ridge
    quantile = chi_square_quantile(level, d)
    chol = spherical_radius = None
    if spherical:
        lam_max = float(np.linalg.eigvalsh(regularized)[-1])
        spherical_radius = math.sqrt(quantile * lam_max / n)
    else:
        try:
            chol = np.linalg.cholesky(regularized)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance estimate is singular; increase ridge") from exc
    return ConfidenceBall(
        center=np.array(center, dtype=float),
        level=level,
        quantile=quantile,
        mahalanobis_radius=math.sqrt(quantile / n),
        spherical_radius=spherical_radius,
        _chol=chol,
        _n=n,
    )
