"""Scalar complex Gaussian mixture distributions.

PDF evaluation, sampling, overlap integrals, differential entropy
(Monte Carlo and radial quadrature), and the closed-form entropy
lower/upper bounds. All entropies are in bits; internals use natural
logs and convert once at the boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

LN2 = math.log(2.0)

# Reject degenerate variances instead of propagating infinities.
VARIANCE_FLOOR = 1e-300
WEIGHT_SUM_TOL = 1e-12
# Radial quadrature truncates where the mixture tail mass drops below this.
TAIL_MASS = 1e-14


def __getattr__(name: str):
    # scipy.integrate takes most of a second to import and only the
    # quadrature fallback uses it, so it is imported on first access.
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def logsumexp(a: np.ndarray) -> np.ndarray | np.float64:
    """log(sum(exp(a))) along the last axis of a real array.

    The arithmetic of scipy.special.logsumexp(a, axis=-1), so results agree
    to the bit: the maximal terms are taken out of the shifted sum and added
    back through log1p(s / count) + log(count) + max. Rows holding inf or
    nan give scipy's results too. A 1-D input gives an np.float64 scalar.
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    count = np.sum(is_max, axis=-1, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):  # inf or nan rows
        shifted = np.exp(a - a_max)
        shifted[is_max] = 0.0
        s = np.sum(shifted, axis=-1, keepdims=True)
        out = np.log1p(s / count) + np.log(count) + a_max
    out = out[..., 0]
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianComponent:
    """One component of a scalar complex Gaussian mixture."""

    weight: float
    mean: complex
    variance: float

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"component weight must be in (0, 1], got {self.weight}")
        if not (self.variance > VARIANCE_FLOOR):
            raise ValueError(
                f"component variance must exceed {VARIANCE_FLOOR}, got {self.variance}"
            )
        if not (np.isfinite(self.variance) and np.isfinite(complex(self.mean))):
            raise ValueError("component parameters must be finite")


@dataclass(frozen=True)
class GaussianMixture:
    """Scalar complex Gaussian mixture distribution (equal or arbitrary weights)."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("mixture needs at least one component")
        total = math.fsum(c.weight for c in self.components)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights must sum to 1, got {total!r}")

    def __len__(self) -> int:
        return len(self.components)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @cached_property
    def means(self) -> np.ndarray:
        return np.array([c.mean for c in self.components], dtype=complex)

    @cached_property
    def variances(self) -> np.ndarray:
        return np.array([c.variance for c in self.components])

    @property
    def is_zero_mean(self) -> bool:
        return bool(np.all(self.means == 0))

    @cached_property
    def mean_power(self) -> float:
        """E|A|^2 = sum_l beta_l (sigma_l^2 + |mu_l|^2)."""
        return float(np.sum(self.weights * (self.variances + np.abs(self.means) ** 2)))


def mixture_from_arrays(
    weights: Sequence[float],
    means: Sequence[complex],
    variances: Sequence[float],
) -> GaussianMixture:
    return GaussianMixture(
        tuple(
            GaussianComponent(float(w), complex(m), float(v))
            for w, m, v in zip(weights, means, variances, strict=True)
        )
    )


def equal_weight_zero_mean_mixture(variances: Sequence[float]) -> GaussianMixture:
    n = len(variances)
    return mixture_from_arrays([1.0 / n] * n, [0.0] * n, variances)


@dataclass(frozen=True)
class EntropyEstimate:
    """Differential entropy in bits with an error estimate.

    sample_count is 0 for quadrature/closed-form results, in which case
    std_error carries the quadrature error bound instead of a Monte Carlo
    standard error.
    """

    value: float
    std_error: float
    sample_count: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")


def log_pdf(mixture: GaussianMixture, points: np.ndarray | complex) -> np.ndarray:
    """Natural log of the mixture PDF, evaluated via log-sum-exp."""
    a = np.asarray(points, dtype=complex)
    sq = np.abs(a[..., None] - mixture.means) ** 2
    log_terms = (
        np.log(mixture.weights)
        - np.log(math.pi * mixture.variances)
        - sq / mixture.variances
    )
    return logsumexp(log_terms)


def pdf(mixture: GaussianMixture, points: np.ndarray | complex) -> np.ndarray:
    """Mixture PDF; strictly positive for finite inputs."""
    return np.exp(log_pdf(mixture, points))


def sample(
    mixture: GaussianMixture, rng: np.random.Generator, count: int
) -> np.ndarray:
    """i.i.d. draws: component chosen by weight, then CN(mu_l, sigma_l^2)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    idx = rng.choice(len(mixture), size=count, p=mixture.weights)
    noise = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return mixture.means[idx] + np.sqrt(mixture.variances[idx] / 2.0) * noise


def overlap_integral(c1: GaussianComponent, c2: GaussianComponent) -> float:
    """Integral of the product of two complex Gaussian densities over the plane."""
    s = c1.variance + c2.variance
    return math.exp(-abs(c1.mean - c2.mean) ** 2 / s) / (math.pi * s)


def _overlap_matrix(mixture: GaussianMixture) -> np.ndarray:
    v = mixture.variances
    mu = mixture.means
    s = v[:, None] + v[None, :]
    d = np.abs(mu[:, None] - mu[None, :]) ** 2
    return np.exp(-d / s) / (math.pi * s)


def entropy_lower_bound(mixture: GaussianMixture) -> float:
    """h_LB = -sum_l beta_l log2(sum_t beta_t z_lt), with z the overlap matrix."""
    z = _overlap_matrix(mixture)
    inner = z @ mixture.weights
    return float(-np.sum(mixture.weights * np.log2(inner)))


def entropy_upper_bound(mixture: GaussianMixture) -> float:
    """h_UB = sum_l beta_l log2(pi e sigma_l^2 / beta_l)."""
    w = mixture.weights
    return float(np.sum(w * np.log2(math.pi * math.e * mixture.variances / w)))


def entropy_bounds_equal_weight_zero_mean(
    variances: Sequence[float],
) -> tuple[float, float]:
    """Closed-form (h_LB, h_UB) for an equal-weight zero-mean mixture."""
    v = np.asarray(variances, dtype=float)
    if v.ndim != 1 or len(v) < 1:
        raise ValueError("variances must be a nonempty 1-D sequence")
    if np.any(v <= VARIANCE_FLOOR):
        raise ValueError("variances must be positive")
    n = len(v)
    inv_sums = np.sum(1.0 / (v[:, None] + v[None, :]), axis=1)
    lb = math.log2(math.pi * n) - float(np.mean(np.log2(inv_sums)))
    ub = math.log2(math.pi * math.e * n) + float(np.mean(np.log2(v)))
    return lb, ub


def gaussian_entropy(variance: float) -> float:
    """Exact differential entropy of CN(mu, sigma^2) in bits."""
    return math.log2(math.pi * math.e * variance)


def entropy_monte_carlo(
    mixture: GaussianMixture, rng: np.random.Generator, samples: int
) -> EntropyEstimate:
    """Sample mean of -log2 f_A(a) over draws from the mixture."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    draws = sample(mixture, rng, samples)
    neg_log2_f = -log_pdf(mixture, draws) / LN2
    value = float(np.mean(neg_log2_f))
    if samples > 1:
        std_error = float(np.std(neg_log2_f, ddof=1) / math.sqrt(samples))
    else:
        std_error = 0.0
    return EntropyEstimate(value, std_error, samples)


_GL_NODES = {n: np.polynomial.legendre.leggauss(n) for n in (24, 48)}


def _radial_panel_integral(
    log_coef: np.ndarray, inv_v: np.ndarray, edges: np.ndarray, order: int
) -> float:
    """Composite Gauss-Legendre integral of -pi f(u) log2 f(u) over panels."""
    x, w = _GL_NODES[order]
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    u = (b - a) / 2.0 * (x[None, :] + 1.0) + a
    log_f = logsumexp(log_coef[None, None, :] - u[..., None] * inv_v)
    g = -math.pi * np.exp(log_f) * log_f / LN2
    return float(np.sum((b - a) / 2.0 * w[None, :] * g))


def entropy_radial_quadrature(
    mixture: GaussianMixture, tolerance: float = 1e-10
) -> EntropyEstimate:
    """Adaptive 1-D quadrature entropy for zero-mean mixtures.

    A zero-mean mixture is radially symmetric, so with u = |a|^2 the
    entropy reduces to h = -int_0^inf pi f(u) log2 f(u) du where
    f(u) = sum_l beta_l / (pi sigma_l^2) exp(-u / sigma_l^2). Geometric
    Gauss-Legendre panels resolve every variance scale; the error estimate
    is the difference between the order-24 and order-48 composite rules,
    with a fallback to fully adaptive quadrature when it misses tolerance.
    """
    if not mixture.is_zero_mean:
        raise ValueError("radial quadrature requires a zero-mean mixture")
    w = mixture.weights
    v = mixture.variances
    log_coef = np.log(w) - np.log(math.pi * v)
    inv_v = 1.0 / v

    # Truncate where the mixture tail mass is below TAIL_MASS.
    u_max = float(np.max(v)) * math.log(len(mixture) / TAIL_MASS)
    edges = np.concatenate([[0.0], np.geomspace(float(np.min(v)) / 8.0, u_max, 40)])
    coarse = _radial_panel_integral(log_coef, inv_v, edges, 24)
    fine = _radial_panel_integral(log_coef, inv_v, edges, 48)
    err = abs(fine - coarse)
    if err <= tolerance:
        return EntropyEstimate(fine, err, 0)

    def integrand(u: float) -> float:
        log_f = logsumexp(log_coef - u * inv_v)
        return -math.pi * math.exp(log_f) * log_f / LN2

    # The panel edges as breakpoints keep the adaptive rule from stepping
    # over a narrow component when the variances span many decades. The
    # module attribute lookup applies the lazy import and any stand-in set
    # on `gmd.integrate`.
    value, abs_err = sys.modules[__name__].integrate.quad(
        integrand,
        0.0,
        u_max,
        epsabs=tolerance,
        epsrel=tolerance,
        limit=400,
        points=edges[1:-1],
    )
    return EntropyEstimate(float(value), float(abs_err), 0)


def entropy_exact(
    mixture: GaussianMixture,
    method: str = "radial_quadrature",
    *,
    rng: np.random.Generator | None = None,
    samples: int = 10**6,
    tolerance: float = 1e-10,
) -> EntropyEstimate:
    """Entropy of the mixture via the selected estimator.

    method: "radial_quadrature" (zero-mean mixtures only) or "monte_carlo"
    (requires an explicit rng).
    """
    if method == "radial_quadrature":
        return entropy_radial_quadrature(mixture, tolerance)
    if method == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo requires an rng")
        return entropy_monte_carlo(mixture, rng, samples)
    raise ValueError(f"unknown entropy method {method!r}")
