"""Scalar complex zero-mean Gaussian mixture distributions.

Every SM-NOMA mixture is zero-mean (Gaussian symbols on the antenna the SM
index picks), so a mixture holds weights and variances only and its density
is radially symmetric. PDF evaluation, sampling, overlap integrals,
differential entropy (Monte Carlo and radial quadrature), and the
closed-form entropy lower/upper bounds. All entropies are in bits;
internals use natural logs and convert once at the boundary.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

LN2 = math.log(2.0)

# Reject degenerate variances instead of propagating infinities.
VARIANCE_FLOOR = 1e-300
WEIGHT_SUM_TOL = 1e-12
# Radial quadrature truncates where the mixture tail mass drops below this.
TAIL_MASS = 1e-14


def __getattr__(name: str):
    # Only bench/tracing.py and tests/test_bench_contract.py read this lazy
    # scipy.integrate; no computation uses it. After ROADMAP item 1b, item
    # 16b deletes it and moves scipy to the test extra.
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pairwise_sum(x: np.ndarray) -> np.ndarray | np.float64:
    """Sum over the first axis, adding whole rows in the order numpy's
    pairwise summation adds a contiguous run of len(x) numbers.

    So the result has the bits of np.sum(x', axis=-1) for x' the copy of x
    with that axis moved last and made contiguous, at whole-array speed
    rather than with numpy's per-row cost on short rows. Fewer than 8 rows
    are added in one pass; up to 128 go through 8 accumulators, combined
    pairwise, then the tail rows; longer runs split at half the length,
    rounded down to a multiple of 8. Each accumulator starts from
    row + 0.0, which gives numpy's sign for a zero total.

    The accumulators are x's own leading rows, so x is overwritten and,
    up to 128 rows, nothing is allocated.
    """
    n = len(x)
    if n < 8:
        s = x[0]
        s += 0.0
        for row in x[1:]:
            s += row
        return s
    if n <= 128:
        end = n - n % 8
        r = x[:8]
        r += 0.0
        for i in range(8, end, 8):
            r += x[i : i + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), in place.
        for step in (1, 2, 4):
            r[:: 2 * step] += r[step :: 2 * step]
        s = r[0]
        for row in x[end:]:
            s += row
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def logsumexp(a: np.ndarray) -> np.ndarray | np.float64:
    """log(sum(exp(a))) over the first axis (the mixture components).

    The arithmetic of scipy.special.logsumexp along a contiguous last axis,
    so logsumexp(np.moveaxis(b, -1, 0)) has the bits of
    scipy.special.logsumexp(b, axis=-1) for a C-contiguous b: the maximal
    terms are taken out of the shifted sum and added back through
    log1p(s / count) + log(count) + max. Slices holding inf or nan give
    scipy's results too. A 1-D input gives an np.float64 scalar.
    """
    return _logsumexp_overwrite(np.array(a, dtype=float))


def _logsumexp_overwrite(a: np.ndarray, a_max=None, is_max=None) -> np.ndarray | np.float64:
    """logsumexp of a float64 array that the caller no longer needs: the
    shifted exponentials and their partial sums are written into a. The
    radial quadrature's panel rule reduces its terms here, and the pinned
    property results hold the bits this gives them.

    a_max (a.shape[1:]) and the bool is_max (a.shape), when given, receive
    the slice maxima and the tie mask. Without ties a result of two or more
    dimensions is written over a_max, so the quadrature kernel, passing the
    same two arrays for every chunk, allocates nothing of their sizes.

    When every slice has exactly one maximum, the tie count is skipped:
    s / 1 is s, log(1) is +0.0, and log1p(s) + 0.0 is log1p(s) for the
    s >= +0 that the other terms' exponentials sum to, so scipy's bits are
    kept. That holds for an infinite maximum too, where the other terms
    add exp(-inf) = 0; a slice holding nan has no term equal to its nan
    maximum, so it takes the general path.

    The maxima's exponentials, exp(0) = 1, are zeroed before the sum by a
    masked copy.
    """
    a_max = np.max(a, axis=0, out=a_max)
    is_max = np.equal(a, a_max, out=is_max)
    with np.errstate(invalid="ignore", divide="ignore"):  # inf or nan slices
        shifted = np.subtract(a, a_max, out=a)
        np.exp(shifted, out=shifted)
        np.copyto(shifted, 0.0, where=is_max)
        s = _pairwise_sum(shifted)
        if np.count_nonzero(is_max) == a_max.size:
            out = (s, a_max) if a.ndim > 1 else (None, None)  # 1-D: scalars
            return np.add(np.log1p(s, out=out[0]), a_max, out=out[1])
        count = np.sum(is_max, axis=0, dtype=float)
        return np.log1p(s / count) + np.log(count) + a_max


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Scalar complex zero-mean Gaussian mixture (equal or arbitrary weights):
    component l is CN(0, sigma_l^2) with weight beta_l.

    Holds one entry per component in two read-only 1-D float64 arrays of
    one length, weights and variances. The inputs are copied and validated
    once, on construction.
    """

    weights: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        v = np.array(self.variances, dtype=float)
        if not (w.ndim == v.ndim == 1 and len(w) == len(v) >= 1):
            raise ValueError("need nonempty 1-D weights and variances of one length")
        if not ((w > 0.0) & (w <= 1.0)).all():
            raise ValueError(f"component weights must be in (0, 1], got {w}")
        total = math.fsum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        if not (v > VARIANCE_FLOOR).all():
            raise ValueError(f"component variances must exceed {VARIANCE_FLOOR}, got {v}")
        if not np.isfinite(v).all():
            raise ValueError("component variances must be finite")
        for name, a in (("weights", w), ("variances", v)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def mean_power(self) -> float:
        """E|A|^2 = sum_l beta_l sigma_l^2."""
        return float(np.sum(self.weights * self.variances))


def mixture_from_arrays(
    weights: Sequence[float], variances: Sequence[float]
) -> GaussianMixture:
    return GaussianMixture(weights, variances)


def equal_weight_zero_mean_mixture(variances: Sequence[float]) -> GaussianMixture:
    n = len(variances)
    # Dividing the array, not 1.0 by n, lets n = 0 reach the constructor's ValueError.
    return mixture_from_arrays(np.full(n, 1.0) / n, variances)


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
    return _log_pdf_into(mixture, a, np.empty((len(mixture),) + a.shape))


def _log_pdf_into(
    mixture: GaussianMixture, a: np.ndarray, terms: np.ndarray
) -> np.ndarray:
    """log_pdf of the complex array a, with the (L, *a.shape) component
    terms written into the float64 array terms.

    The density is radial: |a|^2 is taken once per point and shared by
    every component. It is squared as an array of at least one dimension:
    on a 0-d point, ** 2 would act on a numpy scalar, whose power can round
    differently from the array loop's product.

    The terms reduce in place by a max-shift log-sum-exp, log f =
    log(sum of exp(term - m)) + m, with m each point's largest term, or 0
    where that is -inf (giving -inf) or nan (giving nan); m overwrites |a|^2.
    """
    per_component = (len(mixture),) + (1,) * a.ndim
    log_coef = np.log(mixture.weights) - np.log(math.pi * mixture.variances)
    abs_sq = (np.abs(np.atleast_1d(a)) ** 2).reshape(a.shape)
    np.divide(abs_sq, mixture.variances.reshape(per_component), out=terms)
    np.subtract(log_coef.reshape(per_component), terms, out=terms)
    shift = np.max(terms, axis=0, out=abs_sq)
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    np.exp(np.subtract(terms, shift, out=terms), out=terms)
    log_f = np.sum(terms, axis=0, out=np.empty(a.shape))
    with np.errstate(divide="ignore"):  # log(0) where every term is -inf
        np.add(np.log(log_f, out=log_f), shift, out=log_f)
    return log_f[()]  # an np.float64 for a 0-d point


def sample(
    mixture: GaussianMixture, rng: np.random.Generator, count: int
) -> np.ndarray:
    """i.i.d. draws: component chosen by weight, then CN(0, sigma_l^2).

    The stream is read in the order component indices, then every real
    part, then every imaginary part; callers' seeded results depend on it.
    The component indices are the ones rng.choice(L, size=count, p=weights)
    returns on the same stream. For equal weights they are computed here
    from the same rng.random(count) draws (see _equal_weight_choice).
    """
    _check_count("count", count)
    return _sample_into(mixture, rng, np.empty(count, dtype=complex), np.empty(count))


def _check_count(name: str, count) -> None:
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")


def _sample_into(
    mixture: GaussianMixture,
    rng: np.random.Generator,
    draws: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """sample(mixture, rng, len(draws)), written into the complex array
    draws. The float64 array scratch, of the same length, is overwritten:
    it holds the uniform draws, each normal part in turn, and the scales.
    """
    count = len(draws)
    w = mixture.weights
    if (w == w[0]).all():
        # draws is not written yet, so its memory is the choice's scratch.
        idx = _equal_weight_choice(w, rng.random(out=scratch), draws.view(float)[:count])
    else:
        idx = rng.choice(len(mixture), size=count, p=w)
    draws.real = rng.standard_normal(out=scratch)
    draws.imag = rng.standard_normal(out=scratch)
    # take buffers its out= in the default mode="raise"; idx is in range.
    draws *= np.take(np.sqrt(mixture.variances / 2.0), idx, out=scratch, mode="clip")
    return draws


def _equal_weight_choice(
    weights: np.ndarray, u: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Indices of rng.choice(L, p=weights) for equal weights and its
    uniform draws u; the float64 array scratch, as long as u, is
    overwritten.

    numpy's choice returns cdf.searchsorted(u, side="right") for
    cdf = weights.cumsum() / its last entry: the number of cdf entries at
    most u. Each entry is within about L eps of (k + 1) / L, so floor(u L)
    is off that count by at most one, and one comparison against the same
    cdf on each side corrects it. That holds while L^2 eps is well below
    1, far beyond the mixtures a run builds. floor(u L) needs no cap at
    L - 1: u is at most 1 - 2^-53, and L times that rounds below L.
    """
    n = len(weights)
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    # lower[k] = cdf[k - 1], the least u that index k takes.
    lower = np.concatenate([[0.0], cdf[:-1]])
    # Truncation toward zero, as astype does, without a float temporary.
    idx = np.multiply(u, n, out=np.empty(len(u), np.intp), casting="unsafe")
    idx -= np.greater(np.take(lower, idx, out=scratch, mode="clip"), u)
    idx += np.less_equal(np.take(cdf, idx, out=scratch, mode="clip"), u)
    return idx


def overlap_matrix(mixture: GaussianMixture) -> np.ndarray:
    """z[l, t]: the integral over the plane of the product of the densities
    of components l and t, 1 / (pi s) with s = sigma_l^2 + sigma_t^2."""
    v = mixture.variances
    s = v[:, None] + v[None, :]
    return 1.0 / (math.pi * s)


def entropy_lower_bound(mixture: GaussianMixture) -> float:
    """h_LB = -sum_l beta_l log2(sum_t beta_t z_lt), with z the overlap matrix."""
    z = overlap_matrix(mixture)
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
    v = equal_weight_zero_mean_mixture(variances).variances
    n = len(v)
    inv_sums = np.sum(1.0 / (v[:, None] + v[None, :]), axis=1)
    lb = math.log2(math.pi * n) - float(np.mean(np.log2(inv_sums)))
    ub = math.log2(math.pi * math.e * n) + float(np.mean(np.log2(v)))
    return lb, ub


def gaussian_entropy(variance: float) -> float:
    """Exact differential entropy of CN(0, sigma^2) in bits."""
    return math.log2(math.pi * math.e * variance)


# Component terms per Monte Carlo block. It bounds the (L, block) term
# array at 512 kB whatever the sample count.
_MC_BLOCK_TERMS = 1 << 16


def entropy_monte_carlo(
    mixture: GaussianMixture, rng: np.random.Generator, samples: int
) -> EntropyEstimate:
    """Sample mean of -log2 f_A(a) over draws from the mixture.

    Every draw is made, as `sample` makes them, before any is evaluated,
    so the random stream does not depend on the block size; -log2 f is
    then evaluated in blocks of about _MC_BLOCK_TERMS component terms.

    The draws, -log2 f and the block terms share one buffer per call: the
    -log2 f part is the sampler's scratch until the blocks fill it, and
    each block writes its terms over the last. glibc's malloc raises its
    trim threshold to twice the largest mmap-served block it frees, so
    with the call's working set in one block the heap keeps its pages from
    call to call instead of returning them and faulting them in again.
    """
    _check_count("samples", samples)
    n = len(mixture)
    step = max(1, _MC_BLOCK_TERMS // n)
    buffer = np.empty(3 * samples + n * min(step, samples))
    neg_log2_f = buffer[2 * samples : 3 * samples]
    draws = _sample_into(mixture, rng, buffer[: 2 * samples].view(complex), neg_log2_f)
    workspace = buffer[3 * samples :]
    for start in range(0, samples, step):
        block = draws[start : start + step]
        terms = workspace[: n * len(block)].reshape(n, len(block))
        # x / -LN2 has the bits of -x / LN2: IEEE division is sign-symmetric.
        log_f = _log_pdf_into(mixture, block, terms)
        np.divide(log_f, -LN2, out=neg_log2_f[start : start + step])
    value = float(np.mean(neg_log2_f))
    if samples > 1:
        std_error = float(np.std(neg_log2_f, ddof=1) / math.sqrt(samples))
    else:
        std_error = 0.0
    return EntropyEstimate(value, std_error, samples)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
# The nodes shifted to [0, 2]: a panel [a, a + 2h] holds h * _GL_OFFSETS + a.
_GL_OFFSETS = _GL_NODES + 1.0
# A panel's 48 values g_i times this (48, 2) table give c46 and c47, the last
# two Legendre coefficients of the degree-47 polynomial through them:
# c_k = (2k + 1) / 2 * sum_i w_i P_k(x_i) g_i, exact by the rule's
# orthogonality up to degree 95.
_TAIL_COEFFICIENTS = np.ascontiguousarray(
    np.polynomial.legendre.legvander(_GL_NODES, 47)[:, 46:]
    * (_GL_WEIGHTS[:, None] * (np.array([93.0, 95.0]) / 2.0)))
_PANELS = 40
_PANEL_INDEX = np.arange(float(_PANELS))
# Rows per kernel chunk: B = min(8, 64 // L) rows of L components go
# through together, and a row of more than 64 components alone (4 rows at
# L = 16). So a chunk's (L, B, 40, 48) term array is at most 64 * 1920
# float64, 983 kB, and each (B, 40, 48) per-row array at most 123 kB.
_CHUNK_COMPONENTS = 64
_CHUNK_ROWS = 8
_MAX_PANELS = 400  # per row refined by _refine


def _panel_edges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row n: 0 followed by np.geomspace(lo[n], hi[n], _PANELS), with
    geomspace's arithmetic (a linspace of log10 values, 10 ** y, both ends
    reset) but without its per-call wrapper cost; lo and hi are 1-D."""
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    y = _PANEL_INDEX * ((log_hi - log_lo) / (_PANELS - 1))[:, None] + log_lo[:, None]
    y[:, -1] = log_hi
    edges = np.zeros((len(lo), _PANELS + 1))
    edges[:, 1:] = 10.0**y
    edges[:, 1] = lo
    edges[:, -1] = hi
    return edges


def _check_tolerance(tolerance) -> None:
    if isinstance(tolerance, bool) or not (
            isinstance(tolerance, numbers.Real) and 0.0 < tolerance < math.inf):
        raise ValueError(f"tolerance must be a finite real number > 0, got {tolerance!r}")


def entropy_radial_quadrature(
    mixture: GaussianMixture, tolerance: float = 1e-10
) -> EntropyEstimate:
    """Adaptive 1-D quadrature entropy of the mixture.

    The mixture is radially symmetric, so with u = |a|^2 the
    entropy reduces to h = -int_0^inf pi f(u) log2 f(u) du where
    f(u) = sum_l beta_l / (pi sigma_l^2) exp(-u / sigma_l^2). 40 geometric
    panels of the order-48 Gauss-Legendre rule resolve every variance
    scale. The error estimate is a null rule on the same 48 values per
    panel: the sum over the panels of each one's width times |c46| + |c47|,
    the last two Legendre coefficients of the degree-47 polynomial through
    its values. A row whose estimate misses the tolerance bisects its
    panels, by the same rule, up to 400 panels; if it still misses, a
    RuntimeWarning names both numbers. A variance whose truncation point
    passes 1e308 (from about 2.5e306) raises ValueError.

    A one-row call of the kernel of entropy_radial_quadrature_rows: every
    call computes afresh, and the warning fires on each. A tolerance that
    is not a finite real number > 0 raises ValueError before any work.
    """
    _check_tolerance(tolerance)
    values, errors = _quadrature_rows(mixture.weights, mixture.variances[None], tolerance)
    return EntropyEstimate(float(values[0]), float(errors[0]), 0)


def entropy_radial_quadrature_rows(
    variances: np.ndarray, tolerance: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """The entropy of the equal-weight zero-mean mixture of each row of
    variances (..., L), at least one leading axis: (values, error
    estimates) of the leading shape. Each row has the bits its mixture
    gets alone, whatever the other rows: gaussian_entropy with error 0 for
    L = 1, else entropy_radial_quadrature.
    """
    _check_tolerance(tolerance)
    v = np.ascontiguousarray(variances, dtype=float)
    if v.ndim < 2 or v.size == 0:
        raise ValueError("need a nonempty (..., L) array of variances with a leading axis")
    if not (v > VARIANCE_FLOOR).all():
        raise ValueError(f"component variances must exceed {VARIANCE_FLOOR}")
    if not np.isfinite(v).all():
        raise ValueError("component variances must be finite")
    lead, n = v.shape[:-1], v.shape[-1]
    if n == 1:
        return np.reshape([gaussian_entropy(x) for x in v.ravel()], lead), np.zeros(lead)
    values, errors = _quadrature_rows(np.full(n, 1.0) / n, v.reshape(-1, n), tolerance)
    return values.reshape(lead), errors.reshape(lead)


def _quadrature_rows(
    weights: np.ndarray, variances: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """The panel rule of entropy_radial_quadrature on each row of variances
    (N, L), every row with the weights (L,): (values, error estimates),
    each (N,). Rows whose estimate misses the tolerance go on to _refine.

    Rows go through _panel_rule in chunks of B = min(8, 64 // L) rows, at
    least one, each row with its own log_coef and panel edges and the sum
    of its contiguous 1920 node products, so it has the bits of a one-row
    chunk. The (L, B, 40, 48) term array, its tie mask and the (B, 40, 48)
    nodes, log f and g are allocated once per call.
    """
    n_rows, n = variances.shape
    log_tail = math.log(n / TAIL_MASS)
    # Below 1e308, 10 ** log10 of the truncation point is finite too.
    v_max = float(variances.max())
    if not v_max * log_tail < 1e308:
        raise ValueError(f"largest component variance {v_max:.4g} puts the truncation point "
                         f"past the float range; at L = {n} it must be below {1e308 / log_tail:.4g}")
    chunk = min(n_rows, _CHUNK_ROWS, max(1, _CHUNK_COMPONENTS // n))
    per_row = np.empty((3, chunk, _PANELS, len(_GL_OFFSETS)))  # nodes, log f, g
    workspace = np.empty((n,) + per_row.shape[1:])
    buffers = (*per_row, workspace, np.empty(workspace.shape, dtype=bool))
    log_w = np.log(weights)
    values, errors = np.empty(n_rows), np.empty(n_rows)
    for start in range(0, n_rows, chunk):
        v = variances[start : start + chunk]
        b = len(v)
        log_coef = log_w - np.log(math.pi * v)
        inv_v = 1.0 / v
        # Truncate where the mixture tail mass is below TAIL_MASS.
        edges = _panel_edges(np.minimum.reduce(v, axis=1) / 8.0,
                             np.maximum.reduce(v, axis=1) * log_tail)
        products, panel_errors = _panel_rule(edges[:, :-1], edges[:, 1:], log_coef, inv_v, *buffers)
        values[start : start + b] = products.reshape(b, -1).sum(axis=1)
        errors[start : start + b] = panel_errors.sum(axis=1)
        # Written as a negation so that a nan estimate is refined too. Rows
        # go in order, and _refine writes the buffers' first row only.
        for m in np.flatnonzero(~(errors[start : start + b] <= tolerance)):
            values[start + m], errors[start + m] = _refine(
                np.stack([edges[m, :-1], edges[m, 1:]]), products[m].sum(axis=-1),
                panel_errors[m], log_coef[m : m + 1], inv_v[m : m + 1], tolerance, buffers)
    return values, errors


def _panel_rule(lo, hi, log_coef, inv_v, u_buf, log_f_buf, g_buf, workspace, mask):
    """The rule of entropy_radial_quadrature on the panels [lo, hi] (B, P),
    P <= 40, of rows with log_coef and inv_v (B, L), in the leading (B, P)
    slices of _quadrature_rows' buffers: (the node products (B, P, 48), a
    view of the nodes u_buf, and each panel's error estimate (B, P)).
    """
    b, p = lo.shape
    a = lo[:, :, None]
    half = (hi[:, :, None] - a) / 2.0
    u = u_buf[:b, :p]
    np.add(np.multiply(half, _GL_OFFSETS, out=u), a, out=u)
    terms = workspace[:, :b, :p]
    np.multiply(u, inv_v.T[:, :, None, None], out=terms)
    log_f = _logsumexp_overwrite(
        np.subtract(log_coef.T[:, :, None, None], terms, out=terms),
        log_f_buf[:b, :p], mask[:, :b, :p])
    # -pi f log2 f, as ((-pi * f) * log f) / ln 2, in one array.
    g = np.exp(log_f, out=g_buf[:b, :p])
    g *= -math.pi
    g *= log_f
    g /= LN2
    # The node products (half * w) * g, written over the nodes.
    np.multiply(np.multiply(half, _GL_WEIGHTS, out=u), g, out=u)
    # Null-rule error estimate: each panel's width times |c46| + |c47|.
    # The stacked product runs one (P, 48) @ (48, 2) product per row,
    # whose bits do not depend on the chunk.
    return u, (hi - lo) * np.abs(g @ _TAIL_COEFFICIENTS).sum(axis=-1)


def _refine(panels, values, errors, log_coef, inv_v, tolerance, buffers) -> tuple[float, float]:
    """Globally adaptive bisection, as in QUADPACK (Piessens et al., 1983),
    of one row's panels (2, P: lower and upper edges) with their values
    and errors: (value, error estimate). Each step halves every panel whose
    error exceeds tolerance / P and evaluates the halves, in groups of 40
    in the buffers' first row. It warns if none splits (nan splits none)
    or P would pass _MAX_PANELS.
    """
    while not errors.sum() <= tolerance:
        split = errors > tolerance / len(errors)
        if not split.any() or len(errors) + np.count_nonzero(split) > _MAX_PANELS:
            warnings.warn(f"radial quadrature refinement missed the tolerance: error estimate "
                          f"{errors.sum():.3g} > tolerance {tolerance:.3g}", RuntimeWarning, 4)
            break
        lo, hi = panels[:, split]
        mid = (lo + hi) / 2.0
        panels = np.concatenate([panels[:, ~split], [lo, mid], [mid, hi]], axis=1)
        values, errors = values[~split], errors[~split]
        for s in range(len(values), panels.shape[1], _PANELS):
            products, group_errors = _panel_rule(
                *panels[:, None, s : s + _PANELS], log_coef, inv_v, *buffers)
            values = np.append(values, products[0].sum(axis=-1))
            errors = np.append(errors, group_errors[0])
    return float(values.sum()), float(errors.sum())
