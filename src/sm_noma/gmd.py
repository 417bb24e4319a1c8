"""Scalar complex zero-mean Gaussian mixture distributions.

Every SM-NOMA mixture is zero-mean (Gaussian symbols on the antenna the SM
index picks), so a mixture holds weights and variances only and its density
is radially symmetric. Overlap integrals, differential entropy (Monte
Carlo and radial quadrature, of the equal-weight mixture of a row of
variances), and the closed-form entropy lower/upper bounds. All entropies
are in bits; internals use natural logs and convert once at the boundary.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import threading
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# Reject degenerate variances instead of propagating infinities.
VARIANCE_FLOOR = 1e-300
WEIGHT_SUM_TOL = 1e-12
# Radial quadrature truncates where the mixture tail mass drops below this.
TAIL_MASS = 1e-14
# Each radial-quadrature entropy's default error bound, in bits.
QUADRATURE_TOLERANCE = 1e-10


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
        v = np.array(_check_row(self.variances))
        if w.shape != v.shape:
            raise ValueError("need 1-D weights and variances of one length")
        if not ((w > 0.0) & (w <= 1.0)).all():
            raise ValueError(f"component weights must be in (0, 1], got {w}")
        total = math.fsum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
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


def _log_pdf_into(
    log_coef: np.ndarray, variances: np.ndarray, abs_sq: np.ndarray, terms: np.ndarray
) -> np.ndarray:
    """Natural log of the zero-mean mixture density with log_coef[l] =
    log(beta_l / (pi sigma_l^2)), at the points whose |a|^2 is the 1-D
    float64 array abs_sq, with the (L, len(abs_sq)) component terms written
    into the float64 array terms.

    The terms reduce in place by a max-shift log-sum-exp, log f =
    log(sum of exp(term - m)) + m, with m each point's largest term, or 0
    where that is -inf (giving -inf) or nan (giving nan); m overwrites
    abs_sq.
    """
    np.divide(abs_sq, variances[:, None], out=terms)
    np.subtract(log_coef[:, None], terms, out=terms)
    shift = np.max(terms, axis=0, out=abs_sq)
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    np.exp(np.subtract(terms, shift, out=terms), out=terms)
    log_f = np.sum(terms, axis=0, out=np.empty(abs_sq.shape))
    with np.errstate(divide="ignore"):  # log(0) where every term is -inf
        np.add(np.log(log_f, out=log_f), shift, out=log_f)
    return log_f


def _check_row(variances, stacked: bool = False) -> np.ndarray:
    """variances as a C-contiguous float64 array: one row (L,) of an
    equal-weight zero-mean mixture's variances, or with stacked rows
    (..., L) with at least one leading axis. An empty or misshapen array,
    or a variance that is not finite or not above VARIANCE_FLOOR, raises
    ValueError."""
    v = np.asarray(variances, dtype=float)
    if v.size == 0 or not (v.ndim >= 2 if stacked else v.ndim == 1):
        shape = "(..., L) array with a leading axis" if stacked else "1-D row"
        raise ValueError(f"need a nonempty {shape} of variances, got shape {v.shape}")
    if not (v > VARIANCE_FLOOR).all():
        raise ValueError(f"component variances must exceed {VARIANCE_FLOOR}")
    if not np.isfinite(v).all():
        raise ValueError("component variances must be finite")
    return np.ascontiguousarray(v)


def _check_count(name: str, count) -> None:
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux; not macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(items: int) -> int:
    """How many threads _share runs items items on: the caller and the
    helper, no more than the items or the usable cores."""
    return min(items, 2, _usable_cores())


# The helper thread's task queue, None until the first shared call starts
# it. A forked child has no helper thread, so it forgets the queue and
# starts its own.
_helper_tasks: queue.SimpleQueue | None = None
_helper_start = threading.Lock()


def _forget_helper() -> None:
    global _helper_tasks, _helper_start
    _helper_tasks, _helper_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_helper)


def _submit(task: Callable[[], None]) -> None:
    """Queue task for the helper thread, starting the thread on the first."""
    global _helper_tasks
    with _helper_start:
        if _helper_tasks is None:
            _helper_tasks = queue.SimpleQueue()
            _helper_tasks.put(task)
            threading.Thread(target=_serve, args=(_helper_tasks,), name="sm_noma-helper",
                             daemon=True).start()
        else:
            _helper_tasks.put(task)


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get()()


_END = object()  # marks the end of _share's items


def _share(start_worker: Callable[[], Callable], items: Sequence, min_items: int = 2) -> None:
    """Call a worker function on every item of items, on the calling thread
    and, for at least min_items items and two usable cores, on the helper
    thread too: each pulls the next item as it finishes one. A worker
    makes its function by start_worker() on its first item, so each holds
    its own buffers.

    The first exception stops the other worker at its next item and is
    raised here once that worker is done. The helper's task is never
    waited for before it starts: once the items run out, the caller drops
    a task the helper has not begun. So a call made while the helper is
    busy (a call from a helper task, a second core taken by another
    process) runs on the calling thread alone instead of waiting.
    """
    pending = iter(items)
    pull = threading.Lock()
    errors = []

    def drain():
        work = None
        while not errors:
            with pull:
                item = next(pending, _END)
            if item is _END:
                return
            try:
                if work is None:
                    work = start_worker()
                work(item)
            except BaseException as error:  # Ctrl-C too: the other worker stops
                errors.append(error)

    if len(items) >= min_items and _workers(len(items)) == 2:
        started = threading.Lock()

        def helper_task():
            if started.acquire(blocking=False):
                try:
                    drain()
                finally:
                    started.release()

        _submit(helper_task)
        drain()
        try:
            started.acquire()  # waits only for a task the helper has begun
        except BaseException as error:  # Ctrl-C while waiting: the helper stops too
            errors.append(error)
            raise
    else:
        drain()
    if errors:
        raise errors[0]


def _equal_weight_choice(n: int, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Indices of rng.choice(L, p=weights) for the L = n equal weights
    np.full(L, 1.0) / L and its uniform draws u; the float64 array scratch,
    as long as u, is overwritten.

    numpy's choice returns cdf.searchsorted(u, side="right") for
    cdf = weights.cumsum() / its last entry: the number of cdf entries at
    most u. Each entry is within about L eps of (k + 1) / L, so floor(u L)
    is off that count by at most one, and one comparison against the same
    cdf on each side corrects it. That holds while L^2 eps is well below
    1, far beyond the mixtures a run builds. floor(u L) needs no cap at
    L - 1: u is at most 1 - 2^-53, and L times that rounds below L.
    """
    cdf = (np.full(n, 1.0) / n).cumsum()
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
    v = _check_row(variances)
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
# Largest spread L * max(variances) / min(variances) whose Monte Carlo
# density is summed directly; see entropy_monte_carlo for why it is safe.
_MC_MAX_SPREAD = 1e200


def entropy_monte_carlo(
    variances, rng: np.random.Generator, samples: int
) -> EntropyEstimate:
    """Sample mean of -log2 f_A(a) over draws from the equal-weight
    zero-mean mixture of the 1-D row of variances.

    All draws are made before any is evaluated (see _radial_draws), so the
    stream does not depend on the block size. The density needs only
    |a|^2, which _radial_draws forms from the normals without complex
    draws; -log2 f is then evaluated in blocks of about _MC_BLOCK_TERMS
    component terms.

    A block sums the density directly: with v the largest variance,
    beta_l = 1 / L and c_l = beta_l v / sigma_l^2,
        log f = log(sum_l c_l exp(-|a|^2 / sigma_l^2)) - log(pi v),
    a multiply, an exp and a multiply by c over the (L, block) terms, then
    numpy's sum over the components. A matrix-vector product with c would
    save the last multiply, but OpenBLAS's dgemv rounds an element by its
    position in the call, so a blocked sum would not have the bits of a
    one-shot one. While the spread L v / min(sigma_l^2) is at most
    _MC_MAX_SPREAD (1e200) the direct sum is safe:
    - No overflow: every c_l is at most v / min(sigma_l^2) (beta_l <= 1)
      and every exponential at most 1, so the sum is at most the spread.
    - Underflow is negligible: an exponential below 2^-1022 (2.2e-308)
      loses at most its whole value, so the sum loses at most the spread
      times that, 2.2e-108. A draw from component k has
      |a|^2 = sigma_k^2 E, E exponential with mean 1, and k's own term
      c_k e^-E is at least beta_k e^-E; the loss passes 1e-16 of it only
      where e^-E < 2.2e-92 / beta_k, a chance of 2.2e-92 / beta_k per draw.
    Wider mixtures take _log_pdf_into's max-shift log-sum-exp on the same
    |a|^2.

    |a|^2, -log2 f, the sampler's scratch and the block terms share one
    buffer per call: each block's -log2 f is written over its |a|^2, the
    terms over the scratch and each block's terms over the last. glibc's
    malloc raises its trim threshold to twice the largest mmap-served
    block it frees, so with the call's working set in one block the heap
    keeps its pages from call to call instead of returning them and
    faulting them in again. A bad row or sample count raises ValueError
    before any draw.
    """
    v = _check_row(variances)
    _check_count("samples", samples)
    n = len(v)
    step = max(1, _MC_BLOCK_TERMS // n)
    buffer = np.empty(samples + max(samples, n * min(step, samples)))
    neg_log2_f = _radial_draws(v, rng, buffer[:samples], buffer[samples : 2 * samples])
    workspace = buffer[samples:]
    weights = np.full(n, 1.0) / n
    v_max = float(v.max())
    direct = n * (v_max / float(v.min())) <= _MC_MAX_SPREAD
    neg_inv_v = (-1.0 / v)[:, None]
    coef = (weights * (v_max / v))[:, None]
    log_coef = np.log(weights) - np.log(math.pi * v)
    log_norm = math.log(math.pi * v_max)
    for start in range(0, samples, step):
        block = neg_log2_f[start : start + step]  # |a|^2 until overwritten
        terms = workspace[: n * len(block)].reshape(n, len(block))
        if direct:
            np.exp(np.multiply(block, neg_inv_v, out=terms), out=terms)
            terms *= coef
            log_f = np.log(np.sum(terms, axis=0, out=block), out=block)
            log_f -= log_norm
        else:
            log_f = _log_pdf_into(log_coef, v, block, terms)
        # x / -LN2 has the bits of -x / LN2: IEEE division is sign-symmetric.
        np.divide(log_f, -LN2, out=block)
    value = float(np.mean(neg_log2_f))
    if samples > 1:
        std_error = float(np.std(neg_log2_f, ddof=1) / math.sqrt(samples))
    else:
        std_error = 0.0
    return EntropyEstimate(value, std_error, samples)


def _radial_draws(
    variances: np.ndarray,
    rng: np.random.Generator,
    abs_sq: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """|a|^2 of len(abs_sq) i.i.d. draws from the equal-weight zero-mean
    mixture of the float64 row variances, written into the float64 array
    abs_sq; the float64 array scratch, as long, is overwritten.

    The stream, on which callers' seeded results depend, holds the
    component indices that rng.choice(L, p=np.full(L, 1.0) / L) draws (see
    _equal_weight_choice), then every real part's standard normal z1, then
    every imaginary part's z2: |a|^2 = (sigma_l^2 / 2) (z1^2 + z2^2).
    """
    idx = _equal_weight_choice(len(variances), rng.random(out=abs_sq), scratch)
    rng.standard_normal(out=abs_sq)
    rng.standard_normal(out=scratch)
    np.square(abs_sq, out=abs_sq)
    abs_sq += np.square(scratch, out=scratch)
    # take buffers its out= in the default mode="raise"; idx is in range.
    abs_sq *= np.take(variances / 2.0, idx, out=scratch, mode="clip")
    return abs_sq


# The order-48 Gauss-Legendre rule on [-1, 1], with the bits of numpy's
# leggauss(48), which makes it exactly symmetric: its 24 positive nodes and
# their weights, mirrored.
_GL_HALF_NODES = np.array([float.fromhex(x) for x in """
    0x1.094223ea6196ep-5 0x1.8d54ccaa9b7b4p-4 0x1.4a2ef25599831p-3 0x1.cc50f5488fbefp-3
    0x1.26425a1527d42p-2 0x1.65204357a6388p-2 0x1.a27eb589dea3bp-2 0x1.de1bcb894046ap-2
    0x1.0bdbc159f3714p-1 0x1.2789ffd1f24a0p-1 0x1.41fae84d5a001p-1 0x1.5b1216aac49a1p-1
    0x1.72b49a0302d99p-1 0x1.88c91196f8e2dp-1 0x1.9d37c81006d1dp-1 0x1.afeaccf5eeb9ep-1
    0x1.c0ce0c3f55453p-1 0x1.cfcf63e4a4e84p-1 0x1.dcdeb7610754bp-1 0x1.e7ee011520dfap-1
    0x1.f0f161978472fp-1 0x1.f7df2d6c8eed7p-1 0x1.fcaffc9af24a4p-1 0x1.ff5ee9d8af2e2p-1
    """.split()])
_GL_HALF_WEIGHTS = np.array([float.fromhex(x) for x in """
    0x1.092a652a0fba4p-4 0x1.080dac3f3724cp-4 0x1.05d56c2248c2dp-4 0x1.028406fc86d22p-4
    0x1.fc3a19b11a281p-5 0x1.f14a6f9e10aacp-5 0x1.e444cde6cfffcp-5 0x1.d537300bfd4b4p-5
    0x1.c431bfe4b318dp-5 0x1.b146c443c7e03p-5 0x1.9c8a8d586186bp-5 0x1.86135edf0a9e7p-5
    0x1.6df9583af7196p-5 0x1.54565a91a83e9p-5 0x1.3945ed05d7d52p-5 0x1.1ce51f31f7018p-5
    0x1.fea4d40fed237p-6 0x1.c15b1e8f69982p-6 0x1.822eefbc974b7p-6 0x1.416423e8cbb26p-6
    0x1.fe80c5c315b36p-7 0x1.781605954a664p-7 0x1.e037f45d9bc6dp-8 0x1.9d50bc55d51a7p-9
    """.split()])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
# The nodes shifted to [0, 2]: a panel [a, a + 2h] holds h * _GL_OFFSETS + a.
_GL_OFFSETS = _GL_NODES + 1.0


def _last_legendre(x: np.ndarray, degree: int) -> np.ndarray:
    """(P_{degree - 1}(x), P_degree(x)) as the columns of a (len(x), 2)
    array, by the three-term recurrence in the order of operations of
    numpy's legvander(x, degree), whose last two columns it equals."""
    previous, p = x * 0 + 1, x
    for i in range(2, degree + 1):
        previous, p = p, (p * x * (2 * i - 1) - previous * (i - 1)) / i
    return np.stack([previous, p], axis=1)


# A panel's 48 values g_i times this (48, 2) table give c46 and c47, the last
# two Legendre coefficients of the degree-47 polynomial through them:
# c_k = (2k + 1) / 2 * sum_i w_i P_k(x_i) g_i, exact by the rule's
# orthogonality up to degree 95.
_TAIL_COEFFICIENTS = (_last_legendre(_GL_NODES, 47)
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
# Fewest chunks a _quadrature_rows call shares with the helper thread; see
# README for how it was measured.
_SHARED_CHUNKS = 32


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
    variances, tolerance: float = QUADRATURE_TOLERANCE
) -> EntropyEstimate:
    """Adaptive 1-D quadrature entropy of the equal-weight zero-mean
    mixture of the 1-D row of variances.

    The mixture is radially symmetric, so with u = |a|^2 the
    entropy reduces to h = -int_0^inf pi f(u) log2 f(u) du where
    f(u) = sum_l exp(-u / sigma_l^2) / (pi sigma_l^2 L). 40 geometric
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
    is not a finite real number > 0, or a bad row (see _check_row), raises
    ValueError before any work.
    """
    _check_tolerance(tolerance)
    values, errors = _quadrature_rows(_check_row(variances)[None], tolerance)
    return EntropyEstimate(float(values[0]), float(errors[0]), 0)


def entropy_radial_quadrature_rows(
    variances: np.ndarray, tolerance: float = QUADRATURE_TOLERANCE
) -> tuple[np.ndarray, np.ndarray]:
    """The entropy of the equal-weight zero-mean mixture of each row of
    variances (..., L), at least one leading axis: (values, error
    estimates) of the leading shape. Each row has the bits its mixture
    gets alone, whatever the other rows: gaussian_entropy with error 0 for
    L = 1 (called once per distinct variance), else
    entropy_radial_quadrature.
    """
    _check_tolerance(tolerance)
    v = _check_row(variances, stacked=True)
    lead, n = v.shape[:-1], v.shape[-1]
    if n == 1:
        # One gaussian_entropy call per distinct variance, scattered back.
        distinct, inverse = np.unique(v.ravel(), return_inverse=True)
        values = np.array([gaussian_entropy(x) for x in distinct])
        return values[inverse].reshape(lead), np.zeros(lead)
    values, errors = _quadrature_rows(v.reshape(-1, n), tolerance)
    return values.reshape(lead), errors.reshape(lead)


def _quadrature_rows(
    variances: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """The panel rule of entropy_radial_quadrature on the equal-weight
    mixture of each row of variances (N, L): (values, error estimates),
    each (N,). Rows whose estimate misses the tolerance go on to _refine.

    Rows go through _panel_rule in chunks of B = min(8, 64 // L) rows, at
    least one, each row with its own log_coef and panel edges and the sum
    of its contiguous 1920 node products, so it has the bits of a one-row
    chunk, whichever worker runs it. A call of at least _SHARED_CHUNKS
    chunks runs them on the helper thread too (see _share). The
    (L, B, 40, 48) term array, its tie mask and the (B, 40, 48) nodes,
    log f and g are allocated once per worker. Every row whose estimate
    still misses the tolerance then warns, in row order, in the calling
    thread.
    """
    n_rows, n = variances.shape
    log_tail = math.log(n / TAIL_MASS)
    # Below 1e308, 10 ** log10 of the truncation point is finite too.
    v_max = float(variances.max())
    if not v_max * log_tail < 1e308:
        raise ValueError(f"largest component variance {v_max:.4g} puts the truncation point "
                         f"past the float range; at L = {n} it must be below {1e308 / log_tail:.4g}")
    chunk = min(n_rows, _CHUNK_ROWS, max(1, _CHUNK_COMPONENTS // n))
    log_w = np.log(np.full(n, 1.0) / n)
    values, errors = np.empty(n_rows), np.empty(n_rows)

    def start_worker():
        per_row = np.empty((3, chunk, _PANELS, len(_GL_OFFSETS)))  # nodes, log f, g
        workspace = np.empty((n,) + per_row.shape[1:])
        buffers = (*per_row, workspace, np.empty(workspace.shape, dtype=bool))

        def run_chunk(start):
            v = variances[start : start + chunk]
            b = len(v)
            log_coef = log_w - np.log(math.pi * v)
            inv_v = 1.0 / v
            # Truncate where the mixture tail mass is below TAIL_MASS.
            edges = _panel_edges(np.minimum.reduce(v, axis=1) / 8.0,
                                 np.maximum.reduce(v, axis=1) * log_tail)
            products, panel_errors = _panel_rule(
                edges[:, :-1], edges[:, 1:], log_coef, inv_v, *buffers)
            values[start : start + b] = products.reshape(b, -1).sum(axis=1)
            errors[start : start + b] = panel_errors.sum(axis=1)
            # Written as a negation so that a nan estimate is refined too. Rows
            # go in order, and _refine writes the buffers' first row only.
            for m in np.flatnonzero(~(errors[start : start + b] <= tolerance)):
                values[start + m], errors[start + m] = _refine(
                    np.stack([edges[m, :-1], edges[m, 1:]]), products[m].sum(axis=-1),
                    panel_errors[m], log_coef[m : m + 1], inv_v[m : m + 1], tolerance, buffers)

        return run_chunk

    _share(start_worker, range(0, n_rows, chunk), _SHARED_CHUNKS)
    for estimate in errors[~(errors <= tolerance)]:
        # At the stack level of the caller of entropy_radial_quadrature(_rows).
        warnings.warn(f"radial quadrature refinement missed the tolerance: error estimate "
                      f"{estimate:.3g} > tolerance {tolerance:.3g}", RuntimeWarning, 3)
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
    # The nodes half * offset + a. Each product is formed in place on a
    # broadcast copy of the rule's table, which numpy makes without the
    # ufunc iterator's 62 kB buffer for a second broadcast operand.
    u = u_buf[:b, :p]
    np.copyto(u, _GL_OFFSETS)
    u *= half
    u += a
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
    np.copyto(u, _GL_WEIGHTS)
    u *= half
    u *= g
    # Null-rule error estimate: each panel's width times |c46| + |c47|.
    # The stacked product runs one (P, 48) @ (48, 2) product per row,
    # whose bits do not depend on the chunk.
    return u, (hi - lo) * np.abs(g @ _TAIL_COEFFICIENTS).sum(axis=-1)


def _refine(panels, values, errors, log_coef, inv_v, tolerance, buffers) -> tuple[float, float]:
    """Globally adaptive bisection, as in QUADPACK (Piessens et al., 1983),
    of one row's panels (2, P: lower and upper edges) with their values
    and errors: (value, error estimate). Each step halves every panel whose
    error exceeds tolerance / P and evaluates the halves, in groups of 40
    in the buffers' first row. It stops if none splits (nan splits none),
    if P would pass _MAX_PANELS, or, as QUADPACK's roundoff
    detection does, once a step leaves the summed estimate no lower: the
    null rule's estimate has reached its roundoff floor, and the panels
    before that step give the result.
    """
    value, estimate = values.sum(), errors.sum()
    while not estimate <= tolerance:
        split = errors > tolerance / len(errors)
        if not split.any() or len(errors) + np.count_nonzero(split) > _MAX_PANELS:
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
        if not (refined := errors.sum()) < estimate:
            break
        value, estimate = values.sum(), refined
    return float(value), float(estimate)
