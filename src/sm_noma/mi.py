"""Mutual information per (decoder r, message k).

Exact MI via entropy estimation of the received/interference mixtures,
the closed-form lower bound for the two-user case, and the low/high-SNR
asymptotic values with their constant shifts.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import gmd
from .gmd import EntropyEstimate
from .system import ChannelRealization, SystemConfig, _check_decoding_pair, signal_variances

# Kept for bench/tracing.py, which wraps them here; mi_rows builds the rows itself.
from .system import mixture_of_interference, mixture_of_received  # noqa: F401

LOG2E = math.log2(math.e)

# Most Monte Carlo worker threads. Two ran an R = 6 Monte Carlo fig2b sweep
# in about three quarters of one's time on a 2-core machine; more were never
# measured, and each holds one entropy call's buffers (runner.MAX_MC_SAMPLES).
_MC_WORKERS = 2


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux; not macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class MiResult:
    """Exact MI at one (r, k, SNR) point."""

    mi_exact: EntropyEstimate


@dataclass(frozen=True)
class AsymptoteReport:
    """Low/high-SNR limits of the MI lower bound and exact MI for K = 2."""

    low_snr_lb_limit: float
    high_snr_mi_limit: float | None
    high_snr_lb_limit: float | None
    constant_shift: float


def mi_exact(
    realization: ChannelRealization,
    config: SystemConfig,
    r: int,
    k: int,
    method: str = "radial_quadrature",
    *,
    rng: np.random.Generator | None = None,
    samples: int = 10**6,
    tolerance: float = 1e-10,
) -> MiResult:
    """I_{r,k} = h(Y_{r,k}) - h(Omega_{r,k}), both entropies by the same
    method (Monte Carlo: both from rng, h(Y) first): one row of mi_rows."""
    _check_decoding_pair(realization, config, r, k)
    values, errors = mi_rows(
        np.abs(realization.channel_vectors[None]) ** 2, config.power_levels,
        config.signal_power, config.noise_power, ((r, k),), method,
        rngs=lambda cell: rng, samples=samples, tolerance=tolerance)
    # Monte Carlo samples each mixture of M^(K + 1 - t) > 1 components.
    sampled = sum(config.num_tx_antennas ** (config.num_users + 1 - t) > 1 for t in (k, k + 1))
    count = samples * sampled if method == "monte_carlo" else 0
    return MiResult(mi_exact=EntropyEstimate(values.item(), errors.item(), count))


def mi_rows(
    gains_sq: np.ndarray, power_levels, signal_power, noise_power: float,
    pairs: Sequence[tuple[int, int]], method: str = "radial_quadrature", *,
    rngs: Callable[[tuple[int, ...]], np.random.Generator | None] = lambda cell: None,
    samples: int = 10**6, tolerance: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact I(r, k) = h(r, k) - h(r, k + 1) of each decoder/message pair
    (r, k), from every decoder's |h_r|^2 (..., K, M) with at least one
    leading axis and the powers of signal_variances: (values, error
    estimates), each (len(pairs), ...). Block (r, t) holds decoder r's
    variance rows for the users t and up (mixture_of_received's for t = k,
    mixture_of_interference's for t = k + 1) and is built once: I(2, 1) and
    I(2, 2) share block (2, 2). Radial quadrature takes each block through
    one entropy_radial_quadrature_rows call. Monte Carlo calls entropy_exact
    per cell, h(r, k) first, on the generator rngs gives the cell index
    (p, ...); each cell needs its own generator, and a generator handed to
    two cells raises ValueError before anything is drawn. The cells run on
    a thread pool of at most _MC_WORKERS workers, one per usable core and
    cell; an error drops the queued cells. Every generator is made
    first, in the calling thread, and each cell draws only from its own and
    writes only its own slots, so no value depends on the scheduling. The
    two errors add by math.hypot per cell, as np.hypot rounds differently
    on some pairs.
    """
    blocks = {(r, t): signal_variances(gains_sq[..., r - 1, :], power_levels, signal_power,
                                       noise_power, t)
              for r, k in pairs for t in (k, k + 1)}
    if method == "radial_quadrature":
        h = {key: gmd.entropy_radial_quadrature_rows(v, tolerance) for key, v in blocks.items()}
        entropies = [(h[r, k], h[r, k + 1]) for r, k in pairs]
    else:
        lead = np.broadcast_shapes(*(v.shape[:-1] for v in blocks.values()))
        rows = {key: np.broadcast_to(v, lead + v.shape[-1:]) for key, v in blocks.items()}
        entropies = np.empty((len(pairs), 2, 2) + lead)  # (p, t - k, value/error, ...)
        cells = list(np.ndindex((len(pairs),) + lead))
        generators = [rngs(cell) for cell in cells]
        given = [id(rng) for rng in generators if rng is not None]
        if len(set(given)) < len(given):
            raise ValueError("each Monte Carlo cell needs its own generator")

        def run_cell(cell, rng):
            p, *index = cell
            r, k = pairs[p]
            for s in (0, 1):
                estimate = gmd.entropy_exact(
                    gmd.equal_weight_zero_mean_mixture(rows[r, k + s][tuple(index)]), method,
                    rng=rng, samples=samples, tolerance=tolerance)
                entropies[(p, s, slice(None), *index)] = estimate.value, estimate.std_error

        workers = min(len(cells), _MC_WORKERS, _usable_cores()) if len(cells) > 1 else 1
        pool = ThreadPoolExecutor(workers)
        try:
            list(pool.map(run_cell, cells, generators))
        finally:
            # An error or Ctrl-C drops the queued cells instead of running them.
            pool.shutdown(cancel_futures=True)
    hypot = np.vectorize(math.hypot, otypes=[float])
    return (np.stack([h_y[0] - h_w[0] for h_y, h_w in entropies]),
            np.stack([hypot(h_y[1], h_w[1]) for h_y, h_w in entropies]))


def mi_lower_bound_k2(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> float:
    """Closed-form MI lower bound h_LB(Y) - h_UB(Omega) for the two-user case:
    one row of lower_bound_k2_rows."""
    if config.num_users != 2:
        raise ValueError("closed-form lower bound is derived only for K = 2")
    if not (1 <= k <= r <= 2):
        raise ValueError(f"invalid decoder/message pair ({r}, {k}) for K = 2")
    gains_sq = np.abs(realization.channel_vectors[r - 1]) ** 2
    return float(lower_bound_k2_rows(gains_sq, np.array(config.power_levels), config.snr, k))


# Terms per chunk of the lower bound's (N, M, M, M, M) arrays: each
# temporary stays at 32 kB however many rows a sweep stacks.
_LB_CHUNK_TERMS = 1 << 12


def lower_bound_k2_rows(
    gains_sq: np.ndarray, power_levels: np.ndarray, snr, k: int
) -> np.ndarray:
    """Closed-form K = 2 MI lower bound of message k at a decoder r >= k,
    for decoder r's |h_r|^2 (..., M), the power levels (..., 2) and the SNR
    (...), broadcast against each other; the result has their leading
    shape.

    Pairwise gain sums include the diagonal n = m (each diagonal term is
    twice the single squared gain), matching the overlap structure of the
    entropy lower bound. k must be 1 or 2.
    """
    if k not in (1, 2):
        raise ValueError(f"message index {k} out of range 1..2 for K = 2")
    m = gains_sq.shape[-1]
    lead = np.broadcast_shapes(gains_sq.shape[:-1], power_levels.shape[:-1], np.shape(snr))
    g = np.broadcast_to(gains_sq, lead + (m,)).reshape(-1, m)
    levels = np.broadcast_to(power_levels, lead + (2,)).reshape(-1, 2)
    rho = np.broadcast_to(snr, lead).reshape(-1)
    out = np.empty(len(g))
    step = max(1, _LB_CHUNK_TERMS // m ** (4 if k == 1 else 2))
    for start in range(0, len(g), step):
        rows = slice(start, start + step)
        out[rows] = _lower_bound_chunk(g[rows], levels[rows], rho[rows], k)
    return out.reshape(lead)


def _lower_bound_chunk(
    g: np.ndarray, levels: np.ndarray, rho: np.ndarray, k: int
) -> np.ndarray:
    """lower_bound_k2_rows on flat rows: g (N, M), levels (N, 2), rho (N,)."""
    n, m = g.shape
    p = g[:, :, None] + g[:, None, :]  # pairwise sums incl. diagonal
    c = rho[:, None] * levels  # rho a1^2, rho a2^2 per row
    if k == 2:
        # log2(M/e) - (1/M) sum_n log2( sum_m 1 / (2 + rho a2^2 p[n,m]) )
        inner = (1.0 / (2.0 + c[:, 1, None, None] * p)).sum(axis=-1)
    else:
        # denom[n1, n2, m1, m2] = 2 + rho (a1^2 p[n1,m1] + a2^2 p[n2,m2])
        c1, c2 = c[:, 0, None, None, None, None], c[:, 1, None, None, None, None]
        denom = 2.0 + c1 * p[:, :, None, :, None] + c2 * p[:, None, :, None, :]
        numer = 1.0 + c2 * g[:, None, :, None, None]
        inner = (numer / denom).sum(axis=(-2, -1))
    # np.mean's arithmetic: the pairwise sum, then one division by the count.
    mean = np.log2(inner).reshape(n, -1).sum(axis=-1) / inner[0].size
    return (math.log2(m) - LOG2E) - mean


def asymptotes(config: SystemConfig, r: int, k: int) -> AsymptoteReport:
    """Low/high-SNR limits for K = 2; they do not depend on the channel gains."""
    if config.num_users != 2:
        raise ValueError("asymptotic analysis covers only K = 2")
    if not (1 <= k <= r <= 2):
        raise ValueError(f"invalid decoder/message pair ({r}, {k}) for K = 2")
    if k == 2:
        shift = 1.0 - LOG2E
        return AsymptoteReport(
            low_snr_lb_limit=shift,
            high_snr_mi_limit=None,
            high_snr_lb_limit=None,
            constant_shift=shift,
        )
    n2 = config.num_tx_antennas  # conventional SM: N_2 = M
    a1, a2 = config.power_levels
    shift = 1.0 - math.log2(math.e * n2)
    ceiling = math.log2(1.0 + a1 / a2)
    return AsymptoteReport(
        low_snr_lb_limit=shift,
        high_snr_mi_limit=ceiling,
        high_snr_lb_limit=ceiling + shift,
        constant_shift=shift,
    )
