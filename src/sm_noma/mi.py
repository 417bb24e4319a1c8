"""Mutual information per (decoder r, message k).

Exact MI via entropy estimation of the received/interference mixtures,
the closed-form lower bound for the two-user case, and its two-user
limits: the exact MI's high-SNR ceiling and the lower bound's constant
shift.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import gmd
from .gmd import EntropyEstimate
from .system import ChannelRealization, SystemConfig, _check_decoding_pair, signal_variances

# Kept for bench/tracing.py, which wraps them here; mi_rows builds the rows itself.
from .system import mixture_of_interference, mixture_of_received  # noqa: F401

LOG2E = math.log2(math.e)

@dataclass(frozen=True)
class MiResult:
    """Exact MI at one (r, k, SNR) point."""

    mi_exact: EntropyEstimate


@dataclass(frozen=True)
class AsymptoteReport:
    """The K = 2 limits of message k's MI: the exact MI's high-SNR ceiling
    (None for k = 2, which grows without bound) and the constant shift, the
    lower bound's low-SNR limit and its high-SNR offset from the exact MI."""

    high_snr_mi_limit: float | None
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
    tolerance: float = gmd.QUADRATURE_TOLERANCE,
) -> MiResult:
    """I_{r,k} = h(Y_{r,k}) - h(Omega_{r,k}), both entropies by the same
    method (Monte Carlo: both from rng, h(Y) first): one row of mi_rows."""
    _check_decoding_pair(realization, config, r, k)
    values, errors, draws = mi_rows(
        np.abs(realization.channel_vectors[None]) ** 2, config.power_levels,
        config.signal_power, config.noise_power, ((r, k),), method,
        rngs=lambda cell: rng, samples=samples, tolerance=tolerance)
    return MiResult(mi_exact=EntropyEstimate(values.item(), errors.item(), int(draws[0])))


def mi_rows(
    gains_sq: np.ndarray, power_levels, signal_power, noise_power: float,
    pairs: Sequence[tuple[int, int]], method: str = "radial_quadrature", *,
    rngs: Callable[[tuple[int, ...]], np.random.Generator | None] = lambda cell: None,
    samples: int = 10**6, tolerance: float = gmd.QUADRATURE_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact I(r, k) = h(r, k) - h(r, k + 1) of each decoder/message pair
    (r, k), from every decoder's |h_r|^2 (..., K, M) with at least one
    leading axis and the K powers of signal_variances: (values, error
    estimates), each (len(pairs), ...), and the Monte Carlo draws made for
    each pair, (len(pairs),), 0 under quadrature. Block (r, t) holds decoder r's
    variance rows for the users t and up (mixture_of_received's for t = k,
    mixture_of_interference's for t = k + 1) and is built once: I(2, 1) and
    I(2, 2) share block (2, 2). Under either method a block of one-component
    rows (noise alone, or M = 1) takes entropy_radial_quadrature_rows'
    closed form, and "radial_quadrature" takes every block through that one
    call. "monte_carlo" calls entropy_monte_carlo on each cell's rows,
    h(r, k) first, on the generator rngs gives the cell index (p, ...),
    and builds no mixture; each cell needs its
    own generator, and a missing or shared one raises ValueError before
    anything is drawn. The cells run on gmd._share's two workers, the
    calling thread and a helper thread the call starts and joins, or on
    one for one cell or one usable core; an error drops the cells not yet
    begun.
    Every generator is made first, in the calling thread, and each cell
    draws only from its own and writes only its own slots, so no value
    depends on the scheduling. The two errors add by np.hypot. An unknown
    method, a bad tolerance or Monte Carlo sample count, gains without a
    leading axis, other than K power levels, no pairs, or one outside
    1 <= k <= r <= K raise ValueError before any work.
    """
    if method not in ("radial_quadrature", "monte_carlo"):
        raise ValueError(f"unknown entropy method {method!r}")
    gmd._check_tolerance(tolerance)
    if method == "monte_carlo":
        gmd._check_count("samples", samples)
    if np.ndim(gains_sq) < 3:
        raise ValueError(f"need gains (..., K, M) with a leading axis, got {np.shape(gains_sq)}")
    n_users = gains_sq.shape[-2]
    if len(power_levels) != n_users:
        raise ValueError(f"need K = {n_users} power levels, got {len(power_levels)}")
    if len(pairs) == 0 or not all(1 <= k <= r <= n_users for r, k in pairs):
        raise ValueError(f"need pairs with 1 <= k <= r <= K = {n_users}, got {pairs!r}")
    blocks = {(r, t): signal_variances(gains_sq[..., r - 1, :], power_levels, signal_power,
                                       noise_power, t)
              for r, k in pairs for t in (k, k + 1)}
    h = {key: gmd.entropy_radial_quadrature_rows(v, tolerance) for key, v in blocks.items()
         if method == "radial_quadrature" or v.shape[-1] == 1}
    lead = np.broadcast_shapes(*(v.shape[:-1] for v in blocks.values()))
    if method == "monte_carlo":
        rows = {key: np.broadcast_to(v, lead + v.shape[-1:]) for key, v in blocks.items()}
        sampled = np.empty((len(pairs), 2, 2) + lead)  # (p, t - k, value/error, ...)
        cells = list(np.ndindex((len(pairs),) + lead))
        generators = [rngs(cell) for cell in cells]
        if len({id(rng) for rng in generators if rng is not None}) < len(cells):
            raise ValueError("each Monte Carlo cell needs its own generator")

        def run_cell(item):
            (p, *index), rng = item
            r, k = pairs[p]
            for t in (k, k + 1):
                if (r, t) not in h:
                    estimate = gmd.entropy_monte_carlo(rows[r, t][tuple(index)], rng, samples)
                    sampled[(p, t - k, slice(None), *index)] = estimate.value, estimate.std_error

        gmd._share(lambda: run_cell, list(zip(cells, generators)))
    entropies = [[h[r, t] if (r, t) in h else sampled[p, t - k] for t in (k, k + 1)]
                 for p, (r, k) in enumerate(pairs)]
    return (np.stack([h_y[0] - h_w[0] for h_y, h_w in entropies]),
            np.stack([np.hypot(h_y[1], h_w[1]) for h_y, h_w in entropies]),
            np.array([samples * math.prod(lead) * sum((r, t) not in h for t in (k, k + 1))
                      for r, k in pairs]))


def mi_lower_bound_k2(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> float:
    """Closed-form MI lower bound h_LB(Y) - h_UB(Omega) for the two-user case:
    one row of lower_bound_k2_rows."""
    if config.num_users != 2:
        raise ValueError("closed-form lower bound is derived only for K = 2")
    _check_decoding_pair(realization, config, r, k)
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
    return (math.log2(m) - LOG2E) - np.log2(inner).reshape(n, -1).mean(axis=-1)


def asymptotes(config: SystemConfig, k: int) -> AsymptoteReport:
    """Limits of message k for K = 2, at any decoder r >= k; they do not
    depend on the channel gains."""
    if config.num_users != 2:
        raise ValueError("asymptotic analysis covers only K = 2")
    if k not in (1, 2):
        raise ValueError(f"message index {k} out of range 1..2 for K = 2")
    if k == 2:
        return AsymptoteReport(high_snr_mi_limit=None, constant_shift=1.0 - LOG2E)
    a1, a2 = config.power_levels
    # Conventional SM: N_2 = M.
    return AsymptoteReport(high_snr_mi_limit=math.log2(1.0 + a1 / a2),
                           constant_shift=1.0 - math.log2(math.e * config.num_tx_antennas))
