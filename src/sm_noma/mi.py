"""Mutual information per (decoder r, message k).

Exact MI via entropy estimation of the received/interference mixtures,
the closed-form lower bound for the two-user case, and the low/high-SNR
asymptotic values with their constant shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gmd
from .gmd import EntropyEstimate
from .system import (
    ChannelRealization,
    SystemConfig,
    mixture_of_interference,
    mixture_of_received,
)

LOG2E = math.log2(math.e)


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
    """I_{r,k} = h(Y_{r,k}) - h(Omega_{r,k}), both entropies by the same method."""
    received = mixture_of_received(realization, config, r, k)
    interference = mixture_of_interference(realization, config, r, k)
    return MiResult(mi_exact=mi_of_mixtures(
        received, interference, method, rng=rng, samples=samples, tolerance=tolerance))


def mi_of_mixtures(
    received: gmd.GaussianMixture,
    interference: gmd.GaussianMixture,
    method: str = "radial_quadrature",
    *,
    rng: np.random.Generator | None = None,
    samples: int = 10**6,
    tolerance: float = 1e-10,
) -> EntropyEstimate:
    """h(received) - h(interference), in that order from one rng for Monte
    Carlo, with the two error estimates added in quadrature."""
    h_y, h_w = (
        gmd.entropy_exact(mix, method, rng=rng, samples=samples, tolerance=tolerance)
        for mix in (received, interference)
    )
    value = h_y.value - h_w.value
    std_error = math.hypot(h_y.std_error, h_w.std_error)
    count = h_y.sample_count + h_w.sample_count
    return EntropyEstimate(value, std_error, count)


def mi_exact_rows(
    received: np.ndarray, interference: np.ndarray, tolerance: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """The radial-quadrature value and error estimate of mi_exact for
    stacked equal-weight variance rows: received (..., L_Y) and
    interference (..., L_Omega) of one leading shape, which both results
    have. A one-component row takes the Gaussian closed form, as
    gmd.entropy_exact does, and the errors are added in quadrature by
    math.hypot per cell, as mi_of_mixtures adds them (np.hypot rounds
    differently on some pairs). So each cell has the bits of the mi_exact
    call whose mixtures hold its rows."""

    def entropies(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lead = v.shape[:-1]
        if v.shape[-1] == 1:
            values = [gmd.gaussian_entropy(x) for x in v[..., 0].ravel()]
            return np.reshape(values, lead), np.zeros(lead)
        values, errors = gmd.entropy_radial_quadrature_rows(v.reshape(-1, v.shape[-1]), tolerance)
        return values.reshape(lead), errors.reshape(lead)

    (h_y, err_y), (h_w, err_w) = entropies(received), entropies(interference)
    return h_y - h_w, np.vectorize(math.hypot, otypes=[float])(err_y, err_w)


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
    entropy lower bound.
    """
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
