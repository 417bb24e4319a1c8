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
    h_y, h_w = (
        gmd.entropy_exact(mix, method, rng=rng, samples=samples, tolerance=tolerance)
        for mix in (received, interference)
    )
    value = h_y.value - h_w.value
    std_error = math.hypot(h_y.std_error, h_w.std_error)
    count = h_y.sample_count + h_w.sample_count
    return MiResult(mi_exact=EntropyEstimate(value, std_error, count))


def mi_lower_bound_k2(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> float:
    """Closed-form MI lower bound h_LB(Y) - h_UB(Omega) for the two-user case.

    Pairwise gain sums include the diagonal n = m (each diagonal term is
    twice the single squared gain), matching the overlap structure of the
    entropy lower bound.
    """
    if config.num_users != 2:
        raise ValueError("closed-form lower bound is derived only for K = 2")
    if not (1 <= k <= r <= 2):
        raise ValueError(f"invalid decoder/message pair ({r}, {k}) for K = 2")
    rho = config.snr
    a1, a2 = config.power_levels
    g = np.abs(realization.channel_vectors[r - 1]) ** 2  # |b_{r,k}^(n)|^2 = |h_r[n]|^2
    p = g[:, None] + g[None, :]  # pairwise sums incl. diagonal

    if k == 2:
        # log2(M/e) - (1/M) sum_n log2( sum_m 1 / (2 + rho a2^2 p[n,m]) )
        inner = np.sum(1.0 / (2.0 + rho * a2 * p), axis=1)
    else:
        # denom[n1, n2, m1, m2] = 2 + rho (a1^2 p[n1,m1] + a2^2 p[n2,m2])
        denom = 2.0 + rho * a1 * p[:, None, :, None] + rho * a2 * p[None, :, None, :]
        numer = 1.0 + rho * a2 * g[None, :, None, None]
        inner = np.sum(numer / denom, axis=(2, 3))
    return math.log2(len(g)) - LOG2E - float(np.mean(np.log2(inner)))


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
