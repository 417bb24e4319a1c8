"""Comparison systems: MISO-NOMA (no SM) and time-shared single-user SM.

MISO-NOMA transmits each user's symbol over M' antennas with a fixed
equal-weight combining vector (no precoding, no CSI), so the post-SIC
channel collapses to a single complex gain and the per-realization MI is
the Gaussian SINR formula. SM-TDMA gives each user an exclusive slot with
the full power budget for 1/K of the frame; its MI is 1/K times the
single-user SM mutual information, mi.mi_rows' I(1, 1) of a one-user
system.
"""

from __future__ import annotations

import math

import numpy as np

from .gmd import QUADRATURE_TOLERANCE
from .mi import mi_rows
from .system import ChannelRealization, SystemConfig, _check_decoding_pair


def miso_noma_gains_sq(channels: np.ndarray, num_tx_antennas: int = 2) -> np.ndarray:
    """|g_r|^2 for stacked channel vectors (..., M), where the equal-weight
    superposition gain g_r is the sum of the first M' entries over
    sqrt(M')."""
    if not 1 <= num_tx_antennas <= channels.shape[-1]:
        raise ValueError("baseline antenna count must lie in 1..M")
    g = np.sum(channels[..., :num_tx_antennas], axis=-1) / math.sqrt(num_tx_antennas)
    return np.abs(g) ** 2


def miso_noma_mi(
    realization: ChannelRealization,
    config: SystemConfig,
    r: int,
    k: int,
    num_tx_antennas: int = 2,
) -> float:
    """Post-SIC MI of decoder r for message k in the MISO-NOMA baseline:
    one row of miso_noma_gains_sq and miso_noma_rows."""
    if config.num_users != 2:
        raise ValueError("MISO-NOMA baseline is defined for K = 2")
    _check_decoding_pair(realization, config, r, k)
    g_sq = miso_noma_gains_sq(realization.channel_vectors[r - 1 : r], num_tx_antennas)
    return float(miso_noma_rows(g_sq, np.array(config.power_levels),
                                config.signal_power, config.noise_power, k)[0])


def miso_noma_rows(
    gain_sq, power_levels: np.ndarray, signal_power, noise_power: float, k: int
) -> np.ndarray:
    """log2(1 + SINR) of message k at a decoder with superposition gain
    |g_r|^2 = gain_sq, power levels (..., K) and signal power, broadcast
    against each other. A message index k outside 1..K raises ValueError."""
    n = power_levels.shape[-1]
    if k not in range(1, n + 1):
        raise ValueError(f"message index {k} out of range 1..{n}")
    signal = power_levels[..., k - 1] * signal_power * gain_sq
    interference = sum(power_levels[..., t] * signal_power * gain_sq for t in range(k, n))
    return np.log2(1.0 + signal / (noise_power + interference))


def sm_tdma_mi(
    realization: ChannelRealization,
    config: SystemConfig,
    k: int,
    tolerance: float = QUADRATURE_TOLERANCE,
) -> float:
    """Time-shared single-user SM MI for user k, alone in its slot with the
    sum of all power levels: one row of sm_tdma_rows."""
    _check_decoding_pair(realization, config, k, k)
    gains_sq = np.abs(realization.channel_vectors[k - 1 : k]) ** 2
    return float(sm_tdma_rows(gains_sq, np.array(config.power_levels), config.signal_power,
                              config.noise_power, tolerance)[0])


def sm_tdma_rows(
    gains_sq: np.ndarray,
    power_levels: np.ndarray,
    signal_power,
    noise_power: float,
    tolerance: float = QUADRATURE_TOLERANCE,
) -> np.ndarray:
    """sm_tdma_mi for user k's |h_k|^2 (..., M), the power levels (..., K)
    and rho, broadcast against each other with at least one leading axis:
    1/K times mi_rows' I(1, 1) of one user at power level 1 and signal
    power rho * sum_t alpha_t^2, whose interference is the noise."""
    power = sum(power_levels[..., t] for t in range(power_levels.shape[-1]))
    values = mi_rows(gains_sq[..., None, :], (1.0,), (signal_power * power)[..., None],
                     noise_power, ((1, 1),), tolerance=tolerance)[0]
    return values[0] / power_levels.shape[-1]
