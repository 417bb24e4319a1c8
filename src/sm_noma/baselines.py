"""Comparison systems: MISO-NOMA (no SM) and time-shared single-user SM.

MISO-NOMA transmits each user's symbol over M' antennas with a fixed
equal-weight combining vector (no precoding, no CSI), so the post-SIC
channel collapses to a single complex gain and the per-realization MI is
the Gaussian SINR formula. SM-TDMA gives each user an exclusive slot with
the full power budget; its MI is the slot fraction times the single-user
SM mutual information.
"""

from __future__ import annotations

import math

import numpy as np

from . import gmd
from .system import ChannelRealization, SystemConfig


def miso_noma_effective_gain(
    realization: ChannelRealization, r: int, num_tx_antennas: int = 2
) -> complex:
    """Equal-weight superposition gain g_r over the first M' antennas."""
    h = realization.channel_vectors[r - 1]
    if not 1 <= num_tx_antennas <= h.shape[0]:
        raise ValueError("baseline antenna count must lie in 1..M")
    return complex(np.sum(h[:num_tx_antennas]) / math.sqrt(num_tx_antennas))


def miso_noma_mi(
    realization: ChannelRealization,
    config: SystemConfig,
    r: int,
    k: int,
    num_tx_antennas: int = 2,
) -> float:
    """Post-SIC MI of decoder r for message k in the MISO-NOMA baseline."""
    if config.num_users != 2:
        raise ValueError("MISO-NOMA baseline is defined for K = 2")
    if not (1 <= k <= r <= 2):
        raise ValueError(f"invalid decoder/message pair ({r}, {k})")
    g_sq = abs(miso_noma_effective_gain(realization, r, num_tx_antennas)) ** 2
    signal = config.power_levels[k - 1] * config.signal_power * g_sq
    interference = sum(
        config.power_levels[t - 1] * config.signal_power * g_sq
        for t in range(k + 1, config.num_users + 1)
    )
    return math.log2(1.0 + signal / (config.noise_power + interference))


def sm_tdma_mi(
    realization: ChannelRealization,
    config: SystemConfig,
    k: int,
    time_share: float,
    tolerance: float = 1e-10,
) -> float:
    """Time-shared single-user SM MI for user k.

    The user transmits alone in its slot with the full power budget, the
    sum of all power levels, so the received signal is the
    interference-free SM mixture and the interference entropy is the AWGN
    closed form.
    """
    if not (0.0 < time_share <= 1.0):
        raise ValueError("time_share must lie in (0, 1]")
    if not (1 <= k <= config.num_users):
        raise ValueError(f"user index {k} out of range")
    power = sum(config.power_levels)
    gains_sq = np.abs(realization.channel_vectors[k - 1]) ** 2
    variances = config.noise_power + config.signal_power * power * gains_sq
    received = gmd.equal_weight_zero_mean_mixture(variances)
    h_y = gmd.entropy_radial_quadrature(received, tolerance).value
    return time_share * (h_y - gmd.gaussian_entropy(config.noise_power))
