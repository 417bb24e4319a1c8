"""Downlink SM-NOMA system model.

Configuration, Rayleigh channel draws, the post-SIC received symbol, and
the exact Gaussian mixtures of the interference-plus-noise and
received-signal variables seen by each decoder under the fixed SIC order
(1, ..., K). SM is conventional: symbol index n of any user switches on
antenna n, so every codebook size N_k is M by construction and the
effective gain b_{r,k}^(n) is the channel entry h_r[n].

User and message indices in the public API are 1-based, matching the
usual (r, k) decoder/message notation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gmd import GaussianMixture, equal_weight_zero_mean_mixture


def require_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise `error` for a bool or a non-integral number, 4.0 included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise `error` for a bool, a string or anything else not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters. SNR is derived as signal_power / noise_power."""

    num_tx_antennas: int
    num_users: int
    power_levels: tuple[float, ...]  # alpha_k^2, linear
    signal_power: float  # sigma_s^2
    noise_power: float  # sigma_v^2

    def __post_init__(self):
        levels = tuple(self.power_levels)
        for p in levels:
            require_real("each power level", p)
        require_real("signal_power", self.signal_power)
        require_real("noise_power", self.noise_power)
        object.__setattr__(self, "power_levels", tuple(float(p) for p in levels))
        require_integer("num_tx_antennas", self.num_tx_antennas)
        require_integer("num_users", self.num_users)
        if self.num_tx_antennas < 1 or self.num_users < 1:
            raise ValueError("need at least one antenna and one user")
        if len(self.power_levels) != self.num_users:
            raise ValueError("power_levels must have one entry per user")
        if any(p < 0 for p in self.power_levels):
            raise ValueError("power levels must be nonnegative")
        powers = (*self.power_levels, self.signal_power, self.noise_power)
        if not all(map(math.isfinite, powers)):
            raise ValueError("power levels, signal_power and noise_power must be finite")
        if self.signal_power <= 0 or self.noise_power <= 0:
            raise ValueError("signal_power and noise_power must be positive")

    @property
    def snr(self) -> float:
        return self.signal_power / self.noise_power


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """The channel vectors h_1, ..., h_K of one draw, one row per user.

    Under conventional SM the effective gain b_{r,k}^(n) = h_r^T w_k^(n)
    is h_r[n] for every message k, so row r - 1 holds every gain that
    decoder r sees.
    """

    channel_vectors: np.ndarray  # shape (K, M), complex, read-only

    def __post_init__(self):
        h = np.array(self.channel_vectors, dtype=complex)
        if h.ndim != 2 or h.size == 0 or not np.all(np.isfinite(h)):
            raise ValueError("channel_vectors must be a finite, nonempty (K, M) array")
        h.setflags(write=False)
        object.__setattr__(self, "channel_vectors", h)


def draw_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Rayleigh channels: i.i.d. CN(0, 1) entries, no CSI, no precoding."""
    k, m = config.num_users, config.num_tx_antennas
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / math.sqrt(2.0)
    return ChannelRealization(h)


def _check_decoding_pair(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> None:
    """Raise ValueError unless the channel matrix is (K, M) for this system
    and decoder r may decode message k."""
    shape = (config.num_users, config.num_tx_antennas)
    if realization.channel_vectors.shape != shape:
        raise ValueError(f"channel matrix has shape {realization.channel_vectors.shape}, "
                         f"the system needs (K, M) = {shape}")
    if not (1 <= k <= r <= config.num_users):
        raise ValueError(
            f"decoder {r} cannot handle message {k}: SIC order requires 1 <= k <= r <= K"
        )


def simulate_received_symbol(
    realization: ChannelRealization,
    config: SystemConfig,
    r: int,
    k: int,
    symbols: np.ndarray,
    active_indices: tuple[int, ...] | np.ndarray,
    noise_sample: complex | np.ndarray,
) -> complex | np.ndarray:
    """Post-SIC received symbol at decoder r for message k (Eq. of record).

    Messages 1..k-1 are assumed already removed; users t > k remain as
    interference. `symbols` and `active_indices` carry the user on the last
    axis and any leading axes index draws; `noise_sample` has the leading
    shape. A single draw returns one complex. Indices that are not
    integers (booleans and floats included) raise ValueError.
    """
    _check_decoding_pair(realization, config, r, k)
    symbols = np.asarray(symbols)
    indices = np.asarray(active_indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"active indices must be integers, got dtype {indices.dtype}")
    if np.any((indices < 1) | (indices > config.num_tx_antennas)):
        raise ValueError(f"active indices must lie in 1..{config.num_tx_antennas}")
    h = realization.channel_vectors[r - 1]
    y = np.asarray(noise_sample, dtype=complex)
    for t in range(k, config.num_users + 1):
        b = h[indices[..., t - 1] - 1]
        y = y + b * math.sqrt(config.power_levels[t - 1]) * symbols[..., t - 1]
    return complex(y) if y.ndim == 0 else y


def signal_variances(
    gains_sq: np.ndarray, power_levels, signal_power, noise_power, t_start: int
) -> np.ndarray:
    """All values of sigma_v^2 + sigma_s^2 * sum_{t>=t_start} alpha_t^2
    |b_{r,t}^(n_t)|^2 over the index tuples (n_{t_start}, ..., n_K), n_K
    fastest, along the last axis.

    gains_sq (..., M) holds decoder r's |h_r|^2 and power_levels the K
    values alpha_t^2. They, signal_power and noise_power are numbers or
    arrays that broadcast against (..., 1), so one call builds every
    (realization, grid point) row. Each value is
    ((0 + alpha_{t_start}^2 g[n]) + ...), then times sigma_s^2, then plus
    sigma_v^2: the bits of a one-realization call.
    """
    acc = np.zeros(gains_sq.shape[:-1] + (1,))
    for alpha_sq in power_levels[t_start - 1 :]:
        acc = acc[..., :, None] + (alpha_sq * gains_sq)[..., None, :]
        acc = acc.reshape(acc.shape[:-2] + (-1,))
    return noise_power + signal_power * acc


def _variances(
    realization: ChannelRealization, config: SystemConfig, r: int, t_start: int
) -> np.ndarray:
    """signal_variances of one realization at decoder r."""
    gains_sq = np.abs(realization.channel_vectors[r - 1]) ** 2
    return signal_variances(gains_sq, config.power_levels, config.signal_power,
                            config.noise_power, t_start)


def mixture_of_interference(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> GaussianMixture:
    """Exact mixture of the interference-plus-noise variable at decoder r,
    message k: equal weights over index tuples of users t > k."""
    _check_decoding_pair(realization, config, r, k)
    return equal_weight_zero_mean_mixture(_variances(realization, config, r, k + 1))


def mixture_of_received(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> GaussianMixture:
    """Exact mixture of the post-SIC received signal at decoder r, message k:
    equal weights over index tuples of users t >= k."""
    _check_decoding_pair(realization, config, r, k)
    return equal_weight_zero_mean_mixture(_variances(realization, config, r, k))
