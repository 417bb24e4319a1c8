"""Downlink SM-NOMA system model.

Configuration, space-domain codebooks, Rayleigh channel draws, effective
gains, transmit/receive signal synthesis, and the exact Gaussian mixtures
of the interference-plus-noise and received-signal variables seen by each
decoder under the fixed SIC order (1, ..., K).

User and message indices in the public API are 1-based, matching the
usual (r, k) decoder/message notation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gmd import GaussianMixture, equal_weight_zero_mean_mixture

NORM_TOL = 1e-12


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
    codebook_sizes: tuple[int, ...]
    power_levels: tuple[float, ...]  # alpha_k^2, linear
    signal_power: float  # sigma_s^2
    noise_power: float  # sigma_v^2

    def __post_init__(self):
        object.__setattr__(self, "codebook_sizes", tuple(self.codebook_sizes))
        levels = tuple(self.power_levels)
        for p in levels:
            require_real("each power level", p)
        require_real("signal_power", self.signal_power)
        require_real("noise_power", self.noise_power)
        object.__setattr__(self, "power_levels", tuple(float(p) for p in levels))
        require_integer("num_tx_antennas", self.num_tx_antennas)
        require_integer("num_users", self.num_users)
        for n in self.codebook_sizes:
            require_integer("each codebook size", n)
        if self.num_tx_antennas < 1 or self.num_users < 1:
            raise ValueError("need at least one antenna and one user")
        if len(self.codebook_sizes) != self.num_users:
            raise ValueError("codebook_sizes must have one entry per user")
        if len(self.power_levels) != self.num_users:
            raise ValueError("power_levels must have one entry per user")
        if any(n < 1 for n in self.codebook_sizes):
            raise ValueError("codebook sizes must be >= 1")
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

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Space-domain alphabet of one user: unit-norm vectors of length M."""

    vectors: np.ndarray  # shape (N, M), complex

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.ndim != 2 or vecs.shape[0] < 1:
            raise ValueError("codebook must be a nonempty (N, M) array")
        norms = np.sum(np.abs(vecs) ** 2, axis=1)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise ValueError("codebook vectors must have unit squared norm")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def conventional_sm(cls, num_tx_antennas: int) -> "Codebook":
        """The M standard basis vectors: each symbol activates one antenna."""
        return cls(np.eye(num_tx_antennas, dtype=complex))


def make_conventional_sm_codebooks(config: SystemConfig) -> list[Codebook]:
    """One conventional-SM codebook per user (requires N_k = M for all k)."""
    m = config.num_tx_antennas
    if any(n != m for n in config.codebook_sizes):
        raise ValueError(
            f"conventional SM needs every codebook size equal to M={m}, "
            f"got {config.codebook_sizes}"
        )
    basis = Codebook.conventional_sm(m)
    return [basis] * config.num_users


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Channel vectors h_k and the derived effective gains b_{r,k}^(n).

    effective_gains[r-1][k-1][n-1] = h_r . w_k^(n) (plain transpose, no
    conjugation).
    """

    channel_vectors: np.ndarray  # shape (K, M), complex
    effective_gains: tuple[tuple[np.ndarray, ...], ...]

    @classmethod
    def from_channels(
        cls, channel_vectors: np.ndarray, codebooks: list[Codebook]
    ) -> "ChannelRealization":
        h = np.asarray(channel_vectors, dtype=complex)
        h.setflags(write=False)
        gains = tuple(
            tuple(cb.vectors @ h[r] for cb in codebooks) for r in range(h.shape[0])
        )
        for row in gains:
            for g in row:
                g.setflags(write=False)
        return cls(h, gains)

    def gains_of(self, r: int, k: int) -> np.ndarray:
        """All b_{r,k}^(n) for n = 1..N_k (1-based r, k)."""
        return self.effective_gains[r - 1][k - 1]


def draw_channel(
    config: SystemConfig, codebooks: list[Codebook], rng: np.random.Generator
) -> ChannelRealization:
    """Rayleigh channels: i.i.d. CN(0, 1) entries, no CSI, no precoding."""
    k, m = config.num_users, config.num_tx_antennas
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / math.sqrt(2.0)
    return ChannelRealization.from_channels(h, codebooks)


def synthesize_transmit_signal(
    config: SystemConfig,
    codebooks: list[Codebook],
    symbols: np.ndarray,
    active_indices: tuple[int, ...],
) -> tuple[np.ndarray, int]:
    """Superpose the users' SM signal vectors: x = sum_k alpha_k s_k w_k^(n_k).

    active_indices are 1-based. Returns (x, N_RF) with N_RF = ||x||_0.
    """
    if len(symbols) != config.num_users or len(active_indices) != config.num_users:
        raise ValueError("need one symbol and one active index per user")
    x = np.zeros(config.num_tx_antennas, dtype=complex)
    for k in range(config.num_users):
        n = active_indices[k]
        if not (1 <= n <= len(codebooks[k])):
            raise ValueError(
                f"active index {n} out of range 1..{len(codebooks[k])} for user {k + 1}"
            )
        x += math.sqrt(config.power_levels[k]) * symbols[k] * codebooks[k].vectors[n - 1]
    return x, int(np.count_nonzero(x))


def _check_decoding_pair(config: SystemConfig, r: int, k: int) -> None:
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
    shape. A single draw returns one complex.
    """
    _check_decoding_pair(config, r, k)
    symbols = np.asarray(symbols)
    indices = np.asarray(active_indices)
    y = np.asarray(noise_sample, dtype=complex)
    for t in range(k, config.num_users + 1):
        b = realization.gains_of(r, t)[indices[..., t - 1] - 1]
        y = y + b * math.sqrt(config.power_levels[t - 1]) * symbols[..., t - 1]
    return complex(y) if y.ndim == 0 else y


def _signal_variance_grid(
    realization: ChannelRealization, config: SystemConfig, r: int, t_start: int
) -> np.ndarray:
    """All values of sigma_s^2 * sum_{t>=t_start} alpha_t^2 |b_{r,t}^(n_t)|^2
    over the index tuples (n_{t_start}, ..., n_K), flattened."""
    acc = np.zeros(1)
    for t in range(t_start, config.num_users + 1):
        contrib = config.power_levels[t - 1] * np.abs(realization.gains_of(r, t)) ** 2
        acc = (acc[:, None] + contrib[None, :]).ravel()
    return config.signal_power * acc


def mixture_of_interference(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> GaussianMixture:
    """Exact mixture of the interference-plus-noise variable at decoder r,
    message k: equal weights over index tuples of users t > k."""
    _check_decoding_pair(config, r, k)
    variances = config.noise_power + _signal_variance_grid(realization, config, r, k + 1)
    return equal_weight_zero_mean_mixture(variances)


def mixture_of_received(
    realization: ChannelRealization, config: SystemConfig, r: int, k: int
) -> GaussianMixture:
    """Exact mixture of the post-SIC received signal at decoder r, message k:
    equal weights over index tuples of users t >= k."""
    _check_decoding_pair(config, r, k)
    variances = config.noise_power + _signal_variance_grid(realization, config, r, k)
    return equal_weight_zero_mean_mixture(variances)
