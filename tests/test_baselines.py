"""Tests for the MISO-NOMA and SM-TDMA comparison systems."""

import math

import numpy as np
import oracles
import pytest

from sm_noma.baselines import (
    miso_noma_gains_sq,
    miso_noma_mi,
    miso_noma_rows,
    sm_tdma_mi,
    sm_tdma_rows,
)
from sm_noma.system import ChannelRealization, SystemConfig, draw_channel


def config_at_snr(snr_db, powers=(4.0, 1.0)):
    return SystemConfig(
        num_tx_antennas=4,
        num_users=2,
        power_levels=powers,
        signal_power=10.0 ** (snr_db / 10.0),
        noise_power=1.0,
    )


def realization_for(cfg, seed):
    return draw_channel(cfg, np.random.default_rng(seed))


def random_cells(count, seed):
    """count (realization, system) pairs at M = 4: Rayleigh channels, SNRs
    uniform over -30..50 dB, power levels uniform over 0.01..4."""
    rng = np.random.default_rng(seed)
    snr_db = rng.uniform(-30.0, 50.0, count)
    levels = rng.uniform(0.01, 4.0, (count, 2))
    systems = [config_at_snr(s, tuple(p)) for s, p in zip(snr_db, levels)]
    return [(draw_channel(cfg, rng), cfg) for cfg in systems]


def stacked(cells):
    """The cells' channels (N, 2, M), power levels (N, 2) and SNRs (N,)."""
    return (np.stack([h.channel_vectors for h, _ in cells]),
            np.array([cfg.power_levels for _, cfg in cells]),
            np.array([cfg.signal_power for _, cfg in cells]))


def python_miso_noma_mi(realization, system, k):
    """log2(1 + SINR) of user k's own message, K = 2, in Python scalar
    arithmetic: complex abs and math.log2."""
    h = [complex(c) for c in realization.channel_vectors[k - 1]]
    g_sq = abs((h[0] + h[1]) * (1.0 / math.sqrt(2))) ** 2
    a1, a2 = system.power_levels
    interference = a2 * system.signal_power * g_sq if k == 1 else 0.0
    signal = (a1 if k == 1 else a2) * system.signal_power * g_sq
    return math.log2(1.0 + signal / (system.noise_power + interference))


class TestMisoNoma:
    def test_effective_gain_is_equal_weight_sum(self):
        cfg = config_at_snr(10.0)
        realization = realization_for(cfg, 0)
        h = realization.channel_vectors
        g_sq = miso_noma_gains_sq(h, 2)
        assert g_sq.shape == (2,)
        for r in (0, 1):
            assert g_sq[r] == pytest.approx(abs((h[r, 0] + h[r, 1]) / math.sqrt(2)) ** 2)

    def test_interference_free_user_is_awgn_capacity(self):
        cfg = config_at_snr(10.0)
        realization = realization_for(cfg, 1)
        h = realization.channel_vectors[1]
        g_sq = abs(h[0] + h[1]) ** 2 / 2.0
        expected = math.log2(1.0 + cfg.snr * cfg.power_levels[1] * g_sq)
        assert miso_noma_mi(realization, cfg, 2, 2) == pytest.approx(expected)

    def test_high_snr_ceiling_matches_power_ratio(self):
        cfg = config_at_snr(120.0)
        realization = realization_for(cfg, 2)
        assert miso_noma_mi(realization, cfg, 1, 1) == pytest.approx(
            math.log2(1.0 + 4.0), abs=1e-6
        )

    def test_vanishing_snr(self):
        cfg = config_at_snr(-80.0)
        realization = realization_for(cfg, 3)
        assert miso_noma_mi(realization, cfg, 1, 1) == pytest.approx(0.0, abs=1e-6)

    def test_rows_equal_oracle_on_random_cells(self):
        # Enough cells to show a last-bit difference on about 0.1% of
        # inputs, such as math.log2's from np.log2. Python's complex abs and
        # math.log2 per cell, which round differently from numpy's on some
        # cells, are held to 4 ulps of 1 or of the value, whichever is
        # larger: log2 of 1 + SINR near 1 cancels (these differ by 3).
        cells = random_cells(4000, 30)
        channels, levels, rho = stacked(cells)
        gains = miso_noma_gains_sq(channels, 2)
        for k in (1, 2):
            rows = miso_noma_rows(gains[:, k - 1], levels, rho, 1.0, k)
            assert [i for i, (h, cfg) in enumerate(cells)
                    if rows[i].hex() != oracles.miso_noma_mi(h, cfg, k).hex()] == []
            python = np.array([python_miso_noma_mi(h, cfg, k) for h, cfg in cells])
            assert (np.abs(rows - python) <= 4 * np.spacing(np.maximum(python, 1.0))).all()

    def test_rejections(self):
        cfg = config_at_snr(0.0)
        realization = realization_for(cfg, 4)
        with pytest.raises(ValueError):
            miso_noma_mi(realization, cfg, 1, 2)
        for antennas in (0, 5):
            with pytest.raises(ValueError, match="antenna count"):
                miso_noma_mi(realization, cfg, 1, 1, antennas)
        cfg3 = SystemConfig(4, 3, (4.0, 2.0, 1.0), 1.0, 1.0)
        realization3 = realization_for(cfg3, 4)
        with pytest.raises(ValueError, match="K = 2"):
            miso_noma_mi(realization3, cfg3, 1, 1)
        # A channel matrix of another system's shape.
        for shape in ((2, 8), (3, 4)):
            with pytest.raises(ValueError, match="channel matrix has shape"):
                miso_noma_mi(ChannelRealization(np.ones(shape)), cfg, 1, 1)
        # A message index outside 1..K, which would read alpha_K^2 through
        # index -1 or past the last level.
        for k in (0, 3):
            with pytest.raises(ValueError, match="message index"):
                miso_noma_rows(np.ones(3), np.array([4.0, 1.0]), 1.0, 1.0, k)


class TestSmTdma:
    def test_full_slot_is_single_user_mi(self):
        # Each of the K = 2 users holds half of the frame: half of the
        # single-user MI over the whole frame.
        cfg = config_at_snr(10.0)
        realization = realization_for(cfg, 5)
        full = oracles.sm_tdma_mi(realization, cfg, 1, 1.0)
        assert sm_tdma_mi(realization, cfg, 1) == pytest.approx(full / 2.0, abs=1e-10)

    def test_uses_total_power_budget(self):
        # The slot carries the sum of the power levels, however it is split.
        cfg = config_at_snr(10.0, powers=(4.0, 1.0))
        realization = realization_for(cfg, 7)
        default = sm_tdma_mi(realization, cfg, 1)
        even = sm_tdma_mi(realization, config_at_snr(10.0, powers=(2.5, 2.5)), 1)
        assert even == default
        less = sm_tdma_mi(realization, config_at_snr(10.0, powers=(0.5, 0.5)), 1)
        assert less < default

    def test_rows_equal_oracle_on_random_cells(self):
        # The rows take 1/K of the difference, the oracle its share of 1/2
        # times it: at K = 2 both scale by a power of two, to the bit.
        cells = random_cells(1500, 31)
        channels, levels, rho = stacked(cells)
        for k in (1, 2):
            rows = sm_tdma_rows(np.abs(channels[:, k - 1]) ** 2, levels, rho, 1.0)
            assert [i for i, (h, cfg) in enumerate(cells)
                    if rows[i].hex() != oracles.sm_tdma_mi(h, cfg, k, 0.5).hex()] == []

    def test_invalid_channel_or_user_rejected(self):
        # A channel matrix of another system's shape, and a user outside 1..K.
        cfg = config_at_snr(0.0)
        realization = realization_for(cfg, 8)
        for shape in ((2, 8), (3, 4)):
            with pytest.raises(ValueError, match="channel matrix has shape"):
                sm_tdma_mi(ChannelRealization(np.ones(shape)), cfg, 1)
        for k in (0, 3):
            with pytest.raises(ValueError, match="SIC order"):
                sm_tdma_mi(realization, cfg, k)
