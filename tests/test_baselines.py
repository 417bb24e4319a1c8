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
from sm_noma.system import SystemConfig, draw_channel


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
        # Enough cells to pin the per-cell math.log2: np.log2 differs from
        # it on about 0.1% of inputs.
        cells = random_cells(4000, 30)
        channels, levels, rho = stacked(cells)
        gains = miso_noma_gains_sq(channels, 2)
        for k in (1, 2):
            rows = miso_noma_rows(gains[:, k - 1], levels, rho, 1.0, k)
            assert [i for i, (h, cfg) in enumerate(cells)
                    if rows[i].hex() != oracles.miso_noma_mi(h, cfg, k).hex()] == []

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
        # A message index outside 1..K, which would read alpha_K^2 through
        # index -1 or past the last level.
        for k in (0, 3):
            with pytest.raises(ValueError, match="message index"):
                miso_noma_rows(np.ones(3), np.array([4.0, 1.0]), 1.0, 1.0, k)


class TestSmTdma:
    def test_full_slot_is_single_user_mi(self):
        cfg = config_at_snr(10.0)
        realization = realization_for(cfg, 5)
        full = sm_tdma_mi(realization, cfg, 1, 1.0)
        half = sm_tdma_mi(realization, cfg, 1, 0.5)
        assert half == pytest.approx(full / 2.0, abs=1e-10)

    def test_linear_in_time_share(self):
        cfg = config_at_snr(15.0)
        realization = realization_for(cfg, 6)
        values = [sm_tdma_mi(realization, cfg, 2, tau) for tau in (0.2, 0.4, 0.8)]
        assert values[1] == pytest.approx(2 * values[0], abs=1e-10)
        assert values[2] == pytest.approx(4 * values[0], abs=1e-10)

    def test_uses_total_power_budget(self):
        # The slot carries the sum of the power levels, however it is split.
        cfg = config_at_snr(10.0, powers=(4.0, 1.0))
        realization = realization_for(cfg, 7)
        default = sm_tdma_mi(realization, cfg, 1, 1.0)
        even = sm_tdma_mi(realization, config_at_snr(10.0, powers=(2.5, 2.5)), 1, 1.0)
        assert even == default
        less = sm_tdma_mi(realization, config_at_snr(10.0, powers=(0.5, 0.5)), 1, 1.0)
        assert less < default

    def test_rows_equal_oracle_on_random_cells(self):
        # Shares other than 1/2 pin the order of the arithmetic: the share
        # times the difference, not the difference of the products.
        cells = random_cells(1500, 31)
        channels, levels, rho = stacked(cells)
        for k, share in ((1, 0.3), (2, 0.7)):
            rows = sm_tdma_rows(np.abs(channels[:, k - 1]) ** 2, levels, rho, 1.0, share)
            assert [i for i, (h, cfg) in enumerate(cells)
                    if rows[i].hex() != oracles.sm_tdma_mi(h, cfg, k, share).hex()] == []

    def test_invalid_time_share_rejected(self):
        cfg = config_at_snr(0.0)
        realization = realization_for(cfg, 8)
        with pytest.raises(ValueError):
            sm_tdma_mi(realization, cfg, 1, 0.0)
        with pytest.raises(ValueError):
            sm_tdma_mi(realization, cfg, 1, 1.5)
