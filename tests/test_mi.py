"""Tests for mutual information, the closed-form lower bound, and asymptotics."""

import math
import time

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sm_noma import gmd, mi, runner
from sm_noma.mi import (
    asymptotes,
    mi_exact,
    mi_lower_bound_k2,
)
from sm_noma.runner import default_snr_grid, figure1_config
from sm_noma.system import (
    ChannelRealization,
    SystemConfig,
    draw_channel,
    mixture_of_interference,
    mixture_of_received,
)

LOG2E = math.log2(math.e)


def config_at_snr(snr_db, powers=(4.0, 1.0)):
    return SystemConfig(
        num_tx_antennas=4,
        num_users=2,
        power_levels=powers,
        signal_power=10.0 ** (snr_db / 10.0),
        noise_power=1.0,
    )


def random_realization(cfg, seed):
    return draw_channel(cfg, np.random.default_rng(seed))


def flat_gain_realization(cfg, b):
    """Channel whose entries all equal b, so every effective gain equals b."""
    h = np.full((cfg.num_users, cfg.num_tx_antennas), b, dtype=complex)
    return ChannelRealization(h)


class TestMiExact:
    def test_last_message_interference_entropy_closed_form(self):
        cfg = config_at_snr(10.0)
        realization = random_realization(cfg, 0)
        res = mi_exact(realization, cfg, 2, 2)
        # h(Omega_{2,2}) = log2(pi e sigma_v^2): interference is pure noise,
        # so the exact MI equals h(Y) minus that closed form
        h_y = gmd.entropy_radial_quadrature(
            mixture_of_received(realization, cfg, 2, 2)
        ).value
        assert res.mi_exact.value == pytest.approx(
            h_y - gmd.gaussian_entropy(cfg.noise_power), abs=1e-9
        )

    def test_vanishing_snr_gives_zero_mi(self):
        cfg = config_at_snr(-60.0)
        realization = random_realization(cfg, 1)
        for r, k in ((1, 1), (2, 1), (2, 2)):
            assert abs(mi_exact(realization, cfg, r, k).mi_exact.value) < 1e-3

    def test_flat_gains_reduce_to_awgn_capacity(self):
        cfg = config_at_snr(10.0)
        b = 0.8 - 0.3j
        realization = flat_gain_realization(cfg, b)
        res = mi_exact(realization, cfg, 2, 2)
        expected = math.log2(1.0 + cfg.snr * cfg.power_levels[1] * abs(b) ** 2)
        assert res.mi_exact.value == pytest.approx(expected, abs=1e-9)

    def test_monte_carlo_method(self):
        cfg = config_at_snr(5.0)
        realization = random_realization(cfg, 2)
        quad = mi_exact(realization, cfg, 1, 1)
        mc = mi_exact(
            realization, cfg, 1, 1, "monte_carlo",
            rng=np.random.default_rng(20), samples=200_000,
        )
        assert abs(mc.mi_exact.value - quad.mi_exact.value) <= 3 * mc.mi_exact.std_error
        assert mc.mi_exact.sample_count == 400_000  # both entropies sampled

    def test_monte_carlo_cells_need_their_own_generators(self):
        # Cells may run on different threads, so one generator for two of
        # them would make the values depend on the scheduling.
        cfg = config_at_snr(5.0)
        gains_sq = np.abs(np.stack([random_realization(cfg, s).channel_vectors
                                    for s in (4, 5)])) ** 2
        shared = np.random.default_rng(21)
        state = shared.bit_generator.state
        for rows, pairs in ((gains_sq, ((1, 1),)), (gains_sq[:1], ((1, 1), (2, 2)))):
            with pytest.raises(ValueError, match="its own generator"):
                mi.mi_rows(rows, cfg.power_levels, cfg.signal_power,
                           cfg.noise_power, pairs, "monte_carlo", rngs=lambda cell: shared,
                           samples=100)
        assert shared.bit_generator.state == state

    def test_monte_carlo_error_drops_queued_cells(self, monkeypatch):
        # A failing cell (or Ctrl-C) returns at once instead of running the
        # 40 queued cells first: only the cells already running finish.
        cfg = config_at_snr(5.0)
        gains_sq = np.repeat(np.abs(random_realization(cfg, 4).channel_vectors[None]) ** 2,
                             40, axis=0)
        calls = []

        def failing_entropy(*args, **kwargs):
            calls.append(None)
            time.sleep(0.01)
            raise RuntimeError("cell failed")

        monkeypatch.setattr(mi.gmd, "entropy_exact", failing_entropy)
        with pytest.raises(RuntimeError, match="cell failed"):
            mi.mi_rows(gains_sq, cfg.power_levels, cfg.signal_power, cfg.noise_power,
                       ((1, 1),), "monte_carlo", rngs=np.random.default_rng, samples=100)
        assert len(calls) < 10

    def test_decoding_order_enforced(self):
        cfg = config_at_snr(0.0)
        realization = random_realization(cfg, 3)
        with pytest.raises(ValueError):
            mi_exact(realization, cfg, 1, 2)

    @pytest.mark.parametrize("signal_power", [0.1, 10.0, 1000.0])
    def test_three_users_equal_mixture_oracle(self, signal_power):
        # K = 3 at M = 3: I(r, 1) and I(r, 2) sample mixtures of 27 and 9,
        # then 9 and 3 components; I(r, 3) samples only h(Y), as its
        # interference is noise alone.
        cfg = SystemConfig(3, 3, (4.0, 2.0, 1.0), signal_power, 1.0)
        realization = random_realization(cfg, 7)
        for r, k in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
            quad = mi_exact(realization, cfg, r, k).mi_exact
            value, error = oracles.mixture_mi(realization, cfg, r, k)
            assert (quad.value.hex(), quad.std_error.hex()) == (value.hex(), error.hex())
            assert quad.sample_count == 0
            mc = mi_exact(realization, cfg, r, k, "monte_carlo",
                          rng=np.random.default_rng(10 * r + k), samples=50).mi_exact
            value, error = oracles.mixture_mi(realization, cfg, r, k,
                                              rng=np.random.default_rng(10 * r + k), samples=50)
            assert (mc.value.hex(), mc.std_error.hex()) == (value.hex(), error.hex())
            assert mc.sample_count == (50 if k == 3 else 100)


class TestMiLowerBound:
    def test_flat_gain_closed_form_22(self):
        cfg = config_at_snr(7.0)
        b = 1.3 + 0.4j
        realization = flat_gain_realization(cfg, b)
        expected = (
            math.log2(1.0 + cfg.snr * cfg.power_levels[1] * abs(b) ** 2) + 1.0 - LOG2E
        )
        assert mi_lower_bound_k2(realization, cfg, 2, 2) == pytest.approx(
            expected, abs=1e-10
        )

    def test_low_snr_limit_22(self):
        cfg = config_at_snr(-80.0)
        realization = random_realization(cfg, 4)
        assert mi_lower_bound_k2(realization, cfg, 2, 2) == pytest.approx(
            1.0 - LOG2E, abs=1e-6
        )

    def test_low_snr_limit_11(self):
        cfg = config_at_snr(-80.0)
        realization = random_realization(cfg, 5)
        assert mi_lower_bound_k2(realization, cfg, 1, 1) == pytest.approx(
            1.0 - math.log2(4.0 * math.e), abs=1e-6
        )

    @pytest.mark.parametrize("pair", [(1, 1), (2, 1), (2, 2)])
    def test_equals_assembled_bound_path(self, pair):
        r, k = pair
        for seed in range(10):
            cfg = config_at_snr(float(np.random.default_rng(seed).uniform(-40, 40)))
            realization = random_realization(cfg, 100 + seed)
            assembled = gmd.entropy_lower_bound(
                mixture_of_received(realization, cfg, r, k)
            ) - gmd.entropy_upper_bound(mixture_of_interference(realization, cfg, r, k))
            assert mi_lower_bound_k2(realization, cfg, r, k) == pytest.approx(
                assembled, abs=1e-10
            )

    def test_never_exceeds_exact(self):
        for seed in range(30):
            snr = float(np.random.default_rng(1000 + seed).uniform(-30, 30))
            cfg = config_at_snr(snr)
            realization = random_realization(cfg, seed)
            for r, k in ((1, 1), (2, 1), (2, 2)):
                exact = mi_exact(realization, cfg, r, k).mi_exact.value
                assert mi_lower_bound_k2(realization, cfg, r, k) <= exact + 1e-8

    def test_rejects_more_than_two_users(self, monkeypatch):
        cfg = SystemConfig(4, 3, (4.0, 2.0, 1.0), 1.0, 1.0)
        realization = draw_channel(cfg, np.random.default_rng(6))
        with pytest.raises(ValueError, match="K = 2"):
            mi_lower_bound_k2(realization, cfg, 1, 1)
        # The row function rejects a message index other than 1 or 2
        # before it computes anything.
        monkeypatch.setattr(mi, "_lower_bound_chunk", None)
        for k in (0, 3):
            with pytest.raises(ValueError, match="message index"):
                mi.lower_bound_k2_rows(np.ones((2, 4)), np.array([4.0, 1.0]), 1.0, k)


# The default quadrature tolerance: each entropy's error bound, so an MI
# (a difference of two entropies) is within 2 * TOLERANCE of its true value.
TOLERANCE = 1e-10


class TestMiInvariants:
    """Invariants of the model itself, on random realizations."""

    @given(st.integers(0, 2**32 - 1), st.floats(-40.0, 40.0))
    @settings(max_examples=100, deadline=None)
    def test_mi_is_nonnegative(self, seed, snr_db):
        cfg = config_at_snr(snr_db)
        realization = random_realization(cfg, seed)
        for r, k in ((1, 1), (2, 1), (2, 2)):
            res = mi_exact(realization, cfg, r, k, tolerance=TOLERANCE)
            assert res.mi_exact.value >= -2 * TOLERANCE

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_own_message_mi_of_user2_grows_with_snr(self, seed):
        realization = random_realization(config_at_snr(0.0), seed)
        values = [mi_exact(realization, config_at_snr(snr_db), 2, 2,
                           tolerance=TOLERANCE).mi_exact.value
                  for snr_db in default_snr_grid()]
        assert all(b >= a - 2 * TOLERANCE for a, b in zip(values, values[1:]))


class TestAsymptotes:
    def test_high_snr_ceiling_value(self):
        report = asymptotes(config_at_snr(0.0), 1, 1)
        assert report.high_snr_mi_limit == pytest.approx(math.log2(5.0))

    def test_constant_shift_user1(self):
        report = asymptotes(config_at_snr(0.0), 2, 1)
        assert report.constant_shift == pytest.approx(1.0 - math.log2(4.0 * math.e))
        assert report.low_snr_lb_limit == report.constant_shift
        assert report.high_snr_lb_limit == pytest.approx(
            math.log2(5.0) + 1.0 - math.log2(4.0 * math.e)
        )

    def test_user2_high_snr_limits_absent(self):
        report = asymptotes(config_at_snr(0.0), 2, 2)
        assert report.high_snr_mi_limit is None
        assert report.high_snr_lb_limit is None
        assert report.constant_shift == pytest.approx(1.0 - LOG2E)

    def test_rejections(self):
        cfg3 = SystemConfig(4, 3, (4.0, 2.0, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            asymptotes(cfg3, 1, 1)
        with pytest.raises(ValueError):
            asymptotes(config_at_snr(0.0), 1, 2)


class TestMiResult:
    def test_lower_bound_violation_is_a_fail_line(self, monkeypatch):
        # Every operating point of lb_validity gets a bound 0.01 bit above
        # exact + 3 sigma; the suite reports it instead of raising.
        def table(config, channels, levels, rho, pairs, quantities):
            shape = (len(pairs), len(channels), np.shape(rho)[-1])
            return {"I": np.full(shape, 1.0), "I_err": np.full(shape, 0.1),
                    "I_LB": np.full(shape, 1.31)}

        monkeypatch.setattr(runner, "_mi_table", table)
        report = runner.run_property_suite(figure1_config(realizations=1, seed=3))
        assert [line for line in report.lines() if " lb_validity:" in line] == [
            "FAIL  lb_validity: 300 violations, worst LB excess 1.000e-02 bits"]
