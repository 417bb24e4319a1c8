"""Tests for the SM-NOMA system model."""

import math

import numpy as np
import pytest

from sm_noma import gmd
from sm_noma.system import (
    ChannelRealization,
    SystemConfig,
    draw_channel,
    mixture_of_interference,
    mixture_of_received,
    simulate_received_symbol,
)


def paper_config(signal_power=1.0, noise_power=1.0):
    return SystemConfig(
        num_tx_antennas=4,
        num_users=2,
        power_levels=(4.0, 1.0),
        signal_power=signal_power,
        noise_power=noise_power,
    )


class TestSystemConfig:
    def test_snr_is_derived(self):
        cfg = paper_config(signal_power=100.0, noise_power=4.0)
        assert cfg.snr == pytest.approx(25.0)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            paper_config(noise_power=0.0)
        with pytest.raises(ValueError, match="one entry per user"):
            SystemConfig(4, 2, (4.0,), 1.0, 1.0)
        with pytest.raises(ValueError):
            SystemConfig(4, 2, (4.0, -1.0), 1.0, 1.0)


class TestConventionalSm:
    """Conventional SM: symbol index n of every user switches on antenna n,
    so codebook k is the standard basis of C^M and N_k = M."""

    def test_conventional_sm_is_standard_basis(self):
        # The mixtures equal those built from explicit eye(M) codebooks,
        # b_{r,k}^(n) = h_r^T e_n, to the bit.
        cfg = paper_config(signal_power=3.0, noise_power=0.5)
        realization = draw_channel(cfg, np.random.default_rng(15))
        for r in (1, 2):
            gains = np.eye(4, dtype=complex) @ realization.channel_vectors[r - 1]
            g = np.abs(gains) ** 2
            pairs = (4.0 * g[:, None] + 1.0 * g[None, :]).ravel()
            recv = mixture_of_received(realization, cfg, r, 1)
            assert recv.variances.tobytes() == (0.5 + 3.0 * pairs).tobytes()
            intf = mixture_of_interference(realization, cfg, r, 1)
            assert intf.variances.tobytes() == (0.5 + 3.0 * (1.0 * g)).tobytes()

    def test_single_antenna_degenerate(self):
        cfg = SystemConfig(1, 2, (4.0, 1.0), 1.0, 1.0)
        realization = draw_channel(cfg, np.random.default_rng(16))
        assert realization.channel_vectors.shape == (2, 1)
        mix = mixture_of_received(realization, cfg, 1, 1)
        assert len(mix) == 1
        assert mix.variances[0] == pytest.approx(
            1.0 + 5.0 * abs(realization.channel_vectors[0, 0]) ** 2)


class TestDrawChannel:
    def test_entry_variance(self):
        cfg = paper_config()
        rng = np.random.default_rng(0)
        entries = np.concatenate(
            [draw_channel(cfg, rng).channel_vectors.ravel() for _ in range(6250)]
        )
        # 6250 draws x (2 x 4) entries = 5e4; variance band per spec
        assert 0.99 <= np.mean(np.abs(entries) ** 2) <= 1.01
        assert abs(np.mean(entries)) < 0.01

    def test_conventional_sm_gain_is_channel_entry(self):
        # Only user 2 transmits, a unit symbol on antenna n: decoder r
        # receives b_{r,2}^(n) = h_r[n].
        cfg = SystemConfig(4, 2, (0.0, 1.0), 1.0, 1.0)
        realization = draw_channel(cfg, np.random.default_rng(1))
        for r in (1, 2):
            for n in range(1, 5):
                y = simulate_received_symbol(realization, cfg, r, 1, np.ones(2), (1, n), 0.0)
                assert y == realization.channel_vectors[r - 1, n - 1]

    def test_deterministic_for_fixed_seed(self):
        cfg = paper_config()
        a = draw_channel(cfg, np.random.default_rng(7))
        b = draw_channel(cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(a.channel_vectors, b.channel_vectors)

    def test_gains_recomputable(self):
        # A realization rebuilt from its channel matrix holds an equal,
        # read-only complex copy and gives the same mixtures.
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(2))
        h = np.array(realization.channel_vectors)
        rebuilt = ChannelRealization(h)
        h[0, 0] = 99.0
        assert rebuilt.channel_vectors.dtype == complex
        assert not rebuilt.channel_vectors.flags.writeable
        assert rebuilt.channel_vectors.tobytes() == realization.channel_vectors.tobytes()
        for r, k in ((1, 1), (2, 1), (2, 2)):
            assert (mixture_of_received(rebuilt, cfg, r, k).variances.tobytes()
                    == mixture_of_received(realization, cfg, r, k).variances.tobytes())

    @pytest.mark.parametrize("h", [np.ones(4), np.ones((2, 0)), np.ones((1, 2, 2)),
                                   [[1.0, np.nan]], [[np.inf, 1.0]]])
    def test_malformed_channel_rejected(self, h):
        with pytest.raises(ValueError, match="channel_vectors"):
            ChannelRealization(h)


class TestTransmitSignal:
    """The transmit vector x = sum_k alpha_k s_k e_{n_k} of conventional SM,
    seen through the noiseless received symbol h_r^T x at decoder r."""

    @staticmethod
    def received(indices, symbols=(1.0, 1.0)):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(17))
        y = [simulate_received_symbol(realization, cfg, r, 1, np.array(symbols), indices, 0.0)
             for r in (1, 2)]
        return realization.channel_vectors, y

    def test_paper_example(self):
        h, y = self.received((1, 2))
        x = np.array([2.0, 1.0, 0.0, 0.0])
        for r in (1, 2):
            assert y[r - 1] == pytest.approx(h[r - 1] @ x)

    def test_antenna_collision(self):
        h, y = self.received((3, 3))
        for r in (1, 2):
            assert y[r - 1] == pytest.approx(3.0 * h[r - 1, 2])

    def test_zero_symbols(self):
        _, y = self.received((1, 4), symbols=(0.0, 0.0))
        assert y == [0.0, 0.0]

    def test_index_out_of_range(self):
        # Booleans would index antenna 1; floats are not indices at all. The
        # property suite passes int8 indices, held to the same range.
        int8 = [np.array(indices, dtype=np.int8) for indices in ((0, 2), (1, 5))]
        for indices in ((0, 2), (1, 5), (True, True), (1.5, 2.0), *int8):
            with pytest.raises(ValueError, match="active indices"):
                self.received(indices)


class TestReceivedSymbol:
    def test_last_message_has_no_interference(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(3))
        s = np.array([0.7 + 0.1j, -0.3 + 0.5j])
        y = simulate_received_symbol(realization, cfg, 2, 2, s, (1, 3), 0.25j)
        expected = realization.channel_vectors[1, 2] * 1.0 * s[1] + 0.25j
        assert y == pytest.approx(expected)

    def test_first_message_expansion_zero_noise(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(4))
        s = np.array([1.0 + 0j, 1.0 + 0j])
        y = simulate_received_symbol(realization, cfg, 1, 1, s, (2, 4), 0.0)
        h = realization.channel_vectors[0]
        expected = 2.0 * h[1] + 1.0 * h[3]
        assert y == pytest.approx(expected)

    def test_decoding_order_enforced(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError, match="SIC"):
            simulate_received_symbol(realization, cfg, 1, 2, np.ones(2), (1, 1), 0.0)

    def test_batched_call_equals_scalar_calls(self):
        cfg = paper_config(signal_power=10.0)
        realization = draw_channel(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(70)
        n = 100
        sym = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        idx = rng.integers(1, 5, size=(n, 2))
        for r, k in ((1, 1), (2, 1), (2, 2)):
            batched = simulate_received_symbol(realization, cfg, r, k, sym, idx, noise)
            scalar = [
                simulate_received_symbol(
                    realization, cfg, r, k, sym[d], tuple(idx[d]), noise[d]
                )
                for d in range(n)
            ]
            assert batched.shape == (n,)
            assert batched.tobytes() == simulate_received_symbol(
                realization, cfg, r, k, sym, idx.astype(np.int8), noise).tobytes()
            assert all(isinstance(y, complex) for y in scalar)
            assert batched.tolist() == scalar

    def test_second_moment_matches_mixture(self):
        cfg = paper_config(signal_power=10.0)
        realization = draw_channel(cfg, np.random.default_rng(6))
        rng = np.random.default_rng(60)
        n = 100_000
        sym = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) * math.sqrt(
            cfg.signal_power / 2
        )
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(
            cfg.noise_power / 2
        )
        idx = rng.integers(1, 5, size=(n, 2))
        ys = [
            simulate_received_symbol(
                realization, cfg, 1, 1, sym[d], tuple(idx[d]), noise[d]
            )
            for d in range(n)
        ]
        mix = mixture_of_received(realization, cfg, 1, 1)
        empirical = float(np.mean(np.abs(ys) ** 2))
        assert empirical == pytest.approx(mix.mean_power, rel=0.01)


class TestMixtures:
    @pytest.mark.parametrize("call", [
        lambda h, cfg: mixture_of_received(h, cfg, 1, 1),
        lambda h, cfg: mixture_of_interference(h, cfg, 1, 1),
        lambda h, cfg: simulate_received_symbol(h, cfg, 1, 1, np.ones(2), (1, 3), 0.0),
    ], ids=["received", "interference", "simulate"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (2, 5)])
    def test_channel_shape_must_match_system(self, call, shape):
        # The (K, M) = (2, 4) system on a channel matrix of another shape.
        h = ChannelRealization(np.ones(shape, dtype=complex))
        with pytest.raises(ValueError, match=r"the system needs \(K, M\) = \(2, 4\)"):
            call(h, paper_config())

    def test_last_message_interference_is_pure_noise(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(8))
        mix = mixture_of_interference(realization, cfg, 2, 2)
        assert len(mix) == 1
        assert mix.variances[0] == pytest.approx(cfg.noise_power)

    def test_component_counts(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(9))
        assert len(mixture_of_interference(realization, cfg, 1, 1)) == 4
        assert len(mixture_of_received(realization, cfg, 1, 1)) == 16
        assert len(mixture_of_received(realization, cfg, 2, 2)) == 4
        np.testing.assert_allclose(
            mixture_of_received(realization, cfg, 1, 1).weights, 1 / 16
        )

    def test_component_variances(self):
        cfg = paper_config(signal_power=3.0, noise_power=0.5)
        realization = draw_channel(cfg, np.random.default_rng(10))
        mix = mixture_of_received(realization, cfg, 2, 2)
        g = np.abs(realization.channel_vectors[1]) ** 2
        np.testing.assert_allclose(mix.variances, 0.5 + 3.0 * 1.0 * g, atol=1e-12)
        assert np.all(mix.variances >= cfg.noise_power)

    def test_zero_power_collapses_to_noise(self):
        cfg = SystemConfig(4, 2, (0.0, 0.0), 1.0, 1.0)
        realization = draw_channel(cfg, np.random.default_rng(11))
        mix = mixture_of_received(realization, cfg, 1, 1)
        np.testing.assert_allclose(mix.variances, cfg.noise_power, atol=1e-12)

    def test_received_dominates_interference_componentwise(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(12))
        recv = mixture_of_received(realization, cfg, 1, 1)
        intf = mixture_of_interference(realization, cfg, 1, 1)
        # received tuples (n1, n2) iterate with n2 fastest; matched on n2
        recv_v = recv.variances.reshape(4, 4)
        assert np.all(recv_v >= intf.variances[None, :] - 1e-12)

    def test_all_mixtures_zero_mean_equal_weight(self):
        cfg = paper_config()
        realization = draw_channel(cfg, np.random.default_rng(13))
        for r, k in ((1, 1), (2, 1), (2, 2)):
            for mix in (
                mixture_of_received(realization, cfg, r, k),
                mixture_of_interference(realization, cfg, r, k),
            ):
                # Zero means are a property of the mixture type.
                np.testing.assert_allclose(mix.weights, 1.0 / len(mix))

    def test_sampled_interference_entropy_matches_quadrature(self):
        cfg = paper_config(signal_power=10.0)
        realization = draw_channel(cfg, np.random.default_rng(14))
        mix = mixture_of_interference(realization, cfg, 1, 1)
        mc = gmd.entropy_monte_carlo(mix.variances, np.random.default_rng(140), 200_000)
        quad = gmd.entropy_radial_quadrature(mix.variances)
        assert abs(mc.value - quad.value) <= 3 * mc.std_error
