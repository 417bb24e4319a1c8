"""Tests for mutual information, the closed-form lower bound, and asymptotics."""

import math
import time

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sm_noma import baselines, gmd, mi, runner
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
            mixture_of_received(realization, cfg, 2, 2).variances
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

        monkeypatch.setattr(mi.gmd, "entropy_monte_carlo", failing_entropy)
        with pytest.raises(RuntimeError, match="cell failed"):
            mi.mi_rows(gains_sq, cfg.power_levels, cfg.signal_power, cfg.noise_power,
                       ((1, 1),), "monte_carlo", rngs=np.random.default_rng, samples=100)
        assert len(calls) < 10

    def test_decoding_order_enforced(self, monkeypatch):
        cfg = config_at_snr(0.0)
        realization = random_realization(cfg, 3)
        with pytest.raises(ValueError):
            mi_exact(realization, cfg, 1, 2)
        # Monte Carlo needs a generator for each cell, and a sample
        # count >= 1 even at M = 1, where nothing is sampled.
        with pytest.raises(ValueError, match="its own generator"):
            mi_exact(realization, cfg, 1, 1, "monte_carlo")
        single = SystemConfig(1, 2, (4.0, 1.0), 1.0, 1.0)
        for samples in (-3, True):
            with pytest.raises(ValueError, match="samples must be an integer >= 1"):
                mi_exact(random_realization(single, 3), single, 1, 1, "monte_carlo",
                         rng=np.random.default_rng(0), samples=samples)
        # The row API checks its pairs before it builds a block or makes a
        # generator: (1, 2) is a pair SIC forbids, (3, 1) names a third
        # decoder at K = 2, and () holds no pair.
        built, made = [], []
        real_signal_variances = mi.signal_variances
        monkeypatch.setattr(mi, "signal_variances",
                            lambda *args: built.append(args) or real_signal_variances(*args))
        gains_sq = np.abs(realization.channel_vectors[None]) ** 2
        for method in ("radial_quadrature", "monte_carlo"):
            for pairs in (((1, 2),), ((3, 1),), (), ((1, 1), (0, 0))):
                with pytest.raises(ValueError, match=r"1 <= k <= r <= K = 2"):
                    mi.mi_rows(gains_sq, cfg.power_levels, cfg.signal_power, cfg.noise_power,
                               pairs, method, samples=100,
                               rngs=lambda cell: made.append(cell) or np.random.default_rng(0))
        # So are the method, the gains' rank, the number of power levels and
        # Monte Carlo's sample count.
        bad_inputs = [
            ({"method": "cubature"}, "unknown entropy method"),
            ({"gains_sq": gains_sq[0, 0]}, "leading axis"),
            ({"gains_sq": gains_sq[0]}, "leading axis"),
            ({"power_levels": (4.0,)}, "K = 2 power levels"),
            ({"power_levels": (4.0, 1.0, 1.0)}, "K = 2 power levels"),
            ({"method": "monte_carlo", "samples": -3}, "samples"),
            ({"method": "monte_carlo", "samples": True}, "samples"),
        ]
        good = {"gains_sq": gains_sq, "power_levels": cfg.power_levels,
                "signal_power": cfg.signal_power, "noise_power": cfg.noise_power,
                "pairs": ((1, 1), (2, 2)), "samples": 100,
                "rngs": lambda cell: made.append(cell) or np.random.default_rng(0)}
        for changes, match in bad_inputs:
            with pytest.raises(ValueError, match=match):
                mi.mi_rows(**{**good, **changes})
        assert built == made == []

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

    @pytest.mark.parametrize("num_users", [2, 3])
    @pytest.mark.parametrize("num_tx_antennas", [1, 2])
    def test_sample_count_is_what_was_drawn(self, monkeypatch, num_tx_antennas, num_users):
        # mi_rows alone knows which blocks it samples: mi_exact's count is
        # samples times the entropy_monte_carlo calls made, 0 by quadrature.
        cfg = SystemConfig(num_tx_antennas, num_users, (4.0, 2.0, 1.0)[:num_users], 10.0, 1.0)
        realization = random_realization(cfg, 8)
        calls = []
        sample = gmd.entropy_monte_carlo
        monkeypatch.setattr(gmd, "entropy_monte_carlo",
                            lambda *args: calls.append(args) or sample(*args))
        for r in range(1, num_users + 1):
            for k in range(1, r + 1):
                calls.clear()
                mc = mi_exact(realization, cfg, r, k, "monte_carlo",
                              rng=np.random.default_rng(r + k), samples=30).mi_exact
                assert mc.sample_count == 30 * len(calls)
                # Only M = 1 leaves nothing to sample.
                assert (len(calls) > 0) == (num_tx_antennas > 1)
                calls.clear()
                assert mi_exact(realization, cfg, r, k).mi_exact.sample_count == 0
                assert calls == []

    def test_monte_carlo_builds_no_mixture(self, monkeypatch):
        # Each cell passes its variance rows straight to the sampler: a
        # sweep over 3 realizations and 2 SNRs makes no GaussianMixture.
        # Each (realization, SNR) samples h(1, 1), h(1, 2), h(2, 1), h(2, 2)
        # and, for I(2, 2), h(2, 2) again: 30 calls, each on a 1-D row of
        # M^2 = 16 or M = 4 variances.
        cfg = config_at_snr(5.0)
        gains_sq = np.stack([np.abs(random_realization(cfg, seed).channel_vectors) ** 2
                             for seed in range(3)])[:, None]
        built, rows = [], []
        monkeypatch.setattr(gmd.GaussianMixture, "__post_init__",
                            lambda self: built.append(self))
        sample = gmd.entropy_monte_carlo
        monkeypatch.setattr(gmd, "entropy_monte_carlo",
                            lambda v, *args: rows.append(v.shape) or sample(v, *args))
        mi.mi_rows(gains_sq, cfg.power_levels, np.array([[1.0], [10.0]]), cfg.noise_power,
                   ((1, 1), (2, 1), (2, 2)), "monte_carlo", rngs=np.random.default_rng,
                   samples=50)
        assert built == []
        assert sorted(rows) == [(4,)] * 18 + [(16,)] * 12


# Allowance, in bits, beside a cell's error estimate, which covers the
# quadrature rule but neither roundoff (about 100 ulps of entropies below
# 50 bits in magnitude, 1e-12) nor the truncation at TAIL_MASS (below 1e-12
# bits per entropy against 30-digit mpmath).
ALLOWANCE_BITS = 3e-12

snr_grids = st.lists(st.floats(-40.0, 60.0), min_size=2, max_size=6, unique=True).map(sorted)
power_splits = st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0))


@st.composite
def channels(draw, max_antennas=4):
    """A (2, M) channel matrix, M from 1 to max_antennas, entries up to 4 in
    magnitude."""
    m = draw(st.integers(1, max_antennas))
    entry = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(entry, min_size=2 * m, max_size=2 * m))).reshape(2, m)


def assert_monotone_and_bracketed(values, errors, s_y, s_w):
    """For one MI curve over an increasing SNR grid, values and errors (G,)
    and its received and interference variances s_y (G, L_y) and s_w
    (G, L_w): each step up the grid is at least minus the two cells' error
    estimates (a lower SNR is a degraded channel), and each cell lies in
    E log2 s_y - log2 E s_w <= I <= log2 E s_y - E log2 s_w (Jensen, and
    the Gaussian maximum entropy), each within its error estimate."""
    slack = errors + ALLOWANCE_BITS
    assert np.all(np.diff(values) >= -(slack[1:] + slack[:-1]))
    lower = np.log2(s_y).mean(axis=-1) - np.log2(s_w.mean(axis=-1))
    upper = np.log2(s_y.mean(axis=-1)) - np.log2(s_w).mean(axis=-1)
    assert np.all(lower - slack <= values)
    assert np.all(values <= upper + slack)


class TestTheoremOracles:
    """Properties any exact MI has, on mi_rows cells over random channels,
    power splits and SNR grids, with the variances built here from |h|^2."""

    @given(channels(), power_splits, snr_grids)
    @settings(max_examples=60, deadline=None)
    def test_two_user_cells(self, h, levels, snr_db):
        a1, a2 = levels
        rho = 10.0 ** (np.array(snr_db) / 10.0)
        pairs = ((1, 1), (2, 1), (2, 2))
        values, errors, _ = mi.mi_rows(np.abs(h[None]) ** 2, levels, rho[:, None], 1.0, pairs)
        for p, (r, k) in enumerate(pairs):
            rho_g = rho[:, None] * np.abs(h[r - 1]) ** 2  # (G, M)
            if k == 1:  # index tuples (n1, n2) against the interference's n2
                s_y = (1.0 + a1 * rho_g[:, :, None] + a2 * rho_g[:, None, :]).reshape(len(rho), -1)
                s_w = 1.0 + a2 * rho_g
            else:  # the interference of the last message is the noise alone
                s_y, s_w = 1.0 + a2 * rho_g, np.ones((len(rho), 1))
            assert_monotone_and_bracketed(values[p], errors[p], s_y, s_w)

    @given(channels(), power_splits, snr_grids)
    @settings(max_examples=60, deadline=None)
    def test_sm_tdma_cells(self, h, levels, snr_db):
        # SM-TDMA is half of mi_rows' I(1, 1) of one user at the total power
        # a1 + a2 (K = 2); that full slot's error estimate is read from the
        # same call.
        rho = 10.0 ** (np.array(snr_db) / 10.0)
        results = []

        def recording_mi_rows(*args, **kwargs):
            results.append(mi.mi_rows(*args, **kwargs))
            return results[-1]

        for k in (1, 2):
            g = np.abs(h[k - 1]) ** 2
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(baselines, "mi_rows", recording_mi_rows)
                values = baselines.sm_tdma_rows(g[None], np.array([levels]), rho, 1.0)
            full, errors = results[-1][0][0], results[-1][1][0]  # of the one pair (1, 1)
            assert values.tobytes() == (full / 2).tobytes()
            assert_monotone_and_bracketed(full, errors,
                                          1.0 + (levels[0] + levels[1]) * rho[:, None] * g,
                                          np.ones((len(rho), 1)))

    @given(channels(), power_splits, snr_grids, st.data())
    @settings(max_examples=40, deadline=None)
    def test_cells_depend_on_gains_alone(self, h, levels, snr_db, data):
        # Permuting a user's antennas, or turning each antenna's phase, leaves
        # every |h|^2 of that user, so I, I_LB and SM-TDMA keep their values
        # within the cells' error estimates. MISO-NOMA is left out: it sums
        # the complex gains of two antennas.
        m = h.shape[1]
        order = [data.draw(st.permutations(range(m))) for _ in range(2)]
        theta = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                            min_size=2 * m, max_size=2 * m))).reshape(2, m)
        turned = np.stack([h[u, order[u]] for u in range(2)]) * np.exp(1j * theta)
        rho = 10.0 ** (np.array(snr_db) / 10.0)
        pairs = ((1, 1), (2, 1), (2, 2))

        def cells(h):
            g = np.abs(h) ** 2
            values, errors, _ = mi.mi_rows(g[None], levels, rho[:, None], 1.0, pairs)
            bound = np.stack([mi.lower_bound_k2_rows(g[r - 1], np.array(levels), rho, k)
                              for r, k in pairs])
            tdma = [mi.mi_rows(g[k - 1, None, None], (1.0,), (levels[0] + levels[1]) * rho[:, None],
                               1.0, ((1, 1),))[:2] for k in (1, 2)]
            sm_tdma = np.stack([baselines.sm_tdma_rows(g[k - 1, None], np.array([levels]), rho,
                                                       1.0) for k in (1, 2)])
            return values, errors, bound, sm_tdma, 0.5 * np.stack([e[0] for _, e in tdma])

        values, errors, bound, sm_tdma, tdma_errors = cells(h)
        values2, errors2, bound2, sm_tdma2, tdma_errors2 = cells(turned)
        assert np.all(np.abs(values2 - values) <= errors + errors2 + ALLOWANCE_BITS)
        assert np.all(np.abs(bound2 - bound) <= ALLOWANCE_BITS)
        assert np.all(np.abs(sm_tdma2 - sm_tdma) <= tdma_errors + tdma_errors2 + ALLOWANCE_BITS)

    @given(channels(), power_splits, snr_grids, st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monte_carlo_cells_within_bracket(self, h, levels, snr_db, seed):
        # Each Monte Carlo cell lies in the closed-form bracket of
        # assert_monotone_and_bracketed within 4 of its standard errors.
        a1, a2 = levels
        rho = 10.0 ** (np.array(snr_db) / 10.0)
        pairs = ((1, 1), (2, 1), (2, 2))
        values, errors, _ = mi.mi_rows(
            np.abs(h[None]) ** 2, levels, rho[:, None], 1.0, pairs, "monte_carlo",
            rngs=lambda cell: np.random.default_rng((seed, *cell)), samples=2000)
        for p, (r, k) in enumerate(pairs):
            rho_g = rho[:, None] * np.abs(h[r - 1]) ** 2
            if k == 1:
                s_y = (1.0 + a1 * rho_g[:, :, None] + a2 * rho_g[:, None, :]).reshape(len(rho), -1)
                s_w = 1.0 + a2 * rho_g
            else:
                s_y, s_w = 1.0 + a2 * rho_g, np.ones((len(rho), 1))
            lower = np.log2(s_y).mean(axis=-1) - np.log2(s_w.mean(axis=-1))
            upper = np.log2(s_y.mean(axis=-1)) - np.log2(s_w).mean(axis=-1)
            slack = 4.0 * errors[p] + ALLOWANCE_BITS
            assert np.all(lower - slack <= values[p])
            assert np.all(values[p] <= upper + slack)

    @given(channels(max_antennas=2), power_splits,
           st.lists(st.floats(-40.0, 60.0), min_size=1, max_size=2, unique=True).map(sorted))
    @settings(max_examples=8, deadline=None)
    def test_chain_rule_at_the_last_decoder(self, h, levels, snr_db):
        # Decoder 2 decodes both messages, so I(2, 1) + I(2, 2) telescopes to
        # h(Y_2) - log2(pi e sigma_v^2), the entropy of all that decoder 2
        # receives less that of the noise. h(Y_2) is 30-digit mpmath on the
        # variances built here, so no block of mi_rows enters both sides.
        # Decoder 1 has I(1, 1) alone: the SIC order has no I(1, 2).
        a1, a2 = levels
        rho = 10.0 ** (np.array(snr_db) / 10.0)
        values, errors, _ = mi.mi_rows(np.abs(h[None]) ** 2, levels, rho[:, None], 1.0,
                                       ((2, 1), (2, 2)))
        rho_g = rho[:, None] * np.abs(h[1]) ** 2
        s_y = (1.0 + a1 * rho_g[:, :, None] + a2 * rho_g[:, None, :]).reshape(len(rho), -1)
        for j, s in enumerate(s_y):
            h_y = gmd.EntropyEstimate(values[0, j] + values[1, j] + gmd.gaussian_entropy(1.0),
                                      errors[0, j] + errors[1, j], 0)
            assert abs(h_y.value - oracles.mp_entropy(s)) <= (oracles.mp_bound(h_y, s)
                                                             + ALLOWANCE_BITS)


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
        # A channel matrix of another system's shape, and a pair SIC forbids.
        cfg2 = config_at_snr(0.0)
        for shape in ((2, 8), (3, 4)):
            with pytest.raises(ValueError, match="channel matrix has shape"):
                mi_lower_bound_k2(ChannelRealization(np.ones(shape)), cfg2, 1, 1)
        with pytest.raises(ValueError, match="SIC order"):
            mi_lower_bound_k2(random_realization(cfg2, 6), cfg2, 1, 2)
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
