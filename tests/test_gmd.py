"""Tests for the Gaussian-mixture distribution core."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import ROUNDOFF_BITS, mp_bound, mp_entropy
from scipy.special import logsumexp as scipy_logsumexp

from sm_noma import gmd, mi
from sm_noma.baselines import sm_tdma_rows
from sm_noma.system import (
    SystemConfig,
    draw_channel,
    mixture_of_interference,
    mixture_of_received,
    signal_variances,
)

LOG2_2PI = math.log2(2.0 * math.pi)
LOG2_PI_E = math.log2(math.pi * math.e)

# Frozen oracle values, computed with an independent scipy-based radial
# integrator (see repository test notes); tolerances reflect that oracle's
# requested 1e-12 accuracy.
GOLDEN_H_L3 = 3.276924114545157  # equal weights, zero mean, var {0.5, 1, 2}
GOLDEN_H_L2_1_10 = 5.252259700560866
GOLDEN_H_L2_1_4 = 4.344232367624173
GOLDEN_LB_UB_L4 = (3.8432939632637173, 6.2404317955415705)  # var {1, 2, 3, 4}


def unit_mixture():
    return gmd.equal_weight_zero_mean_mixture([1.0])


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            gmd.mixture_from_arrays([0.4, 0.4], [1, 1])

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            gmd.GaussianMixture([], [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            gmd.mixture_from_arrays([0.0, 1.0], [1, 1])

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            gmd.mixture_from_arrays([1.0], [0.0])
        with pytest.raises(ValueError, match="exceed"):
            gmd.mixture_from_arrays([1.0], [1e-301])

    @pytest.mark.parametrize("build", [
        lambda: gmd.mixture_from_arrays([0.5, 0.5], [1.0]),
        lambda: gmd.mixture_from_arrays([[0.5, 0.5]], [[1, 1]]),
        lambda: gmd.mixture_from_arrays([1.0], [math.inf]),
        lambda: unit_mixture().variances.__setitem__(0, 2.0),
    ], ids=["length_mismatch", "2d", "inf_variance", "write"])
    def test_malformed_arrays_rejected(self, build):
        with pytest.raises(ValueError):
            build()


def log_pdf(mixture, points):
    """gmd._log_pdf_into at complex points of any shape, any weights: |a|^2
    is taken once per point and shared by every component. It is squared
    as a 1-D array: on a 0-d point, ** 2 would act on a numpy scalar, whose
    power can round differently from the array loop's product. A 0-d point
    gives an np.float64."""
    a = np.asarray(points, dtype=complex)
    abs_sq = np.abs(a.ravel()) ** 2
    log_coef = np.log(mixture.weights) - np.log(math.pi * mixture.variances)
    terms = np.empty((len(mixture), a.size))
    return gmd._log_pdf_into(log_coef, mixture.variances, abs_sq, terms).reshape(a.shape)[()]


def radial_draws(variances, rng, count):
    """gmd._radial_draws of count draws into fresh buffers."""
    v = np.asarray(variances, dtype=float)
    return gmd._radial_draws(v, rng, np.empty(count), np.empty(count))


class TestPdf:
    def test_unit_gaussian_peak(self):
        peak = np.exp(log_pdf(unit_mixture(), 0j))
        assert peak == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_duplicate_components_collapse(self):
        mix = gmd.mixture_from_arrays([0.5, 0.5], [1, 1])
        assert np.exp(log_pdf(mix, 0j)) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_two_component_value(self):
        # Direct sum-of-exponentials evaluation, frozen:
        # 0.5/(pi)*e^-1 + 0.5/(4 pi)*e^-0.25
        mix = gmd.mixture_from_arrays([0.5, 0.5], [1, 4])
        value = np.exp(log_pdf(mix, 1 + 0j))
        assert value == pytest.approx(0.08953733010173241, rel=1e-12)

    def test_strictly_positive_far_out(self):
        mix = gmd.mixture_from_arrays([0.5, 0.5], [1, 4])
        assert log_pdf(mix, 40 + 0j) > -np.inf


class TestSample:
    """The Monte Carlo draws, |a|^2 of each by gmd._radial_draws."""

    def test_moments(self):
        draws = radial_draws([2.0], np.random.default_rng(0), 10**6)
        assert 1.98 <= np.mean(draws) <= 2.02

    def test_deterministic_for_fixed_stream(self):
        a = radial_draws([1.0, 2.0], np.random.default_rng(42), 1000)
        b = radial_draws([1.0, 2.0], np.random.default_rng(42), 1000)
        np.testing.assert_array_equal(a, b)

    def test_component_selection_frequency(self):
        # Variances 12 decades apart let us count component picks: a draw
        # of the narrow one lies inside the unit disc, one of the wide one
        # almost never does. Check the frequency against a 3-sigma
        # binomial band.
        n = 100_000
        p = 0.5
        draws = radial_draws([1e-6, 1e6], np.random.default_rng(3), n)
        count = int(np.sum(draws < 1))
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) < 3 * sigma

    def test_count_validation(self):
        # True is no count of one and 2.5 no count at all: both stop at the
        # boundary, not inside numpy; a numpy integer is a count.
        for count in (0, -3, True, False, 2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                gmd.entropy_monte_carlo([1.0, 2.0], np.random.default_rng(0), count)
        count = np.int64(3)
        assert gmd.entropy_monte_carlo([1.0, 2.0], np.random.default_rng(0),
                                       count).sample_count == 3

    @given(st.integers(1, 4096), st.integers(1, 50_000), st.integers(0, 2**32 - 1))
    @example(3, 50_000, 0)
    @example(5, 50_000, 1)
    @example(7, 50_000, 2)
    @example(9, 50_000, 3)
    @example(1000, 50_000, 4)
    @example(4095, 50_000, 5)
    @example(4096, 50_000, 6)
    @settings(max_examples=60, deadline=None)
    def test_equal_weight_draw_equals_rng_choice(self, n, count, seed):
        mix = gmd.equal_weight_zero_mean_mixture(np.arange(1.0, n + 1.0))
        expected = np.random.default_rng(seed).choice(n, size=count, p=mix.weights)
        u = np.random.default_rng(seed).random(count)
        got = gmd._equal_weight_choice(n, u, np.empty(count))
        assert np.array_equal(got, expected)
        got = radial_draws(mix.variances, np.random.default_rng(seed), count)
        assert np.array_equal(got, oracle_radial_draws(mix, np.random.default_rng(seed), count))

    def test_equal_weight_draw_at_cdf_edges(self):
        # Uniform draws on and one ulp either side of every cdf entry and
        # every k / L, where floor(u L) is most likely to be off by one,
        # against the searchsorted that rng.choice runs on them.
        mismatched = []
        for n in [*range(1, 200), 255, 1000, 4095, 4096]:
            w = gmd.equal_weight_zero_mean_mixture(np.ones(n)).weights
            cdf = w.cumsum()
            cdf /= cdf[-1]
            edges = np.concatenate([cdf, np.arange(n) / n])
            u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            expected = cdf.searchsorted(u, side="right")
            if not np.array_equal(gmd._equal_weight_choice(n, u, np.empty(len(u))), expected):
                mismatched.append(n)
        assert mismatched == []


class TestOverlapIntegral:
    def test_symmetric_zero_mean(self):
        z = gmd.overlap_matrix(unit_mixture())
        assert z[0, 0] == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_zero_mean_formula(self):
        z = gmd.overlap_matrix(gmd.equal_weight_zero_mean_mixture([1.0, 3.0]))
        assert z[0, 1] == pytest.approx(1 / (4 * math.pi), rel=1e-12)


class TestEntropyBounds:
    def test_single_component_lower_bound(self):
        assert gmd.entropy_lower_bound(unit_mixture()) == pytest.approx(
            LOG2_2PI, rel=1e-12
        )

    def test_single_component_upper_bound(self):
        assert gmd.entropy_upper_bound(unit_mixture()) == pytest.approx(
            LOG2_PI_E, rel=1e-12
        )

    def test_single_component_gap(self):
        gap = gmd.entropy_upper_bound(unit_mixture()) - gmd.entropy_lower_bound(
            unit_mixture()
        )
        assert gap == pytest.approx(math.log2(math.e / 2), rel=1e-12)

    def test_duplicate_split_keeps_lower_bound(self):
        mix = gmd.mixture_from_arrays([0.5, 0.5], [1, 1])
        assert gmd.entropy_lower_bound(mix) == pytest.approx(LOG2_2PI, rel=1e-12)

    def test_l3_bounds_sandwich_golden_entropy(self):
        mix = gmd.equal_weight_zero_mean_mixture([0.5, 1.0, 2.0])
        assert gmd.entropy_lower_bound(mix) <= GOLDEN_H_L3 + 1e-10
        h = gmd.entropy_radial_quadrature(mix.variances)
        assert h.value == pytest.approx(GOLDEN_H_L3, abs=1e-10)

    def test_l2_upper_bound_exceeds_golden_entropy(self):
        mix = gmd.equal_weight_zero_mean_mixture([1.0, 10.0])
        assert gmd.entropy_upper_bound(mix) >= GOLDEN_H_L2_1_10 - 1e-10


class TestEqualWeightClosedForm:
    def test_l1_reduction(self):
        lb, ub = gmd.entropy_bounds_equal_weight_zero_mean([1.0])
        assert lb == pytest.approx(LOG2_2PI, rel=1e-12)
        assert ub == pytest.approx(LOG2_PI_E, rel=1e-12)

    def test_l4_golden_pair(self):
        lb, ub = gmd.entropy_bounds_equal_weight_zero_mean([1.0, 2.0, 3.0, 4.0])
        assert lb == pytest.approx(GOLDEN_LB_UB_L4[0], abs=1e-12)
        assert ub == pytest.approx(GOLDEN_LB_UB_L4[1], abs=1e-12)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            gmd.entropy_bounds_equal_weight_zero_mean([])
        with pytest.raises(ValueError):
            gmd.entropy_bounds_equal_weight_zero_mean([1.0, -1.0])


class TestEntropyExact:
    def test_gaussian_entropy_monte_carlo(self):
        est = gmd.entropy_monte_carlo([1.0], np.random.default_rng(0), 10**5)
        assert abs(est.value - LOG2_PI_E) <= 3 * est.std_error

    def test_cross_method_agreement(self):
        mix = gmd.equal_weight_zero_mean_mixture([1.0, 4.0])
        mc = gmd.entropy_monte_carlo(mix.variances, np.random.default_rng(1), 10**6)
        quad = gmd.entropy_radial_quadrature(mix.variances)
        assert abs(mc.value - quad.value) <= 3 * mc.std_error
        assert quad.value == pytest.approx(GOLDEN_H_L2_1_4, abs=1e-9)

    def test_dispatcher(self):
        # gmd holds the kernels and no estimator switch: mi.mi_rows picks
        # the kernel, and each cell has that kernel's bits on its mixtures,
        # h(r, k) first on the cell's generator.
        assert not hasattr(gmd, "entropy_exact")
        cfg = SystemConfig(2, 2, (4.0, 1.0), 10.0, 1.0)
        realization = draw_channel(cfg, np.random.default_rng(2))
        gains_sq = np.abs(realization.channel_vectors[None]) ** 2
        mixtures = [mixture(realization, cfg, 2, 1)
                    for mixture in (mixture_of_received, mixture_of_interference)]
        quad = [gmd.entropy_radial_quadrature(m.variances) for m in mixtures]
        rng = np.random.default_rng(0)
        mc = [gmd.entropy_monte_carlo(m.variances, rng, 100) for m in mixtures]
        for method, (h_y, h_w) in (("radial_quadrature", quad), ("monte_carlo", mc)):
            values, errors, _ = mi.mi_rows(
                gains_sq, cfg.power_levels, cfg.signal_power, cfg.noise_power, ((2, 1),),
                method, rngs=lambda cell: np.random.default_rng(0), samples=100)
            assert values[0, 0] == h_y.value - h_w.value
            assert errors[0, 0] == np.hypot(h_y.std_error, h_w.std_error)

    @pytest.mark.parametrize("method", ["radial_quadrature", "monte_carlo"])
    def test_one_component_closed_form(self, method):
        # At M = 1 every mixture is a plain Gaussian, which needs no
        # estimator: the closed form with error 0, no samples, and the
        # generator is left as it was.
        cfg = SystemConfig(1, 2, (4.0, 1.0), 10.0, 1.0)
        realization = draw_channel(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        for r, k in ((1, 1), (2, 1), (2, 2)):
            h_y, h_w = (gmd.gaussian_entropy(mixture(realization, cfg, r, k).variances[0])
                        for mixture in (mixture_of_received, mixture_of_interference))
            values, errors, _ = mi.mi_rows(
                np.abs(realization.channel_vectors[None]) ** 2, cfg.power_levels,
                cfg.signal_power, cfg.noise_power, ((r, k),), method,
                rngs=lambda cell: rng, samples=100)
            assert (values[0, 0], errors[0, 0]) == (h_y - h_w, 0.0)
            result = mi.mi_exact(realization, cfg, r, k, method, rng=rng, samples=100)
            assert result.mi_exact == gmd.EntropyEstimate(h_y - h_w, 0.0, 0)
        assert rng.bit_generator.state == state

    def test_monte_carlo_error_halves_with_4x_samples(self):
        mix = gmd.equal_weight_zero_mean_mixture([0.3, 1.0, 9.0])
        rng = np.random.default_rng(5)
        small = gmd.entropy_monte_carlo(mix.variances, rng, 50_000)
        large = gmd.entropy_monte_carlo(mix.variances, rng, 200_000)
        assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)


class CountingRefine:
    """Stands in for gmd._refine and counts the rows it refines."""

    def __init__(self, refine):
        self.refine = refine
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.refine(*args)


def record_panel_rule(monkeypatch):
    """The (rows, panels) shape of every gmd._panel_rule call, in order."""
    shapes = []
    panel_rule = gmd._panel_rule

    def recording(lo, *args):
        shapes.append(lo.shape)
        return panel_rule(lo, *args)

    monkeypatch.setattr(gmd, "_panel_rule", recording)
    return shapes


def chunk_threads(monkeypatch, release=None):
    """Record in the returned set the threads that run gmd._panel_rule.

    With release, a zero-argument callable, each thread adds itself to the
    set and then waits before each panel rule it runs, up to 10 s, until
    release() (called in that thread) is true: with both_began(threads),
    until two threads have begun a chunk, so that a shared call runs
    chunks on both workers whichever starts first. Clearing the set
    re-arms it.
    """
    threads = set()
    panel_rule = gmd._panel_rule

    def recording(*args):
        threads.add(threading.current_thread())
        if release is not None:
            deadline = time.monotonic() + 10.0
            while not release() and time.monotonic() < deadline:
                time.sleep(1e-4)
        return panel_rule(*args)

    monkeypatch.setattr(gmd, "_panel_rule", recording)
    return threads


def both_began(threads):
    """A release for chunk_threads: two threads have begun a chunk, or no
    helper can run (one usable core)."""
    return lambda: gmd._workers(2) < 2 or len(threads) >= 2


def shared_rows(n, chunks, seed=0):
    """Rows of n components, fig1-like variances, that fill chunks kernel chunks."""
    return 10.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0, (chunks * chunk_rows(n), n))


class TestQuadratureFallback:
    """A tolerance at roundoff level makes the panel rule miss it, so the row
    is refined. The null-rule estimates of the halves level off at their
    roundoff, so the refinement stops once a step leaves the summed
    estimate no lower, and a RuntimeWarning names both numbers. Nothing is
    remembered: a repeat call refines and warns again, with the same bits.
    """

    @pytest.mark.parametrize("variances, tolerance", [
        ([1.0, 1e6], 1e-17),  # the refined estimate stays the rule's 3.0e-13
        ([1e-10, 1e10], 1e-15),  # about 7.4e-13
    ])
    def test_wide_spread_fallback_matches_panel_rule(
            self, monkeypatch, variances, tolerance):
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        panel = gmd.entropy_radial_quadrature(mix.variances)
        counter = CountingRefine(gmd._refine)
        monkeypatch.setattr(gmd, "_refine", counter)
        with pytest.warns(RuntimeWarning, match="missed the tolerance") as record:
            refined = gmd.entropy_radial_quadrature(mix.variances, tolerance)
        assert counter.calls == 1
        assert panel.std_error <= 1e-10
        assert refined.value == pytest.approx(panel.value, abs=1e-9)
        assert refined.std_error > tolerance
        assert abs(refined.value - mp_entropy(mix.variances)) <= mp_bound(refined, mix.variances)
        message = str(next(w.message for w in record
                           if issubclass(w.category, RuntimeWarning)))
        assert f"{refined.std_error:.3g}" in message
        assert f"{tolerance:.3g}" in message

        with pytest.warns(RuntimeWarning, match="missed the tolerance"):
            again = gmd.entropy_radial_quadrature(mix.variances, tolerance)
        assert counter.calls == 2
        assert estimate_bits([again]) == estimate_bits([refined])

    @pytest.mark.parametrize("cap", [100, 400])
    def test_refinement_stops_at_the_panel_cap(self, monkeypatch, cap):
        # Each step adds one panel per panel it halves and evaluates both
        # halves; the row's panels never pass the cap. On the 34-decade row
        # at 1e-13 every step lowers the summed estimate for more than 400
        # panels, so the cap, not the roundoff floor, stops it.
        monkeypatch.setattr(gmd, "_MAX_PANELS", cap)
        evaluated = record_panel_rule(monkeypatch)
        mix = gmd.equal_weight_zero_mean_mixture(10.0 ** np.linspace(-17.0, 17.0, 8))
        with pytest.warns(RuntimeWarning, match="missed the tolerance"):
            gmd.entropy_radial_quadrature(mix.variances, 1e-13)
        assert evaluated[0] == (1, gmd._PANELS)
        halves = sum(p for _, p in evaluated[1:])
        assert halves > 0
        assert all(p <= gmd._PANELS for _, p in evaluated)
        assert gmd._PANELS + halves // 2 <= cap

    def test_refinement_stops_at_the_roundoff_floor(self, monkeypatch):
        # At 1e-17 the 40-panel estimate of 3.04e-13 is already at the null
        # rule's roundoff: the first step's halves sum to 3.09e-13, so the
        # refinement stops after it, in at most 3 panel-rule calls, where
        # halving on to the 400-panel cap took 15. The step is dropped: the
        # result is the rule's panels, their estimate to the bit and their
        # value summed panel by panel.
        evaluated = record_panel_rule(monkeypatch)
        mix = gmd.equal_weight_zero_mean_mixture([1.0, 1e6])
        with pytest.warns(RuntimeWarning, match="missed the tolerance") as record:
            got = gmd.entropy_radial_quadrature(mix.variances, 1e-17)
        assert len(evaluated) <= 3
        rule = gmd.entropy_radial_quadrature(mix.variances)
        assert got.std_error == rule.std_error
        assert got.value == pytest.approx(rule.value, abs=ROUNDOFF_BITS)
        assert abs(got.value - mp_entropy(mix.variances)) <= mp_bound(got, mix.variances)
        assert f"{got.std_error:.3g} > tolerance 1e-17" in str(record[0].message)

    def test_refinement_stops_on_nan(self, monkeypatch):
        # A nan table makes every panel's error nan: no panel splits, the
        # row keeps the rule's panels, and the warning names the nan.
        mix = gmd.equal_weight_zero_mean_mixture([1.0, 4.0])
        rule = gmd.entropy_radial_quadrature(mix.variances)
        evaluated = record_panel_rule(monkeypatch)
        monkeypatch.setattr(gmd, "_TAIL_COEFFICIENTS", np.full((48, 2), math.nan))
        with pytest.warns(RuntimeWarning, match="error estimate nan > tolerance 1e-10"):
            got = gmd.entropy_radial_quadrature(mix.variances)
        assert evaluated == [(1, gmd._PANELS)]
        assert math.isnan(got.std_error)
        assert got.value == pytest.approx(rule.value, abs=1e-13)

    # Rows spanning 28, 30 and 34 decades: each 40-panel estimate misses
    # 1e-10 (by up to 66 times) although the rule is within 1e-13 of mp;
    # the refinement meets it.
    @pytest.mark.parametrize("n, lo, hi", [(8, 5.35, 33.35), (8, 0.0, 30.0), (8, -17.0, 17.0)])
    def test_wide_rows_refine_within_tolerance_of_mp(self, monkeypatch, n, lo, hi):
        v = 10.0 ** np.linspace(lo, hi, n)
        assert kernel_estimates(v[None], math.inf)[0].std_error > 1e-10
        counter = CountingRefine(gmd._refine)
        monkeypatch.setattr(gmd, "_refine", counter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors = gmd.entropy_radial_quadrature_rows(v[None], 1e-10)
        assert counter.calls == 1
        assert errors[0] <= 1e-10
        assert abs(values[0] - mp_entropy(v)) <= errors[0]

    def test_refined_row_holds_only_the_kernel_buffers(self, monkeypatch):
        # A 64-component row is a chunk of its own: one (64, 1, 40, 48) term
        # array and three (1, 40, 48) arrays. The refinement evaluates its
        # halves in slices of them, so the peak stays within the margin of
        # test_peak_memory_is_the_per_call_buffers. The row is the 28-decade
        # one above, each variance 8 times. At 3e-12 it is refined by 36
        # halves: one (64, 36, 48) term array would be 885 kB more.
        v = np.repeat(10.0 ** np.linspace(5.35, 33.35, 8), 8)[None]
        tolerance = 3e-12
        evaluated = record_panel_rule(monkeypatch)
        node_count = gmd._PANELS * len(gmd._GL_OFFSETS)
        buffers = 64 * node_count * 8 + 3 * node_count * 8
        tracemalloc.start()
        try:
            errors = gmd.entropy_radial_quadrature_rows(v, tolerance)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(p for _, p in evaluated[1:]) >= 36
        assert errors[0] <= tolerance
        assert peak <= buffers + 256_000


def kernel_estimates(variances, tolerance):
    """gmd._quadrature_rows on the rows of variances, as one EntropyEstimate
    per row."""
    values, errors = gmd._quadrature_rows(variances, tolerance)
    return [gmd.EntropyEstimate(v, e, 0) for v, e in zip(values.tolist(), errors.tolist())]


class TestImports:
    def test_package_import_loads_no_scipy(self):
        # Nor numpy.polynomial (the rule is literal), nor a thread or queue
        # (each shared call starts and joins its own helper thread).
        code = (
            "import sys, threading, sm_noma, sm_noma.cli, sm_noma.runner\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "print('numpy.polynomial' in sys.modules, threading.active_count(),\n"
            "      'queue' in sys.modules)\n"
            "import scipy.integrate\n"
            "print(sm_noma.gmd.integrate is scipy.integrate)\n"
        )
        assert run_python(code).split("\n")[:3] == ["[]", "False 1 False", "True"]


def run_python(code, timeout=None):
    """The standard output of code run by a fresh interpreter that imports
    this checkout's sm_noma; a nonzero exit or the timeout, in seconds,
    raises."""
    src = str(Path(gmd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=timeout).stdout


def last_axis_logsumexp(a):
    """The kernel's log-sum-exp before its component-first layout: max +
    log(sum(exp(a - max))) along the last axis, the exponentials added in
    order by np.cumsum; a maximum of -inf, +inf or nan shifts by 0."""
    a_max = np.max(a, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.cumsum(np.exp(a - shift), axis=-1)[..., -1]
        return np.log(s) + shift[..., 0]


def oracle_panel_rule(log_coef, inv_v, edges, order):
    """One composite Gauss-Legendre rule of -pi f(u) log2 f(u), panels by
    nodes by components, as the kernel computed it one order at a time:
    the integral and the (panels, order) integrand values."""
    x, w = np.polynomial.legendre.leggauss(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    u = (b - a) / 2.0 * (x[None, :] + 1.0) + a
    log_f = last_axis_logsumexp(log_coef[None, None, :] - u[..., None] * inv_v)
    g = -math.pi * np.exp(log_f) * log_f / gmd.LN2
    return float(np.sum((b - a) / 2.0 * w[None, :] * g)), g


_X48, _W48 = np.polynomial.legendre.leggauss(48)
_TAIL = np.ascontiguousarray(np.polynomial.legendre.legvander(_X48, 47)[:, 46:]
                             * (_W48[:, None] * (np.array([93.0, 95.0]) / 2.0)))


def null_rule_error(g, edges):
    """The kernel's error estimate from one row's order-48 integrand values
    g (panels, 48): the sum over the panels of each one's width times
    |c46| + |c47|, the last two Legendre coefficients of the degree-47
    polynomial through its values."""
    tail = np.abs(np.ascontiguousarray(g) @ _TAIL).sum(axis=-1)
    return float(np.sum((edges[1:] - edges[:-1]) * tail))


def oracle_radial_quadrature(mixture):
    """The panel rule as a scalar oracle that calls no gmd function:
    np.geomspace edges, one order-48 pass with last_axis_logsumexp
    and the null-rule error estimate from its values. It is the kernel's
    oracle on rows that meet their tolerance; rows that miss it are
    refined, and their oracles are mp_entropy and their own estimate."""
    w, v = mixture.weights, mixture.variances
    log_coef = np.log(w) - np.log(math.pi * v)
    inv_v = 1.0 / v
    u_max = float(np.max(v)) * math.log(len(v) / gmd.TAIL_MASS)
    edges = np.concatenate([[0.0], np.geomspace(float(np.min(v)) / 8.0, u_max, 40)])
    value, g = oracle_panel_rule(log_coef, inv_v, edges, 48)
    return gmd.EntropyEstimate(value, null_rule_error(g, edges), 0)


@st.composite
def wide_equal_weight_mixtures(draw, max_components=20):
    """Equal-weight zero-mean mixtures of 1..max_components components whose
    variances span up to 8 decades, some of them forced equal."""
    n = draw(st.integers(1, max_components))
    base = draw(st.floats(-6.0, 6.0))
    spread = draw(st.floats(0.0, 8.0))
    positions = draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    v = 10.0 ** (base + spread * positions)
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=n))
    v[duplicates] = v[draw(st.integers(0, n - 1))]
    return gmd.equal_weight_zero_mean_mixture(v)


class TestComponentMajorKernel:
    """The component-first kernel against the layout it replaced."""

    @given(wide_equal_weight_mixtures())
    @settings(max_examples=200, deadline=None)
    def test_quadrature_matches_scalar_oracle_bit_for_bit(self, mix):
        tolerance = 1e-10
        expected = oracle_radial_quadrature(mix)
        assert expected.std_error <= tolerance  # so the panel rule, not the fallback
        assert gmd.entropy_radial_quadrature(mix.variances, tolerance) == expected

    @given(st.lists(st.tuples(st.floats(-300.0, 280.0), st.floats(0.5, 20.0)),
                    min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_panel_edges_match_geomspace(self, ends):
        lo = np.array([10.0**log_lo for log_lo, _ in ends])
        hi = np.array([10.0 ** (log_lo + decades) for log_lo, decades in ends])
        expected = [np.concatenate([[0.0], np.geomspace(a, b, 40)]) for a, b in zip(lo, hi)]
        assert gmd._panel_edges(lo, hi).tobytes() == np.array(expected).tobytes()


class TestArbitraryPrecisionOracle:
    """The kernel against mp_entropy, which shares no code with it. Each
    mp row costs up to about a second, so the examples are few; the wide
    refined rows are in TestQuadratureFallback."""

    @given(wide_equal_weight_mixtures(max_components=16))
    @settings(max_examples=12, deadline=None)
    def test_kernel_within_its_estimate_of_mp(self, mix):
        tolerance = 1e-10
        est = gmd.entropy_radial_quadrature(mix.variances, tolerance)
        h = mp_entropy(mix.variances)
        assert abs(est.value - h) <= mp_bound(est, mix.variances) <= tolerance
        # The closed-form bounds sandwich it; at L = 1 the upper one is h.
        assert gmd.entropy_lower_bound(mix) <= h <= gmd.entropy_upper_bound(mix) + 1e-12

    @pytest.mark.parametrize("log_variances", [np.linspace(-3.0, 3.0, 8),
                                               np.linspace(0.0, 12.0, 5)])
    def test_estimate_bounds_an_under_resolved_rule(self, monkeypatch, log_variances):
        # On 4 panels these rows are off mp by 2.4e-3 and 5.1 bits, so the
        # null rule, not the roundoff and truncation allowance, is what
        # covers the distance (the estimates are 0.72 and 5.8 bits).
        monkeypatch.setattr(gmd, "_PANELS", 4)
        monkeypatch.setattr(gmd, "_PANEL_INDEX", np.arange(4.0))
        v = 10.0**log_variances
        est = kernel_estimates(v[None], math.inf)[0]
        distance = abs(est.value - mp_entropy(v))
        assert 1e-3 < distance <= mp_bound(est, v)


def estimate_bits(estimates):
    return [(e.value.hex(), e.std_error.hex(), e.sample_count) for e in estimates]


def chunk_rows(n):
    """Rows per kernel chunk for rows of n components, from the kernel's
    constants."""
    return max(1, min(gmd._CHUNK_ROWS, gmd._CHUNK_COMPONENTS // n))


@st.composite
def variance_rows(draw):
    """(N, L) variances for L = 1..64 and N up to two kernel chunks and one
    row past them; each row spans up to 8 decades, some entries equal."""
    n = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 2 * chunk_rows(n) + 1))
    base = draw(st.floats(-6.0, 6.0))
    spread = draw(st.floats(0.0, 8.0))
    positions = draw(arrays(np.float64, (rows, n), elements=st.floats(0.0, 1.0)))
    v = 10.0 ** (base + spread * positions)
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=n))
    v[:, duplicates] = v[:, draw(st.integers(0, n - 1)), None]
    return v


class TestRowKernel:
    """entropy_radial_quadrature_rows and its one-row callers against
    oracle_radial_quadrature, the scalar rule they replaced, bit for bit."""

    @given(variance_rows(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_scalar_rule(self, v, force_refinement):
        expected = [oracle_radial_quadrature(gmd.equal_weight_zero_mean_mixture(row))
                    for row in v]
        tolerance = 1e-10
        if force_refinement:
            # A tolerance just below the largest panel-rule error sends the
            # rows that have it to the refinement and lets the rest pass.
            errors = [e.std_error for e in expected]
            top = max(errors)
            assume(top > 0.0 and errors.count(top) <= 2)
            tolerance = max([e for e in errors if e < top] + [top / 2])
        counter = CountingRefine(gmd._refine)
        saved, gmd._refine = gmd._refine, counter
        try:
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                got = kernel_estimates(v, tolerance)
        finally:
            gmd._refine = saved
        refined = [e.std_error > tolerance for e in expected]
        assert counter.calls == sum(refined)
        assert (counter.calls > 0) == force_refinement
        # Rows that meet the tolerance keep the rule's bits. A refined row
        # stays within the two estimates of the rule's value, and warns
        # where its own still misses the tolerance.
        for g, e, r in zip(got, expected, refined):
            if not r:
                assert estimate_bits([g]) == estimate_bits([e])
            else:
                assert abs(g.value - e.value) <= g.std_error + e.std_error + ROUNDOFF_BITS
        missed = sum(r and g.std_error > tolerance for g, r in zip(got, refined))
        assert len(record) == missed
        assert all("refinement missed the tolerance" in str(w.message) for w in record)

    def test_rows_do_not_depend_on_position(self):
        v = 10.0 ** np.random.default_rng(3).uniform(-2, 2, (6, 4))
        v[4] = v[1]
        values, errors = gmd.entropy_radial_quadrature_rows(v)
        # A repeated row gives its twin's bits, and reversed rows the
        # reversed results.
        assert (values[4], errors[4]) == (values[1], errors[1])
        again = gmd.entropy_radial_quadrature_rows(v[::-1])
        assert again[0].tobytes() == values[::-1].tobytes()
        assert again[1].tobytes() == errors[::-1].tobytes()
        # A one-row call on the equal-weight mixture of a row equals its row.
        mix = gmd.equal_weight_zero_mean_mixture(v[2])
        est = gmd.entropy_radial_quadrature(mix.variances)
        assert (est.value, est.std_error) == (values[2], errors[2])
        assert estimate_bits([est]) == estimate_bits([oracle_radial_quadrature(mix)])
        # A (R, G, L) stack gives the bits of its flattened (R G, L) call,
        # and each cell those of its row alone: the Gaussian closed form
        # with error 0 at L = 1, else the one-mixture quadrature.
        for n in (1, 4, 16):
            stack = 10.0 ** np.random.default_rng(n).uniform(-2, 2, (3, 2, n))
            values, errors = gmd.entropy_radial_quadrature_rows(stack)
            flat = gmd.entropy_radial_quadrature_rows(stack.reshape(6, n))
            assert values.shape == errors.shape == (3, 2)
            assert values.tobytes() == flat[0].tobytes()
            assert errors.tobytes() == flat[1].tobytes()
            exact = [gmd.EntropyEstimate(gmd.gaussian_entropy(row[0]), 0.0, 0) if n == 1
                     else gmd.entropy_radial_quadrature(row)
                     for row in stack.reshape(6, n)]
            assert estimate_bits(exact) == estimate_bits(
                [gmd.EntropyEstimate(x, e, 0) for x, e in zip(values.flat, errors.flat)])
            assert (errors == 0.0).all() == (n == 1)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
           arrays(np.float64, st.integers(1, 8), elements=st.floats(-299.0, 300.0)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_component_rows_call_once_per_distinct_variance(self, lead, log_pool, seed):
        # Rows drawn with repeats from a pool of variances, then the
        # noise-only block of a sweep (noise power alone at every
        # realization and SNR): each cell has the bits of its own
        # math.log2, from one gaussian_entropy call per distinct variance.
        pool = 10.0**log_pool
        noise_only = signal_variances(np.ones((200, 1, 2)), (0.8, 0.2), np.ones((41, 1)), 1.0, 3)
        for stack in (np.random.default_rng(seed).choice(pool, (*lead, 1)), noise_only):
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gmd, "gaussian_entropy",
                              lambda x, f=gmd.gaussian_entropy: calls.append(x) or f(x))
                values, errors = gmd.entropy_radial_quadrature_rows(stack)
            expected = [math.log2(math.pi * math.e * x) for x in stack.ravel()]
            assert values.shape == errors.shape == stack.shape[:-1]
            assert values.tobytes() == np.reshape(expected, stack.shape[:-1]).tobytes()
            assert (errors == 0.0).all()
            assert len(calls) <= len(np.unique(stack))
        assert len(calls) == 1

    def test_integer_parameters_give_float_bits(self):
        ints = gmd.GaussianMixture([1], [2])
        assert ints.weights.dtype == ints.variances.dtype == np.float64
        assert gmd.entropy_radial_quadrature([2]) == gmd.entropy_radial_quadrature([2.0])
        assert gmd.entropy_radial_quadrature([2.0]).value == pytest.approx(
            gmd.gaussian_entropy(2.0), abs=1e-9)

    @pytest.mark.parametrize("variances", [
        np.ones(3), np.ones((0, 2)), [[1.0, 0.0]], [[1.0, np.inf]], [[1.0, np.nan]],
        [[np.nan]], [[0.0]], np.zeros((2, 3, 1)), [[1.0, -np.inf]],
        [[1.0, gmd.VARIANCE_FLOOR]], [[2.0, np.nextafter(gmd.VARIANCE_FLOOR, 0.0)]],
        np.ones((1, 0))])
    def test_bad_rows_rejected(self, monkeypatch, variances):
        # The rows kernel takes the stacked rows, the one-row estimators
        # their first row: the same fault, a 0-d row for the 1-D input, and
        # an empty row for the empty ones. Each raises before any work, so
        # the generator is left as it was.
        def no_work(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(gmd, "_quadrature_rows", no_work)
        monkeypatch.setattr(gmd, "_radial_draws", no_work)
        v = np.asarray(variances, dtype=float)
        row = v[0] if v.size else v.ravel()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for call in (lambda: gmd.entropy_radial_quadrature_rows(variances),
                     lambda: gmd.entropy_radial_quadrature(row),
                     lambda: gmd.entropy_monte_carlo(row, rng, 100)):
            with pytest.raises(ValueError, match="variances"):
                call()
        assert rng.bit_generator.state == state

    def test_truncation_point_overflow_rejected_before_the_kernel(self, monkeypatch):
        # max(v) ln(L / TAIL_MASS) of 1e307 overflowed: overflow warnings,
        # then scipy's bare ValueError about infinite break points.
        def no_work(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(gmd, "_panel_rule", no_work)
        v = np.array([[1.0, 1e307]])
        calls = [lambda: gmd.entropy_radial_quadrature_rows(v),
                 lambda: gmd.entropy_radial_quadrature(v[0])]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"largest component variance 1e\+307 .* "
                                                     r"at L = 2 it must be below 3.037e\+306"):
                    call()

    @pytest.mark.parametrize("n", [4, 16])
    def test_chunk_width_does_not_change_bits(self, monkeypatch, n):
        # Rows for three chunks. Row 1's two smallest variances are equal,
        # so near u = 0 its largest terms tie. Row 2 spans the most decades, so
        # the tolerance below its estimate sends it alone to the refinement.
        # Each width runs on the calling thread alone and, with every call
        # shared, on both workers.
        rng = np.random.default_rng(n)
        v = 10.0 ** rng.uniform(-1.0, 1.0, (2 * chunk_rows(n) + 1, n))
        v[1, :2] = v[1].min()
        v[2] = 10.0 ** np.linspace(-4.0, 4.0, n)
        errors = gmd.entropy_radial_quadrature_rows(v)[1]
        assert errors.argmax() == 2
        tolerance = float(np.sort(errors)[-2])
        threads = chunk_threads(monkeypatch, lambda: shared > 1 or both_began(threads)())
        results = []
        for width in (1, gmd._CHUNK_ROWS):
            for shared in (10**9, 1):
                monkeypatch.setattr(gmd, "_CHUNK_ROWS", width)
                monkeypatch.setattr(gmd, "_SHARED_CHUNKS", shared)
                counter = CountingRefine(gmd._refine)
                monkeypatch.setattr(gmd, "_refine", counter)
                threads.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    values, errors = gmd.entropy_radial_quadrature_rows(v, tolerance)
                assert counter.calls == 1
                assert len(threads) == (1 if shared > 1 else gmd._workers(3))
                results.append((values.tobytes(), errors.tobytes()))
        assert results[1:] == results[:1] * 3

    def test_peak_memory_is_the_per_call_buffers(self):
        # At L = 16 a chunk is 4 rows, and 600 rows are 150 chunks, enough
        # to share, so the call builds a buffer set for each of its two
        # workers (one with one usable core), the helper's before its
        # thread starts. A set is one (16, 4, 40, 48) term array and three
        # (4, 40, 48) arrays (nodes, log f, g); the margin covers the
        # outputs, each chunk's (4, 40) set-up arrays and numpy's ufunc
        # buffers (up to 64 kB per broadcast operand, one at a time per
        # worker), but not a second term array (983 kB) in any worker.
        v = shared_rows(16, 150, seed=16)
        node_count = chunk_rows(16) * gmd._PANELS * len(gmd._GL_OFFSETS)
        buffers = 16 * node_count * 8 + 3 * node_count * 8
        tracemalloc.start()
        try:
            gmd.entropy_radial_quadrature_rows(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gmd._workers(150) * buffers + 256_000

    def test_peak_memory_below_the_sharing_threshold(self, monkeypatch):
        # One chunk fewer than the threshold runs on the calling thread
        # alone, with one buffer set.
        v = shared_rows(16, gmd._SHARED_CHUNKS - 1, seed=16)
        threads = chunk_threads(monkeypatch)
        node_count = chunk_rows(16) * gmd._PANELS * len(gmd._GL_OFFSETS)
        buffers = 16 * node_count * 8 + 3 * node_count * 8
        tracemalloc.start()
        try:
            gmd.entropy_radial_quadrature_rows(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert threads == {threading.current_thread()}
        assert peak <= buffers + 256_000


class TestSharedKernel:
    """_quadrature_rows on the calling thread and the helper thread its
    gmd._share call starts: the same bits as on one worker, warnings in the
    calling thread, errors raised there, no thread left after the call, and
    nested, concurrent and forked calls that finish."""

    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    def test_shared_rows_equal_one_worker(self, monkeypatch, n, extra):
        # One chunk fewer than the threshold, the threshold, and one row
        # more (a last chunk of one row).
        v = shared_rows(n, gmd._SHARED_CHUNKS, seed=n)
        v = v[: len(v) - chunk_rows(n)] if extra < 0 else np.vstack([v, v[:extra]])
        shared = extra >= 0 and gmd._workers(2) == 2
        threads = chunk_threads(monkeypatch, lambda: not shared or both_began(threads)())
        values, errors = gmd.entropy_radial_quadrature_rows(v)
        assert len(threads) == (2 if shared else 1)
        monkeypatch.setattr(gmd, "_usable_cores", lambda: 1)
        threads.clear()
        alone = gmd.entropy_radial_quadrature_rows(v)
        assert threads == {threading.current_thread()}
        assert (values.tobytes(), errors.tobytes()) == (alone[0].tobytes(), alone[1].tobytes())

    def test_refining_row_warns_in_the_calling_thread(self, monkeypatch):
        # The last row's estimate sits at its roundoff floor, above every
        # other row's: at a tolerance between them it alone is refined, and
        # misses. It is in the last chunk, and the calling thread's first
        # chunk waits until it is refined, so the helper refines it.
        v = shared_rows(4, gmd._SHARED_CHUNKS)
        v[-1] = [1.0, 1.0, 1e6, 1e6]
        errors = gmd.entropy_radial_quadrature_rows(v)[1]
        assert errors.argmax() == len(v) - 1
        tolerance = float(np.sort(errors)[-2])
        counter = CountingRefine(gmd._refine)
        refined_by = []

        def refine(*args):
            refined_by.append(threading.current_thread())
            return counter(*args)

        monkeypatch.setattr(gmd, "_refine", refine)
        caller = threading.current_thread()
        chunk_threads(monkeypatch, lambda: (threading.current_thread() is not caller
                                            or gmd._workers(2) < 2 or counter.calls > 0))
        with pytest.warns(RuntimeWarning, match="refinement missed the tolerance") as record:
            values, errors = gmd.entropy_radial_quadrature_rows(v, tolerance)
        assert counter.calls == 1
        if gmd._workers(2) == 2:
            assert refined_by[0] is not threading.current_thread()
        missed = [w for w in record if issubclass(w.category, RuntimeWarning)]
        assert len(missed) == 1
        assert f"{errors[-1]:.3g} > tolerance" in str(missed[0].message)
        # At the caller's line, as from a one-worker call.
        assert missed[0].filename == __file__

    def test_error_in_a_helper_chunk_stops_the_caller(self, monkeypatch):
        # The helper's first chunk waits (up to 10 s) until the calling
        # thread has begun its own, then raises. The calling thread's chunk
        # waits until it has; each worker then stops at its next item: the
        # caller finishes that chunk alone, and the helper runs no other.
        if gmd._workers(2) < 2:
            pytest.skip("one usable core: no helper")
        began, raised = threading.Event(), threading.Event()
        panel_rule = gmd._panel_rule
        caller = threading.current_thread()
        ran = []

        def failing(*args):
            me = threading.current_thread()
            if me is not caller and not raised.is_set():
                began.wait(10.0)
                raised.set()
                raise ArithmeticError("in the helper")
            began.set()
            raised.wait(10.0)
            ran.append(me)
            return panel_rule(*args)

        monkeypatch.setattr(gmd, "_panel_rule", failing)
        with pytest.raises(ArithmeticError, match="in the helper"):
            gmd.entropy_radial_quadrature_rows(shared_rows(16, gmd._SHARED_CHUNKS))
        assert raised.is_set()
        assert ran == [caller]

    def test_every_worker_function_is_built_on_the_caller(self, monkeypatch):
        # glibc gives each thread its own malloc arena, so the helper's
        # buffers are allocated on the calling thread, where later calls
        # reuse their pages. Both workers run items of a shared kernel call
        # and of a Monte Carlo mi_rows call: each waits before its first
        # item (up to 10 s) until both have begun one.
        if gmd._workers(2) < 2:
            pytest.skip("one usable core: no helper")
        built_on, ran_on = [], set()
        share = gmd._share

        def recording_share(start_worker, items, *args):
            def start():
                built_on.append(threading.current_thread())
                work = start_worker()

                def run(item):
                    ran_on.add(threading.current_thread())
                    deadline = time.monotonic() + 10.0
                    while len(ran_on) < 2 and time.monotonic() < deadline:
                        time.sleep(1e-4)
                    return work(item)
                return run
            return share(start, items, *args)

        monkeypatch.setattr(gmd, "_share", recording_share)
        gains = np.random.default_rng(1).exponential(size=(8, 2, 2))
        calls = [
            lambda: gmd.entropy_radial_quadrature_rows(shared_rows(16, gmd._SHARED_CHUNKS)),
            lambda: mi.mi_rows(gains, (0.8, 0.2), 10.0, 1.0, ((1, 1),), "monte_carlo",
                               rngs=lambda cell: np.random.default_rng(cell), samples=500),
        ]
        for call in calls:
            built_on.clear()
            ran_on.clear()
            call()
            assert len(ran_on) == 2
            assert built_on == [threading.current_thread()] * 2

    def test_concurrent_callers_each_finish(self):
        # Four calling threads, more than the cores, share items and run
        # kernel calls at once under a 1 us switch interval: each of a
        # call's items runs exactly once, and each kernel call keeps the
        # bits of a call made alone.
        v = shared_rows(4, gmd._SHARED_CHUNKS)
        expected = [a.tobytes() for a in gmd.entropy_radial_quadrature_rows(v)]
        results = {}

        def caller(i):
            seen = []
            gmd._share(lambda: seen.append, range(5000))
            got = [a.tobytes() for a in gmd.entropy_radial_quadrature_rows(v)]
            results[i] = (sorted(seen) == list(range(5000)), got == expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == {i: (True, True) for i in range(4)}

    # Each of the next three runs in a fresh interpreter: the first so that
    # no thread of an earlier test is counted, the other two under a
    # timeout, so that a call stuck by a regression fails the test.
    SHARED_CALL = (
        "import os, sys, threading, time\n"
        "import numpy as np\n"
        "from sm_noma import gmd\n"
        "v = 10.0 ** np.random.default_rng(0).uniform(-2.0, 2.0, (gmd._SHARED_CHUNKS * 8, 4))\n"
        "cores, gmd._usable_cores = gmd._usable_cores, lambda: 1\n"
        "expected = [a.tobytes() for a in gmd.entropy_radial_quadrature_rows(v)]\n"
        "gmd._usable_cores = cores\n"
        "def same():\n"
        "    return [a.tobytes() for a in gmd.entropy_radial_quadrature_rows(v)] == expected\n"
    )

    def test_no_thread_outlives_a_shared_call(self):
        # After a shared kernel call and after a Monte Carlo sweep of eight
        # cells the process runs as many threads as before it.
        code = self.SHARED_CALL + (
            "from sm_noma import mi\n"
            "before = threading.active_count()\n"
            "assert same()\n"
            "after_rows = threading.active_count()\n"
            "gains = np.random.default_rng(1).exponential(size=(8, 2, 2))\n"
            "rngs = lambda cell: np.random.default_rng(cell)\n"
            "mi.mi_rows(gains, (0.8, 0.2), 10.0, 1.0, ((1, 1),), 'monte_carlo', rngs=rngs,\n"
            "           samples=500)\n"
            "print(before, after_rows, threading.active_count())\n"
        )
        assert run_python(code, timeout=60.0).split() == ["1", "1", "1"]

    def test_shared_call_in_a_helper_task_finishes(self):
        # An outer call of two items: the one on the helper makes a shared
        # kernel call, which starts a helper of its own, while the calling
        # thread's item waits (up to 30 s) for it.
        if gmd._workers(2) < 2:
            pytest.skip("one usable core: no helper")
        code = self.SHARED_CALL + (
            "done, got = threading.Event(), []\n"
            "def run(item):\n"
            "    if threading.current_thread() is threading.main_thread():\n"
            "        done.wait(30.0)\n"
            "    else:\n"
            "        got.append(same())\n"
            "        done.set()\n"
            "gmd._share(lambda: run, range(2))\n"
            "print(done.is_set(), got)\n"
        )
        assert run_python(code, timeout=60.0).strip() == "True [True]"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_shared_call_in_a_forked_child_finishes(self):
        # After a shared call in the parent, the child's shared call must
        # finish, with the one-worker bits. The parent kills a child that
        # has not exited within 30 s.
        code = self.SHARED_CALL + (
            "assert same()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if same() else 1)\n"
            "deadline = time.monotonic() + 30.0\n"
            "while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:\n"
            "    time.sleep(0.01)\n"
            "if status[0] == 0:\n"
            "    os.kill(pid, 9)\n"
            "    sys.exit('the forked child hung')\n"
            "print(os.waitstatus_to_exitcode(status[1]))\n"
        )
        assert run_python(code, timeout=60.0).strip() == "0"


class TestToleranceRejected:
    """A tolerance that is not a finite real number > 0 raises ValueError
    at every entropy entry point before any quadrature work."""

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf, "1e-10", True],
                             ids=["negative", "zero", "nan", "inf", "string", "bool"])
    def test_rejected_before_the_kernel(self, monkeypatch, tolerance):
        def no_work(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(gmd, "_quadrature_rows", no_work)
        monkeypatch.setattr(gmd, "entropy_monte_carlo", no_work)
        monkeypatch.setattr(gmd, "integrate", None)
        v = np.array([[1.0, 2.0, 3.0, 4.0]])
        # Under Monte Carlo, gains of M = 2 give every block two or more
        # components, so only mi_rows' own check stands before the sampler.
        calls = [
            lambda: gmd.entropy_radial_quadrature_rows(v, tolerance),
            lambda: gmd.entropy_radial_quadrature(v[0], tolerance),
            *(lambda method=method: mi.mi_rows(
                v.reshape(1, 2, 2), (4.0, 1.0), 10.0, 1.0, ((1, 1), (2, 2)), method,
                rngs=np.random.default_rng, samples=100, tolerance=tolerance)
              for method in ("radial_quadrature", "monte_carlo")),
            lambda: sm_tdma_rows(v, np.array([4.0, 1.0]), 10.0, 1.0, tolerance),
            # One-component rows take the closed form, after the same check.
            lambda: gmd.entropy_radial_quadrature_rows(v.reshape(2, 2, 1), tolerance),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite real number > 0"):
                call()

    @pytest.mark.parametrize("tolerance", [1e-10, 1, np.float64(1e-9)])
    def test_finite_positive_reals_accepted(self, tolerance):
        v = [1.0, 2.0]
        assert gmd.entropy_radial_quadrature(v, tolerance) == gmd.entropy_radial_quadrature(v)


class TestGaussLegendreRule:
    """The kernel's literal order-48 rule and its null-rule table."""

    def test_literals_are_numpys_rule_to_the_bit(self):
        x, w = np.polynomial.legendre.leggauss(48)
        assert gmd._GL_NODES.tobytes() == x.tobytes()
        assert gmd._GL_WEIGHTS.tobytes() == w.tobytes()
        tail = np.polynomial.legendre.legvander(x, 47)[:, 46:]
        assert gmd._last_legendre(gmd._GL_NODES, 47).tobytes() == tail.tobytes()
        assert gmd._TAIL_COEFFICIENTS.tobytes() == _TAIL.tobytes()

    def test_moments_up_to_degree_94(self):
        # Independent of numpy's eigenvalue solver: the rule integrates x^k
        # over [-1, 1] exactly up to degree 95, to 2 / (k + 1) for even k
        # (measured worst 3.3e-13 relative) and 0 for odd k.
        x, w = gmd._GL_NODES, gmd._GL_WEIGHTS
        assert (x == -x[::-1]).all() and (w == w[::-1]).all()
        assert (np.diff(x) > 0.0).all() and (w > 0.0).all()
        for k in range(95):
            moment = math.fsum((w * x**k).tolist())
            if k % 2:
                assert abs(moment) <= 1e-16
            else:
                assert moment == pytest.approx(2.0 / (k + 1), rel=1e-12, abs=0.0)


class TestNullRuleEstimate:
    """The kernel's error estimate: the last two Legendre coefficients of
    each panel's interpolant, against the order-24 versus order-48
    difference it replaced and an 800-panel reference."""

    def test_table_gives_the_last_interpolant_coefficients(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            c = rng.standard_normal(48) * 10.0 ** rng.uniform(-3, 3)
            values = np.polynomial.legendre.legval(gmd._GL_NODES, c)
            got = values @ gmd._TAIL_COEFFICIENTS
            assert got == pytest.approx(c[46:], rel=1e-9, abs=1e-12 * np.abs(c).max())

    def test_no_less_reliable_than_order_difference(self, monkeypatch):
        # 3-12 panels leave most rows under-resolved. A row's true error is
        # its distance from the same integral on 800 panels; rows below
        # 1e-12, where the reference's own roundoff counts, are not scored.
        rng = np.random.default_rng(2017)
        under_null = under_difference = scored = 0
        for _ in range(120):
            panels = int(rng.integers(3, 13))
            n = int(rng.integers(1, 17))
            v = 10.0 ** (rng.uniform(-3.0, 3.0) + rng.uniform(1.0, 16.0) * rng.uniform(0, 1, n))
            w = np.full(n, 1.0) / n
            log_coef = np.log(w) - np.log(math.pi * v)
            lo, hi = v.min() / 8.0, v.max() * math.log(n / gmd.TAIL_MASS)
            monkeypatch.setattr(gmd, "_PANELS", panels)
            monkeypatch.setattr(gmd, "_PANEL_INDEX", np.arange(float(panels)))
            est = kernel_estimates(v[None], math.inf)[0]
            edges = gmd._panel_edges(np.array([lo]), np.array([hi]))[0]
            difference = abs(oracle_panel_rule(log_coef, 1.0 / v, edges, 48)[0]
                             - oracle_panel_rule(log_coef, 1.0 / v, edges, 24)[0])
            fine_edges = np.concatenate([[0.0], np.geomspace(lo, hi, 800)])
            reference = oracle_panel_rule(log_coef, 1.0 / v, fine_edges, 48)[0]
            true_error = abs(est.value - reference)
            if true_error > 1e-12:
                scored += 1
                under_null += est.std_error < true_error
                under_difference += difference < true_error
        assert scored >= 30
        assert under_null <= under_difference

    def test_default_panels_meet_the_tolerance_up_to_24_decades(self):
        # Both ends of every spread are taken; from about 26 decades the
        # estimate can exceed 1e-10 and send the row to the refinement.
        rng = np.random.default_rng(24)
        worst = 0.0
        for spread in np.arange(0.0, 24.5, 0.5):
            for n in (1, 2, 3, 4, 8, 16, 64):
                positions = rng.uniform(0.0, 1.0, (6, n))
                positions[:, 0], positions[:, -1] = 0.0, 1.0
                v = 10.0 ** (rng.uniform(-8.0, 8.0, (6, 1)) + spread * positions)
                estimates = kernel_estimates(v, math.inf)
                worst = max(worst, *(e.std_error for e in estimates))
        assert worst <= 1e-10


def zero_means(mixture):
    """The means mu_l = 0 that the general-mean oracles below take."""
    return np.zeros(len(mixture), dtype=complex)


def general_terms(mixture, points):
    """The (L, *points.shape) terms log(beta_l / (pi sigma_l^2))
    - |a - mu_l|^2 / sigma_l^2 of the general formula for any means."""
    a = np.asarray(points, dtype=complex)
    per_component = (len(mixture),) + (1,) * a.ndim
    log_coef = np.log(mixture.weights) - np.log(math.pi * mixture.variances)
    sq = np.abs(a - zero_means(mixture).reshape(per_component)) ** 2
    return log_coef.reshape(per_component) - sq / mixture.variances.reshape(per_component)


def oracle_log_pdf(mixture, points):
    """log f from the general terms by last_axis_logsumexp over the
    components, laid along a contiguous last axis."""
    return last_axis_logsumexp(
        np.ascontiguousarray(np.moveaxis(general_terms(mixture, points), 0, -1)))


def assert_within_ulps_of_scipy_logsumexp(got, terms):
    """got, a log-sum-exp over the first axis of terms, against scipy's
    logsumexp: of its type, equal where it is -inf, +inf or nan, and
    elsewhere within 4 ulps of the larger of its magnitude and the largest
    finite term's. log f = log(s) + m rounds twice, and where log f is
    near 0 the two cancel, so the ulps of log f alone would be too fine."""
    with np.errstate(divide="ignore"):  # every term -inf
        expected = scipy_logsumexp(terms, axis=0)
    assert type(got) is type(expected)
    got, expected = np.asarray(got), np.asarray(expected)
    finite = np.isfinite(expected)
    assert np.array_equal(got[~finite], expected[~finite], equal_nan=True)
    largest = np.max(np.abs(terms), axis=0, where=np.isfinite(terms), initial=0.0)
    scale = np.maximum(np.abs(expected), largest)[finite]
    assert (np.abs(got[finite] - expected[finite]) <= 4 * np.spacing(scale)).all()


def oracle_sample(mixture, rng, count):
    """The draws in one expression: indices, real parts, imaginary parts."""
    idx = rng.choice(len(mixture), size=count, p=mixture.weights)
    x = rng.standard_normal(count)
    y = rng.standard_normal(count)
    return zero_means(mixture)[idx] + np.sqrt(mixture.variances[idx] / 2.0) * (x + 1j * y)


def oracle_radial_draws(mixture, rng, count):
    """|a|^2 = (sigma^2 / 2) (z1^2 + z2^2) of each draw from the stream
    oracle_sample reads, in one expression."""
    idx = rng.choice(len(mixture), size=count, p=mixture.weights)
    z1, z2 = rng.standard_normal(count), rng.standard_normal(count)
    return (z1 * z1 + z2 * z2) * (mixture.variances[idx] / 2.0)


def oracle_entropy_monte_carlo(mixture, rng, samples):
    """-log2 f of every draw at once by the direct mixture density, in one
    (L, samples) array: |a|^2 from oracle_radial_draws, then -log2 f =
    -(log(sum_l c_l exp(-|a|^2 / sigma_l^2)) - log(pi v)) / ln 2, with v
    the largest variance and c_l = beta_l v / sigma_l^2."""
    w, v = mixture.weights, mixture.variances
    abs_sq = oracle_radial_draws(mixture, rng, samples)
    v_max = float(v.max())
    neg_log2_f = -(np.log(np.sum((w * (v_max / v))[:, None] * np.exp(
        abs_sq * (-1.0 / v)[:, None]), axis=0)) - math.log(math.pi * v_max)) / gmd.LN2
    std_error = 0.0
    if samples > 1:
        std_error = float(np.std(neg_log2_f, ddof=1) / math.sqrt(samples))
    return gmd.EntropyEstimate(float(np.mean(neg_log2_f)), std_error, samples)


U = 2.0**-53  # the unit roundoff of float64


def log_sum_exp_tolerance(mixture, points):
    """The log-sum-exp oracle's estimate at the draws points
    (oracle_log_pdf, the independent check of entropy_monte_carlo), and
    bounds on how far entropy_monte_carlo's value and std error, at the
    same draws, may be from it by rounding alone: (estimate, value bound,
    std error bound), in bits.

    Per draw, the bound counts every rounding of both computations to first
    order in the unit roundoff u = 2^-53, taking numpy's exp and log to be
    within 4 ulps (8u) and hypot within 1 ulp (2u). With t_l = |a|^2 /
    sigma_l^2, w_l component l's share of f, tau = sum_l w_l t_l and
    A = max_l (|log beta_l| + |log pi sigma_l^2|) (at least |log pi v|), a
    relative error e_l in each term moves log f by at most sum_l w_l e_l:
    - the oracle: |a|^2 = fl(hypot(s z1, s z2))^2, s = fl(sqrt(sigma^2 /
      2)), is within 9u; with the division and the subtraction from
      log_coef (two logs and a product, 10u A) each term is within
      11u t_l + 10u A + 2u; the shift, the exps, the sum of L terms, the
      log of a sum in [1, L] and adding the maximum give
      11u tau + 10u A + (L + 10)u + 9u log L + u |log f|;
    - the radial |a|^2 is within 3u, so its log-sum-exp branch is the same
      with 5u tau;
    - the direct branch: |a|^2, -1 / sigma_l^2 and their product, 5u t_l;
      the exp, 8u; c_l, 2u; the sum, Lu; log S, 8u |log S| <= 8u (|log f|
      + A); log(pi v), 8u A + 2u; the subtraction, u |log f|:
      5u tau + (L + 12)u + 16u A + 9u |log f|.
    The oracle and the worse branch add to
    u (16 tau + 26 A + 2L + 22 + 18 log L + 10 |log f|) nats, and the final
    division by ln 2 rounds each -log2 f once more. Terms that underflow
    are negligible next to that (see entropy_monte_carlo).

    Over the n draws, numpy's pairwise mean is within
    gamma = (log2 n + 20)u of sum |h| / n for either estimate. The exact
    std of two samples differs by at most the root sum of squared
    per-draw differences over sqrt(n - 1), and a computed std is within
    sqrt(n / (n - 1)) (gamma + u) mean|h| + (gamma / 2 + 4u) std of the
    exact std of its own samples; dividing by sqrt(n) rounds twice.
    """
    log_f = oracle_log_pdf(mixture, points)
    neg_log2_f = -log_f / gmd.LN2
    n = len(neg_log2_f)
    w, v = mixture.weights, mixture.variances
    with np.errstate(over="ignore", under="ignore"):
        t = np.abs(points) ** 2 / v[:, None]
        share = np.exp(general_terms(mixture, points) - log_f)
        tau = np.sum(np.where(share > 0.0, share * t, 0.0), axis=0)
    a = float(np.max(np.abs(np.log(w)) + np.abs(np.log(math.pi * v))))
    per_draw = U * (16 * tau + 26 * a + 2 * len(v) + 22 + 18 * math.log(len(v))
                    + 12 * np.abs(log_f)) / gmd.LN2
    gamma = (math.log2(n) + 20) * U
    mean_abs = float(np.mean(np.abs(neg_log2_f)))
    value_bound = float(np.mean(per_draw)) + 2 * (gamma + U) * mean_abs
    std_error = 0.0
    se_bound = 0.0
    if n > 1:
        std = float(np.std(neg_log2_f, ddof=1))
        std_error = std / math.sqrt(n)
        spread = math.sqrt(float(np.sum(per_draw**2)) / (n - 1))
        # The spread and the rounding allow for the other estimate's std.
        std_max = std + spread
        rounding = 2 * (math.sqrt(n / (n - 1)) * (gamma + U) * mean_abs
                        + (gamma / 2 + 4 * U) * std_max)
        se_bound = (spread + rounding) / math.sqrt(n) + 4 * U * std_max / math.sqrt(n)
    estimate = gmd.EntropyEstimate(float(np.mean(neg_log2_f)), std_error, n)
    return estimate, value_bound, se_bound


def assert_within_rounding_of_log_sum_exp(mixture, seed, samples):
    got = gmd.entropy_monte_carlo(mixture.variances, np.random.default_rng(seed), samples)
    points = oracle_sample(mixture, np.random.default_rng(seed), samples)
    expected, value_bound, se_bound = log_sum_exp_tolerance(mixture, points)
    assert abs(got.value - expected.value) <= value_bound
    assert abs(got.std_error - expected.std_error) <= se_bound
    return got


def oracle_overlap_matrix(mixture):
    """The overlap integral with its general-mean factor,
    exp(-|mu_l - mu_t|^2 / s) / (pi s)."""
    v, mu = mixture.variances, zero_means(mixture)
    s = v[:, None] + v[None, :]
    d = np.abs(mu[:, None] - mu[None, :]) ** 2
    return np.exp(-d / s) / (math.pi * s)


def oracle_mean_power(mixture):
    """E|A|^2 = sum_l beta_l (sigma_l^2 + |mu_l|^2)."""
    mu = zero_means(mixture)
    return float(np.sum(mixture.weights * (mixture.variances + np.abs(mu) ** 2)))


@st.composite
def weighted_mixtures(draw, equal=st.booleans()):
    """Mixtures of 1..20 components: equal weights where equal draws True,
    else unequal, variances over 6 decades."""
    n = draw(st.integers(1, 20))
    if draw(equal):
        w = np.full(n, 1.0 / n)
    else:
        raw = draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
        w = raw / raw.sum()
    v = 10.0 ** draw(arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    return gmd.mixture_from_arrays(w, v)


@st.composite
def signed_zero_points(draw):
    """Complex points of shape (), (n,) or (n, m), some parts +0.0 or -0.0."""
    shape = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-30.0, 30.0))
    a = np.empty(shape, dtype=complex)
    a.real = draw(arrays(np.float64, shape, elements=part))
    a.imag = draw(arrays(np.float64, shape, elements=part))
    return a


class TestMonteCarloBlocks:
    """The blocked Monte Carlo path against its one-shot formula, bit for
    bit, and against the log-sum-exp oracle within rounding, on
    equal-weight mixtures; the density alone also on unequal weights."""

    @given(weighted_mixtures(equal=st.just(True)),
           st.sampled_from(["1", "2", "block-1", "block", "block+1", "3block+5"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_entropy_and_draws_match_one_shot_oracle(self, mix, count, seed):
        block = max(1, gmd._MC_BLOCK_TERMS // len(mix))
        samples = {"1": 1, "2": 2, "block-1": block - 1, "block": block,
                   "block+1": block + 1, "3block+5": 3 * block + 5}[count]
        got = gmd.entropy_monte_carlo(mix.variances, np.random.default_rng(seed), samples)
        expected = oracle_entropy_monte_carlo(mix, np.random.default_rng(seed), samples)
        assert (got.value, got.std_error) == (expected.value, expected.std_error)
        assert got.sample_count == samples
        draws = radial_draws(mix.variances, np.random.default_rng(seed), samples)
        assert np.array_equal(
            draws, oracle_radial_draws(mix, np.random.default_rng(seed), samples))

    @given(weighted_mixtures(equal=st.just(True)), st.integers(2, 5000),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_direct_density_within_rounding_of_log_sum_exp(self, mix, samples, seed):
        assert_within_rounding_of_log_sum_exp(mix, seed, samples)

    @pytest.mark.parametrize("n, lo, hi, direct", [
        # Spreads n * hi / lo of 2e199 and 1.6e199, just under 1e200; then
        # 1.6e200, just over, and 2e300 and 1.6e301.
        (2, 1e-190, 1e9, True), (16, 1e-189, 1e9, True), (16, 1e-190, 1e9, False),
        (2, 1e-290, 1e10, False), (16, 1e-290, 1e10, False)])
    def test_spread_guard_both_sides(self, n, lo, hi, direct, monkeypatch):
        # Either side of _MC_MAX_SPREAD against the log-sum-exp oracle; the
        # log-sum-exp branch is the one that calls _log_pdf_into.
        v = np.geomspace(lo, hi, n)
        mix = gmd.equal_weight_zero_mean_mixture(v)
        assert (n * (hi / lo) <= gmd._MC_MAX_SPREAD) == direct
        calls = []
        log_pdf_into = gmd._log_pdf_into
        monkeypatch.setattr(gmd, "_log_pdf_into",
                            lambda *args: calls.append(1) or log_pdf_into(*args))
        got = assert_within_rounding_of_log_sum_exp(mix, 7, 3 * gmd._MC_BLOCK_TERMS // n + 5)
        assert math.isfinite(got.value) and math.isfinite(got.std_error)
        assert (len(calls) == 0) == direct

    @given(weighted_mixtures(equal=st.just(True)), st.integers(1, 3000),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stream_after_entropy_is_the_stream_after_sample(self, mix, samples, seed):
        # mc_error_scaling's later checks and the per-cell substreams read
        # on from where an entropy call leaves the generator: after the
        # stream of rng.choice and two normal fills.
        after = []
        for draw in (lambda rng: gmd.entropy_monte_carlo(mix.variances, rng, samples),
                     lambda rng: oracle_sample(mix, rng, samples)):
            rng = np.random.default_rng(seed)
            draw(rng)
            after.append(rng.random(4))
        assert after[0].tobytes() == after[1].tobytes()

    @given(weighted_mixtures(equal=st.just(True)), st.integers(1, 3000),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_radial_draws_are_abs_sample_squared(self, mix, samples, seed):
        # (sigma^2 / 2) (z1^2 + z2^2) rounds four times, within 3u; the
        # complex draws' |a|^2 = fl(hypot(s z1, s z2))^2 with s =
        # fl(sqrt(sigma^2 / 2)) is within 9u (hypot within 1 ulp). 12u to
        # first order, 13u with room for the second; seen up to 9 ulps.
        x = radial_draws(mix.variances, np.random.default_rng(seed), samples)
        ref = np.abs(oracle_sample(mix, np.random.default_rng(seed), samples)) ** 2
        assert (np.abs(x - ref) <= 13 * U * ref).all()

    @given(weighted_mixtures(), signed_zero_points())
    @example(gmd.mixture_from_arrays([1.0], [1.0]),
             np.array(28.999989883314665 + 10.207993637840355j))
    @example(gmd.equal_weight_zero_mean_mixture([0.5, 2.0, 8.0]),
             np.array([1e200 + 0j, 1 + 0j]))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_radial_log_pdf_matches_general_formula(self, mix, points):
        # A 0-d point also as a numpy scalar; other shapes also transposed.
        # At the pinned 0-d point, a numpy scalar's |a| ** 2 is 1 ulp off
        # the array loop's product.
        for a in (points, points[()] if points.ndim == 0 else points.T):
            got, expected = log_pdf(mix, a), oracle_log_pdf(mix, a)
            assert np.shape(got) == np.shape(expected) == np.shape(a)
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    @given(weighted_mixtures(), signed_zero_points())
    # |a|^2 of 1e200 overflows, so every term is -inf and so is log f; a
    # nan point gives nan. Each in an array and as a 0-d point.
    @example(gmd.equal_weight_zero_mean_mixture([0.5, 2.0, 8.0]),
             np.array([1e200 + 0j, complex(math.nan, 1.0), 1 + 0j]))
    @example(gmd.equal_weight_zero_mean_mixture([0.5, 2.0, 8.0]), np.array(1e200 + 0j))
    @example(gmd.equal_weight_zero_mean_mixture([0.5, 2.0, 8.0]),
             np.array(complex(1.0, math.nan)))
    @settings(max_examples=300, deadline=None)
    def test_log_pdf_within_ulps_of_scipy_logsumexp(self, mix, points):
        # The reference is scipy's logsumexp of the general terms.
        with np.errstate(over="ignore"):  # |a|^2 of 1e200
            terms = general_terms(mix, points)
            got = log_pdf(mix, points)
        assert_within_ulps_of_scipy_logsumexp(got, terms)

    def test_peak_memory_is_bounded_by_the_sample_arrays(self):
        # 200 000 draws are 3.2 MB of complex128. Evaluating all (16, n)
        # terms at once peaked at 80 MB; the blocked path needs about 8 MB.
        mix = gmd.equal_weight_zero_mean_mixture(np.linspace(1.0, 16.0, 16))
        tracemalloc.start()
        try:
            gmd.entropy_monte_carlo(mix.variances, np.random.default_rng(0), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestZeroMeanFormulas:
    """The overlap, lower bound and mean power against the general-mean
    formulas they replaced, bit for bit."""

    @given(weighted_mixtures())
    @settings(max_examples=200, deadline=None)
    def test_match_general_mean_formulas(self, mix):
        z = oracle_overlap_matrix(mix)
        assert gmd.overlap_matrix(mix).tobytes() == z.tobytes()
        lb = float(-np.sum(mix.weights * np.log2(z @ mix.weights)))
        assert gmd.entropy_lower_bound(mix).hex() == lb.hex()
        assert mix.mean_power.hex() == oracle_mean_power(mix).hex()


@st.composite
def logsumexp_inputs(draw):
    """Finite arrays of shape (rows..., 1..20) with forced ties at the max."""
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    cols = draw(st.integers(1, 20))
    scale = draw(st.floats(min_value=1e-3, max_value=1e6))
    a = draw(arrays(np.float64, (*lead, cols), elements=st.floats(-1.0, 1.0))) * scale
    ties = draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    a[..., ties] = np.max(a, axis=-1, keepdims=True)
    return a


# Maxima scattered over the columns, as Monte Carlo draws give them: (N, L)
# = (64, 4), each row's maximum in a random column.
SCATTERED_MAXIMA = np.random.default_rng(5).standard_normal((64, 4))
# log_pdf's (N, L) terms at 1e200 + 0j, where |a|^2 overflows and every
# term is -inf, and at 1 + 0j.
_V = np.array([0.5, 2.0, 8.0])
with np.errstate(over="ignore"):
    LOG_PDF_OVERFLOW_TERMS = (np.log(np.full(3, 1.0) / 3) - np.log(math.pi * _V)
                              - np.abs(np.array([1e200 + 0j, 1 + 0j]))[:, None] ** 2 / _V)

variance_lists = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8
)


class TestRandomizedProperties:
    @given(logsumexp_inputs())
    # The first row of each example is its case: no tie, a tie at the
    # maximum, all -inf, a +inf entry, a nan entry.
    @example(np.array([[0.5, -1.0, 2.0], [3.0, 1.0, -2.0]]))
    @example(np.array([[2.0, 2.0, -1.0], [0.0, -3.0, 1.0]]))
    @example(np.array([[-np.inf, -np.inf], [1.0, -np.inf]]))
    @example(np.array([[np.inf, 1.0], [0.0, 2.0]]))
    @example(np.array([[np.nan, 1.0], [0.0, 2.0]]))
    # Maxima scattered over the columns, and log_pdf's terms at a point
    # whose |a|^2 overflows, a row of -inf.
    @example(SCATTERED_MAXIMA)
    @example(LOG_PDF_OVERFLOW_TERMS)
    @settings(max_examples=300, deadline=None)
    def test_logsumexp_within_ulps_of_scipy(self, a):
        # _logsumexp_overwrite reduces over the first axis, the components,
        # and overwrites its input. Each array goes whole and by its first
        # row.
        for b in (a, a.reshape(-1, a.shape[-1])[0]):
            terms = np.moveaxis(b, -1, 0)
            got = gmd._logsumexp_overwrite(np.array(terms, dtype=float))
            assert_within_ulps_of_scipy_logsumexp(got, terms)

    @given(variance_lists)
    @settings(max_examples=100, deadline=None)
    def test_bound_sandwich(self, variances):
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        h = gmd.entropy_radial_quadrature(mix.variances, 1e-10).value
        assert gmd.entropy_lower_bound(mix) <= h + 1e-8
        assert h <= gmd.entropy_upper_bound(mix) + 1e-8

    @given(variance_lists)
    @settings(max_examples=50, deadline=None)
    def test_specialization_matches_general_path(self, variances):
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        lb, ub = gmd.entropy_bounds_equal_weight_zero_mean(variances)
        assert lb == pytest.approx(gmd.entropy_lower_bound(mix), abs=1e-12)
        assert ub == pytest.approx(gmd.entropy_upper_bound(mix), abs=1e-12)

    @given(variance_lists, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_variance_scaling_shifts_by_log2_c(self, variances, c):
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        scaled = gmd.equal_weight_zero_mean_mixture([v * c for v in variances])
        shift = math.log2(c)
        assert gmd.entropy_lower_bound(scaled) - gmd.entropy_lower_bound(
            mix
        ) == pytest.approx(shift, abs=1e-9)
        assert gmd.entropy_upper_bound(scaled) - gmd.entropy_upper_bound(
            mix
        ) == pytest.approx(shift, abs=1e-9)
        h0 = gmd.entropy_radial_quadrature(mix.variances).value
        h1 = gmd.entropy_radial_quadrature(scaled.variances).value
        assert h1 - h0 == pytest.approx(shift, abs=1e-8)

    @given(variance_lists)
    @settings(max_examples=30, deadline=None)
    def test_duplicate_split_both_directions(self, variances):
        n = len(variances)
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        w = np.full(n, 1.0 / n)
        split_w = np.concatenate([[w[0] / 2, w[0] / 2], w[1:]])
        split_v = np.concatenate([[variances[0]], variances])
        split = gmd.mixture_from_arrays(split_w, split_v)
        # lower bound unchanged; upper bound grows by exactly beta * log2(2)
        assert gmd.entropy_lower_bound(split) == pytest.approx(
            gmd.entropy_lower_bound(mix), abs=1e-10
        )
        assert gmd.entropy_upper_bound(split) - gmd.entropy_upper_bound(
            mix
        ) == pytest.approx(w[0], abs=1e-10)
