"""Tests for the Gaussian-mixture distribution core."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp as scipy_logsumexp

from sm_noma import gmd

LOG2_2PI = math.log2(2.0 * math.pi)
LOG2_PI_E = math.log2(math.pi * math.e)

# Frozen oracle values, computed with an independent scipy-based radial
# integrator (see repository test notes); tolerances reflect that oracle's
# requested 1e-12 accuracy.
GOLDEN_H_L3 = 3.276924114545157  # equal weights, zero mean, var {0.5, 1, 2}
GOLDEN_H_L2_1_10 = 5.252259700560866
GOLDEN_H_L2_1_4 = 4.344232367624173
GOLDEN_LB_UB_L4 = (3.8432939632637173, 6.2404317955415705)  # var {1, 2, 3, 4}
GOLDEN_OVERLAP = 0.054475248241358035  # mu 0 and 1+1j, var 1 and 2


def unit_mixture():
    return gmd.equal_weight_zero_mean_mixture([1.0])


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            gmd.mixture_from_arrays([0.4, 0.4], [0, 0], [1, 1])

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            gmd.GaussianMixture(())

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            gmd.GaussianComponent(0.0, 0.0, 1.0)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            gmd.GaussianComponent(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gmd.GaussianComponent(1.0, 0.0, 1e-301)


class TestPdf:
    def test_unit_gaussian_peak(self):
        assert gmd.pdf(unit_mixture(), 0j) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_duplicate_components_collapse(self):
        mix = gmd.mixture_from_arrays([0.5, 0.5], [0, 0], [1, 1])
        assert gmd.pdf(mix, 0j) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_two_component_value(self):
        # Direct sum-of-exponentials evaluation, frozen:
        # 0.5/(pi)*e^-1 + 0.5/(4 pi)*e^-0.25
        mix = gmd.mixture_from_arrays([0.5, 0.5], [0, 0], [1, 4])
        assert gmd.pdf(mix, 1 + 0j) == pytest.approx(0.08953733010173241, rel=1e-12)

    def test_strictly_positive_far_out(self):
        mix = gmd.mixture_from_arrays([0.5, 0.5], [0, 0], [1, 4])
        assert gmd.log_pdf(mix, 40 + 0j) > -np.inf


class TestSample:
    def test_moments(self):
        rng = np.random.default_rng(0)
        mix = gmd.mixture_from_arrays([1.0], [0], [2.0])
        draws = gmd.sample(mix, rng, 10**6)
        assert abs(np.mean(draws)) < 0.01
        assert 1.98 <= np.mean(np.abs(draws) ** 2) <= 2.02

    def test_deterministic_for_fixed_stream(self):
        mix = gmd.mixture_from_arrays([0.3, 0.7], [0, 1j], [1, 2])
        a = gmd.sample(mix, np.random.default_rng(42), 1000)
        b = gmd.sample(mix, np.random.default_rng(42), 1000)
        np.testing.assert_array_equal(a, b)

    def test_component_selection_frequency(self):
        # Widely separated means let us count component picks; check the
        # frequency against a 3-sigma binomial band.
        n = 100_000
        p = 0.25
        mix = gmd.mixture_from_arrays([p, 1 - p], [0, 100], [1, 1])
        draws = gmd.sample(mix, np.random.default_rng(3), n)
        count = int(np.sum(draws.real < 50))
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) < 3 * sigma

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gmd.sample(unit_mixture(), np.random.default_rng(0), 0)


class TestOverlapIntegral:
    def test_symmetric_zero_mean(self):
        c = gmd.GaussianComponent(1.0, 0.0, 1.0)
        assert gmd.overlap_integral(c, c) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_zero_mean_formula(self):
        c1 = gmd.GaussianComponent(1.0, 0.0, 1.0)
        c2 = gmd.GaussianComponent(1.0, 0.0, 3.0)
        assert gmd.overlap_integral(c1, c2) == pytest.approx(1 / (4 * math.pi), rel=1e-12)

    def test_offset_means_against_quadrature_oracle(self):
        c1 = gmd.GaussianComponent(1.0, 0.0, 1.0)
        c2 = gmd.GaussianComponent(1.0, 1 + 1j, 2.0)
        assert gmd.overlap_integral(c1, c2) == pytest.approx(GOLDEN_OVERLAP, abs=1e-8)


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
        mix = gmd.mixture_from_arrays([0.5, 0.5], [0, 0], [1, 1])
        assert gmd.entropy_lower_bound(mix) == pytest.approx(LOG2_2PI, rel=1e-12)

    def test_l3_bounds_sandwich_golden_entropy(self):
        mix = gmd.equal_weight_zero_mean_mixture([0.5, 1.0, 2.0])
        assert gmd.entropy_lower_bound(mix) <= GOLDEN_H_L3 + 1e-10
        h = gmd.entropy_radial_quadrature(mix)
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
        est = gmd.entropy_monte_carlo(unit_mixture(), np.random.default_rng(0), 10**5)
        assert abs(est.value - LOG2_PI_E) <= 3 * est.std_error

    def test_cross_method_agreement(self):
        mix = gmd.equal_weight_zero_mean_mixture([1.0, 4.0])
        mc = gmd.entropy_monte_carlo(mix, np.random.default_rng(1), 10**6)
        quad = gmd.entropy_radial_quadrature(mix)
        assert abs(mc.value - quad.value) <= 3 * mc.std_error
        assert quad.value == pytest.approx(GOLDEN_H_L2_1_4, abs=1e-9)

    def test_quadrature_rejects_nonzero_mean(self):
        mix = gmd.mixture_from_arrays([1.0], [1 + 0j], [1.0])
        with pytest.raises(ValueError, match="zero-mean"):
            gmd.entropy_radial_quadrature(mix)

    def test_dispatcher(self):
        mix = unit_mixture()
        est = gmd.entropy_exact(mix, "radial_quadrature")
        assert est.sample_count == 0
        est = gmd.entropy_exact(mix, "monte_carlo", rng=np.random.default_rng(0), samples=100)
        assert est.sample_count == 100
        with pytest.raises(ValueError):
            gmd.entropy_exact(mix, "monte_carlo")
        with pytest.raises(ValueError):
            gmd.entropy_exact(mix, "cubature")

    def test_monte_carlo_error_halves_with_4x_samples(self):
        mix = gmd.equal_weight_zero_mean_mixture([0.3, 1.0, 9.0])
        rng = np.random.default_rng(5)
        small = gmd.entropy_monte_carlo(mix, rng, 50_000)
        large = gmd.entropy_monte_carlo(mix, rng, 200_000)
        assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.2)


class CountingIntegrate:
    """Stands in for scipy.integrate on gmd and counts the quad calls."""

    def __init__(self, module):
        self.module = module
        self.quad_calls = 0

    def quad(self, *args, **kwargs):
        self.quad_calls += 1
        return self.module.quad(*args, **kwargs)


class TestQuadratureFallback:
    # A tolerance at roundoff level makes the panel rules miss it, so the
    # adaptive fallback runs; quad then warns that it met roundoff.
    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    @pytest.mark.parametrize("variances, tolerance", [
        ([1.0, 1e6], 1e-17),
        ([1e-10, 1e10], 1e-15),
    ])
    def test_wide_spread_fallback_matches_panel_rule(
            self, monkeypatch, variances, tolerance):
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        panel = gmd.entropy_radial_quadrature(mix)
        counter = CountingIntegrate(gmd.integrate)
        monkeypatch.setattr(gmd, "integrate", counter)
        fallback = gmd.entropy_radial_quadrature(mix, tolerance)
        assert counter.quad_calls == 1
        assert panel.std_error <= 1e-10
        assert fallback.value == pytest.approx(panel.value, abs=1e-9)


class TestImports:
    def test_package_import_loads_no_scipy(self):
        src = str(Path(gmd.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
        code = (
            "import sys, sm_noma, sm_noma.cli, sm_noma.runner\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "import scipy.integrate\n"
            "print(sm_noma.gmd.integrate is scipy.integrate)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split("\n")[:2] == ["[]", "True"]


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


variance_lists = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8
)


class TestRandomizedProperties:
    @given(logsumexp_inputs())
    @settings(max_examples=300, deadline=None)
    def test_logsumexp_matches_scipy_bit_for_bit(self, a):
        assert np.array_equal(gmd.logsumexp(a), scipy_logsumexp(a, axis=-1))
        row = a.reshape(-1, a.shape[-1])[0]
        got, ref = gmd.logsumexp(row), scipy_logsumexp(row, axis=-1)
        assert type(got) is type(ref)
        assert got == ref

    @given(variance_lists)
    @settings(max_examples=100, deadline=None)
    def test_bound_sandwich(self, variances):
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        h = gmd.entropy_radial_quadrature(mix, 1e-10).value
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
        h0 = gmd.entropy_radial_quadrature(mix).value
        h1 = gmd.entropy_radial_quadrature(scaled).value
        assert h1 - h0 == pytest.approx(shift, abs=1e-8)

    @given(variance_lists)
    @settings(max_examples=30, deadline=None)
    def test_duplicate_split_both_directions(self, variances):
        n = len(variances)
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        w = np.full(n, 1.0 / n)
        split_w = np.concatenate([[w[0] / 2, w[0] / 2], w[1:]])
        split_v = np.concatenate([[variances[0]], variances])
        split = gmd.mixture_from_arrays(split_w, np.zeros(n + 1), split_v)
        # lower bound unchanged; upper bound grows by exactly beta * log2(2)
        assert gmd.entropy_lower_bound(split) == pytest.approx(
            gmd.entropy_lower_bound(mix), abs=1e-10
        )
        assert gmd.entropy_upper_bound(split) - gmd.entropy_upper_bound(
            mix
        ) == pytest.approx(w[0], abs=1e-10)
