"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Known honest failures: the high-SNR ceiling and the 40-dB constant-shift
criteria assume the merged-Gaussian high-SNR approximation is tight to
0.1 bits; the true averaged MI sits ~0.14 bits above the ceiling and the
lower bound ~0.3 bits above its predicted limit, so both checks fail by
construction, not by implementation error. The exact MI they measure rests
on the radial-quadrature entropy, which test_estimator_cross_validation
checks against Monte Carlo entropies of the same mixtures, as the
benchmark's `montecarlo` oracle does for whole curves. No simulation of the
physical model checks them.
"""

import math

import numpy as np
import pytest

from sm_noma import gmd, runner
from sm_noma.baselines import miso_noma_mi, sm_tdma_mi
from sm_noma.mi import mi_exact, mi_lower_bound_k2
from sm_noma.runner import (
    _at_snr,
    figure1_config,
    run_figure1,
    substream,
    write_curves,
)
from sm_noma.system import (
    SystemConfig,
    draw_channel,
    mixture_of_interference,
    mixture_of_received,
)

LOG2E = math.log2(math.e)
BASE = SystemConfig(4, 2, (4.0, 1.0), 1.0, 1.0)
N_REALIZATIONS = 200
SEED = 2024


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if passed else 'FAIL'} — {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def realizations():
    return [
        draw_channel(BASE, substream(SEED, 0, i))
        for i in range(N_REALIZATIONS)
    ]


@pytest.fixture(scope="module")
def high_snr_stats(realizations):
    system = _at_snr(BASE, 40.0, (4.0, 1.0))
    mi = np.empty(N_REALIZATIONS)
    shift = np.empty(N_REALIZATIONS)
    for i, realization in enumerate(realizations):
        mi[i] = mi_exact(realization, system, 1, 1).mi_exact.value
        shift[i] = mi[i] - mi_lower_bound_k2(realization, system, 1, 1)
    return mi, shift


@pytest.fixture(scope="module")
def ordering_grid(realizations):
    """Coarse SNR grid sweep of all systems with paired channel draws."""
    grid = [-40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0]
    out = {key: np.zeros((N_REALIZATIONS, len(grid)))
           for key in ("i11", "i22", "miso11", "tdma_sum")}
    for i, realization in enumerate(realizations):
        for j, snr_db in enumerate(grid):
            system = _at_snr(BASE, snr_db, (4.0, 1.0))
            out["i11"][i, j] = mi_exact(realization, system, 1, 1).mi_exact.value
            out["i22"][i, j] = mi_exact(realization, system, 2, 2).mi_exact.value
            out["miso11"][i, j] = miso_noma_mi(realization, system, 1, 1)
            out["tdma_sum"][i, j] = sum(
                sm_tdma_mi(realization, system, k) for k in (1, 2)
            )
    return grid, out


def test_high_snr_ceiling(high_snr_stats):
    mi, _ = high_snr_stats
    target = math.log2(5.0)
    dev = abs(float(mi.mean()) - target)
    report(
        "high_snr_ceiling",
        dev <= 0.1,
        f"mean I(1,1) at 40 dB = {mi.mean():.4f} bits vs log2(5) = {target:.4f} "
        f"(|dev| = {dev:.4f}, tolerance 0.1)",
    )


def test_constant_shift_at_high_snr(high_snr_stats):
    _, shift = high_snr_stats
    target = math.log2(4.0 * math.e) - 1.0
    dev = abs(float(shift.mean()) - target)
    report(
        "constant_shift_high_snr",
        dev <= 0.1,
        f"mean I(1,1) - I_LB(1,1) at 40 dB = {shift.mean():.4f} bits vs "
        f"{target:.4f} (|dev| = {dev:.4f}, tolerance 0.1)",
    )


def test_lower_bound_low_snr_constant(realizations):
    system = _at_snr(BASE, -40.0, (4.0, 1.0))
    values = [mi_lower_bound_k2(r, system, 2, 2) for r in realizations]
    target = 1.0 - LOG2E
    dev = abs(float(np.mean(values)) - target)
    report(
        "low_snr_lb_22",
        dev <= 0.02,
        f"mean I_LB(2,2) at -40 dB = {np.mean(values):.4f} bits vs {target:.4f} "
        f"(|dev| = {dev:.4f}, tolerance 0.02)",
    )


def test_all_mi_vanish_at_low_snr(realizations):
    system = _at_snr(BASE, -40.0, (4.0, 1.0))
    worst = 0.0
    for realization in realizations:
        for r, k in ((1, 1), (2, 1), (2, 2)):
            worst = max(worst, abs(mi_exact(realization, system, r, k).mi_exact.value))
    report(
        "low_snr_mi_vanishes",
        worst <= 0.02,
        f"max |I| at -40 dB = {worst:.4f} bits (tolerance 0.02)",
    )


def test_entropy_bound_validity():
    rng = np.random.default_rng(SEED)
    violations = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        variances = 10.0 ** rng.uniform(-2, 2, size=n)
        mix = gmd.equal_weight_zero_mean_mixture(variances)
        h = gmd.entropy_radial_quadrature(mix.variances, 1e-10).value
        slack = max(gmd.entropy_lower_bound(mix) - h, h - gmd.entropy_upper_bound(mix))
        worst = max(worst, slack)
        if slack > 1e-8:
            violations += 1
    report(
        "bound_validity",
        violations == 0,
        f"{violations} violations over 100 mixtures, worst slack {worst:.2e} bits "
        f"(tolerance 1e-8)",
    )


def test_lower_bound_path_equivalence():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        realization = draw_channel(BASE, rng)
        system = _at_snr(BASE, float(rng.uniform(-40, 40)), (4.0, 1.0))
        for r, k in ((1, 1), (2, 1), (2, 2)):
            direct = mi_lower_bound_k2(realization, system, r, k)
            assembled = gmd.entropy_lower_bound(
                mixture_of_received(realization, system, r, k)
            ) - gmd.entropy_upper_bound(
                mixture_of_interference(realization, system, r, k)
            )
            worst = max(worst, abs(direct - assembled))
    report(
        "lb_path_equivalence",
        worst < 1e-10,
        f"max |closed form - assembled| = {worst:.2e} bits over 300 inputs "
        f"(tolerance 1e-10)",
    )


def test_estimator_cross_validation():
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    worst_sigma = 0.0
    for snr_db in (-10.0, 0.0, 10.0, 30.0):
        system = _at_snr(BASE, snr_db, (4.0, 1.0))
        for _ in range(2):
            realization = draw_channel(BASE, rng)
            for mix in (
                mixture_of_received(realization, system, 1, 1),
                mixture_of_interference(realization, system, 1, 1),
                mixture_of_received(realization, system, 2, 2),
            ):
                mc = gmd.entropy_monte_carlo(mix.variances, rng, 10**6)
                quad = gmd.entropy_radial_quadrature(mix.variances)
                worst_sigma = max(worst_sigma, abs(mc.value - quad.value) / mc.std_error)
                checked += 1
    report(
        "estimator_cross_validation",
        checked >= 20 and worst_sigma <= 3.0,
        f"{checked} mixtures, worst |MC - quadrature| = {worst_sigma:.2f} "
        f"std errors (tolerance 3)",
    )


def _paired_margin_ok(diff: np.ndarray) -> tuple[bool, str]:
    """Ordering check on the mean of a paired per-realization difference.

    Both systems' MI vanish together at low SNR (equal to first order in
    SNR), so the sample mean there is pure Monte Carlo noise; the ordering
    is asserted within 3 standard errors of the paired difference.
    """
    mean = diff.mean(axis=0)
    se = diff.std(axis=0, ddof=1) / math.sqrt(diff.shape[0])
    ok = bool(np.all(mean >= -3.0 * se))
    worst = int(np.argmin(mean + 3.0 * se))
    return ok, (
        f"min margin {mean.min():.4f} bits, worst point margin "
        f"{mean[worst]:.2e} +/- {se[worst]:.2e}"
    )


def test_figure1_ordering_vs_miso(ordering_grid):
    grid, out = ordering_grid
    ok, detail = _paired_margin_ok(out["i11"] - out["miso11"])
    report("fig1_sm_vs_miso", ok, f"I(1,1) over MISO-NOMA on {grid} dB: {detail}")


def test_figure2a_sum_ordering_vs_tdma(ordering_grid):
    grid, out = ordering_grid
    ok, detail = _paired_margin_ok(out["i11"] + out["i22"] - out["tdma_sum"])
    report("fig2a_sum_vs_tdma", ok, f"SM-NOMA sum over SM-TDMA sum: {detail}")


def test_figure2b_monotone_in_power_ratio(realizations):
    ratios = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    total = 5.0
    means = []
    for ratio in ratios:
        a2 = total / (1.0 + ratio)
        system = _at_snr(BASE, 30.0, (total - a2, a2))
        means.append(
            float(np.mean([
                mi_exact(r, system, 1, 1).mi_exact.value for r in realizations
            ]))
        )
    diffs = np.diff(means)
    report(
        "fig2b_monotone",
        bool(np.all(diffs >= 0.0)),
        f"mean I(1,1) at 30 dB over ratios {ratios}: {np.round(means, 3).tolist()}",
    )


def test_sic_ordering(ordering_grid):
    grid, out = ordering_grid
    idx = [grid.index(s) for s in (10.0, 20.0, 30.0)]
    gap = (out["i22"] - out["i11"]).mean(axis=0)[idx]
    report(
        "sic_ordering",
        bool(np.all(gap > 0.0)),
        f"mean I(2,2) - I(1,1) at 10/20/30 dB = {np.round(gap, 3).tolist()} bits",
    )


def test_determinism(tmp_path):
    config = figure1_config(realizations=3, snr_grid_db=(-10.0, 10.0), seed=99)
    for name in ("run1.csv", "run2.csv"):
        runner._sweep_table.cache_clear()  # so the rerun computes afresh
        write_curves(tmp_path / name, run_figure1(config), config)
    identical = (tmp_path / "run1.csv").read_bytes() == (
        tmp_path / "run2.csv"
    ).read_bytes()
    report(
        "determinism",
        identical,
        "byte-identical CSV for identical (config, seed)"
        if identical
        else "outputs differ",
    )
