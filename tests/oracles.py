"""Independent oracles for the sweep table's cells.

Each one recomputes one cell of one channel realization at one system
(power levels and SNR) through the one-mixture functions of gmd, or by
hand, without the row code under test (mi.mi_rows, baselines.*_rows).
Each follows the row code's order of operations and takes numpy's
functions where it does (np.abs, np.log2, np.hypot), so a cell and its
oracle agree to the bit, except the lower bound, which is assembled from
the general entropy bounds instead of the closed form. mp_entropy shares
no code with gmd: it integrates one mixture's entropy to 30 digits.
"""

import math

import mpmath
import numpy as np

from sm_noma import gmd
from sm_noma.system import mixture_of_interference, mixture_of_received


def entropy(mixture, tolerance=1e-10, rng=None, samples=0):
    """(value, error) of one mixture's entropy: the Gaussian closed form for
    one component, else the radial quadrature, or Monte Carlo on rng."""
    if len(mixture) == 1:
        return gmd.gaussian_entropy(mixture.variances[0]), 0.0
    if rng is None:
        estimate = gmd.entropy_radial_quadrature(mixture, tolerance)
    else:
        estimate = gmd.entropy_monte_carlo(mixture, rng, samples)
    return estimate.value, estimate.std_error


def mp_entropy(variances):
    """The entropy in bits of the equal-weight zero-mean mixture of the
    variances s_l, by 30-digit mpmath.quad: h = -int pi f log2 f du over
    t = log u, du = u dt, with f(u) = sum_l exp(-u / s_l) / (pi s_l L).

    The breakpoints are every distinct log s_l, where a component's
    contribution turns, and the ends are 45 below the smallest and 5 above
    the largest: the parts beyond them are below 1e-16 bits for variances
    above 1e-300 (below, pi f u is at most e^-45 = 3e-20, and above, each
    component's mass is at most exp(-e^5)). Unlike the kernel, it has no
    truncation point at tail mass TAIL_MASS.
    """
    with mpmath.workdps(30):
        n = len(variances)
        counts = {}
        for x in map(float, variances):
            counts[x] = counts.get(x, 0) + 1
        scales = sorted(map(mpmath.mpf, counts))
        terms = [(counts[float(s)] / (n * mpmath.pi * s), -1 / s) for s in scales]

        def integrand(t):
            u = mpmath.exp(t)
            f = mpmath.fsum(c * mpmath.exp(r * u) for c, r in terms)
            return -mpmath.pi * f * mpmath.ln(f) * u

        logs = [mpmath.ln(s) for s in scales]
        return float(mpmath.quad(integrand, [logs[0] - 45, *logs, logs[-1] + 5]) / mpmath.ln(2))


def mixture_mi(realization, system, r, k, tolerance=1e-10, rng=None, samples=0):
    """(value, error) of I(r, k) = h(received) - h(interference), h(received)
    first on rng, the two errors added by np.hypot."""
    (h_y, e_y), (h_w, e_w) = (
        entropy(mixture(realization, system, r, k), tolerance, rng, samples)
        for mixture in (mixture_of_received, mixture_of_interference))
    return h_y - h_w, float(np.hypot(e_y, e_w))


def lower_bound_mi(realization, system, r, k):
    """The MI lower bound assembled from the general entropy bounds: h_LB
    of the received mixture minus h_UB of the interference mixture. The
    closed form reorders the arithmetic, so it agrees to about 1e-10 bits,
    not to the bit."""
    return (gmd.entropy_lower_bound(mixture_of_received(realization, system, r, k))
            - gmd.entropy_upper_bound(mixture_of_interference(realization, system, r, k)))


def miso_noma_mi(realization, system, k):
    """log2(1 + SINR) of user k's own message, K = 2, for the gain
    (h_k[0] + h_k[1]) / sqrt(2) summed in Python complex arithmetic. The
    division is a product with 1 / sqrt(2), as numpy divides a complex by a
    real (Python's complex division rounds differently on about 1 in 4).
    |g| is np.abs of that gain and |g|^2 the product |g| * |g|, as the
    array loop squares (a numpy scalar's ** 2 rounds differently on some)."""
    h = [complex(c) for c in realization.channel_vectors[k - 1]]
    g = np.abs((h[0] + h[1]) * (1.0 / math.sqrt(2)))
    g_sq = g * g
    a1, a2 = system.power_levels
    rho = system.signal_power
    interference = a2 * rho * g_sq if k == 1 else 0.0
    signal = (a1 if k == 1 else a2) * rho * g_sq
    return float(np.log2(1.0 + signal / (system.noise_power + interference)))


def sm_tdma_mi(realization, system, k, time_share, tolerance=1e-10):
    """time_share times h(received) - h(noise) of user k alone at the total
    power, h(received) by the radial quadrature of its mixture."""
    gains_sq = np.abs(realization.channel_vectors[k - 1]) ** 2
    power = system.signal_power * sum(system.power_levels)
    received = gmd.equal_weight_zero_mean_mixture(system.noise_power + power * gains_sq)
    h_y = gmd.entropy_radial_quadrature(received, tolerance).value
    return time_share * (h_y - gmd.gaussian_entropy(system.noise_power))
