"""Independent oracles for the sweep table's cells.

Each one recomputes one cell of one channel realization at one system
(power levels and SNR) through the one-mixture functions of gmd, or by
hand, without the row code under test (mi.mi_rows, baselines.*_rows).
Each follows the row code's order of operations, so a cell and its oracle
agree to the bit, except the lower bound, which is assembled from the
general entropy bounds instead of the closed form.
"""

import math

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


def mixture_mi(realization, system, r, k, tolerance=1e-10, rng=None, samples=0):
    """(value, error) of I(r, k) = h(received) - h(interference), h(received)
    first on rng, the two errors added by math.hypot."""
    (h_y, e_y), (h_w, e_w) = (
        entropy(mixture(realization, system, r, k), tolerance, rng, samples)
        for mixture in (mixture_of_received, mixture_of_interference))
    return h_y - h_w, math.hypot(e_y, e_w)


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
    real (Python's complex division rounds differently on about 1 in 4)."""
    h = [complex(c) for c in realization.channel_vectors[k - 1]]
    g_sq = abs((h[0] + h[1]) * (1.0 / math.sqrt(2))) ** 2
    a1, a2 = system.power_levels
    rho = system.signal_power
    interference = a2 * rho * g_sq if k == 1 else 0.0
    signal = (a1 if k == 1 else a2) * rho * g_sq
    return math.log2(1.0 + signal / (system.noise_power + interference))


def sm_tdma_mi(realization, system, k, time_share, tolerance=1e-10):
    """time_share times h(received) - h(noise) of user k alone at the total
    power, h(received) by the radial quadrature of its mixture."""
    gains_sq = np.abs(realization.channel_vectors[k - 1]) ** 2
    power = system.signal_power * sum(system.power_levels)
    received = gmd.equal_weight_zero_mean_mixture(system.noise_power + power * gains_sq)
    h_y = gmd.entropy_radial_quadrature(received, tolerance).value
    return time_share * (h_y - gmd.gaussian_entropy(system.noise_power))
