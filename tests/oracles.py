"""Independent oracles for the sweep table's cells.

Each one recomputes one cell of one channel realization at one system
(power levels and SNR) through the one-mixture functions of gmd, or by
hand, without the row code under test (mi.mi_rows, baselines.*_rows).
Each follows the row code's order of operations and takes numpy's
functions where it does (np.abs, np.log2, np.hypot), so a cell and its
oracle agree to the bit, except the lower bound, which is assembled from
the general entropy bounds instead of the closed form. mp_entropy shares
no code with gmd: it integrates one mixture's entropy to 30 digits, and
mp_bound is how far a kernel estimate may be from it.
received_second_moment is the property suite's second-moment check
computed over all its draws at once.
"""

import math

import mpmath
import numpy as np

from sm_noma import gmd
from sm_noma.system import (
    mixture_of_interference,
    mixture_of_received,
    simulate_received_symbol,
)


def entropy(mixture, tolerance=1e-10, rng=None, samples=0):
    """(value, error) of one mixture's entropy: the Gaussian closed form for
    one component, else the radial quadrature, or Monte Carlo on rng."""
    if len(mixture) == 1:
        return gmd.gaussian_entropy(mixture.variances[0]), 0.0
    if rng is None:
        estimate = gmd.entropy_radial_quadrature(mixture.variances, tolerance)
    else:
        estimate = gmd.entropy_monte_carlo(mixture.variances, rng, samples)
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


# The tail mass past which the kernel may truncate the integral: the
# value of gmd.TAIL_MASS that the allowance below was derived for, fixed
# here so that a larger kernel truncation fails the mpmath oracles instead
# of widening their allowance with it.
TAIL_MASS = 1e-14


def truncation_allowance(variances):
    """A bound on the entropy past the kernel's truncation point u_max =
    s_max ln(L / TAIL_MASS), which its error estimate leaves out: each
    component's mass there is at most TAIL_MASS / L^2, and there -log2 f(u)
    is at most (u / s_max + ln(pi s_max L)) / ln 2, so the tail is at most
    TAIL_MASS (ln(L / TAIL_MASS) + 1 + |ln(pi s_max L)|) / (L ln 2). It is
    2.6e-13 bits on {1, 2}, whose tail is 1.3e-13."""
    n, s_max = len(variances), float(np.max(variances))
    log_tail = math.log(n / TAIL_MASS) + 1.0 + abs(math.log(math.pi * s_max * n))
    return TAIL_MASS * log_tail / (n * math.log(2.0))


# Roundoff in a kernel value of up to about 70 bits: the 1920 node products
# and the oracle's rounding to float.
ROUNDOFF_BITS = 1e-13


def mp_bound(estimate, variances):
    """How far the kernel's estimate may be from mp_entropy: its own error
    estimate, or the roundoff and truncation allowance if that is larger."""
    return max(estimate.std_error, ROUNDOFF_BITS + truncation_allowance(variances))


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
    power, h(received) by the radial quadrature of its variance row."""
    gains_sq = np.abs(realization.channel_vectors[k - 1]) ** 2
    power = system.signal_power * sum(system.power_levels)
    received = system.noise_power + power * gains_sq
    h_y = gmd.entropy_radial_quadrature(received, tolerance).value
    return time_share * (h_y - gmd.gaussian_entropy(system.noise_power))


def received_second_moment(realization, system, rng, draws):
    """The mean of |y|^2 over `draws` received symbols of decoder 1 for
    message 1, all simulated in one call: the same draws from rng, in the
    same order, held as whole complex arrays with int64 indices."""
    users = system.num_users
    symbols = (rng.standard_normal((draws, users)) + 1j * rng.standard_normal((draws, users))) \
        * math.sqrt(system.signal_power / 2.0)
    idx = np.column_stack([rng.integers(1, system.num_tx_antennas + 1, size=draws)
                           for _ in range(users)])
    noise = (rng.standard_normal(draws) + 1j * rng.standard_normal(draws)) \
        * math.sqrt(system.noise_power / 2.0)
    return float(np.mean(np.abs(
        simulate_received_symbol(realization, system, 1, 1, symbols, idx, noise)) ** 2))
