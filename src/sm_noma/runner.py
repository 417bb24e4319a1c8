"""Batch experiment engine: seeded SNR/power sweeps, realization averaging,
figure-ready CSV/JSON output, and a randomized property suite. The figures
and the suite's MI checks are selections and reductions over one table
(_mi_table) of exact MI, error estimates and lower bounds.

Seeding: every random draw comes from a substream derived deterministically
from (root seed, purpose tag, realization index), so output is bit-identical
for a fixed (config, seed) regardless of evaluation order.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import gmd
from .baselines import MISO_NOMA_ANTENNAS, miso_noma_gains_sq, miso_noma_rows, sm_tdma_rows
from .mi import asymptotes, lower_bound_k2_rows, mi_rows
from .system import (
    ChannelRealization,
    SystemConfig,
    draw_channel,
    mixture_of_received,
    require_integer,
    require_real,
    signal_variances,
    simulate_received_symbol,
)

# Kept only for the benchmark's traced runs, which wrap these names here
# (bench/tracing.py); the sweeps and the property suite compute the same
# quantities from stacked channels, through _mi_table and the row functions,
# and call none of them.
from .baselines import miso_noma_mi, sm_tdma_mi  # noqa: F401
from .mi import mi_exact, mi_lower_bound_k2  # noqa: F401
from .system import mixture_of_interference  # noqa: F401


class ConfigError(ValueError):
    """Invalid or unknown experiment-configuration content."""


# Substream purpose tags: keep channel draws and Monte Carlo draws on
# disjoint, order-independent streams.
_TAG_CHANNEL = 0
_TAG_MC = 1
_TAG_PROPS = 2

# Largest mixture a run may build: M^2 components, one per index pair of the
# two users (N_k = M). The K=2 lower bound holds M^4 float64 terms, 134 MB at
# this limit, which M = 64 reaches.
MAX_MIXTURE_COMPONENTS = 4096

# Largest table a run may build: realizations x grid points x M^2 variance
# entries per decoder, 2^24 float64 (134 MB). A fig1 sweep at M = 64 and
# R = 200 would hold 268 MB.
MAX_TABLE_ENTRIES = 1 << 24

# Largest Monte Carlo sample count: each entropy call holds one buffer of
# 16 B per sample (|a|^2 then -log2 f, and scratch) and one 8 B array at a
# time (the indices, then np.std's deviations), 100 MB at this limit. mi_rows
# runs one call at a time per worker thread, on at most two threads (the
# caller and a helper thread), so a sweep holds at most 200 MB of them.
MAX_MC_SAMPLES = 1 << 22

# Largest |SNR| a grid point may have, in dB. Far beyond it the signal power
# 10^(SNR/10) overflows or the noise dominates every variance to the last bit.
MAX_ABS_SNR_DB = 300.0

# Largest total power x 10^(SNR/10), at unit noise: for gains |h|^2 up to
# 1e6, every variance stays below 1e306 + 1, under the radial quadrature's
# limit of about 2.5e306 at MAX_MIXTURE_COMPONENTS components.
MAX_SIGNAL_POWER = 1e300


def substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _require_finite(name: str, *values: float) -> None:
    """Raise ConfigError unless every value is a finite real number."""
    for value in values:
        require_real(name, value, ConfigError)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be finite")


@dataclass(frozen=True)
class PowerSplit:
    """The power levels alpha1^2 : alpha2^2 = ratio for each ratio of the
    grid, at alpha1^2 + alpha2^2 = total."""

    total: float = 5.0
    ratio_grid: tuple[float, ...] = (4.0,)

    def __post_init__(self):
        ratios = tuple(self.ratio_grid)
        _require_finite("total power and ratio grid", self.total, *ratios)
        object.__setattr__(self, "ratio_grid", tuple(float(r) for r in ratios))
        if self.total <= 0:
            raise ConfigError("total power must be positive")
        if not self.ratio_grid or any(r < 0 for r in self.ratio_grid):
            raise ConfigError("ratio grid must be nonempty and nonnegative")
        if any(b >= a for a, b in zip(self.ratio_grid[1:], self.ratio_grid)):
            raise ConfigError("ratio grid must be strictly increasing")

    def split(self, ratio: float) -> tuple[float, float]:
        """alpha1^2 : alpha2^2 = ratio with alpha1^2 + alpha2^2 = total."""
        a2 = self.total / (1.0 + ratio)
        return self.total - a2, a2


def default_snr_grid() -> tuple[float, ...]:
    return tuple(float(s) for s in range(-40, 42, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings. The system has two users (K = 2) on conventional
    SM with M = num_tx_antennas; power_split gives their power levels."""

    # Each entropy's error bound for the radial quadrature, mi_rows' default.
    # Read only by bench/make_reference.py and tests/test_bench_contract.py.
    quadrature_tolerance: ClassVar[float] = gmd.QUADRATURE_TOLERANCE

    num_tx_antennas: int = 4
    snr_grid_db: tuple[float, ...] = default_snr_grid()
    power_split: PowerSplit = PowerSplit()
    realizations: int = 200
    mc_samples: int = 10**6
    seed: int = 0
    # Not part of the sweep: configs differing only here are equal, so
    # _sweep_table's cache holds one table for them.
    output_path: str | None = field(default=None, compare=False)
    method: str = "quadrature"

    def __post_init__(self):
        grid = tuple(self.snr_grid_db)
        if not grid:
            raise ConfigError("snr_grid_db must be nonempty")
        _require_finite("snr_grid_db", *grid)
        outside = [s for s in grid if abs(s) > MAX_ABS_SNR_DB]
        if outside:
            raise ConfigError(f"snr_grid_db must lie within [-{MAX_ABS_SNR_DB:g}, "
                              f"{MAX_ABS_SNR_DB:g}] dB, got {outside[0]!r}")
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in grid))
        if any(b >= a for a, b in zip(self.snr_grid_db[1:], self.snr_grid_db)):
            raise ConfigError("snr_grid_db must be strictly increasing")
        for name in ("realizations", "mc_samples", "seed", "num_tx_antennas"):
            require_integer(name, getattr(self, name), ConfigError)
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if not 1 <= self.mc_samples <= MAX_MC_SAMPLES:
            raise ConfigError(f"mc_samples must lie in 1..{MAX_MC_SAMPLES}, got {self.mc_samples}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.method not in ("quadrature", "montecarlo"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string or null, got {self.output_path!r}")
        if self.num_tx_antennas < 1:
            raise ConfigError("num_tx_antennas must be >= 1")
        if not isinstance(self.power_split, PowerSplit):
            raise ConfigError(f"power_split must be a PowerSplit, got {self.power_split!r}")
        total, snr_db = self.power_split.total, self.snr_grid_db[-1]
        if total * 10.0 ** (snr_db / 10.0) > MAX_SIGNAL_POWER:
            raise ConfigError(f"total power {total!r} at {snr_db!r} dB gives a signal power "
                              f"past the limit of {MAX_SIGNAL_POWER:g}")
        components = self.num_tx_antennas ** 2
        if components > MAX_MIXTURE_COMPONENTS:
            raise ConfigError(f"num_tx_antennas gives {components} mixture components, "
                              f"more than the limit of {MAX_MIXTURE_COMPONENTS}")

    @property
    def system(self) -> SystemConfig:
        """The two-user system at the split's first power ratio, unit signal
        and noise power. _at_snr sets the powers and the SNR at each grid
        point."""
        split = self.power_split
        return SystemConfig(self.num_tx_antennas, 2, split.split(split.ratio_grid[0]), 1.0, 1.0)

    @property
    def entropy_method(self) -> str:
        return "radial_quadrature" if self.method == "quadrature" else "monte_carlo"


@dataclass(frozen=True)
class MiCurve:
    """One labeled curve: (x, mean bits, std error bits) per grid point."""

    label: str
    points: tuple[tuple[float, float, float], ...]


def figure1_config(**overrides) -> ExperimentConfig:
    """Figures 1 and 2(a) and the property suite: the default SNR grid at
    total power 5 and ratio 4, so the powers are (4, 1)."""
    return ExperimentConfig(**overrides)


def figure2b_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{
        "snr_grid_db": (30.0,),
        "power_split": PowerSplit(5.0, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)),
        **overrides,
    })


# Single-knob SNR: every grid point has this noise power.
_NOISE_POWER = 1.0


def _at_snr(system: SystemConfig, snr_db: float, powers: tuple[float, float]) -> SystemConfig:
    """Single-knob SNR: sigma_v^2 = 1 fixed, sigma_s^2 = rho."""
    return replace(
        system,
        power_levels=powers,
        noise_power=_NOISE_POWER,
        signal_power=10.0 ** (snr_db / 10.0),
    )


def _only(values: tuple[float, ...], what: str) -> float:
    """The one value of a grid that a run holds fixed; ConfigError otherwise."""
    if len(values) != 1:
        raise ConfigError(f"this run needs exactly one {what}, got {len(values)}")
    return values[0]


def _grid(config: ExperimentConfig, x_axis: str) -> list[SystemConfig]:
    """The system at each point of a sweep: the SNR grid at the split's one
    power ratio (x_axis "snr_db"), or the ratio grid at the one SNR point
    (x_axis "power_ratio")."""
    base, split = config.system, config.power_split
    if x_axis == "power_ratio":
        snr_db = _only(config.snr_grid_db, "SNR point")
        return [_at_snr(base, snr_db, split.split(ratio)) for ratio in split.ratio_grid]
    powers = split.split(_only(split.ratio_grid, "power ratio"))
    return [_at_snr(base, snr_db, powers) for snr_db in config.snr_grid_db]


def _require_table_size(config: ExperimentConfig, rows: int, points: int) -> None:
    """Raise ConfigError if (rows, points, M^2) variance rows exceed
    MAX_TABLE_ENTRIES."""
    components = config.num_tx_antennas ** 2
    entries = rows * points * components
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(
            f"{rows} realizations x {points} grid points x {components} mixture "
            f"components give {entries} variance entries, more than the limit of "
            f"{MAX_TABLE_ENTRIES}")


def _mean_curves(
    label_rows: dict[str, np.ndarray], xs: tuple[float, ...]
) -> list[MiCurve]:
    """Reduce (realization, grid) sample arrays to mean/std-error curves in
    fixed label order."""
    curves = []
    for label, samples in label_rows.items():
        mean = samples.mean(axis=0)
        n = samples.shape[0]
        if n > 1:
            se = samples.std(axis=0, ddof=1) / math.sqrt(n)
        else:
            se = np.zeros_like(mean)
        curves.append(
            MiCurve(
                label,
                tuple(
                    (float(x), float(m), float(s)) for x, m, s in zip(xs, mean, se)
                ),
            )
        )
    return curves


def _draw_realizations(config: ExperimentConfig) -> list[ChannelRealization]:
    system = config.system
    return [
        draw_channel(system, substream(config.seed, _TAG_CHANNEL, i))
        for i in range(config.realizations)
    ]


# One table: each CLI call draws one figure, and the only table a figure
# repeats is the one made just before it (fig2a's, after fig1, whatever
# either's output path).
@functools.lru_cache(maxsize=1)
def _sweep_table(config: ExperimentConfig, x_axis: str) -> dict[str, np.ndarray]:
    """Per-user quantities over (user k, realization i, grid point j), the
    grid along x_axis (see _grid): one read-only (2, R, G) array per
    quantity. _mi_table gives "I" and "I_err" for each user's own message;
    the "snr_db" table also holds "I_LB" and the baselines "MISO-NOMA" and
    "SM-TDMA", with the bits of miso_noma_mi and sm_tdma_mi in every cell.
    """
    snr_axis = x_axis == "snr_db"
    if snr_axis and config.num_tx_antennas < MISO_NOMA_ANTENNAS:
        raise ConfigError(f"the MISO-NOMA baseline needs {MISO_NOMA_ANTENNAS} antennas, "
                          f"the system has {config.num_tx_antennas}")
    systems = _grid(config, x_axis)
    _require_table_size(config, config.realizations, len(systems))
    channels = np.stack([r.channel_vectors for r in _draw_realizations(config)])
    levels = np.array([system.power_levels for system in systems])  # (G, 2)
    rho = np.array([system.snr for system in systems])  # (G,), at unit noise
    table = _mi_table(config, channels, levels, rho, ((1, 1), (2, 2)),
                      ("I", "I_LB") if snr_axis else ("I",))
    if snr_axis:
        miso_gains = miso_noma_gains_sq(channels)[..., None]  # (R, 2, 1)
        table["MISO-NOMA"] = np.stack([
            miso_noma_rows(miso_gains[:, k - 1], levels, rho, _NOISE_POWER, k) for k in (1, 2)])
        table["SM-TDMA"] = np.stack([
            sm_tdma_rows(np.abs(channels[:, k, None, :]) ** 2, levels, rho, _NOISE_POWER)
            for k in (0, 1)])
    for rows in table.values():
        rows.setflags(write=False)
    return table


def _mi_table(
    config: ExperimentConfig, channels: np.ndarray, levels: np.ndarray, rho: np.ndarray,
    pairs: tuple[tuple[int, int], ...], quantities: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """MI over (pair p, row n, grid point j) for the decoder/message pairs
    (r, k), from channels (N, 2, M), the power levels (G, 2) and rho, which
    broadcast over (N, G). "I" in quantities gives mi_rows' exact I(r, k)
    by config.method as "I" and its error estimate as "I_err" (Monte Carlo
    substream key (n, j, p)); "I_LB" gives the closed-form lower bound.
    """
    table = {}
    gains = np.abs(channels[:, None]) ** 2  # |h_r|^2 as (N, 1, 2, M), against the grid
    if "I" in quantities:
        # Each power level and the SNR are (..., 1), against the component axis.
        table["I"], table["I_err"], _ = mi_rows(
            gains, levels.T[..., None], rho[..., None], _NOISE_POWER, pairs, config.entropy_method,
            rngs=lambda cell: substream(config.seed, _TAG_MC, *cell[1:], cell[0]),
            samples=config.mc_samples)
    if "I_LB" in quantities:
        table["I_LB"] = np.stack([lower_bound_k2_rows(gains[..., r - 1, :], levels, rho, k)
                                  for r, k in pairs])
    return table


def run_figure1(config: ExperimentConfig) -> list[MiCurve]:
    """Per-user MI of SM-NOMA and the baselines plus the closed-form lower
    bounds, on the SNR grid at the split's one power ratio."""
    table = _sweep_table(config, "snr_db")
    rows = {**table, "I_LB+": np.maximum(table["I_LB"], 0.0)}
    curves = {f"SM-NOMA {name}({k},{k})": rows[name][k - 1]
              for name in ("I", "I_LB", "I_LB+") for k in (1, 2)}
    curves.update({f"MISO-NOMA I({k},{k})": rows["MISO-NOMA"][k - 1] for k in (1, 2)})
    curves.update({f"SM-TDMA I({k})": rows["SM-TDMA"][k - 1] for k in (1, 2)})
    return _mean_curves(curves, config.snr_grid_db)


def run_figure2a(config: ExperimentConfig) -> list[MiCurve]:
    """Sum MI of SM-NOMA and the baselines on the SNR grid at the split's
    one power ratio."""
    rows = _sweep_table(config, "snr_db")
    curves = {f"{name} sum": rows[key][0] + rows[key][1]
              for name, key in (("SM-NOMA", "I"), ("MISO-NOMA", "MISO-NOMA"),
                                ("SM-TDMA", "SM-TDMA"))}
    return _mean_curves(curves, config.snr_grid_db)


def run_figure2b(config: ExperimentConfig) -> list[MiCurve]:
    """Per-user MI at the one SNR point versus the power ratio
    alpha1^2/alpha2^2, with the total power held constant. Curve x-values
    are the ratios."""
    mi = _sweep_table(config, "power_ratio")["I"]
    return _mean_curves({"SM-NOMA I(1,1)": mi[0], "SM-NOMA I(2,2)": mi[1]},
                        config.power_split.ratio_grid)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    results: tuple[PropertyResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
            for r in self.results
        ]


def _random_zero_mean_mixture(rng: np.random.Generator) -> gmd.GaussianMixture:
    n = int(rng.integers(1, 9))
    variances = 10.0 ** rng.uniform(-2, 2, size=n)
    return gmd.equal_weight_zero_mean_mixture(variances)


# The second-moment check's draw count, and the draws it simulates at a time.
SECOND_MOMENT_DRAWS = 200_000
SIMULATION_SLICE = 4096


def received_second_moment(
    realization: ChannelRealization, system: SystemConfig, rng: np.random.Generator,
    draws: int,
) -> float:
    """The mean of |y|^2 over `draws` simulated received symbols y of
    decoder 1 for message 1, by simulate_received_symbol.

    rng's stream holds 2 + K + 2 sections, each `draws` long: the symbols'
    (draws, K) real normals, then their imaginary normals, then each
    user's active indices, then the noise's real and imaginary normals.
    A pre-pass walks all but the last section in slices, keeping a copy of
    the generator at the start of each, and rng itself is at the start of
    the last. The main pass then steps these cursors together, each
    SIMULATION_SLICE (4096) draws at a time, forms the slice's symbols,
    noise and y, and writes its |y|^2 into one (draws,) array, whose mean
    is the result. A section drawn in slices holds the values it holds
    drawn whole, every operation is elementwise and the mean is over one
    contiguous array, so the value, and rng's state at the end, have the
    bits of simulating all draws at once, at any slice size. Only |y|^2
    (1.6 MB at 200 000 draws) is held whole; with a slice's transients the
    check peaks about 2.5 MB above what it is given.

    The indices go to simulate_received_symbol as int8, so M above 127
    raises ValueError (a run's M is at most 64), as does a draw count that
    is not an integer >= 1; either before any draw."""
    gmd._check_count("draws", draws)
    users, antennas = system.num_users, system.num_tx_antennas
    if antennas > np.iinfo(np.int8).max:
        raise ValueError(f"int8 indices hold at most 127 antennas, got M = {antennas}")
    sections = (
        lambda g, n: g.standard_normal((n, users)),
        lambda g, n: g.standard_normal((n, users)),
        *[lambda g, n: g.integers(1, antennas + 1, size=n)] * users,
        lambda g, n: g.standard_normal(n),
        lambda g, n: g.standard_normal(n),
    )
    starts = range(0, draws, SIMULATION_SLICE)
    cursors = []
    for draw in sections[:-1]:
        cursors.append(copy.deepcopy(rng))
        for start in starts:
            draw(rng, min(SIMULATION_SLICE, draws - start))
    cursors.append(rng)
    symbol_scale = math.sqrt(system.signal_power / 2.0)
    noise_scale = math.sqrt(system.noise_power / 2.0)
    abs_sq = np.empty(draws)
    for start in starts:
        n = min(SIMULATION_SLICE, draws - start)
        symbols_re, symbols_im, *indices, noise_re, noise_im = (
            draw(cursor, n) for draw, cursor in zip(sections, cursors))
        symbols = (symbols_re + 1j * symbols_im) * symbol_scale
        noise = (noise_re + 1j * noise_im) * noise_scale
        indices = np.stack(indices, axis=1, dtype=np.int8)
        y = simulate_received_symbol(realization, system, 1, 1, symbols, indices, noise)
        abs_sq[start : start + n] = np.abs(y) ** 2
    return float(np.mean(abs_sq))


def run_property_suite(config: ExperimentConfig) -> PropertyReport:
    """Randomized cross-module invariant checks with the configured seed,
    at the powers of the split's one power ratio. The suite estimates every
    exact MI by radial quadrature, so a config asking for Monte Carlo is
    rejected; it writes no file and reads neither mc_samples nor
    output_path."""
    if config.method != "quadrature":
        raise ConfigError(f"the property suite estimates by quadrature, "
                          f"not method {config.method!r}")
    powers = config.power_split.split(_only(config.power_split.ratio_grid, "power ratio"))
    # The largest table: the SIC check's 3 SNR points at n_real draws.
    n_real = max(config.realizations, 200)
    _require_table_size(config, n_real, 3)
    base = config.system
    rng = substream(config.seed, _TAG_PROPS)
    results: list[PropertyResult] = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append(PropertyResult(name, bool(passed), detail))

    # Entropy bound sandwich on random zero-mean mixtures.
    tol = 1e-8
    worst = 0.0
    violations = 0
    for _ in range(100):
        mix = _random_zero_mean_mixture(rng)
        h = gmd.entropy_radial_quadrature(mix.variances).value
        lb = gmd.entropy_lower_bound(mix)
        ub = gmd.entropy_upper_bound(mix)
        gap = max(lb - h, h - ub)
        worst = max(worst, gap)
        if gap > tol:
            violations += 1
    record("bound_sandwich", violations == 0,
           f"{violations} violations, worst slack {worst:.3e} bits")

    # Duplicate invariance of the lower bound; upper bound shifts by beta.
    max_lb_dev = 0.0
    max_ub_dev = 0.0
    for _ in range(25):
        mix = _random_zero_mean_mixture(rng)
        w, v = mix.weights, mix.variances
        split_w = np.concatenate([w[:1] / 2, w[:1] / 2, w[1:]])
        split_v = np.concatenate([v[:1], v[:1], v[1:]])
        split = gmd.mixture_from_arrays(split_w, split_v)
        max_lb_dev = max(max_lb_dev, abs(
            gmd.entropy_lower_bound(split) - gmd.entropy_lower_bound(mix)))
        max_ub_dev = max(max_ub_dev, abs(
            gmd.entropy_upper_bound(split) - gmd.entropy_upper_bound(mix) - w[0]))
    record("duplicate_invariance", max_lb_dev < 1e-10 and max_ub_dev < 1e-10,
           f"LB dev {max_lb_dev:.3e}, UB-shift dev {max_ub_dev:.3e} bits")

    # Closed-form equal-weight path matches the general bounds.
    max_dev = 0.0
    for _ in range(50):
        mix = _random_zero_mean_mixture(rng)
        lb, ub = gmd.entropy_bounds_equal_weight_zero_mean(mix.variances)
        max_dev = max(max_dev,
                      abs(lb - gmd.entropy_lower_bound(mix)),
                      abs(ub - gmd.entropy_upper_bound(mix)))
    record("equal_weight_specialization", max_dev < 1e-12,
           f"max deviation {max_dev:.3e} bits")

    # Scaling every variance by c adds log2(c) to bounds and exact entropy.
    max_dev = 0.0
    for _ in range(10):
        mix = _random_zero_mean_mixture(rng)
        c = float(10.0 ** rng.uniform(-1, 1))
        scaled = gmd.equal_weight_zero_mean_mixture(mix.variances * c)
        shift = math.log2(c)
        max_dev = max(
            max_dev,
            abs(gmd.entropy_lower_bound(scaled) - gmd.entropy_lower_bound(mix) - shift),
            abs(gmd.entropy_upper_bound(scaled) - gmd.entropy_upper_bound(mix) - shift),
            abs(gmd.entropy_radial_quadrature(scaled.variances).value
                - gmd.entropy_radial_quadrature(mix.variances).value - shift),
        )
    record("variance_scaling", max_dev < 1e-8, f"max deviation {max_dev:.3e} bits")

    # The MI checks read the sweep's table at the split's powers.
    levels = np.array([powers])
    pairs = ((1, 1), (2, 1), (2, 2))

    def table(channels, rho, quantities, pairs=pairs):
        return _mi_table(config, channels, levels, rho, pairs, quantities)

    def operating_points(n):
        """n channel draws, each followed in the rng by its SNR, uniform on
        [-40, 40) dB: the channels (n, 2, M) and rho (n, 1)."""
        channels, rho = [], []
        for _ in range(n):
            channels.append(draw_channel(base, rng).channel_vectors)
            rho.append(_at_snr(base, float(rng.uniform(-40, 40)), powers).snr)
        return np.stack(channels), np.array(rho)[:, None]

    # Closed-form K=2 lower bound equals the bound assembly from mixtures
    # of the same variance rows, by the general entropy bounds.
    channels, rho = operating_points(100)
    direct = table(channels, rho, ("I_LB",))["I_LB"]
    max_dev = 0.0
    for p, (r, k) in enumerate(pairs):
        gains = np.abs(channels[:, r - 1]) ** 2
        received, interference = (signal_variances(gains, powers, rho, _NOISE_POWER, t)
                                  for t in (k, k + 1))
        for n in range(len(channels)):
            lb = gmd.entropy_lower_bound(gmd.equal_weight_zero_mean_mixture(received[n]))
            ub = gmd.entropy_upper_bound(gmd.equal_weight_zero_mean_mixture(interference[n]))
            max_dev = max(max_dev, abs(direct[p, n, 0] - (lb - ub)))
    record("lb_path_equivalence", max_dev < 1e-10, f"max |delta| {max_dev:.3e} bits")

    # Lower-bound validity against the exact MI on random operating points.
    mi = table(*operating_points(100), ("I", "I_LB"))
    excess = mi["I_LB"] - (mi["I"] + 3.0 * mi["I_err"])
    violations = int(np.count_nonzero(excess > 0))
    record("lb_validity", violations == 0,
           f"{violations} violations, worst LB excess {float(excess.max()):.3e} bits")

    # Asymptotic behavior averaged over realizations at the SNR extremes.
    channels = np.stack([draw_channel(base, rng).channel_vectors for _ in range(n_real)])
    sys_high = _at_snr(base, 40.0, powers)
    sys_low = _at_snr(base, -40.0, powers)
    high_mi = table(channels, np.array([sys_high.snr]), ("I", "I_LB"), pairs=((1, 1),))
    i11 = high_mi["I"][0, :, 0]
    shift11 = i11 - high_mi["I_LB"][0, :, 0]
    low_mi = table(channels, np.array([sys_low.snr]), ("I", "I_LB"))
    low_dev = float(np.abs(low_mi["I"]).max())
    # The lower bound's low-SNR limit is its constant shift.
    limits = np.array([[asymptotes(sys_low, k).constant_shift] for _, k in pairs])
    lb_low_dev = float(np.abs(low_mi["I_LB"][..., 0] - limits).max())
    mid_rho = np.array([_at_snr(base, s, powers).snr for s in (10.0, 20.0, 30.0)])
    mid = table(channels, mid_rho, ("I",), pairs=((1, 1), (2, 2)))["I"]
    sic_gap = mid[1] - mid[0]  # (n_real, 3), C-contiguous
    record("low_snr_limits", low_dev < 0.02 and lb_low_dev < 0.02,
           f"max |MI| {low_dev:.4f}, max LB deviation {lb_low_dev:.4f} bits at -40 dB")
    high = asymptotes(sys_high, 1)
    dev = abs(float(i11.mean()) - high.high_snr_mi_limit)
    record("high_snr_saturation", dev < 0.1,
           f"mean I(1,1) at 40 dB off the merged-Gaussian ceiling by {dev:.4f} bits "
           f"(tolerance 0.1)")
    target_shift = -high.constant_shift
    dev = abs(float(shift11.mean()) - target_shift)
    record("constant_shift_convergence", dev < 0.1,
           f"mean I-I_LB at 40 dB off {target_shift:.4f} by {dev:.4f} bits "
           f"(tolerance 0.1)")
    min_gap = float(sic_gap.mean(axis=0).min())
    record("sic_ordering", min_gap > 0.0,
           f"min mean I(2,2)-I(1,1) over 10-30 dB is {min_gap:.4f} bits")

    # Quadrupling Monte Carlo samples should halve the reported std error.
    ratios = []
    for _ in range(5):
        mix = _random_zero_mean_mixture(rng)
        se_small = gmd.entropy_monte_carlo(mix.variances, rng, 20_000).std_error
        se_large = gmd.entropy_monte_carlo(mix.variances, rng, 80_000).std_error
        ratios.append(se_small / se_large)
    mean_ratio = float(np.mean(ratios))
    record("mc_error_scaling", abs(mean_ratio - 2.0) < 0.4,
           f"mean std-error ratio {mean_ratio:.3f} (expect 2)")

    # Empirical second moment of simulated symbols matches the mixture power.
    system = _at_snr(base, 10.0, powers)
    realization = draw_channel(system, rng)
    mix = mixture_of_received(realization, system, 1, 1)
    power = received_second_moment(realization, system, rng, SECOND_MOMENT_DRAWS)
    rel = abs(power - mix.mean_power) / mix.mean_power
    record("received_second_moment", rel < 0.01,
           f"relative deviation {rel:.4f} (tolerance 0.01)")

    return PropertyReport(tuple(results))


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


def _fields_from(cls, data, context: str) -> dict:
    """The keyword arguments of `cls` in a JSON object: unknown keys are
    rejected, missing keys keep the field defaults, lists become tuples."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    return {name: tuple(v) if isinstance(v, list) else v for name, v in data.items()}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain dict; unknown keys rejected."""
    try:
        values = _fields_from(ExperimentConfig, data, "config")
        if "power_split" in values:
            values["power_split"] = PowerSplit(
                **_fields_from(PowerSplit, values["power_split"], "power_split"))
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(data)


def write_curves(
    path: str | Path,
    curves: list[MiCurve],
    config: ExperimentConfig,
    x_axis: str = "snr_db",
) -> None:
    """CSV with one row per (curve, grid point), its x column named x_axis,
    plus a JSON sidecar embedding the fully resolved config for provenance."""
    path = Path(path)
    lines = [f"label,{x_axis},mean_bits,std_error_bits"]
    for curve in curves:
        for x, mean, se in curve.points:
            lines.append(f"{curve.label},{x:.10g},{mean:.12g},{se:.12g}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "config": config_to_dict(config),
        "x_axis": x_axis,
        "labels": [c.label for c in curves],
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
