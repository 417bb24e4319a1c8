"""Spectral-efficiency analysis of a spatial-modulation-aided downlink
NOMA system: Gaussian-mixture entropy machinery, exact mutual information,
closed-form lower bounds, asymptotics, baselines, and experiment runner."""

from .gmd import (
    EntropyEstimate,
    GaussianMixture,
    entropy_bounds_equal_weight_zero_mean,
    entropy_lower_bound,
    entropy_monte_carlo,
    entropy_radial_quadrature,
    entropy_upper_bound,
    equal_weight_zero_mean_mixture,
    gaussian_entropy,
    mixture_from_arrays,
    overlap_matrix,
)
from .system import (
    ChannelRealization,
    SystemConfig,
    draw_channel,
    mixture_of_interference,
    mixture_of_received,
    simulate_received_symbol,
)
from .mi import (
    AsymptoteReport,
    MiResult,
    asymptotes,
    mi_exact,
    mi_lower_bound_k2,
)
from .baselines import miso_noma_mi, sm_tdma_mi
from .runner import (
    ConfigError,
    ExperimentConfig,
    MiCurve,
    PowerSplit,
    run_figure1,
    run_figure2a,
    run_figure2b,
    run_property_suite,
    write_curves,
)

__all__ = [name for name in dir() if not name.startswith("_")]
