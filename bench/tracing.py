"""Span recorder for the benchmark's traced runs.

A traced run replaces each public `sm_noma` function the benchmark times
by a wrapper, at the place where its caller looks it up (for example
`sm_noma.runner.mi_exact`, since the runner imports that name). Each call
records one span: name, start, end and the index of the enclosing span.
Spans stay in memory; the worker writes them out after the workload ends.
`traced()` restores every original on exit, also when the workload raises.

Layer metrics are computed from the spans afterwards: a layer's calls are
its outermost spans (a span whose parent belongs to another layer), and
its self time is the sum of its spans' durations minus the time their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from pathlib import Path

# Span name -> layer. Span names are "<module>.<function>".
LAYER_OF = {
    "gmd.entropy_radial_quadrature": "gmd.quad",
    "gmd.integrate.quad": "gmd.quad",
    "gmd.entropy_monte_carlo": "gmd.mc",
    "gmd.mixture_from_arrays": "gmd.mixture",
    "gmd.equal_weight_zero_mean_mixture": "gmd.mixture",
    "gmd.entropy_lower_bound": "gmd.bounds",
    "gmd.entropy_upper_bound": "gmd.bounds",
    "gmd.entropy_bounds_equal_weight_zero_mean": "gmd.bounds",
    "system.mixture_of_received": "system.mixture",
    "system.mixture_of_interference": "system.mixture",
    "system.draw_channel": "system.draw_channel",
    "system.simulate_received_symbol": "system.simulate",
    "mi.mi_exact": "mi.exact",
    "mi.mi_lower_bound_k2": "mi.lb_k2",
    "baselines.sm_tdma_mi": "baselines.sm_tdma",
    "baselines.miso_noma_mi": "baselines.miso",
    "runner.run_figure1": "runner.sweep",
    "runner.run_figure2a": "runner.sweep",
    "runner.run_figure2b": "runner.sweep",
    "runner.run_property_suite": "runner.props",
    "runner.write_curves": "runner.write",
    "cli.main": "cli",
}

# (module where the caller looks the name up, attribute, span name).
TARGETS = (
    ("sm_noma.gmd", "entropy_radial_quadrature", "gmd.entropy_radial_quadrature"),
    ("sm_noma.gmd", "entropy_monte_carlo", "gmd.entropy_monte_carlo"),
    ("sm_noma.gmd", "mixture_from_arrays", "gmd.mixture_from_arrays"),
    ("sm_noma.gmd", "equal_weight_zero_mean_mixture", "gmd.equal_weight_zero_mean_mixture"),
    ("sm_noma.system", "equal_weight_zero_mean_mixture", "gmd.equal_weight_zero_mean_mixture"),
    ("sm_noma.gmd", "entropy_lower_bound", "gmd.entropy_lower_bound"),
    ("sm_noma.gmd", "entropy_upper_bound", "gmd.entropy_upper_bound"),
    ("sm_noma.gmd", "entropy_bounds_equal_weight_zero_mean",
     "gmd.entropy_bounds_equal_weight_zero_mean"),
    ("sm_noma.mi", "mixture_of_received", "system.mixture_of_received"),
    ("sm_noma.mi", "mixture_of_interference", "system.mixture_of_interference"),
    ("sm_noma.runner", "mixture_of_received", "system.mixture_of_received"),
    ("sm_noma.runner", "mixture_of_interference", "system.mixture_of_interference"),
    ("sm_noma.runner", "draw_channel", "system.draw_channel"),
    ("sm_noma.runner", "simulate_received_symbol", "system.simulate_received_symbol"),
    ("sm_noma.runner", "mi_exact", "mi.mi_exact"),
    ("sm_noma.mi", "mi_lower_bound_k2", "mi.mi_lower_bound_k2"),
    ("sm_noma.runner", "mi_lower_bound_k2", "mi.mi_lower_bound_k2"),
    ("sm_noma.runner", "sm_tdma_mi", "baselines.sm_tdma_mi"),
    ("sm_noma.runner", "miso_noma_mi", "baselines.miso_noma_mi"),
    ("sm_noma.runner", "run_property_suite", "runner.run_property_suite"),
    ("sm_noma.cli", "run_property_suite", "runner.run_property_suite"),
    ("sm_noma.cli", "write_curves", "runner.write_curves"),
    ("sm_noma.cli", "main", "cli.main"),
)

# Spans whose (args, kwargs, result) are kept for the per-layer extras.
KEEP_CALLS = frozenset({
    "gmd.entropy_radial_quadrature",
    "gmd.entropy_monte_carlo",
    "mi.mi_exact",
    "baselines.sm_tdma_mi",
    "runner.write_curves",
})


class Recorder:
    """In-memory span list plus the kept call arguments of KEEP_CALLS."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.calls: dict[str, list[tuple]] = {name: [] for name in KEEP_CALLS}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.calls.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if kept is not None:
                kept.append((args, kwargs, result))
            return result

        return wrapper


class _IntegrateProxy:
    """Stands in for `scipy.integrate` inside `sm_noma.gmd` so that the
    quadrature fallback is counted without patching scipy itself."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))

        cli = importlib.import_module("sm_noma.cli")
        saved.append((cli, "_RUNNERS", cli._RUNNERS))
        cli._RUNNERS = {
            cmd: (recorder.wrap(f"runner.{fn.__name__}", fn), axis)
            for cmd, (fn, axis) in cli._RUNNERS.items()
        }

        gmd = importlib.import_module("sm_noma.gmd")
        saved.append((gmd, "integrate", gmd.integrate))
        gmd.integrate = _IntegrateProxy(
            gmd.integrate, recorder.wrap("gmd.integrate.quad", gmd.integrate.quad)
        )
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list (no calls made)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _repeat_share(keys: list) -> float:
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def _call_key(args, kwargs):
    """Identity of a call whose first argument is a ChannelRealization; a
    call with its own Monte Carlo rng never repeats another."""
    if kwargs.get("rng") is not None:
        return object()
    return (args[0].channel_vectors.tobytes(), repr(args[1:]), repr(sorted(kwargs.items())))


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer counts, self times and extras (see BENCHMARK.json)."""
    spans = recorder.spans
    selfs = self_times(spans)
    layer_of = [LAYER_OF[name] for name, _, _, _ in spans]
    out: dict[str, float] = {}
    for layer in sorted(set(LAYER_OF.values())):
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        layer = layer_of[i]
        out[f"{layer}.self_s"] += selfs[i]
        if parent < 0 or layer_of[parent] != layer:
            out[f"{layer}.calls"] += 1

    quad = recorder.calls["gmd.entropy_radial_quadrature"]
    quad_spans = [s for s in spans if s[0] == "gmd.entropy_radial_quadrature"]
    by_size: dict[int, list[float]] = {}
    for (args, _, _), (_, _, start, end) in zip(quad, quad_spans):
        by_size.setdefault(len(args[0]), []).append((end - start) * 1e6)
    for n in (4, 16):
        out[f"gmd.quad.n{n}.p50_us"] = _percentile(by_size.get(n, []), 50)
        out[f"gmd.quad.n{n}.p90_us"] = _percentile(by_size.get(n, []), 90)
    out["gmd.quad.fallbacks"] = sum(1 for s in spans if s[0] == "gmd.integrate.quad")
    out["gmd.quad.max_err_bits"] = max((res.std_error for _, _, res in quad), default=0.0)

    samples = sum(res.sample_count for _, _, res in recorder.calls["gmd.entropy_monte_carlo"])
    out["gmd.mc.samples"] = samples
    out["gmd.mc.ns_per_sample"] = out["gmd.mc.self_s"] / samples * 1e9 if samples else 0.0

    mi_spans = [(end - start) * 1e6 for name, _, start, end in spans if name == "mi.mi_exact"]
    out["mi.exact.p50_us"] = _percentile(mi_spans, 50)
    out["mi.exact.repeat_share"] = _repeat_share(
        [_call_key(a, kw) for a, kw, _ in recorder.calls["mi.mi_exact"]])
    out["baselines.sm_tdma.repeat_share"] = _repeat_share(
        [_call_key(a, kw) for a, kw, _ in recorder.calls["baselines.sm_tdma_mi"]])

    written = 0
    for args, kwargs, _ in recorder.calls["runner.write_curves"]:
        path = Path(args[0] if args else kwargs["path"])
        written += path.stat().st_size
        written += path.with_suffix(path.suffix + ".json").stat().st_size
    out["runner.write.bytes"] = written
    out["runner.write.s"] = sum(
        end - start for name, _, start, end in spans if name == "runner.write_curves")
    return out
