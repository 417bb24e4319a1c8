"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

worker.import_package()
OUT_DIR = run.WORK_DIR / "tests"


def _span_tree() -> list[list]:
    # cli.main [0, 10]
    #   runner.run_figure1 [1, 9]
    #     mi.mi_exact [2, 5]
    #       gmd.equal_weight_zero_mean_mixture [2.5, 3]
    #         gmd.mixture_from_arrays [2.6, 2.9]
    #       gmd.entropy_radial_quadrature [3, 4]
    #     mi.mi_exact [5, 8]
    return [
        ["cli.main", -1, 0.0, 10.0],
        ["runner.run_figure1", 0, 1.0, 9.0],
        ["mi.mi_exact", 1, 2.0, 5.0],
        ["gmd.equal_weight_zero_mean_mixture", 2, 2.5, 3.0],
        ["gmd.mixture_from_arrays", 3, 2.6, 2.9],
        ["gmd.entropy_radial_quadrature", 2, 3.0, 4.0],
        ["mi.mi_exact", 1, 5.0, 8.0],
    ]


def test_self_times_subtract_direct_children():
    assert tracing.self_times(_span_tree()) == pytest.approx(
        [2.0, 2.0, 1.5, 0.2, 0.3, 1.0, 3.0])


def test_layer_metrics_on_synthetic_tree():
    recorder = tracing.Recorder()
    recorder.spans.extend(_span_tree())
    layers = tracing.layer_metrics(recorder)
    assert layers["cli.calls"] == 1
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert layers["runner.sweep.self_s"] == pytest.approx(2.0)
    assert layers["mi.exact.calls"] == 2
    assert layers["mi.exact.self_s"] == pytest.approx(4.5)
    assert layers["mi.exact.p50_us"] == pytest.approx(3e6)
    # The nested mixture_from_arrays call is part of one mixture construction.
    assert layers["gmd.mixture.calls"] == 1
    assert layers["gmd.mixture.self_s"] == pytest.approx(0.5)
    assert layers["gmd.quad.calls"] == 1
    assert layers["gmd.quad.fallbacks"] == 0
    # Self times partition the root span.
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(10.0)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    recorder = tracing.Recorder()
    recorder.spans.extend(_span_tree())
    produced = set(tracing.layer_metrics(recorder)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def _bound_functions() -> dict:
    bound = {}
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        bound[(module_name, attr)] = getattr(module, attr)
    cli = importlib.import_module("sm_noma.cli")
    gmd = importlib.import_module("sm_noma.gmd")
    bound[("sm_noma.cli", "_RUNNERS")] = cli._RUNNERS
    bound[("sm_noma.gmd", "integrate")] = gmd.integrate
    return bound


def test_wrappers_are_installed_and_restored():
    before = _bound_functions()
    with tracing.traced(tracing.Recorder()):
        during = _bound_functions()
        assert all(during[key] is not before[key] for key in before)
    after = _bound_functions()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_restored_when_the_workload_raises():
    before = _bound_functions()
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Recorder()):
            1 / 0
    after = _bound_functions()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", ["figures", "montecarlo"])
def test_traced_outputs_equal_untraced_to_the_bit(workload):
    plain = worker.run_workload(workload, 3, OUT_DIR / "plain", trace=False)
    traced = worker.run_workload(workload, 3, OUT_DIR / "traced", trace=True)
    for fig, out in plain["outputs"].items():
        assert traced["outputs"][fig]["csv"] == out["csv"]
        sidecar, traced_sidecar = dict(out["sidecar"]), dict(traced["outputs"][fig]["sidecar"])
        sidecar["config"] = {**sidecar["config"], "output_path": None}
        traced_sidecar["config"] = {**traced_sidecar["config"], "output_path": None}
        assert traced_sidecar == sidecar
    layers = traced["layers"]
    assert layers["gmd.quad.fallbacks"] == 0
    if workload == "figures":
        assert layers["gmd.mc.calls"] == 0
        assert layers["mi.exact.calls"] == 2 * worker.FIGURES_REALIZATIONS * (41 + 41 + 7)
        # fig2a repeats all 41 of fig1's SNRs; fig2b's ratio-4 point is fig1's 30 dB.
        assert layers["mi.exact.repeat_share"] == pytest.approx((41 + 1) / (41 + 41 + 7))
        assert layers["baselines.sm_tdma.repeat_share"] == pytest.approx(0.5)
    else:
        assert layers["gmd.quad.calls"] == 0
        assert layers["system.simulate.calls"] == 0


def _outputs_from(reference: dict, realizations: int, seed: int) -> dict:
    return {
        fig: {"csv": text,
              "sidecar": {"labels": run.csv_labels(text),
                          "config": {"seed": seed, "realizations": realizations}}}
        for fig, text in reference.items()
    }


def _perturb(text: str, row: int, delta: float) -> str:
    lines = text.splitlines()
    label, x, mean, se = lines[row].rsplit(",", 3)
    lines[row] = f"{label},{x},{float(mean) + delta!r},{se}"
    return "\n".join(lines) + "\n"


def test_perturbed_reference_point_is_counted_failed():
    reference = json.loads((run.REFERENCE_DIR / "figures.json").read_text())["seeds"]["0"]
    outputs = _outputs_from(reference, worker.FIGURES_REALIZATIONS, 0)
    clean = run.check_sweeps(outputs, reference, None, 0, worker.FIGURES_REALIZATIONS)
    # fig1: 10 curves x 41 SNRs, fig2a: 3 x 41, fig2b: 2 x 7 power ratios.
    assert (clean["ops"], clean["failed"], clean["problems"]) == (547, 0, [])

    perturbed = dict(reference, fig1=_perturb(reference["fig1"], 5, 2e-9))
    verdict = run.check_sweeps(outputs, perturbed, None, 0, worker.FIGURES_REALIZATIONS)
    assert verdict["failed"] == 1
    assert verdict["max_dev_bits"] == pytest.approx(2e-9, rel=1e-3)
    assert verdict["problems"]


def test_monte_carlo_oracle_counts_a_far_point_failed():
    data = json.loads((run.REFERENCE_DIR / "montecarlo.json").read_text())
    reference, oracle = data["seeds"]["0"], data["oracle"]["0"]
    outputs = _outputs_from(reference, worker.MC_REALIZATIONS, 0)
    clean = run.check_sweeps(outputs, reference, oracle, 0, worker.MC_REALIZATIONS)
    assert clean["failed"] == 0
    assert 0.0 < clean["worst_oracle_z"] <= run.ORACLE_Z

    far = copy.deepcopy(oracle)
    point = far["fig2b"]["SM-NOMA I(1,1)"]["1.0"]
    point[0] += 10.0 * point[1]
    verdict = run.check_sweeps(outputs, reference, far, 0, worker.MC_REALIZATIONS)
    assert verdict["failed"] == 1


def test_props_failures_and_mismatches_are_counted():
    reference = json.loads((run.REFERENCE_DIR / "props.json").read_text())["seeds"]["0"]
    clean = run.check_props({"checks": reference}, reference)
    documented = {"high_snr_saturation", "constant_shift_convergence"}
    assert {name for name, passed, _ in reference if not passed} == documented
    assert (clean["ops"], clean["failed"], clean["problems"]) == (12, 2, [])

    changed = copy.deepcopy(reference)
    changed[0][2] += " "
    verdict = run.check_props({"checks": changed}, reference)
    assert verdict["failed"] == 3
    assert verdict["problems"]
