"""The names of sm_noma that the benchmark harness looks up still resolve.

The tests under bench/tests are not part of this suite. So a rename of a
function that a traced bench run patches (bench/tracing.py TARGETS), or of
a runner helper that bench/make_reference.py rebuilds the Monte Carlo
sweep with, would break the benchmark with no failure here. These tests
read those names out of the bench scripts, without running or changing
anything under bench/, and check that each one resolves.

ROADMAP item 1's change to the bench retires this file: the bench then
reads its per-layer numbers from a stage collector instead of patching
TARGETS, and make_reference.py no longer rebuilds the Monte Carlo sweep
from runner helpers.
"""

import ast
import importlib
from pathlib import Path

import pytest

from sm_noma import runner
from sm_noma.mi import mi_exact

BENCH = Path(__file__).resolve().parents[1] / "bench"


def tracing_targets():
    """The literal TARGETS tuple of bench/tracing.py:
    (module, attribute, span name) triples."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def package_lookups(script):
    """(module, attribute) pairs a bench script reads from sm_noma: the
    names of its `from sm_noma.<module> import` statements, and the
    attributes it takes of the modules that `from sm_noma import` binds."""
    tree = ast.parse((BENCH / script).read_text())
    modules, pairs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sm_noma":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"sm_noma.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sm_noma."):
            pairs.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            pairs.add((modules[node.value.id], node.attr))
    return pairs


# traced() also swaps cli._RUNNERS and gmd.integrate outside TARGETS.
LOOKUPS = sorted(
    {(module, attr) for module, attr, _ in tracing_targets()}
    | {("sm_noma.cli", "_RUNNERS"), ("sm_noma.gmd", "integrate")}
    | package_lookups("make_reference.py")
    | package_lookups("worker.py")
)


def test_scan_finds_the_known_lookups():
    assert {("sm_noma.runner", name)
            for name in ("_draw_realizations", "_at_snr", "substream", "_TAG_MC")
            } <= set(LOOKUPS)
    assert ("sm_noma.mi", "mi_exact") in LOOKUPS
    assert ("sm_noma.gmd", "mixture_from_arrays") in LOOKUPS


@pytest.mark.parametrize("module, attr", LOOKUPS, ids=[f"{m}.{a}" for m, a in LOOKUPS])
def test_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_make_reference_monte_carlo_call():
    # mc_oracle's call, on one realization and a few samples.
    seed = 0
    config = runner.figure2b_config(seed=seed, realizations=1, method="montecarlo",
                                    mc_samples=10)
    sweep = config.power_split
    realization = runner._draw_realizations(config)[0]
    system = runner._at_snr(config.system, config.snr_grid_db[0],
                            sweep.split(sweep.ratio_grid[0]))
    res = mi_exact(
        realization, system, 1, 1, config.entropy_method,
        rng=runner.substream(seed, runner._TAG_MC, 0, 0, 0),
        samples=config.mc_samples, tolerance=config.quadrature_tolerance,
    ).mi_exact
    assert res.sample_count == 20
    assert res.std_error > 0.0


def test_realizations_hold_their_channel_matrix():
    # bench/tracing.py keys repeated mi_exact and sm_tdma_mi calls on
    # args[0].channel_vectors.tobytes(), an attribute the scan above
    # cannot see.
    config = runner.figure1_config(seed=0, realizations=2)
    for realization in runner._draw_realizations(config):
        h = realization.channel_vectors
        assert h.shape == (config.system.num_users, config.system.num_tx_antennas)
        assert h.dtype == complex
        assert not h.flags.writeable
