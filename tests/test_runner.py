"""Tests for the experiment runner, config parsing, output, and CLI.

tests/data/pinned_props.json holds every (name, passed, detail) of the
property suite at seed 0. To regenerate it from a given checkout:

    PYTHONPATH=<checkout>/src python3 tests/test_runner.py
"""

import json
import math
import os
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
import pytest

from sm_noma import cli, gmd, runner
from sm_noma.baselines import (
    miso_noma_gains_sq,
    miso_noma_mi,
    miso_noma_rows,
    sm_tdma_rows,
)
from sm_noma.cli import main
from sm_noma.mi import mi_lower_bound_k2
from sm_noma.runner import (
    ConfigError,
    ExperimentConfig,
    PowerSplit,
    _at_snr,
    _draw_realizations,
    config_from_dict,
    config_to_dict,
    default_snr_grid,
    figure1_config,
    figure2b_config,
    load_config,
    run_figure1,
    run_figure2a,
    run_figure2b,
    run_property_suite,
    write_curves,
)
from sm_noma.system import SystemConfig

# Properties that embody the source analysis' merged-Gaussian high-SNR
# approximation; its error exceeds the stated 0.1-bit tolerance, so a
# faithful implementation reports them as failed (see test_acceptance).
KNOWN_DEFECT_PROPERTIES = {"high_snr_saturation", "constant_shift_convergence"}
NAN, INF = math.nan, math.inf
PINNED_PROPS = Path(__file__).parent / "data" / "pinned_props.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def property_suite_results():
    report = run_property_suite(figure1_config(realizations=200, seed=0))
    return [[r.name, r.passed, r.detail] for r in report.results]


def tiny_config(**overrides):
    base = dict(realizations=3, snr_grid_db=(-10.0, 0.0, 10.0), seed=11)
    base.update(overrides)
    return figure1_config(**base)


# One input per float-typed config field, holding a string or a bool where
# a real number belongs.
NON_REAL_INPUTS = [
    {"snr_grid_db": ["10"]},
    {"snr_grid_db": [0.0, True]},
    {"power_split": {"total": True, "ratio_grid": [1.0]}},
    {"power_split": {"total": 5.0, "ratio_grid": [True, "2"]}},
    {"power_split": {"total": "5", "ratio_grid": [1.0]}},
    {"power_split": {"total": None}},
    {"power_split": {"total": [5.0]}},
    {"power_split": {"ratio_grid": ["4"]}},
    {"power_split": {"ratio_grid": "4"}},
    {"snr_grid_db": [None]},
]

# Inputs in the schema before the power split became one flat object and the
# baselines and tolerance became constants.
OLD_SCHEMA_INPUTS = [
    {"power_split": {"mode": "total_power_sweep", "total": 5.0, "ratio_grid": [4.0]}},
    {"power_split": {"alpha1_sq": 4.0, "alpha2_sq": 1.0}},
    {"baselines": [{"variant": "miso_noma", "num_tx_antennas": 2}]},
    {"baselines": []},
    {"quadrature_tolerance": 1e-10},
]


class TestConfig:
    def test_snr_grid_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            tiny_config(snr_grid_db=(0.0, 0.0, 10.0))

    def test_realizations_positive(self):
        with pytest.raises(ConfigError):
            tiny_config(realizations=0)

    @pytest.mark.parametrize("split", [(5.0, (4.0,)), {"total": 5.0}, None])
    def test_power_split_must_be_a_power_split(self, split):
        with pytest.raises(ConfigError, match="power_split must be a PowerSplit"):
            tiny_config(power_split=split)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"snr_grid": [0.0]})

    def test_unknown_system_key_rejected(self):
        # The system is fixed but for num_tx_antennas, so an old `system`
        # block is an unknown key.
        with pytest.raises(ConfigError, match=r"unknown config keys: \['system'\]"):
            config_from_dict({"system": {"num_tx_antennas": 4}})

    def test_bad_power_split_mode_rejected(self):
        # The power split is one type, so a `mode` tag is an unknown key.
        with pytest.raises(ConfigError, match=r"unknown power_split keys: \['mode'\]"):
            config_from_dict({"power_split": {"mode": "adaptive"}})

    @pytest.mark.parametrize("data", [
        {"power_split": {"total": 5.0, "ratio_grid": [4.0, INF]}},
        {"snr_grid_db": [0.0, INF]},
        {"snr_grid_db": [0.0, NAN]},
        {"snr_grid_db": [-INF, 0.0]},
        {"power_split": {"total": NAN}},
        {"power_split": {"total": INF, "ratio_grid": [1.0]}},
        {"power_split": {"total": 5.0, "ratio_grid": [NAN]}},
        {"power_split": {"total": 0.0}},
        {"realizations": 2.5},
        {"realizations": True},
        {"mc_samples": 100.0},
        {"seed": -1},
        {"seed": False},
        {"power_split": {"total": 5.0, "ratio_grid": [4.0], "alpha3_sq": 1.0}},
        {"power_split": {"ratio_grid": []}},
        {"power_split": {"ratio_grid": [-1.0]}},
        {"power_split": {"ratio_grid": [1.0, 4.0, 2.0]}},
        {"power_split": {"ratio_grid": [1.0, 4.0, 4.0]}},
        {"power_split": {"total": -5.0}},
        {"snr_grid_db": []},
        {"method": "simulation"},
        {"power_split": [{"total": 5.0, "ratio_grid": [4.0]}]},
        {"num_tx_antennas": 4.0},
        {"num_tx_antennas": True},
        {"num_tx_antennas": 0},
        {"system": {"num_tx_antennas": 4}},
        {"power_split": "4:1"},
        {"mc_samples": 0},
        {"mc_samples": runner.MAX_MC_SAMPLES + 1},
        {"power_split": {"ratio_grid": 4.0}},
        {"num_tx_antennas": 65},  # 65^2 = 4225 mixture components
        {"num_users": 2},
        {"output_path": 5},
        {"output_path": True},
        {"output_path": ["fig1.csv"]},
        *NON_REAL_INPUTS,
        *OLD_SCHEMA_INPUTS,
        # Signal powers of 1e320 and 1e310: their variances overflowed the
        # radial quadrature's truncation point.
        {"snr_grid_db": [300.0], "power_split": {"total": 1e290, "ratio_grid": [4.0]}},
        {"snr_grid_db": [300.0], "power_split": {"total": 1e280, "ratio_grid": [4.0]}},
    ])
    def test_bad_input_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    @pytest.mark.parametrize("data", NON_REAL_INPUTS)
    def test_non_real_number_named(self, data):
        with pytest.raises(ConfigError, match="must be a real number, got"):
            config_from_dict(data)

    def test_largest_antenna_count_accepted(self):
        # 64^2 = 4096 mixture components, exactly the limit.
        assert config_from_dict({"num_tx_antennas": 64}).system.num_tx_antennas == 64

    def test_largest_mc_sample_count_accepted(self):
        assert config_from_dict({"mc_samples": runner.MAX_MC_SAMPLES}).mc_samples == 1 << 22

    def test_missing_keys_take_defaults(self):
        cfg = config_from_dict({"num_tx_antennas": 2, "power_split": {"ratio_grid": [1.5]}})
        assert cfg.system == SystemConfig(2, 2, (3.0, 2.0), 1.0, 1.0)
        assert cfg.power_split == PowerSplit(5.0, (1.5,))
        assert cfg.snr_grid_db == default_snr_grid()
        default = config_from_dict({})
        assert default.num_tx_antennas == 4
        assert default.power_split == PowerSplit(5.0, (4.0,))
        # The default split gives the paper's powers exactly.
        assert default.system.power_levels == (4.0, 1.0)

    def test_flat_schema(self):
        # Nine settable values; the tolerance and the baselines are constants.
        assert config_to_dict(figure2b_config()) == {
            "num_tx_antennas": 4, "snr_grid_db": (30.0,),
            "power_split": {"total": 5.0,
                            "ratio_grid": (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)},
            "realizations": 200, "mc_samples": 10**6, "seed": 0,
            "output_path": None, "method": "quadrature",
        }
        assert ExperimentConfig.quadrature_tolerance == 1e-10

    def test_readme_example_matches_schema(self):
        # The README's config example is valid and names every config key,
        # the power split's included.
        block = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads(block)
        config_from_dict(example)
        schema = config_to_dict(ExperimentConfig())
        assert set(example) == set(schema)
        assert set(example["power_split"]) == set(schema["power_split"])

    def test_roundtrip(self):
        cfg = tiny_config()
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg

    def test_roundtrip_total_power_sweep(self):
        cfg = figure2b_config(seed=5)
        rebuilt = config_from_dict(config_to_dict(cfg))
        assert rebuilt == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(tiny_config())))
        assert load_config(path) == tiny_config()

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_total_power_split_arithmetic(self):
        split = PowerSplit(5.0, (4.0,))
        assert split.split(4.0) == (4.0, 1.0)
        a1, a2 = split.split(0.25)
        assert a1 / a2 == pytest.approx(0.25)
        assert a1 + a2 == pytest.approx(5.0)


class TestFigureRuns:
    def test_figure1_curves_aligned(self):
        cfg = tiny_config()
        curves = run_figure1(cfg)
        labels = {c.label for c in curves}
        assert {"SM-NOMA I(1,1)", "SM-NOMA I(2,2)", "SM-NOMA I_LB(1,1)",
                "SM-NOMA I_LB(2,2)", "MISO-NOMA I(1,1)", "SM-TDMA I(1)"} <= labels
        for curve in curves:
            assert [p[0] for p in curve.points] == list(cfg.snr_grid_db)

    def test_clamped_lower_bound_column(self):
        curves = {c.label: c for c in run_figure1(tiny_config())}
        raw = curves["SM-NOMA I_LB(1,1)"].points
        clamped = curves["SM-NOMA I_LB+(1,1)"].points
        for (_, m_raw, _), (_, m_clamped, _) in zip(raw, clamped):
            assert m_clamped >= 0.0
            assert m_clamped >= m_raw

    def test_figure2a_sum_curves(self):
        curves = {c.label: c for c in run_figure2a(tiny_config())}
        assert set(curves) == {"SM-NOMA sum", "MISO-NOMA sum", "SM-TDMA sum"}

    def test_figure2a_after_figure1_equals_cold_run(self):
        cfg = tiny_config()
        run_figure1(cfg)
        hits = runner._sweep_table.cache_info().hits
        warm = run_figure2a(cfg)
        assert runner._sweep_table.cache_info().hits == hits + 1
        runner._sweep_table.cache_clear()
        cold = run_figure2a(cfg)
        assert runner._sweep_table.cache_info().misses == 1
        assert warm == cold

    def test_table_cache_ignores_only_the_output_path(self, tmp_path):
        cfg = tiny_config(realizations=1)
        runner._sweep_table.cache_clear()
        table = runner._sweep(cfg, "snr_db")
        elsewhere = replace(cfg, output_path=str(tmp_path / "x.csv"))
        assert runner._sweep(elsewhere, "snr_db") is table
        assert runner._sweep_table.cache_info()[:2] == (1, 1)  # hits, misses
        runner._sweep(replace(cfg, seed=12), "snr_db")
        runner._sweep(replace(cfg, method="montecarlo", mc_samples=200), "snr_db")
        assert runner._sweep_table.cache_info()[:2] == (1, 3)

    def test_cached_table_is_read_only(self):
        cfg = tiny_config(realizations=1)
        table = runner._sweep(cfg, "snr_db")
        assert set(table) == {"I", "I_err", "I_LB", "MISO-NOMA", "SM-TDMA"}
        for rows in table.values():
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0, 0] = 0.0
        # run_figure1 adds its clamped column to a dict of its own.
        run_figure1(cfg)
        assert runner._sweep(cfg, "snr_db") is table
        assert "I_LB+" not in table
        ratio_table = runner._sweep(figure2b_config(realizations=1), "power_ratio")
        assert set(ratio_table) == {"I", "I_err"}
        assert not ratio_table["I"].flags.writeable

    def test_figure2b_ratio_axis(self):
        cfg = figure2b_config(realizations=3, seed=11)
        curves = run_figure2b(cfg)
        for curve in curves:
            assert [p[0] for p in curve.points] == list(cfg.power_split.ratio_grid)

    def test_figure2b_requires_sweep_split(self):
        with pytest.raises(ConfigError, match="exactly one SNR point, got 3"):
            run_figure2b(tiny_config())

    def test_figure1_requires_fixed_split(self):
        cfg = figure2b_config(realizations=2)
        with pytest.raises(ConfigError, match="exactly one power ratio, got 7"):
            run_figure1(cfg)
        with pytest.raises(ConfigError, match="exactly one power ratio, got 7"):
            run_figure2a(cfg)

    def test_fixed_baselines_are_the_papers(self):
        # MISO-NOMA on the first 2 antennas, SM-TDMA with half the frame each.
        cfg = tiny_config(realizations=2)
        curves = {c.label: [m for _, m, _ in c.points] for c in run_figure1(cfg)}
        realizations = _draw_realizations(cfg)
        for j, snr_db in enumerate(cfg.snr_grid_db):
            system = _at_snr(cfg.system, snr_db, (4.0, 1.0))
            for k in (1, 2):
                miso = [miso_noma_mi(h, system, k, k, 2) for h in realizations]
                tdma = [oracles.sm_tdma_mi(h, system, k, 0.5) for h in realizations]
                assert curves[f"MISO-NOMA I({k},{k})"][j] == pytest.approx(np.mean(miso))
                assert curves[f"SM-TDMA I({k})"][j] == pytest.approx(np.mean(tdma))

    def test_montecarlo_method_agrees_with_quadrature(self):
        quad = {c.label: c for c in run_figure1(tiny_config(realizations=2,
                                                            snr_grid_db=(0.0,)))}
        mc = {c.label: c for c in run_figure1(tiny_config(realizations=2,
                                                          snr_grid_db=(0.0,),
                                                          method="montecarlo",
                                                          mc_samples=100_000))}
        for label in ("SM-NOMA I(1,1)", "SM-NOMA I(2,2)"):
            assert mc[label].points[0][1] == pytest.approx(
                quad[label].points[0][1], abs=0.05
            )


class TestSweepTable:
    """Each cell of the sweep's (2, R, G) table against the oracle of
    tests/oracles.py that recomputes it from one realization's mixtures."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("x_axis", ["snr_db", "power_ratio"])
    def test_cells_equal_scalar_calls(self, m, x_axis):
        if x_axis == "snr_db":
            cfg = tiny_config(num_tx_antennas=m, snr_grid_db=(-20.0, 0.0, 12.0, 40.0))
        else:
            cfg = figure2b_config(num_tx_antennas=m, realizations=3, seed=11)
        table = runner._sweep(cfg, x_axis)
        systems = runner._grid(cfg, x_axis)
        realizations = _draw_realizations(cfg)
        channels = np.stack([h.channel_vectors for h in realizations])
        levels = np.array([s.power_levels for s in systems])
        rho = np.array([s.snr for s in systems])
        tolerance = cfg.quadrature_tolerance
        # Every pair the property suite reads, on the sweep's inputs; the
        # sweep's table holds the pairs (1, 1) and (2, 2) of it.
        pairs = ((1, 1), (2, 1), (2, 2))
        by_pair = runner._mi_table(cfg, channels, levels, rho, pairs, ("I", "I_LB"))
        for key in ("I", "I_err", "I_LB") if x_axis == "snr_db" else ("I", "I_err"):
            assert table[key].tobytes() == by_pair[key][[0, 2]].tobytes()
        if x_axis == "power_ratio":
            # The ratio table holds no baselines: their rows on its levels.
            miso_gains = miso_noma_gains_sq(channels, 2)[..., None]
            table = {**table,
                     "MISO-NOMA": np.stack([miso_noma_rows(miso_gains[:, k - 1], levels, rho,
                                                           1.0, k) for k in (1, 2)]),
                     "SM-TDMA": np.stack([sm_tdma_rows(np.abs(channels[:, k, None, :]) ** 2,
                                                       levels, rho, 1.0, tolerance)
                                          for k in (0, 1)])}
        for i, h in enumerate(realizations):
            for j, system in enumerate(systems):
                for p, (r, k) in enumerate(pairs):
                    value, error = oracles.mixture_mi(h, system, r, k, tolerance)
                    assert by_pair["I"][p, i, j].hex() == value.hex()
                    assert by_pair["I_err"][p, i, j].hex() == error.hex()
                    assert by_pair["I_LB"][p, i, j].hex() == mi_lower_bound_k2(
                        h, system, r, k).hex()
                    assert by_pair["I_LB"][p, i, j] == pytest.approx(
                        oracles.lower_bound_mi(h, system, r, k), abs=1e-10)
                for k in (1, 2):
                    cell = {key: rows[k - 1, i, j] for key, rows in table.items()}
                    assert cell["SM-TDMA"].hex() == oracles.sm_tdma_mi(
                        h, system, k, 0.5, tolerance).hex()
                    assert cell["MISO-NOMA"].hex() == oracles.miso_noma_mi(h, system, k).hex()

    # cores: the usable core count the helper reads, None for the machine's;
    # affinity False hides os.sched_getaffinity, as on macOS and Windows.
    @pytest.mark.parametrize("m, cores, affinity", [
        pytest.param(1, None, True, id="1"), pytest.param(3, None, True, id="3"),
        pytest.param(3, 1, True, id="3-one-worker"),
        pytest.param(3, 3, True, id="3-three-cores"),
        pytest.param(3, 64, True, id="3-many-cores"),
        pytest.param(3, 3, False, id="3-no-affinity")])
    def test_monte_carlo_cells_equal_scalar_calls(self, m, cores, affinity, monkeypatch):
        # The cells' values do not depend on how many threads run them, and
        # they run on min(cells, 2, usable cores): the calling thread and
        # the helper. With two workers, the calling thread waits (up to
        # 10 s) before its cells until the helper has begun one, so that
        # both run cells.
        if cores is not None:
            monkeypatch.setattr(gmd.os, "sched_getaffinity", lambda pid: set(range(cores)))
            monkeypatch.setattr(gmd.os, "cpu_count", lambda: cores)
        if not affinity:
            monkeypatch.delattr(gmd.os, "sched_getaffinity")
        cfg = figure2b_config(num_tx_antennas=m, realizations=2, seed=4,
                              method="montecarlo", mc_samples=300)
        usable = len(os.sched_getaffinity(0)) if affinity else os.cpu_count()
        cells = 2 * cfg.realizations * len(runner._grid(cfg, "power_ratio"))
        workers = min(cells, 2, usable)
        threads = set()
        caller = threading.current_thread()
        share = gmd._share

        def recording_share(start_worker, items, *args):
            def start():
                work = start_worker()

                def recorded(item):
                    deadline = time.monotonic() + 10.0
                    while (workers == 2 and threads <= {caller}
                           and threading.current_thread() is caller
                           and time.monotonic() < deadline):
                        time.sleep(1e-4)
                    threads.add(threading.current_thread())
                    return work(item)
                return recorded
            return share(start, items, *args)

        monkeypatch.setattr(gmd, "_share", recording_share)
        runner._sweep_table.cache_clear()  # so the sweep runs at this worker count
        table = runner._sweep(cfg, "power_ratio")
        assert table["I"].size == cells
        assert len(threads) == workers
        for i, h in enumerate(_draw_realizations(cfg)):
            for j, system in enumerate(runner._grid(cfg, "power_ratio")):
                for k in (1, 2):
                    rng = runner.substream(cfg.seed, runner._TAG_MC, i, j, k - 1)
                    value, error = oracles.mixture_mi(h, system, k, k, rng=rng,
                                                      samples=cfg.mc_samples)
                    assert table["I"][k - 1, i, j].hex() == value.hex()
                    assert table["I_err"][k - 1, i, j].hex() == error.hex()

    def test_fig1_sweep_peak_memory(self):
        # The K = 2 lower bound's (..., M, M, M, M) temporaries and the
        # quadrature's term arrays are built in chunks: unchunked, the bound
        # alone would hold three 4.2 MB arrays at R = 50.
        cfg = figure1_config(realizations=50, seed=1)
        runner._sweep_table.cache_clear()
        tracemalloc.start()
        try:
            runner._sweep(cfg, "snr_db")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_property_suite_peak_memory(self):
        # The second-moment check holds only its 200 000 values of |y|^2
        # (1.6 MB) and one slice of each stream section: its draws held
        # whole would take about 10 MB more, and its complex symbols, noise
        # and y at once about 24 MB. Every other check stays below 3 MB.
        tracemalloc.start()
        try:
            run_property_suite(figure1_config(seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestOutput:
    def test_csv_and_sidecar(self, tmp_path):
        # The CSV's x column is named after the axis the sidecar states.
        for run, cfg, x_axis in ((run_figure1, tiny_config(), "snr_db"),
                                 (run_figure2b, figure2b_config(realizations=2, seed=11),
                                  "power_ratio")):
            curves = run(cfg)
            out = tmp_path / f"{x_axis}.csv"
            write_curves(out, curves, cfg, x_axis=x_axis)
            lines = out.read_text().splitlines()
            assert lines[0] == f"label,{x_axis},mean_bits,std_error_bits"
            assert len(lines) == 1 + sum(len(c.points) for c in curves)
            sidecar = json.loads((tmp_path / f"{x_axis}.csv.json").read_text())
            assert sidecar["config"]["seed"] == cfg.seed
            assert sidecar["config"]["realizations"] == cfg.realizations
            assert sidecar["config"]["mc_samples"] == cfg.mc_samples
            assert sidecar["x_axis"] == x_axis

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        for name in ("a.csv", "b.csv"):
            runner._sweep_table.cache_clear()  # so the rerun computes afresh
            write_curves(tmp_path / name, run_figure1(cfg), cfg)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        write_curves(tmp_path / "a.csv", run_figure1(tiny_config(seed=1)),
                     tiny_config(seed=1))
        write_curves(tmp_path / "b.csv", run_figure1(tiny_config(seed=2)),
                     tiny_config(seed=2))
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


class TestPropertySuite:
    def test_all_sound_properties_pass(self, monkeypatch):
        # Every exact MI, error estimate and bound the suite checks comes
        # from the sweep's table function, none from a per-cell call.
        def per_cell_call(*args, **kwargs):
            raise AssertionError("the property suite made a per-cell call")

        for name in ("mi_exact", "mi_lower_bound_k2", "mixture_of_interference"):
            monkeypatch.setattr(runner, name, per_cell_call)
        results = property_suite_results()
        outcomes = {name: passed for name, passed, _ in results}
        failed = {name for name, ok in outcomes.items() if not ok}
        assert failed == KNOWN_DEFECT_PROPERTIES
        assert len(outcomes) >= 10
        # The detail text prints roundoff-level numbers, so this also pins
        # the entropy kernel's arithmetic to the last bit.
        assert results == json.loads(PINNED_PROPS.read_text())

    def test_follows_power_split_and_antenna_count(self, monkeypatch):
        # With every exact MI and lower bound at 0, the high-SNR details print
        # the ceiling log2(1 + a1/a2) and the target shift log2(e M) - 1
        # themselves, so they show which powers and M the suite read; seen
        # shows which ones the MI table was given.
        seen = set()

        def zero_table(config, channels, levels, rho, pairs, quantities):
            seen.add((channels.shape[-1], tuple(levels.ravel())))
            shape = (len(pairs), len(channels), np.shape(rho)[-1])
            return {key: np.zeros(shape) for key in ("I", "I_err", "I_LB")}

        monkeypatch.setattr(runner, "_mi_table", zero_table)

        def details(**overrides):
            seen.clear()
            report = run_property_suite(ExperimentConfig(realizations=1, seed=3, **overrides))
            return {r.name: r.detail for r in report.results}, set(seen)

        split, split_tables = details(power_split=PowerSplit(5.0, (1.5,)), num_tx_antennas=2)
        default, default_tables = details()
        assert split_tables == {(2, (3.0, 2.0))}
        assert default_tables == {(4, (4.0, 1.0))}
        assert split["high_snr_saturation"] == (
            f"mean I(1,1) at 40 dB off the merged-Gaussian ceiling by "
            f"{math.log2(1.0 + 3.0 / 2.0):.4f} bits (tolerance 0.1)")
        assert default["high_snr_saturation"] != split["high_snr_saturation"]
        assert split["constant_shift_convergence"].startswith(
            f"mean I-I_LB at 40 dB off {math.log2(math.e * 2) - 1.0:.4f} ")
        assert default["constant_shift_convergence"].startswith(
            f"mean I-I_LB at 40 dB off {math.log2(math.e * 4) - 1.0:.4f} ")

    # 200 000 draws end in a ragged slice, 1000 fit in one, 2 * 8192 end on a
    # slice boundary and 2 * 8192 + 1 in a slice of one odd draw; M = 64 is
    # the largest index int8 must hold.
    @pytest.mark.parametrize("draws", [runner.SECOND_MOMENT_DRAWS, 1000,
                                       2 * runner.SIMULATION_SLICE,
                                       2 * runner.SIMULATION_SLICE + 1])
    @pytest.mark.parametrize("m", [1, 2, 4, 64])
    def test_second_moment_equals_one_shot_simulation(self, m, draws):
        cfg = figure1_config(num_tx_antennas=m)
        system = _at_snr(cfg.system, 10.0, cfg.system.power_levels)
        for seed in range(8):
            rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            realization = runner.draw_channel(system, rng)
            runner.draw_channel(system, expected_rng)
            power = runner.received_second_moment(realization, system, rng, draws)
            expected = oracles.received_second_moment(realization, system, expected_rng, draws)
            assert power.hex() == expected.hex()
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_second_moment_rejects_antennas_past_int8(self):
        system = SystemConfig(128, 2, (4.0, 1.0), 10.0, 1.0)
        rng = np.random.default_rng(0)
        realization = runner.draw_channel(system, rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at most 127 antennas"):
            runner.received_second_moment(realization, system, rng, 10)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("draws", [0, -5, True, 2.0, "3", None])
    def test_second_moment_rejects_bad_draw_counts(self, draws):
        system = SystemConfig(4, 2, (4.0, 1.0), 10.0, 1.0)
        rng = np.random.default_rng(0)
        realization = runner.draw_channel(system, rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="draws must be an integer >= 1"):
            runner.received_second_moment(realization, system, rng, draws)
        assert rng.bit_generator.state == state

    def test_second_moment_simulates_every_draw_once_in_slices(self, monkeypatch):
        calls = []
        simulate = runner.simulate_received_symbol

        def counting_simulate(realization, system, r, k, symbols, indices, noise):
            calls.append((symbols, indices, noise))
            return simulate(realization, system, r, k, symbols, indices, noise)

        monkeypatch.setattr(runner, "simulate_received_symbol", counting_simulate)
        run_property_suite(figure1_config(seed=0))
        draws, size = runner.SECOND_MOMENT_DRAWS, runner.SIMULATION_SLICE
        assert len(calls) == -(-draws // size)
        assert [len(noise) for *_, noise in calls] == [
            min(size, draws - start) for start in range(0, draws, size)]

        # The slices, joined in call order, are the draws of one simulation.
        calls.clear()
        cfg = figure1_config()
        system = _at_snr(cfg.system, 10.0, cfg.system.power_levels)
        rng = np.random.default_rng(5)
        realization = runner.draw_channel(system, rng)
        state = rng.bit_generator.state
        draws = 2 * size + 100
        runner.received_second_moment(realization, system, rng, draws)
        rng.bit_generator.state = state
        symbols = (rng.standard_normal((draws, 2)) + 1j * rng.standard_normal((draws, 2))) \
            * math.sqrt(system.signal_power / 2.0)
        indices = np.column_stack([rng.integers(1, 5, size=draws) for _ in range(2)])
        noise = (rng.standard_normal(draws) + 1j * rng.standard_normal(draws)) \
            * math.sqrt(system.noise_power / 2.0)
        assert len(calls) == 3
        for expected, got in zip((symbols, indices, noise), zip(*calls)):
            assert np.array_equal(np.concatenate(got), expected)
        assert all(indices.dtype == np.int8 for _, indices, _ in calls)

    def test_needs_fixed_power_split(self):
        with pytest.raises(ConfigError, match="exactly one power ratio, got 7"):
            run_property_suite(figure2b_config(realizations=1))

    def test_rejects_monte_carlo(self):
        with pytest.raises(ConfigError, match="estimates by quadrature, not method 'montecarlo'"):
            run_property_suite(figure1_config(realizations=1, method="montecarlo"))


class TestTableSizeLimit:
    """Runs whose (realizations, grid points, M^2) variance rows exceed
    runner.MAX_TABLE_ENTRIES stop with a ConfigError before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(runner, "draw_channel", draw)

    @pytest.mark.parametrize("run", [run_figure1, run_figure2a])
    def test_figure_sweep_past_the_limit(self, run):
        # 200 x 41 x 4096 = 33 587 200 entries, 268 MB as float64.
        with pytest.raises(ConfigError, match=(
                "200 realizations x 41 grid points x 4096 mixture components give "
                "33587200 variance entries, more than the limit of 16777216")):
            run(figure1_config(num_tx_antennas=64))

    def test_ratio_sweep_counts_its_ratio_grid(self):
        grid = tuple(float(r) for r in range(1, 42))
        with pytest.raises(ConfigError, match="x 41 grid points x 4096"):
            run_figure2b(figure2b_config(num_tx_antennas=64,
                                         power_split=PowerSplit(5.0, grid)))

    def test_property_suite_past_the_limit(self):
        # The SIC check holds 3 SNR points at max(R, 200) draws.
        with pytest.raises(ConfigError, match="1366 realizations x 3 grid points x 4096"):
            run_property_suite(figure1_config(num_tx_antennas=64, realizations=1366))

    def test_limit_is_inclusive(self):
        cfg = figure1_config(num_tx_antennas=2)
        runner._require_table_size(cfg, runner.MAX_TABLE_ENTRIES // 4, 1)
        with pytest.raises(ConfigError, match="more than the limit"):
            runner._require_table_size(cfg, runner.MAX_TABLE_ENTRIES // 4 + 1, 1)


class TestCli:
    def test_fig1_writes_output(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main(["fig1", "--realizations", "2", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert out.with_suffix(".csv.json").exists()

    def test_config_file_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(tiny_config())))
        out = tmp_path / "out.csv"
        code = main(["fig2a", "--config", str(cfg_path), "--out", str(out),
                     "--realizations", "2"])
        assert code == 0
        sidecar = json.loads(out.with_suffix(".csv.json").read_text())
        assert sidecar["config"]["realizations"] == 2

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["fig1", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("ratios", [[4.0, 4.0, 1.0], [1.0, 4.0, 2.0]])
    def test_ratio_grid_not_increasing_exit_code(self, tmp_path, capsys, ratios):
        # [4, 4, 1] wrote two identical rows per label at a ratio of 4.
        cfg_path = tmp_path / "cfg.json"
        cfg = config_to_dict(figure2b_config(realizations=1))
        cfg["power_split"]["ratio_grid"] = ratios
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x.csv"
        assert main(["fig2b", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert ("config error: ratio grid must be strictly increasing"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_float_antenna_count_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_tx_antennas": 4.0}))
        assert main(["fig1", "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig1", "props"])
    def test_three_user_config_exit_code(self, tmp_path, capsys, command):
        # K = 2 is fixed: a third user could be written only in the old
        # `system` block, which is now an unknown key.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"system": {
            "num_users": 3, "power_levels": [4.0, 2.0, 1.0]}}))
        assert main([command, "--config", str(cfg_path), "--realizations", "1"]) == 1
        assert "config error: unknown config keys: ['system']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig1", "fig2a"])
    def test_single_antenna_baseline_exit_code(self, tmp_path, capsys, command):
        # The fixed MISO-NOMA baseline needs 2 antennas.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_tx_antennas": 1}))
        assert main([command, "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert ("config error: the MISO-NOMA baseline needs 2 antennas, the system has 1"
                in capsys.readouterr().err)

    def test_single_antenna_without_baselines_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config_to_dict(figure2b_config()),
                                        "num_tx_antennas": 1}))
        assert main(["fig2b", "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(tmp_path / "x.csv")]) == 0
        cfg_path.write_text(json.dumps({"num_tx_antennas": 1}))
        assert main(["props", "--config", str(cfg_path), "--realizations", "1"]) != 1
        assert "config error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig1", "fig2b"])
    def test_sidecar_config_reproduces_csv(self, tmp_path, command):
        first = tmp_path / "first.csv"
        assert main([command, "--realizations", "1", "--seed", "5", "--out", str(first)]) == 0
        cfg_path = tmp_path / "cfg.json"
        sidecar = json.loads(first.with_suffix(".csv.json").read_text())
        cfg_path.write_text(json.dumps(sidecar["config"]))
        second = tmp_path / "second.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("value", [5, True])
    def test_non_string_output_path_exit_code(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"output_path": value}))
        assert main(["fig1", "--config", str(cfg_path), "--realizations", "1"]) == 1
        assert (f"config error: output_path must be a string or null, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", [["--method", "montecarlo"], ["--mc-samples", "10"],
                                      ["--out", "props.csv"]])
    def test_props_takes_no_curve_flags(self, capsys, flag):
        # props estimates by quadrature and writes no file. A usage error
        # exits 2, a code no failed check uses.
        with pytest.raises(SystemExit) as exc:
            main(["props", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", [3100.0, 3080.0, -3300.0])
    def test_snr_far_outside_any_real_range_exit_code(self, tmp_path, capsys, snr_db):
        # 3100 dB overflowed the signal power, 3080 dB made infinite
        # variances and -3300 dB a zero signal power, each in a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"snr_grid_db": [0.0, snr_db]}))
        out = tmp_path / "x.csv"
        assert main(["fig1", "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(out)]) == 1
        assert (f"config error: snr_grid_db must lie within [-300, 300] dB, got {snr_db!r}"
                in capsys.readouterr().err)
        assert not out.exists()
        # The limits themselves run.
        cfg_path.write_text(json.dumps({"snr_grid_db": [-300.0, 300.0]}))
        assert main(["fig1", "--config", str(cfg_path), "--realizations", "1",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("total", [1e290, 1e280])
    def test_signal_power_past_the_kernel_limit_exit_code(self, tmp_path, capsys, total):
        # A finite total power at 300 dB made variances whose quadrature
        # truncation point overflowed, and the run ended in a traceback.
        cfg_path = tmp_path / "cfg.json"
        cfg = {"snr_grid_db": [300.0], "power_split": {"total": total, "ratio_grid": [4.0]},
               "realizations": 1}
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x.csv"
        assert main(["fig1", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert (f"config error: total power {total!r} at 300.0 dB gives a signal power past "
                f"the limit of 1e+300" in capsys.readouterr().err)
        assert not out.exists()
        # A signal power just inside the limit runs.
        cfg["power_split"]["total"] = 1e269
        cfg_path.write_text(json.dumps(cfg))
        assert main(["fig1", "--config", str(cfg_path), "--out", str(out)]) == 0

    def test_mc_samples_past_the_limit_exit_code(self, tmp_path, capsys):
        # 10^15 samples made numpy fail to allocate 21.3 PiB, in a traceback.
        out = tmp_path / "x.csv"
        assert main(["fig2b", "--method", "montecarlo", "--mc-samples", "1000000000000000",
                     "--realizations", "1", "--out", str(out)]) == 1
        assert ("config error: mc_samples must lie in 1..4194304, got 1000000000000000"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch):
        # The missing directory is found before the sweep runs.
        def sweep_not_expected(config):
            raise AssertionError("the sweep ran before the output directory was checked")

        monkeypatch.setitem(cli._RUNNERS, "fig2b", (sweep_not_expected, "power_ratio"))
        out = tmp_path / "missing" / "x.csv"
        assert main(["fig2b", "--realizations", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"cannot write {out}: " in captured.err
        assert captured.out == ""

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["fig1", "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_props_monte_carlo_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "montecarlo", "mc_samples": 5}))
        assert main(["props", "--config", str(cfg_path), "--realizations", "1"]) == 1
        captured = capsys.readouterr()
        assert ("config error: the property suite estimates by quadrature, "
                "not method 'montecarlo'") in captured.err
        assert captured.out == ""

    def test_oversized_sweep_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_tx_antennas": 64}))
        out = tmp_path / "x.csv"
        assert main(["fig1", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "more than the limit of 16777216" in capsys.readouterr().err
        assert not out.exists()

    def test_props_exit_code_reflects_failures(self, capsys):
        # the two known-defect properties fail, so the suite exits 3
        code = main(["props", "--realizations", "200", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "PASS  bound_sandwich" in out
        assert "FAIL  high_snr_saturation" in out


if __name__ == "__main__":
    PINNED_PROPS.parent.mkdir(exist_ok=True)
    PINNED_PROPS.write_text(json.dumps(property_suite_results(), indent=1) + "\n")
