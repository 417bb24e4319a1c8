"""Tests for the experiment runner, config parsing, output, and CLI.

tests/data/pinned_props.json holds every (name, passed, detail) of the
property suite at seed 0. To regenerate it from a given checkout:

    PYTHONPATH=<checkout>/src python3 tests/test_runner.py
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sm_noma import gmd, runner
from sm_noma.baselines import miso_noma_mi, sm_tdma_mi
from sm_noma.cli import main
from sm_noma.mi import mi_exact, mi_lower_bound_k2
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
        {"power_split": {"ratio_grid": 4.0}},
        {"num_tx_antennas": 65},  # 65^2 = 4225 mixture components
        {"num_users": 2},
        {"output_path": 5},
        {"output_path": True},
        {"output_path": ["fig1.csv"]},
        *NON_REAL_INPUTS,
        *OLD_SCHEMA_INPUTS,
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
        hits = gmd.QUADRATURE_MEMO.hits
        warm = run_figure2a(cfg)
        assert gmd.QUADRATURE_MEMO.hits > hits
        gmd.QUADRATURE_MEMO.clear()
        cold = run_figure2a(cfg)
        assert warm == cold

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
                tdma = [sm_tdma_mi(h, system, k, 0.5) for h in realizations]
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
    """Each cell of the sweep's (2, R, G) table against the one-realization
    call it replaces."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("x_axis", ["snr_db", "power_ratio"])
    def test_cells_equal_scalar_calls(self, m, x_axis):
        if x_axis == "snr_db":
            cfg = tiny_config(num_tx_antennas=m, snr_grid_db=(-20.0, 0.0, 12.0, 40.0))
        else:
            cfg = figure2b_config(num_tx_antennas=m, realizations=3, seed=11)
        table = runner._sweep(cfg, x_axis, lower_bound=True, baselines=True)
        systems = runner._grid(cfg, x_axis)
        realizations = _draw_realizations(cfg)
        # Every pair the property suite reads, on the sweep's inputs; the
        # sweep's table holds the pairs (1, 1) and (2, 2) of it.
        pairs = ((1, 1), (2, 1), (2, 2))
        by_pair = runner._mi_table(
            cfg, np.stack([h.channel_vectors for h in realizations]),
            np.array([s.power_levels for s in systems]), np.array([s.snr for s in systems]),
            pairs, ("I", "I_LB"))
        for key in ("I", "I_err", "I_LB"):
            assert table[key].tobytes() == by_pair[key][[0, 2]].tobytes()
        # The scalar calls below then run the kernel one row at a time.
        gmd.QUADRATURE_MEMO.clear()
        tolerance = cfg.quadrature_tolerance
        for i, h in enumerate(realizations):
            for j, system in enumerate(systems):
                for p, (r, k) in enumerate(pairs):
                    exact = mi_exact(h, system, r, k, tolerance=tolerance).mi_exact
                    assert by_pair["I"][p, i, j].hex() == exact.value.hex()
                    assert by_pair["I_err"][p, i, j].hex() == exact.std_error.hex()
                    assert by_pair["I_LB"][p, i, j].hex() == mi_lower_bound_k2(
                        h, system, r, k).hex()
                for k in (1, 2):
                    cell = {key: rows[k - 1, i, j] for key, rows in table.items()}
                    assert cell["SM-TDMA"].hex() == sm_tdma_mi(
                        h, system, k, 0.5, tolerance).hex()
                    assert cell["MISO-NOMA"].hex() == miso_noma_mi(h, system, k, k, 2).hex()

    @pytest.mark.parametrize("m", [1, 3])
    def test_monte_carlo_cells_equal_scalar_calls(self, m):
        cfg = figure2b_config(num_tx_antennas=m, realizations=2, seed=4,
                              method="montecarlo", mc_samples=300)
        table = runner._sweep(cfg, "power_ratio", lower_bound=False, baselines=False)
        for i, h in enumerate(_draw_realizations(cfg)):
            for j, system in enumerate(runner._grid(cfg, "power_ratio")):
                for k in (1, 2):
                    exact = mi_exact(h, system, k, k, cfg.entropy_method,
                                     rng=runner.substream(cfg.seed, runner._TAG_MC, i, j, k - 1),
                                     samples=cfg.mc_samples).mi_exact
                    assert table["I"][k - 1, i, j].hex() == exact.value.hex()
                    assert table["I_err"][k - 1, i, j].hex() == exact.std_error.hex()

    def test_fig1_sweep_peak_memory(self):
        # The K = 2 lower bound's (..., M, M, M, M) temporaries and the
        # quadrature's term arrays are built in chunks: unchunked, the bound
        # alone would hold three 4.2 MB arrays at R = 50. The memo entries
        # the sweep adds (about 4 MB) stay in the count.
        cfg = figure1_config(realizations=50, seed=1)
        gmd.QUADRATURE_MEMO.clear()
        tracemalloc.start()
        try:
            runner._sweep(cfg, "snr_db", lower_bound=True, baselines=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestOutput:
    def test_csv_and_sidecar(self, tmp_path):
        cfg = tiny_config()
        curves = run_figure1(cfg)
        out = tmp_path / "fig1.csv"
        write_curves(out, curves, cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == "label,snr_db,mean_bits,std_error_bits"
        assert len(lines) == 1 + sum(len(c.points) for c in curves)
        sidecar = json.loads((tmp_path / "fig1.csv.json").read_text())
        assert sidecar["config"]["seed"] == cfg.seed
        assert sidecar["config"]["realizations"] == cfg.realizations
        assert sidecar["config"]["mc_samples"] == cfg.mc_samples
        assert sidecar["x_axis"] == "snr_db"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        for name in ("a.csv", "b.csv"):
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

    def test_needs_fixed_power_split(self):
        with pytest.raises(ConfigError, match="exactly one power ratio, got 7"):
            run_property_suite(figure2b_config(realizations=1))


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
        # props estimates by quadrature and writes no file.
        with pytest.raises(SystemExit) as exc:
            main(["props", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["fig1", "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_props_exit_code_reflects_failures(self, capsys):
        # the two known-defect properties fail, so the suite exits 2
        code = main(["props", "--realizations", "200", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "PASS  bound_sandwich" in out
        assert "FAIL  high_snr_saturation" in out


if __name__ == "__main__":
    PINNED_PROPS.parent.mkdir(exist_ok=True)
    PINNED_PROPS.write_text(json.dumps(property_suite_results(), indent=1) + "\n")
