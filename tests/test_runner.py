"""Tests for the experiment runner, config parsing, output, and CLI.

tests/data/pinned_props.json holds every (name, passed, detail) of the
property suite at seed 0. To regenerate it from a given checkout:

    PYTHONPATH=<checkout>/src python3 tests/test_runner.py
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sm_noma.baselines import SmTdma
from sm_noma.cli import main
from sm_noma.runner import (
    ConfigError,
    ExperimentConfig,
    FixedPowerSplit,
    TotalPowerSweep,
    config_from_dict,
    config_to_dict,
    default_snr_grid,
    default_system,
    figure1_config,
    figure2b_config,
    load_config,
    run_figure1,
    run_figure2a,
    run_figure2b,
    run_property_suite,
    write_curves,
)

# Properties that embody the source analysis' merged-Gaussian high-SNR
# approximation; its error exceeds the stated 0.1-bit tolerance, so a
# faithful implementation reports them as failed (see test_acceptance).
KNOWN_DEFECT_PROPERTIES = {"high_snr_saturation", "constant_shift_convergence"}
NAN, INF = math.nan, math.inf
PINNED_PROPS = Path(__file__).parent / "data" / "pinned_props.json"


def property_suite_results():
    report = run_property_suite(figure1_config(realizations=200, seed=0))
    return [[r.name, r.passed, r.detail] for r in report.results]


def tiny_config(**overrides):
    base = dict(realizations=3, snr_grid_db=(-10.0, 0.0, 10.0), seed=11)
    base.update(overrides)
    return figure1_config(**base)


class TestConfig:
    def test_snr_grid_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            tiny_config(snr_grid_db=(0.0, 0.0, 10.0))

    def test_realizations_positive(self):
        with pytest.raises(ConfigError):
            tiny_config(realizations=0)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"snr_grid": [0.0]})

    def test_unknown_system_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown system keys"):
            config_from_dict({"system": {"antennas": 4}})

    def test_bad_power_split_mode_rejected(self):
        with pytest.raises(ConfigError, match="power_split mode"):
            config_from_dict({"power_split": {"mode": "adaptive"}})

    @pytest.mark.parametrize("data", [
        {"system": {"power_levels": [NAN, 1.0]}},
        {"system": {"signal_power": INF}},
        {"snr_grid_db": [0.0, NAN]},
        {"snr_grid_db": [-INF, 0.0]},
        {"power_split": {"mode": "fixed", "alpha1_sq": NAN, "alpha2_sq": 1.0}},
        {"power_split": {"mode": "total_power_sweep", "total": INF, "ratio_grid": [1.0]}},
        {"power_split": {"mode": "total_power_sweep", "total": 5.0, "ratio_grid": [NAN]}},
        {"quadrature_tolerance": NAN},
        {"realizations": 2.5},
        {"realizations": True},
        {"mc_samples": 100.0},
        {"seed": -1},
        {"seed": False},
        {"power_split": {"mode": "fixed", "alpha1_sq": 4.0, "alpha2_sq": 1.0,
                         "alpha3_sq": 1.0}},
        {"baselines": [{"variant": "miso_noma", "num_tx_antenas": 3}]},
        {"baselines": [{"variant": "sm_tdma", "time_share": [0.9, 0.1]}]},
        {"baselines": [{"variant": "sm_tdma"}, {"variant": "sm_tdma"}]},
        {"baselines": [{"time_shares": [0.5, 0.5]}]},
        {"baselines": {"variant": "sm_tdma"}},
        {"power_split": [{"mode": "fixed", "alpha1_sq": 4.0, "alpha2_sq": 1.0}]},
    ])
    def test_bad_input_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_unknown_baseline_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown baseline keys"):
            config_from_dict({"baselines": [{"variant": "sm_tdma", "params": {}}]})

    def test_missing_keys_take_defaults(self):
        cfg = config_from_dict({"system": {"signal_power": 2.0},
                                "baselines": [{"variant": "sm_tdma"}]})
        assert cfg.system == replace(default_system(), signal_power=2.0)
        assert cfg.power_split == FixedPowerSplit(4.0, 1.0)
        assert cfg.snr_grid_db == default_snr_grid()
        assert cfg.baselines == (SmTdma((0.5, 0.5)),)
        assert config_from_dict({}).baselines == ()

    def test_flat_baseline_entries(self):
        data = config_to_dict(figure1_config())
        assert data["baselines"] == [
            {"variant": "miso_noma", "num_tx_antennas": 2},
            {"variant": "sm_tdma", "time_shares": [0.5, 0.5]},
        ]

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
        sweep = TotalPowerSweep(5.0, (4.0,))
        a1, a2 = sweep.split(4.0)
        assert a1 == pytest.approx(4.0)
        assert a2 == pytest.approx(1.0)
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

    def test_figure2b_ratio_axis(self):
        cfg = figure2b_config(realizations=3, seed=11)
        curves = run_figure2b(cfg)
        for curve in curves:
            assert [p[0] for p in curve.points] == list(cfg.power_split.ratio_grid)

    def test_figure2b_requires_sweep_split(self):
        with pytest.raises(ConfigError, match="total_power_sweep"):
            run_figure2b(tiny_config())

    def test_figure1_requires_fixed_split(self):
        cfg = figure2b_config(realizations=2)
        with pytest.raises(ConfigError, match="fixed power split"):
            run_figure1(cfg)

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
    def test_all_sound_properties_pass(self):
        results = property_suite_results()
        outcomes = {name: passed for name, passed, _ in results}
        failed = {name for name, ok in outcomes.items() if not ok}
        assert failed == KNOWN_DEFECT_PROPERTIES
        assert len(outcomes) >= 10
        # The detail text prints roundoff-level numbers, so this also pins
        # the entropy kernel's arithmetic to the last bit.
        assert results == json.loads(PINNED_PROPS.read_text())


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
