"""Tests for scripts/ab_bench.py with the checkouts and bench runs faked:
the side order per pair, the summaries and win counts it writes, and its
refusal to write when a run is not correct."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
              {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]


@pytest.fixture
def runs(monkeypatch, tmp_path):
    """Whether the faked bench runs read correct, and the (side, workload,
    seed) of each. In pair i the baseline reads wall_s 2 + i and the
    candidate 1 + i, with cells_per_s their inverses, except that pair 1
    is a tie."""
    state = SimpleNamespace(correct=True, calls=[])
    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    monkeypatch.setattr(ab_bench, "WORK", tmp_path / ".ab_bench")
    monkeypatch.setattr(ab_bench, "git", lambda *args: f"sha of {args[-1]}")

    def checkout(sha, path):
        path.mkdir(parents=True)
        (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))

    def run_bench(side, command):
        assert (ab_bench.WORK / side).is_dir()
        workload, seed = command[command.index("--workload") + 1], int(command[-1])
        state.calls.append((side, workload, seed))
        wall = 1.0 + seed + (1.0 if side == "base" and seed != 1 else 0.0)
        line = {"correct": state.correct, "attempted": 10, "failed": seed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "cells_per_s": {"value": 1.0 / wall, "unit": "1/s"}}}
        info = {"max_dev_bits": 0.0, "problems": ["off the reference"],
                "provenance": {"versions": {"numpy": side}}}
        return line, info

    monkeypatch.setattr(ab_bench, "checkout", checkout)
    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    return state


def test_alternating_pairs_are_summarised(runs, tmp_path):
    argv = ["--baseline", "HEAD~1", "--pairs", "4", "--seconds", "2",
            "--workload", "props", "--workload", "figures"]
    assert ab_bench.main(argv) == 0
    assert runs.calls == [
        ("base", "props", 0), ("cand", "props", 0), ("base", "figures", 0), ("cand", "figures", 0),
        ("cand", "props", 1), ("base", "props", 1), ("cand", "figures", 1), ("base", "figures", 1),
        ("base", "props", 2), ("cand", "props", 2), ("base", "figures", 2), ("cand", "figures", 2),
        ("cand", "props", 3), ("base", "props", 3), ("cand", "figures", 3), ("base", "figures", 3),
    ]
    assert not (tmp_path / ".ab_bench").exists()
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert record["baseline"] == {"rev": "HEAD~1", "sha": "sha of HEAD~1^{commit}"}
    assert record["candidate"] == {"rev": "HEAD", "sha": "sha of HEAD^{commit}"}
    assert record["command"] == "python3 scripts/ab_bench.py " + " ".join(argv)
    assert record["first_side"] == ["base", "cand", "base", "cand"]
    assert record["versions"] == {"base": {"numpy": "base"}, "cand": {"numpy": "cand"}}
    props = record["workloads"]["props"]
    assert props["base_ops"] == props["cand_ops"] == [[10, 0], [10, 1], [10, 2], [10, 3]]
    wall = props["metrics"]["wall_s"]
    assert wall["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.25, "values": [2.0, 2.0, 4.0, 5.0]}
    assert wall["cand"]["values"] == [1.0, 2.0, 3.0, 4.0]
    # Pair 1 is a tie and counts for neither side, whichever way is better.
    assert wall["cand_wins"] == props["metrics"]["cells_per_s"]["cand_wins"] == 3
    ab_bench.main(argv)
    assert (tmp_path / "BENCH_1.json").is_file()


def test_a_run_not_correct_writes_nothing(runs, tmp_path, capsys):
    runs.correct = False
    assert ab_bench.main(["--baseline", "HEAD", "--pairs", "2", "--seconds", "1"]) == 1
    assert len(runs.calls) == 2 * 2 * len(ab_bench.WORKLOADS)
    assert "correct=false, nothing written" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []
