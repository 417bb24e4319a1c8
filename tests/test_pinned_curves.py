"""Every curve point of small figure runs, pinned to within 1e-9 bits.

The file tests/data/pinned_curves.json holds (label, x, mean, std_error)
for each run in PINNED_RUNS. To regenerate it from a given checkout:

    PYTHONPATH=<checkout>/src python3 tests/test_pinned_curves.py
"""

import json
from pathlib import Path

import pytest

from sm_noma.runner import (
    figure1_config,
    figure2b_config,
    run_figure1,
    run_figure2a,
    run_figure2b,
)

PINNED = Path(__file__).parent / "data" / "pinned_curves.json"
TOLERANCE_BITS = 1e-9

PINNED_RUNS = {
    "fig1": lambda: run_figure1(
        figure1_config(realizations=2, snr_grid_db=(-10.0, 0.0, 30.0), seed=11)),
    "fig2a": lambda: run_figure2a(
        figure1_config(realizations=2, snr_grid_db=(-10.0, 0.0, 30.0), seed=11)),
    "fig2b": lambda: run_figure2b(figure2b_config(realizations=2, seed=11)),
    "fig1_montecarlo": lambda: run_figure1(
        figure1_config(realizations=2, snr_grid_db=(0.0,), seed=11,
                       method="montecarlo", mc_samples=2000)),
}


def curve_points(curves):
    return [[c.label, x, mean, se] for c in curves for x, mean, se in c.points]


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_curves_match_pinned(name):
    expected = json.loads(PINNED.read_text())[name]
    got = curve_points(PINNED_RUNS[name]())
    assert [p[:2] for p in got] == [p[:2] for p in expected]
    for (label, x, mean, se), (_, _, ref_mean, ref_se) in zip(got, expected):
        assert abs(mean - ref_mean) <= TOLERANCE_BITS, (label, x)
        assert abs(se - ref_se) <= TOLERANCE_BITS, (label, x)


def test_sum_curve_is_sum_of_per_user_curves():
    per_user = {c.label: c.points for c in PINNED_RUNS["fig1"]()}
    total = {c.label: c.points for c in PINNED_RUNS["fig2a"]()}["SM-NOMA sum"]
    for s, i11, i22 in zip(total, per_user["SM-NOMA I(1,1)"],
                           per_user["SM-NOMA I(2,2)"]):
        assert s[0] == i11[0] == i22[0]
        assert s[1] == pytest.approx(i11[1] + i22[1], abs=1e-12)


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    data = {name: curve_points(run()) for name, run in PINNED_RUNS.items()}
    PINNED.write_text(json.dumps(data, indent=1) + "\n")
