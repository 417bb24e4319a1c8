"""One benchmark iteration, run in a fresh process.

    python3 bench/worker.py <workload> <package seed> <out dir> <trace 0|1>

Imports `sm_noma` from the checkout's `src/`, runs one workload once
through the package's public entry points, and writes `result.json` into
<out dir>: set-up time, wall time, peak RSS, versions, the workload's
outputs and, for a traced iteration, the per-layer metrics. `run.py`
starts one such process per iteration and checks the outputs.

Set-up time runs from the moment the parent started this process (passed
in the BENCH_SPAWN_MONOTONIC environment variable, a `time.monotonic()`
reading, which is system-wide on Linux) until `sm_noma` is imported and
the first workload call can be made.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAWN_ENV = "BENCH_SPAWN_MONOTONIC"

# Workload sizes. Each grid length is the package default for that figure.
FIGURES_REALIZATIONS = 3
MC_REALIZATIONS = 6
MC_SAMPLES = 20_000
SIZES = {
    "figures": {"realizations": FIGURES_REALIZATIONS,
                "grid_points": {"fig1": 41, "fig2a": 41, "fig2b": 7}},
    "montecarlo": {"realizations": MC_REALIZATIONS, "mc_samples": MC_SAMPLES,
                   "grid_points": {"fig2b": 7}},
    "props": {"realizations": 200, "checks": 12},
}


def cells(workload: str) -> int:
    """(realization x grid point) cells of one iteration; for props, checks."""
    size = SIZES[workload]
    if workload == "props":
        return size["checks"]
    return size["realizations"] * sum(size["grid_points"].values())


def import_package():
    """Import sm_noma from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import sm_noma
    from sm_noma import cli, runner  # noqa: F401

    if Path(sm_noma.__file__).resolve().parent != SRC / "sm_noma":
        raise ImportError(f"sm_noma imported from {sm_noma.__file__}, not {SRC}")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _sweep_argvs(workload: str, seed: int, out_dir: Path) -> list[list[str]]:
    common = ["--seed", str(seed), "--realizations",
              str(SIZES[workload]["realizations"])]
    if workload == "figures":
        return [[cmd, *common, "--out", str(out_dir / f"{cmd}.csv")]
                for cmd in ("fig1", "fig2a", "fig2b")]
    return [["fig2b", *common, "--method", "montecarlo",
             "--mc-samples", str(MC_SAMPLES), "--out", str(out_dir / "fig2b.csv")]]


def _run(workload: str, seed: int, out_dir: Path) -> dict:
    """Run the workload once; return its outputs as plain data."""
    from sm_noma import cli, runner

    if workload == "props":
        # Called directly: cli.main reports only an exit code for props.
        report = runner.run_property_suite(runner.figure1_config(seed=seed))
        return {"checks": [[r.name, r.passed, r.detail] for r in report.results]}
    outputs = {}
    for argv in _sweep_argvs(workload, seed, out_dir):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sm-noma {' '.join(argv)} exited with {code}")
        outputs[argv[0]] = argv[-1]
    return outputs


def run_workload(workload: str, seed: int, out_dir: Path, trace: bool) -> dict:
    """One timed iteration; with trace, also the per-layer metrics and spans."""
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = tracing.Recorder() if trace else None
    with redirect_stdout(sys.stderr):
        start = time.perf_counter()
        if recorder is None:
            outputs = _run(workload, seed, out_dir)
        else:
            with tracing.traced(recorder):
                outputs = _run(workload, seed, out_dir)
        wall_s = time.perf_counter() - start

    result = {"wall_s": wall_s, "outputs": outputs}
    if workload != "props":
        # Read the written files back: CSV text and the JSON sidecar.
        result["outputs"] = {
            name: {"csv": Path(path).read_text(),
                   "sidecar": json.loads(Path(path + ".json").read_text())}
            for name, path in outputs.items()
        }
    if recorder is not None:
        result["layers"] = tracing.layer_metrics(recorder)
        with open(out_dir / "spans.tsv", "w") as fh:
            fh.write("name\tparent\tstart\tend\n")
            for name, parent, t0, t1 in recorder.spans:
                fh.write(f"{name}\t{parent}\t{t0!r}\t{t1!r}\n")
    return result


def main(argv: list[str]) -> int:
    spawned = float(os.environ[SPAWN_ENV])
    workload, seed, out_dir, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    versions = import_package()
    setup_s = time.monotonic() - spawned

    result = run_workload(workload, seed, out_dir, trace)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
