"""Regenerate the benchmark's reference outputs in bench/reference/.

    python3 bench/make_reference.py [workload ...]

For every package seed of run.PACKAGE_SEEDS, runs each workload once
through the worker (as a benchmark iteration does) and stores its outputs:
the CSV text of each sweep, or the props checks as [name, passed, detail].
For `montecarlo` it also stores, per curve point, the quadrature value of
the same channel realizations and the Monte Carlo standard error of the
point, recomputed from `mi_exact` on the runner's substreams.

Regenerate only when a change alters the outputs on purpose, and say why
in CHANGES.md: every later run is checked against these files.
"""

from __future__ import annotations

import json
import math
import sys

import run
import worker


def mc_oracle(seed: int) -> dict:
    """{"fig2b": {label: {x: [quadrature mean, MC standard error of the mean]}}}.

    Rebuilds run_figure2b's loop with its private helpers to get the per-
    realization Monte Carlo standard errors that the CSV does not carry,
    and checks that the rebuilt means equal the CLI's Monte Carlo output.
    """
    from sm_noma import runner
    from sm_noma.mi import mi_exact

    config = runner.figure2b_config(
        seed=seed, realizations=worker.MC_REALIZATIONS, method="montecarlo",
        mc_samples=worker.MC_SAMPLES)
    quad_config = runner.figure2b_config(seed=seed, realizations=worker.MC_REALIZATIONS)
    quad = {(c.label, x): m for c in runner.run_figure2b(quad_config) for x, m, _ in c.points}
    mc = {(c.label, x): m for c in runner.run_figure2b(config) for x, m, _ in c.points}

    sweep = config.power_split
    realizations = runner._draw_realizations(config)
    out: dict = {}
    for j, ratio in enumerate(sweep.ratio_grid):
        system = runner._at_snr(config.system, config.snr_grid_db[0], sweep.split(ratio))
        for tag, (r, k) in enumerate(((1, 1), (2, 2))):
            label = f"SM-NOMA I({r},{k})"
            values, errors = [], []
            for i, realization in enumerate(realizations):
                res = mi_exact(
                    realization, system, r, k, config.entropy_method,
                    rng=runner.substream(seed, runner._TAG_MC, i, j, tag),
                    samples=config.mc_samples, tolerance=config.quadrature_tolerance,
                ).mi_exact
                values.append(res.value)
                errors.append(res.std_error)
            mean = math.fsum(values) / len(values)
            if abs(mean - mc[(label, ratio)]) > 1e-12:
                raise RuntimeError(f"rebuilt Monte Carlo mean differs at {label}, {ratio}")
            se = math.sqrt(math.fsum(e * e for e in errors)) / len(errors)
            out.setdefault(label, {})[str(float(ratio))] = [quad[(label, ratio)], se]
    return {"fig2b": out}


def main(argv: list[str]) -> int:
    worker.import_package()
    for workload in argv or run.WORKLOADS:
        seeds, oracle = {}, {}
        for seed in run.PACKAGE_SEEDS:
            result = run.spawn(workload, seed, run.WORK_DIR / "reference", False, 600.0)
            if workload == "props":
                seeds[str(seed)] = result["outputs"]["checks"]
            else:
                seeds[str(seed)] = {fig: out["csv"] for fig, out in result["outputs"].items()}
            if workload == "montecarlo":
                oracle[str(seed)] = mc_oracle(seed)
            print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)
        data = {
            "generated_with": {"git_sha": run.git_sha(), **result["versions"],
                               "sizes": worker.SIZES[workload]},
            "seeds": seeds,
        }
        if oracle:
            data["oracle"] = oracle
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        (run.REFERENCE_DIR / f"{workload}.json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
