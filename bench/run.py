"""sm-noma benchmark: run one workload for a fixed time and check its outputs.

    python3 bench/run.py --workload {figures,montecarlo,props,all} \
        --seed N --seconds S --trace {0,1}

Each iteration runs the workload once in a fresh worker process
(`worker.py`): a closed loop with one caller, no thread pool, BLAS/OpenMP
threads capped at the number of usable cores. Iterations continue until
the next one would end after S seconds (at least MIN_ITERATIONS of them).
Every iteration's outputs are checked against the reference outputs in
`reference/`, produced by `make_reference.py`: each sweep point to within
1e-9 bits, each props check's verdict and detail text exactly, and each
Monte Carlo point also against the quadrature value of the same channel
realizations within ORACLE_Z Monte Carlo standard errors.

The workload's package seeds come from a fixed pool that has reference
outputs; --seed only chooses the order in which the pool is run, so the
same --seed gives the same inputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
iterations). --trace 1 alternates untraced and traced iterations on the
same package seed and reports the per-layer metrics (medians over traced
iterations) plus the tracing overhead. The last line of standard output
is the JSON result; the line before it holds provenance and check details.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_run"
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOADS = ("figures", "montecarlo", "props")
PACKAGE_SEEDS = tuple(range(8))
MIN_ITERATIONS = 3
MAX_DEV_BITS = 1e-9
ORACLE_Z = 5.0
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """The parent's environment with BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unavailable' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def seed_order(workload: str, seed: int) -> list[int]:
    order = list(PACKAGE_SEEDS)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def spawn(workload: str, package_seed: int, out_dir: Path, trace: bool,
          timeout: float) -> dict:
    """Run one iteration in a worker process; raise if it fails."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    env = worker_env()
    env[worker.SPAWN_ENV] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload,
         str(package_seed), str(out_dir), "1" if trace else "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((out_dir / "result.json").read_text())


# ---- output checks -------------------------------------------------------

def parse_csv(text: str) -> dict[tuple[str, float], tuple[float, float]]:
    """label,x,mean_bits,std_error_bits rows; labels may contain commas."""
    rows = {}
    for line in text.splitlines()[1:]:
        label, x, mean, se = line.rsplit(",", 3)
        rows[(label, float(x))] = (float(mean), float(se))
    return rows


def csv_labels(text: str) -> list[str]:
    labels = []
    for line in text.splitlines()[1:]:
        label = line.rsplit(",", 3)[0]
        if not labels or labels[-1] != label:
            labels.append(label)
    return labels


def check_sweeps(outputs: dict, reference: dict, oracle: dict | None,
                 package_seed: int, realizations: int) -> dict:
    """One op per reference curve point: failed if missing, off the reference
    by more than MAX_DEV_BITS, or (with an oracle) more than ORACLE_Z Monte
    Carlo standard errors from the quadrature value."""
    ops = failed = 0
    max_dev = worst_z = 0.0
    problems = []
    for fig, ref_text in reference.items():
        ref_rows = parse_csv(ref_text)
        ops += len(ref_rows)
        out = outputs.get(fig)
        if out is None:
            failed += len(ref_rows)
            problems.append(f"{fig}: no output")
            continue
        rows = parse_csv(out["csv"])
        if set(rows) != set(ref_rows):
            problems.append(f"{fig}: curve points differ from the reference")
        sidecar = out["sidecar"]
        if (sidecar.get("labels") != csv_labels(out["csv"])
                or sidecar["config"]["seed"] != package_seed
                or sidecar["config"]["realizations"] != realizations):
            problems.append(f"{fig}: sidecar does not describe the run")
        for key, (ref_mean, ref_se) in ref_rows.items():
            if key not in rows:
                failed += 1
                continue
            mean, se = rows[key]
            dev = max(abs(mean - ref_mean), abs(se - ref_se))
            max_dev = max(max_dev, dev)
            bad = not dev <= MAX_DEV_BITS
            if oracle is not None:
                quad, mc_se = oracle[fig][key[0]][str(key[1])]
                z = abs(mean - quad) / mc_se
                worst_z = max(worst_z, z)
                bad = bad or not z <= ORACLE_Z
            failed += bad
    if failed:
        problems.append(f"{failed} of {ops} points off the reference")
    return {"ops": ops, "failed": failed, "max_dev_bits": max_dev,
            "worst_oracle_z": worst_z, "problems": problems}


def check_props(outputs: dict, reference: list) -> dict:
    """One op per property check: failed if its verdict is FAIL or if its
    name, verdict or detail differs from the reference."""
    checks = outputs.get("checks", [])
    problems = []
    if [c[0] for c in checks] != [r[0] for r in reference]:
        problems.append("check names differ from the reference")
    failed = 0
    for i, ref in enumerate(reference):
        got = checks[i] if i < len(checks) else None
        if got != ref:
            problems.append(f"{ref[0]}: {got!r} != reference {ref!r}")
        failed += got is None or got != ref or not got[1]
    return {"ops": len(reference), "failed": failed, "max_dev_bits": 0.0,
            "worst_oracle_z": 0.0, "problems": problems}


def check(workload: str, result: dict, reference: dict, package_seed: int) -> dict:
    expected = reference["seeds"][str(package_seed)]
    if workload == "props":
        return check_props(result["outputs"], expected)
    oracle = reference.get("oracle", {}).get(str(package_seed))
    return check_sweeps(result["outputs"], expected, oracle, package_seed,
                        worker.SIZES[workload]["realizations"])


# ---- measurement ---------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> tuple[dict, dict]:
    """Run iterations for about `seconds`; return (result line, info line)."""
    reference = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    order = seed_order(workload, seed)
    # Untraced runs: one untraced iteration per package seed. Traced runs:
    # an untraced and a traced iteration per package seed.
    modes = (False, True) if trace else (False,)
    min_iterations = len(modes) if trace else MIN_ITERATIONS
    iterations = []
    attempted = failed = 0
    correct = True
    problems: list[str] = []
    start = time.monotonic()
    slowest = 0.0
    step = 0
    while True:
        package_seed = order[(step // len(modes)) % len(order)]
        traced = modes[step % len(modes)]
        step += 1
        began = time.monotonic()
        timeout = max(5.0, RUN_LIMIT_S - (began - start))
        try:
            result = spawn(workload, package_seed, WORK_DIR / workload, traced, timeout)
            verdict = check(workload, result, reference, package_seed)
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.TimeoutExpired) as exc:
            ops = reference_ops(workload, reference["seeds"][str(package_seed)])
            attempted += ops
            failed += ops
            correct = False
            problems.append(f"package seed {package_seed}: {exc}")
            break
        attempted += verdict["ops"]
        failed += verdict["failed"]
        correct &= not verdict["problems"]
        problems += [f"package seed {package_seed}: {p}" for p in verdict["problems"]]
        iterations.append({"package_seed": package_seed, "traced": traced,
                           **{k: result[k] for k in ("setup_s", "wall_s", "peak_rss_mb")},
                           "layers": result.get("layers"),
                           "versions": result["versions"], "check": verdict})
        now = time.monotonic()
        slowest = max(slowest, now - began)
        if step >= min_iterations and step % len(modes) == 0 \
                and now - start + slowest * len(modes) > seconds:
            break

    metrics = (per_layer_metrics(iterations, spec) if trace
               else end_to_end_metrics(workload, iterations, spec))
    line = {"correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "provenance": {
            "nproc": nproc(),
            "versions": iterations[0]["versions"] if iterations else None,
            "git_sha": git_sha(),
            "threads": {var: worker_env()[var] for var in THREAD_VARS},
            "sizes": worker.SIZES[workload],
            "package_seed_order": order,
        },
        "iterations": [{k: it[k] for k in ("package_seed", "traced", "setup_s",
                                           "wall_s", "peak_rss_mb")}
                       for it in iterations],
        "max_dev_bits": max((it["check"]["max_dev_bits"] for it in iterations),
                            default=0.0),
        "worst_oracle_z": max((it["check"]["worst_oracle_z"] for it in iterations),
                              default=0.0),
        "problems": problems[:20],
    }
    if trace:
        info["note"] = ("gmd.quad.fallbacks counts calls to integrate.quad made "
                        "through sm_noma.gmd; 0 means the fallback never fired.")
    return line, info


def reference_ops(workload: str, expected) -> int:
    if workload == "props":
        return len(expected)
    return sum(len(parse_csv(text)) for text in expected.values())


def end_to_end_metrics(workload: str, iterations: list[dict], spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if not iterations:
        return {}
    wall = statistics.median(it["wall_s"] for it in iterations)
    values = {
        "setup_s": statistics.median(it["setup_s"] for it in iterations),
        "wall_s": wall,
        "cells_per_s": worker.cells(workload) / wall,
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# Per-layer metrics taken as the maximum over traced iterations, not the median.
MAX_OVER_ITERATIONS = ("gmd.quad.fallbacks", "gmd.quad.max_err_bits")


def per_layer_metrics(iterations: list[dict], spec: dict) -> dict:
    traced = [it for it in iterations if it["traced"]]
    if not traced:
        return {}
    untraced_wall = {it["package_seed"]: it["wall_s"] for it in iterations
                     if not it["traced"]}
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = statistics.median(it["wall_s"] - untraced_wall[it["package_seed"]]
                                      for it in traced)
        else:
            values = [it["layers"][name] for it in traced]
            value = max(values) if name in MAX_OVER_ITERATIONS else statistics.median(values)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def print_result(line: dict, info: dict) -> None:
    for name, metric in line["metrics"].items():
        print(f"{info['workload']:>10}  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{info['workload']:>10}  ops {line['attempted']} attempted, {line['failed']} failed, "
          f"correct={line['correct']}, max_dev_bits={info['max_dev_bits']:.3g}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(line, sort_keys=True), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sm_noma" / "__init__.py").is_file():
        print(f"no sm_noma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        line, info = measure(workload, args.seed, args.seconds, bool(args.trace), spec)
        print_result(line, info)
        all_correct &= line["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
