#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark, written to BENCH_<n>.json.

    python3 scripts/ab_bench.py --baseline REV --pairs N --seconds S \
        [--workload W ...]

Extracts the committed files of REV and of HEAD (`git archive`) into
.ab_bench/base and .ab_bench/cand, two paths of equal length, so that
neither side runs from a longer path or from uncommitted files. Pair i
runs the unchanged `python3 bench/run.py --workload W --seconds S
--seed i` in each checkout, once per workload, the baseline first in
even pairs and the candidate first in odd ones. Each run's last output
line is its result. If any run reads correct=false, or fails to report,
nothing is written and the exit status is 1.

BENCH_<n>.json, n the first unused number in the repository root, holds
both SHAs, the command, nproc, the versions each side ran with, and per
workload and end-to-end metric (BENCHMARK.json) each side's median,
quartiles and per-pair values, and how many pairs the candidate won.
A run with REV = HEAD (an A/A run) measures the machine's noise floor.
The checkouts are deleted when the script ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".ab_bench"
SIDES = ("base", "cand")
WORKLOADS = ("figures", "montecarlo", "props")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(sha: str, path: Path) -> None:
    """The committed files of sha, extracted into a fresh directory path."""
    path.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(path)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")


def bench_command(workload: str, seconds: float, seed: int) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload,
            "--seconds", f"{seconds:g}", "--seed", str(seed)]


def run_bench(side: str, command: list[str]) -> tuple[dict, dict]:
    """(result line, info line) of one bench run in one side's checkout."""
    proc = subprocess.run(command, cwd=WORK / side, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1]), json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{side}: {' '.join(command)} exited with {proc.returncode} "
                           f"and no result:\n{proc.stderr[-2000:]}") from None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def wins(base: list[float], cand: list[float], better: str) -> int:
    """Pairs in which the candidate reads strictly better; ties count for
    neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (b - c) > 0.0 for b, c in zip(base, cand))


def next_output() -> Path:
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare with HEAD")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    workloads = args.workload or list(WORKLOADS)
    shas = {"base": git("rev-parse", "--verify", f"{args.baseline}^{{commit}}"),
            "cand": git("rev-parse", "--verify", "HEAD^{commit}")}

    if WORK.exists():
        shutil.rmtree(WORK)
    try:
        for side in SIDES:
            checkout(shas[side], WORK / side)
        spec = json.loads((WORK / "cand" / "BENCHMARK.json").read_text())
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        problems = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    line, info = run_bench(side, bench_command(workload, args.seconds, i))
                    runs[workload][side].append((line, info))
                    print(f"pair {i} {workload:>10} {side}: correct={line['correct']} "
                          f"failed={line['failed']}/{line['attempted']} " + " ".join(
                              f"{k}={m['value']:.6g}" for k, m in line["metrics"].items()),
                          flush=True)
                    if not line["correct"]:
                        problems.append(f"pair {i} {workload} {side}: {info['problems'][:3]}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if problems:
        print("correct=false, nothing written:\n" + "\n".join(problems), file=sys.stderr)
        return 1

    results = {}
    for workload, sides in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [line["metrics"][name]["value"] for line, _ in sides[side]]
                      for side in SIDES}
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **{side: summary(values[side]) for side in SIDES},
                "cand_wins": wins(values["base"], values["cand"], metric["better"]),
            }
        results[workload] = {
            "metrics": metrics,
            **{f"{side}_ops": [[line["attempted"], line["failed"]] for line, _ in sides[side]]
               for side in SIDES},
            "max_dev_bits": max(info["max_dev_bits"] for side in SIDES
                                for _, info in sides[side]),
        }
    first = runs[workloads[0]]
    record = {
        "baseline": {"rev": args.baseline, "sha": shas["base"]},
        "candidate": {"rev": "HEAD", "sha": shas["cand"]},
        "command": " ".join(["python3", "scripts/ab_bench.py", *argv]),
        "bench_command": f"python3 bench/run.py --workload W --seconds {args.seconds:g} "
                         "--seed <pair>",
        "pairs": args.pairs,
        "first_side": [SIDES[i % 2] for i in range(args.pairs)],
        "nproc": len(os.sched_getaffinity(0)),
        "versions": {side: first[side][0][1]["provenance"]["versions"] for side in SIDES},
        "workloads": results,
    }
    out = next_output()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
