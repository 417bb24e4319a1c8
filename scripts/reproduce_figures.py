#!/usr/bin/env python3
"""Desk-scale reproduction of the two result figures.

Runs the per-user MI sweep (fig1), the sum-MI sweep at fixed total power
(fig2a), and the power-ratio sweep at 30 dB (fig2b) through the `sm-noma`
CLI with its default configs, writing CSV + JSON sidecars into the chosen
output directory. Each figure's line reports its elapsed time and whether
it reused the previous figure's table (fig2a reuses fig1's); a last line
gives the total elapsed time, the process's peak resident set size
and its minor page faults.
"""

import argparse
import resource
import time
from pathlib import Path

from sm_noma import runner
from sm_noma.cli import main as sm_noma


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--seed", default=0, type=int)
    parser.add_argument("--realizations", default=200, type=int)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    first = time.perf_counter()
    for name in ("fig1", "fig2a", "fig2b"):
        out = args.out_dir / f"{name}.csv"
        start = time.perf_counter()
        hits = runner._sweep_table.cache_info().hits
        code = sm_noma([name, "--seed", str(args.seed),
                        "--realizations", str(args.realizations), "--out", str(out)])
        if code != 0:
            return code
        reused = runner._sweep_table.cache_info().hits > hits
        table = "reused the previous figure's" if reused else "computed its own"
        print(f"{name}: {out} ({time.perf_counter() - start:.1f}s, {table} table)")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB on Linux.
    print(f"total: {time.perf_counter() - first:.1f}s for fig1, fig2a and fig2b "
          f"at R={args.realizations}, peak RSS {usage.ru_maxrss / 1024:.1f} MB, "
          f"{usage.ru_minflt} minor page faults")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
