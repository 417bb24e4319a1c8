"""Command-line entry point for the experiment runner.

Subcommands: fig1, fig2a, fig2b, props. Exit codes: 0 success, 1 config
error or unwritable output, 2 usage error (argparse), 3 property-suite
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .runner import (
    ConfigError,
    ExperimentConfig,
    figure1_config,
    figure2b_config,
    load_config,
    run_figure1,
    run_figure2a,
    run_figure2b,
    run_property_suite,
    write_curves,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sm-noma",
        description="SM-NOMA spectral-efficiency experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fig1", "per-user MI and lower bounds vs SNR"),
        ("fig2a", "sum MI vs SNR at fixed total power"),
        ("fig2b", "per-user MI vs power ratio at fixed SNR"),
        ("props", "randomized cross-module property suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, help="JSON config file")
        cmd.add_argument("--seed", type=int, help="root RNG seed")
        cmd.add_argument("--realizations", type=int, help="channel realizations")
        if name == "props":
            continue  # the suite writes no file and estimates by quadrature
        cmd.add_argument("--out", type=str, dest="output_path", help="output CSV path")
        cmd.add_argument(
            "--method", choices=("quadrature", "montecarlo"),
            help="entropy estimator for exact MI",
        )
        cmd.add_argument("--mc-samples", type=int, help="Monte Carlo sample count")
    return parser


_DEFAULTS = {
    "fig1": figure1_config,
    "fig2a": figure1_config,
    "fig2b": figure2b_config,
    "props": figure1_config,
}

_RUNNERS = {
    "fig1": (run_figure1, "snr_db"),
    "fig2a": (run_figure2a, "snr_db"),
    "fig2b": (run_figure2b, "power_ratio"),
}


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = _DEFAULTS[args.command]()
    # Every flag but --config sets the config field of its name.
    overrides = {name: value for name, value in vars(args).items()
                 if name not in ("command", "config") and value is not None}
    return replace(config, **overrides) if overrides else config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "props":
            report = run_property_suite(config)
        else:
            out = config.output_path or f"{args.command}.csv"
            # A missing directory fails before the sweep, not after it.
            directory = os.path.dirname(out) or os.curdir
            if not os.path.isdir(directory):
                print(f"cannot write {out}: no directory {directory}", file=sys.stderr)
                return 1
            run, x_axis = _RUNNERS[args.command]
            curves = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "props":
        for line in report.lines():
            print(line)
        return 0 if report.all_passed else 3

    try:
        write_curves(out, curves, config, x_axis=x_axis)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(curves)} curves to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
