"""Command-line front end.

Subcommands mirror the experiments (modes, resonance, sweep-rabi, evolve);
each takes a JSON config plus output overrides.  Exit codes: 0 success, 2
configuration error (including an undriven ion), 3 numerical-validation
failure, 1 any other failure (numpy errors, MemoryError), on one stderr line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, parse_config
from .experiments import run_experiment, write_table
from .fock import NumericalValidationError
from .transforms import NoDriveError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionjc",
        description="Trapped-ion Jaynes-Cummings experiments on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("modes", "normal-mode table of the ion chain"),
        ("resonance", "corrected sideband-resonance report"),
        ("sweep-rabi", "Rabi-frequency sweep comparing both RWA flavours to the exact oracle"),
        ("evolve", "state-evolution time series"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default: config output.path or stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"), help="output format")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweeps, at most one per grid point and per CPU core (default: 1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("thread count must be >= 1")
        cfg = parse_config(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config declares experiment {cfg.experiment!r} but the {args.command!r} subcommand was invoked"
            )
        out_path = args.out if args.out is not None else cfg.out_path
        # checked before the run, but not opened: a failing run leaves no file
        if out_path is not None and (os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(out_path) or ".")):
            raise ConfigError(f"output path {out_path!r} is a directory or lies in no existing directory")
        table = run_experiment(cfg, threads=args.threads)
        fmt = args.format if args.format is not None else cfg.out_format
        if out_path is None:
            write_table(table, sys.stdout, fmt)
        else:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                write_table(table, fh, fmt)
    except (ConfigError, NoDriveError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidationError as exc:
        print(f"numerical validation failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the process boundary: one line, not a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
