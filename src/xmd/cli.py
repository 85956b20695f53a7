"""Command line entry point.

    xmd <experiment> [--config PATH] [--seed N] [--out DIR] [--override key=value]...

Exit codes: 0 all configured assertions passed, 1 an assertion failed,
2 configuration error. The output directory may also be set through the
XMD_OUT environment variable (the only environment variable consulted).

Of the diagnostics experiments only flow-equivalence reads the dt and t_end
keys, by default t_end 1 and dt 1e-2 (dt may not exceed t_end, so a t_end
under 1e-2 needs a smaller dt as well), and steps on that uniform grid.
geodesic-check and lyapunov-suite run fixed instances. geodesic-check checks
their velocities at 25 points of each segment; lyapunov-suite steps on graded
grids whose steps grow geometrically, the last about 8 times the first
(stretch 8): 200 steps (the 1-d path) and 256 steps (the 2-d path) to t_end 4.
It steps each continuous path with its Richardson companion (the same path on
every other point of its grid) as the second row of one RK4 batch, and stops
its discrete run at the first step that returns its input's bits.

The verdict and the metrics are printed after the outputs are written. If
standard output closes early (``xmd ... | head -1``), the rest of the printout
is dropped and the exit code is still the run's own.
"""
from __future__ import annotations

import argparse
import os
import sys

from .config import (EXPERIMENTS, ConfigError, ExperimentConfig,
                     apply_overrides, canonical_dumps, load_config)
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmd",
                                     description="conformal mirror descent experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
        else:
            config = ExperimentConfig(experiment=args.experiment).validate()
        if args.override:
            config = apply_overrides(config, args.override)
        # one check for both routes: the config file and an experiment override
        if config.experiment != args.experiment:
            raise ConfigError(f"config is for {config.experiment!r}, not {args.experiment!r}")
        if args.seed is not None:
            config.seed = args.seed
        out_dir = args.out or os.environ.get("XMD_OUT") or config.out
        out_dir = os.path.join(out_dir, config.experiment)
        config.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(canonical_dumps(config))

    summary = run_experiment(config, out_dir)
    status = "PASS" if summary.passed else "FAIL"
    try:
        print(f"{config.experiment}: {status} ({summary.wall_time:.2f}s) -> {out_dir}")
        for key, value in summary.metrics.items():
            print(f"  {key}: {value}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if summary.passed else 1


if __name__ == "__main__":
    sys.exit(main())
