"""Command line front end for the benchmark drivers.

Subcommands mirror :mod:`wkbmc.harness`: the four case-study tables,
the cost sweep, the invariant self test, the variance blow-up demo,
and the two calibration helpers.  Tables and bench print CSV in the
shared schema; every run is reproducible from (config, seed, samples).
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import bermudan as brm
from . import harness, lmm

__all__ = ["main", "build_parser"]


def _at_least(least: int):
    """Argument type: an integer of at least ``least``."""
    def at_least(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return at_least


def _finite_positive(what: str):
    """Argument type: a finite, positive float, named ``what`` in errors."""
    def finite_positive(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError(f"expected a finite {what} > 0, got {text!r}")
        return value
    return finite_positive


def _estimators(text: str) -> tuple[str, ...]:
    """Argument type: a non-empty comma list of bench estimators."""
    names = tuple(s for s in text.split(",") if s)
    if not names or any(s not in harness.BENCH_ESTIMATORS for s in names):
        raise argparse.ArgumentTypeError(
            f"expected a comma list among {','.join(harness.BENCH_ESTIMATORS)}, got {text!r}"
        )
    return names


def _flags(p: argparse.ArgumentParser, least_samples: int | None = 2,
           config: bool = True, level: bool = False) -> argparse.ArgumentParser:
    """Add the shared flags a subcommand reads, and only those.

    ``least_samples`` is the smallest ``--samples`` accepted: two by
    default, since an estimate needs two samples for its standard error;
    a policy fit has its own minimum of paths, and None drops the flag.
    """
    if config:
        p.add_argument("--config", metavar="PATH",
                       help="model config file (default: built-in case study)")
    p.add_argument("--seed", type=int, default=None, metavar="N",
                   help="evaluation seed (subcommands pick their usual one when omitted)")
    if least_samples is not None:
        p.add_argument("--samples", type=_at_least(least_samples), default=None, metavar="M",
                       help=f"Monte Carlo sample count, at least {least_samples} "
                            "(default depends on the subcommand)")
    if level:
        p.add_argument("--level", choices=("lgn", "0", "1", "euler"), default=None,
                       help="restrict to one estimator variant (default: all)")
    p.add_argument("--out", metavar="PATH", help="also write the output to this file")
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wkbmc",
        description="swaption pricing benchmarks for the short-time-density estimators",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = _flags(sub.add_parser(
        "table", help="one benchmark table as CSV (maturity sweep x estimators)"), level=True)
    t.add_argument("which", type=int, choices=(1, 2, 3, 4),
                   help="1 European prices, 2 European deltas, 3 Bermudan prices, 4 Bermudan deltas")
    t.add_argument("--h", type=_finite_positive("bump"), default=harness.DEFAULT_H,
                   help="finite-difference bump size for the delta tables")

    b = _flags(sub.add_parser("bench", help="wall-clock cost of each estimator across maturities"))
    b.add_argument("--estimators", type=_estimators, default=harness.BENCH_ESTIMATORS,
                   help="comma list among " + ",".join(harness.BENCH_ESTIMATORS))
    b.add_argument("--repeats", type=_at_least(1), default=2,
                   help="timed repetitions per cell (minimum is reported)")

    _flags(sub.add_parser("selftest",
                          help="run every module's cheap invariants; exit 1 on any failure"),
           least_samples=None)

    _flags(sub.add_parser("explosion-demo",
                          help="closed-form variance blow-up of the fixed-sampler delta"),
           config=False)

    _flags(sub.add_parser("calibrate-n",
                          help="fit rate count and payoff style to the benchmark European prices"))

    cp = _flags(sub.add_parser("calibrate-policy",
                               help="fit exercise thresholds on dedicated paths and save them"),
                least_samples=brm._MIN_CALIBRATION_PATHS)
    cp.add_argument("--t1", type=_finite_positive("first tenor date"), default=1.0,
                    help="first tenor date in years")

    return p


def _raw(args) -> dict | None:
    """The ``--config`` file's settings, refused here if they cannot make a model.

    T1 is not a file setting, so a file that builds at one maturity
    builds at every one.  A command that prices only Bermudans also
    needs the file to declare exercise dates.
    """
    if not getattr(args, "config", None):
        return None
    raw = lmm.load_config(args.config)
    if not lmm.make_config(raw, 1.0).exercise_indices and (
            args.command == "calibrate-policy" or getattr(args, "which", None) in (3, 4)
            or set(getattr(args, "estimators", ())) == {"bermudan"}):
        raise ValueError(f"{args.config} declares no exercise_dates, which "
                         f"{args.command} needs")
    return raw


def _check_out(args) -> None:
    """Refuse an ``--out`` path whose directory does not exist.

    Every command writes its file only after its run, so the refusal
    comes here, before any work, not as a traceback at the end.
    """
    if args.out and not Path(args.out).parent.is_dir():
        raise ValueError(f"--out {args.out}: {Path(args.out).parent} is not an existing directory")


def _levels(args):
    return (args.level,) if args.level else harness.LEVELS


def _seed(args, default: int) -> int:
    return args.seed if args.seed is not None else default


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        raw = _raw(args)
    except (OSError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")

    if args.command == "table":
        text = harness.run_table(
            args.which,
            raw=raw,
            m=args.samples or harness.DEFAULT_SAMPLES,
            seed=_seed(args, harness.DEFAULT_SEED),
            h=args.h,
            levels=_levels(args),
            out=args.out,
        )
        sys.stdout.write(text)
        return 0

    if args.command == "bench":
        text = harness.run_bench(
            raw=raw,
            m=args.samples or 20_000,
            seed=_seed(args, harness.DEFAULT_SEED),
            estimators=args.estimators,
            repeats=args.repeats,
            out=args.out,
        )
        sys.stdout.write(text)
        return 0

    if args.command == "selftest":
        text, failed = harness.run_selftest(
            raw=raw, seed=_seed(args, 0), out=args.out
        )
        sys.stdout.write(text)
        return 1 if failed else 0

    if args.command == "explosion-demo":
        text = harness.run_explosion(
            m=args.samples or 100_000, seed=_seed(args, 0), out=args.out
        )
        sys.stdout.write(text)
        return 0

    if args.command == "calibrate-n":
        _, report = harness.calibrate_n(
            raw=raw,
            m=args.samples or harness.DEFAULT_SAMPLES,
            seed=_seed(args, harness.DEFAULT_SEED),
            out=args.out,
        )
        sys.stdout.write(report)
        if args.out:
            sys.stdout.write(f"config written to {args.out}\n")
        return 0

    if args.command == "calibrate-policy":
        policy = brm.calibrate_policy(
            harness.build_config(raw, args.t1),
            n_paths=args.samples or harness.CALIBRATION_PATHS,
            seed=_seed(args, harness.CALIBRATION_SEED),
        )
        lines = ["date threshold objective_bp"]
        for d, thr, obj in zip(policy.dates, policy.thresholds, policy.objectives):
            lines.append(f"{d:g} {thr:.6e} {obj * 1e4:.2f}")
        sys.stdout.write("\n".join(lines) + "\n")
        if args.out:
            brm.save_policy(policy, args.out)
            sys.stdout.write(f"policy written to {args.out}\n")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")
