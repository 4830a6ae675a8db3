"""Command-line front end: solve one scenario, sweep a parameter, or run the
acceptance checks."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import runner
from .scenario import ParseError, ScenarioConfig, ValidationError, load_scenario, validate


def _load(args) -> ScenarioConfig:
    """The scenario of --config (stock values without one), validated again only when verify's --seed sets the seed."""
    cfg = load_scenario(args.config or "")
    return cfg if getattr(args, "seed", None) is None else validate(replace(cfg, seed=args.seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavmec",
        description="Weighted-total-energy minimization for a massive-MIMO "
        "UAV-aided vehicular edge-computing network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimize one scenario and emit a result row")
    sweep = sub.add_parser("sweep", help="solve the scenario across one parameter axis")
    check = sub.add_parser("verify", help="run the acceptance criteria")

    for p in (solve, sweep, check):
        p.add_argument("--config", help="scenario file (INI-style; empty = stock values)")
    check.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    for p in (solve, sweep):
        p.add_argument("--baseline", action="store_true",
                       help="also run (sweep) or switch to (solve) the non-optimized scheme")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--axis", required=True,
                       help="config field to sweep (e.g. antennas, task_bits, uav_altitude)")
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values, e.g. 16,36,64")

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        from .acceptance import verify  # the acceptance suite and its oracle load only here

        return 0 if all(res.passed for res in verify(cfg)) else 1

    try:
        if args.command == "solve":
            cfg = replace(cfg, mode="baseline") if args.baseline else cfg
            result = runner.SweepResult(axis="none", values=[0.0], config=cfg)
            result.rows.append(runner.solve_scenario(cfg))
        else:
            result = runner.run_sweep(cfg, args.axis, args.values.split(","), args.baseline)
    except ValidationError as exc:  # a refused sweep value or axis, before any point is solved
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # hard per-run errors -> nonzero exit for solve
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out == "-":
        sys.stdout.write(runner.format_results(result, args.format))
    else:
        runner.emit_results(result, args.format, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
