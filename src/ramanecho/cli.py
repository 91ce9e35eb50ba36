"""Command-line front end.

Subcommands: simulate (run a scenario file end to end), sweep (recovery
efficiency traces to CSV), check (reversal-condition report only),
echo-time (comb rephasing time), dump-defaults (reference scenario).

Exit codes: 0 success, 1 error (malformed input, integrator failure, or
an internal error, reported on one line), 2 strict scenario refused on
unmet conditions, 3 condition check failed.  A warning is one line too.
All file writes are whole-file atomic and every output is deterministic:
the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from .conditions import echo_time_afc
from .efficiency import REAFC, RECRIB, sweep_gamma, write_sweep_csv
from .errors import ArgumentError, ConditionsUnmet, SimulationError
from .numerics import fmt_float, write_text_atomic
from .runs import run_scenario, scenario_report, write_outputs
from .scenario import _shown, default_scenario, dump_scenario, load_scenario

# the most points a --gamma grid may have: a step of 1e-6 across [0, 1]
MAX_GAMMA_POINTS = 1_000_001


def finite_float(text: str) -> float:
    """A finite float, for argparse's `type=`; refuses nan and inf, and
    echoes at most SHOWN_CHARS of a refused value."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {_shown(text)}")
    return value


def _integer(text: str) -> int:
    """An integer, for argparse's `type=`; echoes at most SHOWN_CHARS of
    a refused value."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {_shown(text)}") from None


def parse_alpha0l_list(text: str) -> list[float]:
    try:
        return [finite_float(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise ArgumentError(
            "--alpha0L expects comma-separated finite numbers, got "
            f"{_shown(text)}")


def parse_gamma_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ArgumentError(
            f"--gamma expects start:stop:step, got {_shown(text)}")
    try:
        start, stop, step = (finite_float(p) for p in parts)
    except argparse.ArgumentTypeError:
        raise ArgumentError(
            f"--gamma expects finite start:stop:step, got {_shown(text)}")
    if step <= 0:
        raise ArgumentError("--gamma step must be positive")
    if stop < start:
        raise ArgumentError("--gamma stop must be at least start")
    # a float, so that a subnormal step (count inf) is refused as well
    steps = (stop - start) / step
    count = steps + 1.0
    if not count <= MAX_GAMMA_POINTS:
        raise ArgumentError(
            f"--gamma {_shown(text)} gives {count:.3g} points, more than "
            f"{MAX_GAMMA_POINTS}")
    # every point not past stop by more than the rounding of the step
    # count; the last point is moved back onto stop by that rounding
    n = math.floor(steps * (1.0 + 1e-9)) + 1
    values = start + step * np.arange(n)
    if values[-1] > stop:
        values[-1] = stop
    return values


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.strict:
        scenario = replace(scenario,
                           protocol=replace(scenario.protocol, strict=True))
    result = run_scenario(scenario)
    out_dir = args.out if args.out is not None else scenario.run.out_dir
    paths = write_outputs(result, out_dir)
    for line in result.summary_lines():
        print(line)
    if not result.report.overall:
        print(result.report.as_text())
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    protocols = [RECRIB, REAFC] if args.protocol == "both" else [args.protocol]
    depths = parse_alpha0l_list(args.alpha0L)
    gamma_grid = parse_gamma_range(args.gamma)
    traces = {(protocol, alpha0l): sweep_gamma(protocol, alpha0l, gamma_grid,
                                               total_time=args.total_time)
              for protocol in protocols for alpha0l in depths}
    write_sweep_csv(args.out, traces, total_time=args.total_time)
    print(f"wrote {args.out} ({len(traces)} traces, "
          f"{gamma_grid.size} points each)")
    return 0


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    report = scenario_report(scenario)
    print(report.as_text())
    return 0 if report.overall else 3


def cmd_echo_time(args) -> int:
    t2 = echo_time_afc(args.f1, args.f2, args.t1, args.delta_comb, k=args.k)
    print(fmt_float(t2))
    return 0


def cmd_dump_defaults(args) -> int:
    text = dump_scenario(default_scenario())
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Route usage errors through the package error type so the process
    exits 1 rather than argparse's builtin 2 (reserved for conditions)."""

    def error(self, message):
        raise ArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramanecho",
                     description="Raman echo quantum memory toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a scenario file end to end")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--out", default=None,
                   help="output directory (default: scenario out_dir)")
    p.add_argument("--strict", action="store_true",
                   help="refuse to run when a reversal condition fails")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep",
                       help="recovery efficiency traces to one CSV")
    p.add_argument("--protocol", default="both",
                   choices=[RECRIB, REAFC, "both"])
    p.add_argument("--alpha0L", default="50,200,1000",
                   help="comma-separated resonant depths")
    p.add_argument("--gamma", default="0:1:0.001",
                   help="broadening ratio grid start:stop:step")
    p.add_argument("--total-time", type=finite_float, default=None,
                   help="storage plus retrieval time (default per protocol)")
    p.add_argument("--out", default="sweep.csv", help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check",
                       help="reversal-condition report for a scenario")
    p.add_argument("scenario", help="scenario file path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("echo-time",
                       help="comb rephasing time for given stage params")
    p.add_argument("--f1", type=finite_float, default=1.0,
                   help="stage-1 control intensity factor")
    p.add_argument("--f2", type=finite_float, default=1.0,
                   help="stage-2 control intensity factor")
    p.add_argument("--t1", type=finite_float, required=True,
                   help="storage dwell time")
    p.add_argument("--delta-comb", type=finite_float, required=True,
                   help="comb tooth spacing")
    p.add_argument("--k", type=_integer, default=1,
                   help="rephasing order")
    p.set_defaults(func=cmd_echo_time)

    p = sub.add_parser("dump-defaults",
                       help="print the reference scenario file")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_dump_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # warnings are recorded under the filters in force, and each printed
    # as one line after the command
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except ConditionsUnmet as exc:
            print(f"conditions unmet: {exc}", file=sys.stderr)
            return 2
        except SimulationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001 - no input prints a traceback
            print(f"internal error: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
