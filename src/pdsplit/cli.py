"""Command-line interface: run solves, generate and validate schedules,
verify candidate solutions, and compare traces.

Exit codes: 0 solved/valid, 1 usage, I/O or schema error, 2 iteration
budget exhausted, 3 validation failure, 4 inconsistency/infeasibility signal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import fileio
from .engine import run
from .errors import ConfigError, PdsplitError
from .schedule import LAG_PATTERNS, at_least, periodic, random_admissible, validate
from .separator import kt_residual

EXIT_OK = 0
EXIT_IO = 1
EXIT_MAX_ITER = 2
EXIT_INVALID = 3
EXIT_INCONSISTENT = 4

_STATUS_EXIT = {"solved": EXIT_OK, "exact_point": EXIT_OK,
                "max_iter": EXIT_MAX_ITER, "inconsistent": EXIT_INCONSISTENT}


def _tolerance(tol: float) -> float:
    """The --tol of check-kt and compare, once it is a finite number >= 0."""
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"--tol must be a finite number >= 0, got {tol}")
    return tol


def _cmd_run(args) -> int:
    problem = fileio.parse_problem(args.problem)
    config = fileio.parse_config(args.config)
    sched = fileio.parse_schedule(args.schedule) if args.schedule else None
    with fileio.TraceWriter(args.trace, len(problem.known_Z_points)) as trace:
        result = run(problem, config, sched, trace)  # rows are written as they are made
    summary = {"status": result.status, "iterations": result.iterations,
               "message": result.message, "metadata": result.metadata,
               "final": fileio.point_to_dict(result.final)}
    if result.last_record is not None:
        summary["final_residual_sum"] = result.last_record.residual_sum()
    print(json.dumps(summary, indent=1))
    return _STATUS_EXIT[result.status]


def _cmd_validate_schedule(args) -> int:
    at_least(("--m", args.m, 1), ("--p", args.p, 1))
    sched = fileio.parse_schedule(args.schedule)
    cert = validate(sched, args.m, args.p)
    if cert.certified:
        print(f"certified: M={sched.M} D={sched.D} horizon={sched.horizon}")
        return EXIT_OK
    where = "" if cert.at is None else f" at n={cert.at}"
    print(f"violation: {cert.reason}{where}")
    return EXIT_INVALID


def _cmd_check_kt(args) -> int:
    tol = _tolerance(args.tol)
    problem = fileio.parse_problem(args.problem)
    point = fileio.parse_point(args.point)
    problem.check_point(point, args.point)
    res = kt_residual(problem, point)
    for i, v in enumerate(res.primal):
        print(f"primal[{i}]: {v:.6e}")
    for k, v in enumerate(res.dual):
        print(f"dual[{k}]: {v:.6e}")
    print(f"max: {res.max:.6e} (tol {tol:.6e})")
    return EXIT_OK if res.max <= tol else EXIT_INVALID


def _cmd_compare(args) -> int:
    """Both tolerances walk the same lines: a file's bytes split at each newline."""
    tol = _tolerance(args.tol)
    if tol > 0.0:  # the numbers are read first, so a malformed trace is an error (exit 1)
        (header, rows_a), (header_b, rows_b) = map(fileio.read_trace, (args.trace_a, args.trace_b))
        if header != header_b:
            print("diverges at row 0: header mismatch")
            return EXIT_INVALID
    with open(args.trace_a, "rb") as fa, open(args.trace_b, "rb") as fb:
        lines = fa.read().split(b"\n"), fb.read().split(b"\n")
    for row, (la, lb) in enumerate(zip(*lines)):
        if la == lb:
            continue
        if tol > 0.0 and la and lb:  # two rows of numbers: the headers are equal
            for col, (va, vb) in enumerate(zip(rows_a[row - 1], rows_b[row - 1])):
                if not (va == vb or abs(va - vb) <= tol or math.isnan(va) and math.isnan(vb)):
                    print(f"diverges at row {row}, column {header[col]}: "
                          f"{va:.17g} vs {vb:.17g}")
                    return EXIT_INVALID
            continue
        # a file that ended here has the empty line after its last newline
        ended = any(not ln and row == len(ls) - 1 for ln, ls in zip((la, lb), lines))
        print(f"diverges at row {row}" + ": length mismatch" * ended)
        return EXIT_INVALID
    if len(lines[0]) != len(lines[1]):
        print(f"diverges at row {min(map(len, lines))}: length mismatch")
        return EXIT_INVALID
    print("identical" if tol == 0.0 else f"equal within {tol:g}")
    return EXIT_OK


def _cmd_gen_schedule(args) -> int:
    if args.type == "periodic":
        lag = (args.lag_pattern, args.lag_value)[:2 if LAG_PATTERNS[args.lag_pattern][0] else 1]
        sched = periodic(args.m, args.p, args.group_size, args.horizon, lag)
    else:
        sched = random_admissible(args.m, args.p, args.M, args.D, args.horizon, args.seed)
    fileio.write_schedule(sched, args.out)
    print(f"wrote {args.out}: M={sched.M} D={sched.D} horizon={sched.horizon}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since exit code 2 means the iteration budget ran out."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdsplit",
        description="Block-iterative primal-dual splitting solver for coupled "
                    "monotone inclusions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a problem and write the iteration trace")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--schedule", default=None,
                       help="schedule file (default: synchronous)")
    p_run.add_argument("--trace", required=True, help="output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate-schedule", help="certify a schedule file")
    p_val.add_argument("--schedule", required=True)
    p_val.add_argument("--m", type=int, required=True)
    p_val.add_argument("--p", type=int, required=True)
    p_val.set_defaults(func=_cmd_validate_schedule)

    p_kt = sub.add_parser("check-kt", help="verify a candidate solution pair")
    p_kt.add_argument("--problem", required=True)
    p_kt.add_argument("--point", required=True)
    p_kt.add_argument("--tol", type=float, required=True)
    p_kt.set_defaults(func=_cmd_check_kt)

    p_cmp = sub.add_parser("compare", help="compare two trace files")
    p_cmp.add_argument("--trace-a", required=True)
    p_cmp.add_argument("--trace-b", required=True)
    p_cmp.add_argument("--tol", type=float, required=True,
                       help="0 means byte equality; cells match when both are NaN")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("gen-schedule", help="generate a certified schedule file")
    p_gen.add_argument("--type", choices=("periodic", "random"), required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--horizon", type=int, default=256)
    p_gen.add_argument("--group-size", type=int, default=1)
    p_gen.add_argument("--lag-pattern", choices=tuple(LAG_PATTERNS), default="zero")
    p_gen.add_argument("--lag-value", type=int, default=0)
    p_gen.add_argument("--M", type=int, default=1)
    p_gen.add_argument("--D", type=int, default=0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_schedule)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PdsplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
