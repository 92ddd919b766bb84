"""The benchmark workloads: inputs, set-up, the timed solve, and its checks.

Each workload says why it is in the suite.  Set-up turns generated data
into validated inputs (operator construction with PSD checks, ProblemSpec
with its fixture KT check, schedule generation and certification, config
validation); the solve is what a user waits for.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pdsplit as ps
import pdsplit.cli
from pdsplit import fileio

import problems

# A solved status must come with a KT residual of the returned point within
# this multiple of resid_tol * (1 + ||z||).  The measured ratio on lasso-cli
# is about 0.33.
KT_MULTIPLE = 10.0
# Relative slack for Fejer monotonicity of the distance to the known solution.
FEJER_REL_TOL = 1e-10

_EXIT_CODE = {"solved": 0, "max_iter": 2}


@dataclass
class Prepared:
    """Validated inputs of one solve."""

    problem: ps.ProblemSpec
    config: ps.SolverConfig
    schedule: Optional[ps.ControlSchedule] = None
    files: Optional[dict] = None


@dataclass
class Outcome:
    """What one solve returned."""

    status: str
    iters: int
    final: ps.PrimalDualPoint
    records: Optional[list] = None       # iteration records, when the solve returns them
    trace_path: Optional[Path] = None    # trace CSV, when the solve wrote one itself
    exit_code: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    expect: str          # status every solve must end with
    fejer: bool          # distance to the known solution must not increase
    make_inputs: Callable[[int, Path], object]
    setup: Callable[[object], Prepared]
    solve: Callable[[Prepared, Path], Outcome]


def _certified(sched: ps.ControlSchedule, m: int, p: int) -> ps.ControlSchedule:
    cert = ps.validate(sched, m, p)
    if not cert.certified:
        raise ps.ConfigError(f"schedule not certified: {cert.reason}")
    return sched


# ------------------------------------------------------------ library solves

def _library(make_raw: Callable, schedule: Callable, **config) -> tuple:
    def make_inputs(seed: int, workdir: Path):
        return make_raw(seed)

    def setup(raw: problems.RawProblem) -> Prepared:
        problem = problems.build_problem(raw)
        sched = _certified(schedule(raw.m, raw.p), raw.m, raw.p)
        cfg = ps.SolverConfig(**config)
        cfg.validate(problem)
        return Prepared(problem, cfg, sched)

    def solve(prep: Prepared, workdir: Path) -> Outcome:
        res = ps.run(prep.problem, prep.config, prep.schedule)
        return Outcome(res.status, res.iterations, res.final, records=res.trace)

    return make_inputs, setup, solve


def _fixed_count(iters: int) -> dict:
    """Fejer config that runs exactly `iters` iterations (no early stop)."""
    return dict(mode="fejer", max_iter=iters, resid_tol=0.0, exact_tol=-1.0)


# Schedule generators are looked up when called, so the tracer sees them.
def _synchronous(m: int, p: int) -> ps.ControlSchedule:
    return ps.synchronous(m, p)


def _round_robin(m: int, p: int) -> ps.ControlSchedule:
    return ps.periodic(m, p, group_size=1, horizon=4 * max(m, p), lag_pattern=("sawtooth", 3))


# ---------------------------------------------------------------- CLI solve

LASSO_CONFIG = dict(mode="haugazeau", max_iter=20000, resid_tol=1e-6)


def _lasso_inputs(seed: int, workdir: Path) -> dict:
    files = {"problem": workdir / "lasso_problem.json", "config": workdir / "lasso_config.json",
             "schedule": workdir / "lasso_schedule.json", "trace": workdir / "lasso_trace.csv"}
    fileio.write_problem(problems.build_problem(problems.lasso(seed)), files["problem"])
    fileio.write_config(ps.SolverConfig(**LASSO_CONFIG), files["config"])
    fileio.write_schedule(ps.synchronous(1, 1), files["schedule"])
    return files


def _lasso_setup(files: dict) -> Prepared:
    problem = fileio.parse_problem(files["problem"])
    config = fileio.parse_config(files["config"])
    schedule = _certified(fileio.parse_schedule(files["schedule"]), problem.m, problem.p)
    config.validate(problem)
    return Prepared(problem, config, schedule, files)


def _lasso_solve(prep: Prepared, workdir: Path) -> Outcome:
    files = prep.files
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = pdsplit.cli.main(["run", "--problem", str(files["problem"]),
                                 "--config", str(files["config"]),
                                 "--schedule", str(files["schedule"]),
                                 "--trace", str(files["trace"])])
    summary = json.loads(captured.getvalue())
    final = ps.PrimalDualPoint(ps.BlockVector(summary["final"]["x"]),
                               ps.BlockVector(summary["final"]["v_star"]))
    return Outcome(summary["status"], summary["iterations"], final,
                   trace_path=files["trace"], exit_code=code)


# ---------------------------------------------------------------- the suite

WORKLOADS = {w.name: w for w in (
    Workload(
        "lasso-cli",
        "2-dim lasso, haugazeau to 1e-6 through the CLI: trivial arithmetic, so time goes to "
        "object churn, the anchored update, diagnostics and JSON/CSV I/O",
        "solved", False, _lasso_inputs, _lasso_setup, _lasso_solve),
    Workload(
        "blocksparse-sync",
        f"m = p = {problems.M}, d = {problems.D}, every block active: coupling applies and "
        "separator assembly dominate, and activation-proportional work has nothing to skip",
        "max_iter", True, *_library(problems.blocksparse, _synchronous, **_fixed_count(150))),
    Workload(
        "blocksparse-lagged-rr",
        "same problem, one block per side per iteration with sawtooth read lag D = 3: "
        "resolvents nearly vanish but full L/L* applies remain",
        "max_iter", True, *_library(problems.blocksparse, _round_robin, **_fixed_count(250))),
)}


def check(wl: Workload, prep: Prepared, out: Outcome) -> list:
    """Correctness failures of one solve (empty when it is correct)."""
    errors = []
    if out.status != wl.expect:
        errors.append(f"status {out.status!r}, expected {wl.expect!r}")
    if out.exit_code is not None and out.exit_code != _EXIT_CODE[wl.expect]:
        errors.append(f"exit code {out.exit_code}, expected {_EXIT_CODE[wl.expect]}")
    if wl.expect == "solved":
        kt = ps.kt_residual(prep.problem, out.final).max
        limit = KT_MULTIPLE * prep.config.resid_tol * (1.0 + ps.pd_norm(out.final))
        if not kt <= limit:
            errors.append(f"KT residual {kt:.3e} above {limit:.3e}")
    if wl.fejer:
        dist = [rec.dists[0] for rec in out.records]
        for n in range(1, len(dist)):
            if dist[n] > dist[n - 1] * (1.0 + FEJER_REL_TOL):
                errors.append(f"dist_z0 increased at n={n}: {dist[n - 1]!r} -> {dist[n]!r}")
                break
        if not dist[-1] < dist[0]:
            errors.append(f"dist_z0 did not decrease: {dist[0]!r} -> {dist[-1]!r}")
    return errors


def trace_bytes(prep: Prepared, out: Outcome, workdir: Path) -> bytes:
    """The trace CSV of one solve, written by pdsplit's own writer if the solve did not."""
    path = out.trace_path
    if path is None:
        path = workdir / "trace.csv"
        fileio.write_trace(out.records, path, len(prep.problem.known_Z_points))
    return path.read_bytes()
