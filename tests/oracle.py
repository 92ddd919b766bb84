"""Independent verification machinery: brute-force minimizers, closed-form
projections, a buffer-free reference iteration, and the per-step invariant
checker.

The tests use it as an independent reference; the package itself does not.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from pdsplit import engine
from pdsplit.blockspace import PrimalDualPoint, adjoint_block, forward_block, pd_inner, pd_norm
from pdsplit.engine import EngineState, IterationRecord, RunResult, SolverConfig, iteration_record
from pdsplit.errors import ConfigError, InconsistencyError, InvariantViolation
from pdsplit.operators import (MEMBERSHIP_TOL, graph_point_dual, graph_point_primal,
                               membership_residual)
from pdsplit.schedule import ControlSchedule
from pdsplit.separator import ProblemSpec, build_separator, halfspace_violation, project_halfspace

from conftest import graph_table

FEJER_TOL = 1e-10
ANCHOR_TOL = 1e-10
HALFSPACE_TOL = 1e-10
SUBSPACE_ITERATE_TOL = 1e-9


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    count = int(math.floor((hi - lo) / step + 0.5)) + 1
    return lo + step * np.arange(count)


def grid_minimize(objective: Callable[[np.ndarray], float],
                  box: Sequence[tuple[float, float]], step: float) -> np.ndarray:
    """Brute-force argmin of a function of one or two variables over a box.

    Scans the full grid at the given step, then refines once at 10x
    resolution around the coarse argmin.  A coarse argmin on the box
    boundary triggers a warning since the true minimizer may lie outside.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    dim = len(box)
    if dim not in (1, 2):
        raise ConfigError(f"grid search supports 1 or 2 variables, got {dim}")

    def scan(bounds: Sequence[tuple[float, float]], h: float) -> np.ndarray:
        axes = [_grid(lo, hi, h) for lo, hi in bounds]
        if dim == 1:
            values = [objective(np.array([t])) for t in axes[0]]
            return np.array([axes[0][int(np.argmin(values))]])
        best = None
        best_val = math.inf
        for t0 in axes[0]:
            for t1 in axes[1]:
                v = objective(np.array([t0, t1]))
                if v < best_val:
                    best_val = v
                    best = (t0, t1)
        return np.array(best)

    coarse = scan(box, step)
    for j in range(dim):
        lo, hi = box[j]
        if coarse[j] <= lo + step / 2 or coarse[j] >= hi - step / 2:
            warnings.warn("grid argmin on the box boundary; objective may be "
                          "unbounded below or the box too small", stacklevel=2)
    refined_box = [(max(box[j][0], coarse[j] - step), min(box[j][1], coarse[j] + step))
                   for j in range(dim)]
    return scan(refined_box, step / 10.0)


def project_intersection_two_halfspaces(x: np.ndarray,
                                        h1: tuple[np.ndarray, float],
                                        h2: tuple[np.ndarray, float],
                                        feas_tol: float = 1e-10) -> np.ndarray:
    """Exact projection onto {u : <n1,u> <= o1} intersect {u : <n2,u> <= o2}.

    Enumerates the four candidate active sets (none, first, second, both)
    and returns the feasible candidate closest to x; the true projection is
    always among them.  Raises when the intersection is empty.
    """
    x = np.asarray(x, dtype=float)
    n1, o1 = np.asarray(h1[0], dtype=float), float(h1[1])
    n2, o2 = np.asarray(h2[0], dtype=float), float(h2[1])
    scale = 1.0 + float(np.linalg.norm(x))
    candidates = [x]
    for nvec, off in ((n1, o1), (n2, o2)):
        nn = float(np.dot(nvec, nvec))
        if nn > 0.0:
            candidates.append(x - (float(np.dot(nvec, x)) - off) / nn * nvec)
    gram = np.array([[np.dot(n1, n1), np.dot(n1, n2)],
                     [np.dot(n2, n1), np.dot(n2, n2)]])
    rhs = np.array([np.dot(n1, x) - o1, np.dot(n2, x) - o2])
    try:
        alpha = np.linalg.solve(gram, rhs)
        candidates.append(x - alpha[0] * n1 - alpha[1] * n2)
    except np.linalg.LinAlgError:
        pass  # parallel normals: the two-constraint corner does not exist
    best = None
    best_dist = math.inf
    for u in candidates:
        if np.dot(n1, u) - o1 <= feas_tol * scale and np.dot(n2, u) - o2 <= feas_tol * scale:
            dist = float(np.linalg.norm(u - x))
            if dist < best_dist:
                best_dist = dist
                best = u
    if best is None:
        raise InconsistencyError("the two half-spaces have empty intersection")
    return best


def closed_form_Z_box(x0: float, v0: float) -> tuple[float, float]:
    """Best approximation for the free-primal / box-constrained-dual fixture.

    For the one-dimensional problem with a zero primal operator, the normal
    cone of [-1, 1] on the dual side, identity coupling and zero offsets,
    the solution set is exactly [-1, 1] x {0}; projecting any start point
    clamps the primal part and zeroes the dual part.
    """
    return min(max(float(x0), -1.0), 1.0), 0.0


def fejer_reference_trace(problem: ProblemSpec, config: SolverConfig,
                          n_iters: int) -> tuple[list[IterationRecord], PrimalDualPoint]:
    """Straight-line synchronous run of the relaxed-projection iteration.

    No schedule, no lag buffer, no recycling: every block is refreshed from
    the current iterate each step, in fixed block order, using the same
    primitives as the engine.  Used to certify that the asynchronous
    machinery introduces no arithmetic drift in the synchronous regime.
    """
    rules = config.validate(problem)
    current = problem.projector.project(config.start or PrimalDualPoint.zeros(problem.signature))
    records: list[IterationRecord] = []
    for n in range(n_iters):
        a_points = [graph_point_primal(
            problem.A_ops[i], problem.z_star.blocks[i], rules.gamma[i],
            current.x.blocks[i], adjoint_block(problem.coupling, current.v_star, i))
            for i in range(problem.m)]
        b_points = [graph_point_dual(
            problem.B_ops[k], problem.r.blocks[k], rules.mu[k],
            forward_block(problem.coupling, current.x, k), current.v_star.blocks[k])
            for k in range(problem.p)]
        graph = graph_table(a_points, b_points)
        sep, _ = build_separator(graph, problem)
        violation = halfspace_violation(current, sep)
        theta, nxt = project_halfspace(current, sep, rules.lam(n), config.tau_zero_tol)
        records.append(iteration_record(n, theta, sep.norm_sq, violation, problem,
                                        current, graph))
        current = nxt
    return records, current


def check_step(state: EngineState, before: PrimalDualPoint, n: int) -> None:
    """Raise InvariantViolation if step n, from `before` to state.current, broke a guarantee.

    The guarantees, with the tolerances above: every graph point lies on its
    operator's graph, the step's half-space cuts off no fixture solution, the
    iterate moves no farther from any fixture solution (fejer) or no closer
    to the anchor (haugazeau), and it stays in the subspace.
    """
    problem, graph, nxt = state.problem, state.graph, state.current
    for side, ops, slices, points, args, duals in (
            ("primal", problem.A_ops, problem.signature.primal_slices, graph.a, graph.a,
             graph.a_dual + problem.z_star.data),
            ("dual", problem.B_ops, problem.signature.dual_slices, graph.b,
             graph.b - problem.r.data, graph.b_dual)):
        for idx, (op, sl) in enumerate(zip(ops, slices)):
            res = membership_residual(op, args[sl], duals[sl])
            if res > MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(points[sl]))):
                raise InvariantViolation(
                    f"{side} graph point {idx} off its graph at n={n}: {res:.3e}")
    sep, _ = build_separator(graph, problem)
    for j, z in enumerate(problem.known_Z_points):
        gap = pd_inner(z, sep.normal) - sep.level
        if gap > HALFSPACE_TOL:
            raise InvariantViolation(
                f"half-space at n={n} cuts off fixture solution {j} by {gap:.3e}")
        if state.config.mode == "fejer" and pd_norm(nxt - z) > pd_norm(before - z) + FEJER_TOL:
            raise InvariantViolation(f"distance to fixture solution {j} increased at n={n}")
    if state.config.mode == "haugazeau" \
            and pd_norm(nxt - state.anchor) < pd_norm(before - state.anchor) - ANCHOR_TOL:
        raise InvariantViolation(f"anchor distance decreased at n={n}")
    if problem.projector.residual(nxt) > SUBSPACE_ITERATE_TOL:
        raise InvariantViolation(f"iterate left the subspace at n={n}")


def checked_run(problem: ProblemSpec, config: SolverConfig,
                sched: Optional[ControlSchedule] = None) -> RunResult:
    """`run`, with check_step after every step that continues the run or solves it.

    `run` looks `advance` up when it calls it, so a checking wrapper stands in
    for it while this run lasts.
    """
    step = engine.advance

    def checked(state: EngineState):
        before, n = state.current, state.n
        terminal = step(state)
        if terminal is None or terminal[0] == "solved":
            check_step(state, before, n)
        return terminal

    engine.advance = checked
    try:
        return engine.run(problem, config, sched)
    finally:
        engine.advance = step
