"""Independent verification machinery: brute-force minimizers, closed-form
projections, the per-block graph points and inexactness checks, buffer-free
reference iterations, and the per-step invariant checker.

The tests use it as an independent reference; the package itself does not.
The per-block graph points and budget checks share no arithmetic with the
engine's per-group routines: they evaluate one block at a time through the
registry's resolvent and membership_residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from pdsplit import engine
from pdsplit.blockspace import PrimalDualPoint, adjoint_block, forward_block, pd_inner, pd_norm
from pdsplit.engine import (EngineState, IterationRecord, RunResult, SolverConfig,
                            haugazeau_update, iteration_record)
from pdsplit.errors import ConfigError, InconsistencyError, InvariantViolation
from pdsplit.operators import (MEMBERSHIP_TOL, InexactnessBudget, MonotoneOp,
                               membership_residual, resolvent)
from pdsplit.schedule import ControlSchedule, synchronous
from pdsplit.separator import (GraphTable, ProblemSpec, build_separator, halfspace_violation,
                               project_halfspace)

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


@dataclass(frozen=True)
class GraphPoint:
    """A pair (point, dual) claimed to satisfy dual in Op(point)."""

    point: np.ndarray
    dual: np.ndarray


def graph_point_primal(op: MonotoneOp, z_star: np.ndarray, gamma: float,
                       x_lag: np.ndarray, lstar: np.ndarray,
                       error: Optional[np.ndarray] = None) -> GraphPoint:
    """Fresh graph point for one primal operator from (possibly lagged) reads.

    Exact mode (error=None) returns (a, a*) with
        a  = resolvent(op, gamma, x_lag + gamma*(z_star - lstar))
        a* = (x_lag - a)/gamma - lstar,
    so that a + gamma*(a* + lstar) = x_lag and a* + z_star in Op(a).
    A nonzero error perturbs the resolvent input and enters a* the same way,
    preserving graph membership while shifting the reconstruction identity.
    """
    u = x_lag + gamma * (z_star - lstar)
    if error is None:
        a = resolvent(op, gamma, u)
        a_dual = (x_lag - a) / gamma - lstar
    else:
        a = resolvent(op, gamma, u + error)
        a_dual = (x_lag - a + error) / gamma - lstar
    return GraphPoint(a, a_dual)


def graph_point_dual(op: MonotoneOp, r: np.ndarray, mu: float,
                     l_k: np.ndarray, v_lag: np.ndarray,
                     error: Optional[np.ndarray] = None) -> GraphPoint:
    """Fresh graph point for one dual operator from (possibly lagged) reads.

    Exact mode returns (b, b*) with
        b  = r + resolvent(op, mu, l_k + mu*v_lag - r)
        b* = v_lag + (l_k - b)/mu,
    so that b + mu*(b* - v_lag) = l_k and b* in Op(b - r).
    """
    u = l_k + mu * v_lag - r
    if error is None:
        b = r + resolvent(op, mu, u)
        b_dual = v_lag + (l_k - b) / mu
    else:
        b = r + resolvent(op, mu, u + error)
        b_dual = v_lag + (l_k - b + error) / mu
    return GraphPoint(b, b_dual)


@dataclass(frozen=True)
class InexactCheck:
    """Outcome of validating an approximate graph point."""

    accepted: bool
    reason: Optional[str] = None  # None when accepted


def validate_inexact_primal(op: MonotoneOp, candidate: GraphPoint,
                            x_lag: np.ndarray, lstar: np.ndarray, z_star: np.ndarray,
                            gamma: float, budget: InexactnessBudget) -> InexactCheck:
    """Check an approximate primal graph point against the error budget.

    The implied error is e = a + gamma*(a* + lstar) - x_lag.  Conditions are
    checked in order; the first violation is reported:
      membership   (a, z* + a*) must lie in the operator graph
      norm-bound   ||e|| <= beta
      sigma-dual   <e, a* + l*> <= sigma * gamma * ||a* + l*||^2
      sigma-primal <x - a, e>  >= -sigma * ||x - a||^2
    """
    a, a_dual = candidate.point, candidate.dual
    if membership_residual(op, a, a_dual + z_star) > MEMBERSHIP_TOL * (1.0 + np.linalg.norm(a)):
        return InexactCheck(False, "membership")
    e = a + gamma * (a_dual + lstar) - x_lag
    if float(np.linalg.norm(e)) > budget.beta:
        return InexactCheck(False, "norm-bound")
    w = a_dual + lstar
    if float(np.dot(e, w)) > budget.sigma * gamma * float(np.dot(w, w)):
        return InexactCheck(False, "sigma-dual")
    d = x_lag - a
    if float(np.dot(d, e)) < -budget.sigma * float(np.dot(d, d)):
        return InexactCheck(False, "sigma-primal")
    return InexactCheck(True)


def validate_inexact_dual(op: MonotoneOp, candidate: GraphPoint,
                          l_k: np.ndarray, v_lag: np.ndarray, r: np.ndarray,
                          mu: float, budget: InexactnessBudget) -> InexactCheck:
    """Dual-side counterpart of :func:`validate_inexact_primal`.

    The implied error is f = b + mu*b* - l - mu*v_lag; conditions in order:
      membership   (b - r, b*) must lie in the operator graph
      norm-bound   ||f|| <= delta
      zeta-primal  <l - b, f> >= -zeta * ||l - b||^2
      zeta-dual    <f, b* - v*> <= zeta * mu * ||b* - v*||^2
    """
    b, b_dual = candidate.point, candidate.dual
    if membership_residual(op, b - r, b_dual) > MEMBERSHIP_TOL * (1.0 + np.linalg.norm(b)):
        return InexactCheck(False, "membership")
    f = b + mu * b_dual - l_k - mu * v_lag
    if float(np.linalg.norm(f)) > budget.delta:
        return InexactCheck(False, "norm-bound")
    d = l_k - b
    if float(np.dot(d, f)) < -budget.zeta * float(np.dot(d, d)):
        return InexactCheck(False, "zeta-primal")
    w = b_dual - v_lag
    if float(np.dot(f, w)) > budget.zeta * mu * float(np.dot(w, w)):
        return InexactCheck(False, "zeta-dual")
    return InexactCheck(True)


def fejer_reference_trace(problem: ProblemSpec, config: SolverConfig,
                          n_iters: int) -> tuple[list[IterationRecord], PrimalDualPoint]:
    """Straight-line synchronous run of the relaxed-projection iteration.

    No lag buffer and no recycling: every block is refreshed from the
    current iterate each step, in fixed block order, through the per-block
    primitives (see lagged_reference_run).  Used to certify that the
    asynchronous, batched machinery introduces no arithmetic drift in the
    synchronous regime.
    """
    records, final, _ = lagged_reference_run(problem, config,
                                             synchronous(problem.m, problem.p), n_iters)
    return records, final


def lagged_reference_run(problem: ProblemSpec, config: SolverConfig, sched: ControlSchedule,
                         n_iters: int) -> tuple[list[IterationRecord], PrimalDualPoint, tuple]:
    """The engine's iteration written out block by block, as a reference for its batched phase.

    Every iterate is kept (no ring buffer).  Each activated block reads
    L x or L* v* of the iterate its lag names with forward_block or
    adjoint_block and gets its point from graph_point_*.  In inexact mode
    each one, in activation order and primal blocks first, draws a seeded
    error toward its first read, capped at 0.95 times the budget's bound,
    and keeps the perturbed point if the budget accepts it.  Returns the
    records, the last iterate and the inexact (accepted, rejected) counts.
    """
    rules = config.validate(problem)
    sig, L, budget, rule = problem.signature, problem.coupling, config.inexact, config.perturbation
    rng = None if rule is None else np.random.default_rng(rule.seed)
    counts = [0, 0]
    iterates = [problem.projector.project(config.start or PrimalDualPoint.zeros(sig))]
    graph = GraphTable.zeros(sig)
    records: list[IterationRecord] = []
    sides = ((0, "a", graph_point_primal, validate_inexact_primal, "beta"),
             (1, "b", graph_point_dual, validate_inexact_dual, "delta"))
    for n in range(n_iters):
        for side, table, point, check, bound in sides:
            for idx in sched.blocks_at(n)[side]:
                if side == 0:
                    past, sl = iterates[sched.lag_primal(idx, n)], sig.primal_slices[idx]
                    args = (problem.A_ops[idx], problem.z_star.data[sl], rules.gamma[idx],
                            past.x.data[sl], adjoint_block(L, past.v_star, idx))
                else:
                    past, sl = iterates[sched.lag_dual(idx, n)], sig.dual_slices[idx]
                    args = (problem.B_ops[idx], problem.r.data[sl], rules.mu[idx],
                            forward_block(L, past.x, idx), past.v_star.data[sl])
                gp = point(*args)
                if rng is not None:
                    err = float(rng.uniform(-rule.scale, rule.scale)) * (args[3] - gp.point)
                    cap, norm = 0.95 * getattr(budget, bound), float(np.linalg.norm(err))
                    candidate = point(*args, error=err * (cap / norm) if norm > cap else err)
                    accepted = check(args[0], candidate, args[3], args[4], args[1], args[2],
                                     budget).accepted
                    counts[0 if accepted else 1] += 1
                    gp = candidate if accepted else gp
                getattr(graph, table)[sl], getattr(graph, f"{table}_dual")[sl] = gp.point, gp.dual
        current = iterates[n]
        sep, _ = build_separator(graph, problem)
        violation = halfspace_violation(current, sep)
        theta, nxt = project_halfspace(current, sep, rules.lam(n), config.tau_zero_tol)
        if config.mode == "haugazeau":
            nxt = haugazeau_update(iterates[0], current, nxt)
        records.append(iteration_record(
            n, theta, sep.norm_sq, violation, problem, current,
            L.forward(current.x.data), L.adjoint(current.v_star.data), graph))
        iterates.append(nxt)
    return records, iterates[-1], None if rng is None else tuple(counts)


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
