"""Independent verification machinery: brute-force minimizers, closed-form
projections, the per-block graph points, membership test, KT residual and
inexactness checks, the coordination step written from the paper's formulas,
buffer-free reference iterations, and the per-step invariant checker.

The tests use it as an independent reference; the package itself does not.
The per-block graph points, membership test and budget checks share no
arithmetic with the engine's and kt_residual's per-group routines: they
evaluate one block at a time through the registry's resolvent, and the
membership test is this module's own.  The half-space, its
violation, the relaxed projection, the anchored update and the diagnostics
row are this module's own, summed in the documented order (one dot per side,
primal side first), so that they match the engine bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from pdsplit import engine
from pdsplit.blockspace import PrimalDualPoint, adjoint_block, forward_block, pd_norm
from pdsplit.engine import EngineState, IterationRecord, RunResult, SolverConfig
from pdsplit.errors import ConfigError, InconsistencyError, InvariantViolation
from pdsplit.operators import MEMBERSHIP_TOL, InexactnessBudget, MonotoneOp, resolvent
from pdsplit.schedule import ControlSchedule, synchronous
from pdsplit.separator import GraphTable, KTResidual, ProblemSpec

FEJER_TOL = 1e-10
ANCHOR_TOL = 1e-10
HALFSPACE_TOL = 1e-10
SUBSPACE_ITERATE_TOL = 1e-9
RHO_TOL = 1e-12  # the anchored update's Gram determinant counts as 0 below RHO_TOL * mu * nu


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


def membership_residual(op: MonotoneOp, point: np.ndarray, dual: np.ndarray) -> float:
    """Distance of (point, dual) from the operator graph by the resolvent test, one block.

    dual in Op(point) iff point = resolvent(op, 1, point + dual); the
    distance is the norm of their difference, sqrt of its dot with itself.
    """
    d = point - resolvent(op, 1.0, point + dual)
    return math.sqrt(float(d @ d))


def reference_kt_residual(problem: ProblemSpec, point: PrimalDualPoint) -> KTResidual:
    """kt_residual block by block: membership_residual of (x_i, z*_i - (L* v*)_i) for each
    primal operator and of ((L x)_k - r_k, v*_k) for each dual one, with L x and L* v* from the
    coupling's full applies.  A NaN or infinite residual is returned, not warned."""
    L, sig = problem.coupling, problem.signature
    x, v = point.x.data, point.v_star.data
    with np.errstate(over="ignore", invalid="ignore"):
        lsv, lx = L.adjoint(v), L.forward(x)
        primal = tuple(membership_residual(op, x[sl], problem.z_star.data[sl] - lsv[sl])
                       for op, sl in zip(problem.A_ops, sig.primal_slices))
        dual = tuple(membership_residual(op, lx[sl] - problem.r.data[sl], v[sl])
                     for op, sl in zip(problem.B_ops, sig.dual_slices))
    return KTResidual(primal, dual)


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


def _inner(u: np.ndarray, w: np.ndarray, split: int) -> float:
    """<u, w> of flat primal-dual arrays with `split` primal entries, one dot per side, primal
    side first."""
    return float(u[:split].dot(w[:split])) + float(u[split:].dot(w[split:]))


def reference_halfspace(graph: GraphTable, problem: ProblemSpec) -> tuple[np.ndarray, float]:
    """The half-space {u : <u, s*> <= eta} that one graph point per operator gives, as (s*, eta).

    s* = P_V(a* + L* b*, b - L a), with P_V the projection onto the problem's
    subspace, and eta = sum_i <a_i, a*_i> + sum_k <b_k, b*_k>.
    """
    L = problem.coupling
    raw = np.concatenate((graph.a_dual + L.adjoint(graph.b_dual), graph.b - L.forward(graph.a)))
    level = float(graph.a.dot(graph.a_dual)) + float(graph.b.dot(graph.b_dual))
    return problem.projector.project_flat(raw), level


def reference_projection(z: np.ndarray, normal: np.ndarray, level: float, lam: float,
                         tau_zero_tol: float, split: int) -> tuple[float, float, float, np.ndarray]:
    """(violation, tau, theta, next) of the relaxed projection of z onto {<u, normal> <= level}.

    violation = max(0, <z, normal> - level) and tau = ||normal||^2; theta =
    lam * violation / tau and next = z - theta * normal, except that nothing
    moves (theta = 0) when z is inside or tau <= tau_zero_tol * (1 + level^2).
    """
    tau = _inner(normal, normal, split)
    violation = max(0.0, _inner(z, normal, split) - level)
    if violation <= 0.0 or tau <= tau_zero_tol * (1.0 + level ** 2):
        return violation, tau, 0.0, z
    theta = lam * violation / tau
    return violation, tau, theta, z - theta * normal


def reference_haugazeau(x0: np.ndarray, y: np.ndarray, z: np.ndarray, split: int) -> np.ndarray:
    """Haugazeau's Q(x0, y, z): the projection of x0 onto the intersection of the half-spaces
    {u : <u - y, x0 - y> <= 0} and {u : <u - z, y - z> <= 0}.

    With chi = <x0 - y, y - z>, mu = ||x0 - y||^2, nu = ||y - z||^2 and
    rho = mu nu - chi^2, the closed form is z if rho = 0 and chi >= 0,
    x0 + (1 + chi/nu)(z - y) if rho > 0 and chi nu >= rho, and
    y + (nu/rho)(chi (x0 - y) + mu (z - y)) if rho > 0 and chi nu < rho.
    rho counts as 0 up to RHO_TOL; chi < 0 there means an empty intersection.
    """
    ay, yz = x0 - y, y - z
    chi, mu, nu = _inner(ay, yz, split), _inner(ay, ay, split), _inner(yz, yz, split)
    rho = max(mu * nu - chi * chi, 0.0)
    if rho <= RHO_TOL * mu * nu:
        if chi < -RHO_TOL * (mu + nu):
            raise InconsistencyError(f"empty intersection of the two half-spaces (chi={chi:.3e})")
        return z
    if chi * nu >= rho:
        return x0 + (1.0 + chi / nu) * (z - y)
    return y + (nu / rho) * (chi * ay + mu * (z - y))


def reference_record(n: int, theta: float, tau: float, violation: float, problem: ProblemSpec,
                     current: PrimalDualPoint, graph: GraphTable) -> IterationRecord:
    """The diagnostics row of the step from current: ||x - a||, ||a* + L* v*||, ||L x - b||,
    ||b* - v*|| and the distance to each fixture solution."""
    L, x, v = problem.coupling, current.x.data, current.v_star.data
    res = (x - graph.a, graph.a_dual + L.adjoint(v), L.forward(x) - graph.b, graph.b_dual - v)
    dists = tuple(math.sqrt(_inner(d, d, x.size))
                  for d in (current.data - z.data for z in problem.known_Z_points))
    return IterationRecord(n, theta, tau, violation, *(math.sqrt(float(w.dot(w))) for w in res),
                           dists)


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
    and keeps the perturbed point if the budget accepts it.  The coordination
    step and the diagnostics row are the reference_* formulas above.  Returns
    the records, the last iterate and the inexact (accepted, rejected) counts.
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
        current, split = iterates[n], graph.a.size
        normal, level = reference_halfspace(graph, problem)
        violation, tau, theta, nxt = reference_projection(current.data, normal, level,
                                                          rules.lam(n), config.tau_zero_tol, split)
        if config.mode == "haugazeau":
            nxt = reference_haugazeau(iterates[0].data, current.data, nxt, split)
        records.append(reference_record(n, theta, tau, violation, problem, current, graph))
        iterates.append(graph.pair(nxt[:split], nxt[split:]))
    return records, iterates[-1], None if rng is None else tuple(counts)


def rows_owned_by_mask(owners: list, active, count: int) -> list:
    """Per stack, its rows whose owner is in active (distinct), ascending; slice(None) if all are.

    owners gives per stack the block of each row.  This is the engine's row
    selector as it was before its per-block tables: a mask over all count blocks.
    """
    if len(active) == count:
        return [slice(None)] * len(owners)
    on = np.zeros(count, bool)
    on[list(active)] = True
    return [on[owner].nonzero()[0] for owner in owners]


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
    normal, level = reference_halfspace(graph, problem)
    for j, z in enumerate(problem.known_Z_points):
        gap = _inner(z.data, normal, graph.a.size) - level
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
