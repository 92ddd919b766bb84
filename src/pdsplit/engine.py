"""The two iteration engines: relaxed projection and anchored best approximation.

Both engines share a decomposition phase (fresh graph points for activated
blocks, recycled points for the rest) and a coordination phase built on the
separating half-space.  The relaxed-projection engine moves the iterate
toward the half-space with an over-relaxation factor up to 2; the
best-approximation engine caps the factor at 1 and then pulls the update
back toward the starting anchor through a closed-form projection onto the
intersection of two half-spaces.

The decomposition phase is one batched pass per side: reads slice the
L x and L* v* computed once per buffered iterate, and resolvents run once
per operator group.  The coordination phase runs on flat arrays and builds
one point, the new iterate, unless the step does not move it (theta = 0):
then the iterate and its buffered images carry over as they are.  `advance`
runs one iteration, `run` loops over it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .blockspace import (BlockVector, CouplingMap, KeptImage, PrimalDualPoint, block_rows,
                         flat_inner, rows_owned)
from .errors import ConfigError, InconsistencyError, PdsplitError
from .operators import (InexactnessBudget, finite_number, inexact_dual, inexact_primal,
                        operator_groups, row_dots, stacked_resolvent)
from .schedule import ControlSchedule, LagBuffer, at_least, synchronous, validate
from .separator import (GraphTable, ProblemSpec, build_separator, detect_exact_solution,
                        halfspace_violation, project_halfspace)

Rule = Union[float, Sequence[float]]

RHO_TOL = 1e-12


@dataclass
class PerturbationRule:
    """Seeded generator of relative resolvent errors for inexact-mode runs.

    Every fresh graph point gets an error proportional to the exact residual
    direction, with a coefficient drawn uniformly from [-scale, scale] and a
    norm cap just under the budget's absolute bound.
    """

    seed: int
    scale: float


@dataclass
class SolverConfig:
    """Engine parameters.

    relaxation is a number or a non-empty per-iteration list whose last
    entry repeats; gamma and mu are a number or a per-block list.  epsilon
    bounds the relaxation factor to [epsilon, 2 - epsilon] (fejer) or
    [epsilon, 1] (haugazeau), and eps_prox bounds gamma and mu to
    [eps_prox, 1/eps_prox]; both values are echoed into the run metadata.
    validate() is the one place these rules are checked.
    """

    mode: str = "fejer"  # "fejer" | "haugazeau"
    epsilon: float = 0.05
    relaxation: Optional[Rule] = None  # default: 1.9 (fejer) / 1.0 (haugazeau)
    gamma: Rule = 1.0
    mu: Rule = 1.0
    eps_prox: float = 1e-2
    max_iter: int = 10000
    resid_tol: float = 1e-8
    tau_zero_tol: float = 1e-14
    exact_tol: float = 1e-14
    trace_stride: int = 1
    start: Optional[PrimalDualPoint] = None
    inexact: Optional[InexactnessBudget] = None
    perturbation: Optional[PerturbationRule] = None

    def validate(self, problem: ProblemSpec) -> Rules:
        """Check every field once; return the step rules as tuples of floats."""
        if self.mode not in ("fejer", "haugazeau"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for name in ("epsilon", "eps_prox"):
            if not 0.0 < finite_number(name, getattr(self, name)) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        perturb = self.perturbation or PerturbationRule(seed=0, scale=0.0)
        for name, value in (("resid_tol", self.resid_tol), ("tau_zero_tol", self.tau_zero_tol),
                            ("exact_tol", self.exact_tol), ("perturbation.scale", perturb.scale)):
            finite_number(name, value)
        at_least(("max_iter", self.max_iter, 0), ("trace_stride", self.trace_stride, 1),
                 ("perturbation.seed", perturb.seed, 0))
        eps, fejer = self.epsilon, self.mode == "fejer"
        prox = (self.eps_prox, 1.0 / self.eps_prox)
        relaxation = (1.9 if fejer else 1.0) if self.relaxation is None else self.relaxation
        rules = Rules(_rule("relaxation", relaxation, None, eps, 2.0 - eps if fejer else 1.0),
                      _rule("gamma", self.gamma, problem.m, *prox),
                      _rule("mu", self.mu, problem.p, *prox))
        if self.perturbation is not None and self.inexact is None:
            raise ConfigError("perturbation injection requires an inexactness budget")
        if self.start is not None:
            problem.check_point(self.start, "start")
            if not np.isfinite(self.start.data).all():
                raise ConfigError("start has non-finite values")
        return rules


@dataclass(frozen=True)
class Rules:
    """The step rules of a validated config, as floats.

    relaxation has one entry per iteration (the last one repeats), gamma one
    per primal block and mu one per dual block.
    """

    relaxation: tuple[float, ...]
    gamma: tuple[float, ...]
    mu: tuple[float, ...]

    def lam(self, n: int) -> float:
        """The relaxation factor of iteration n."""
        return self.relaxation[min(n, len(self.relaxation) - 1)]


def _rule(name: str, rule, count: Optional[int], lo: float, hi: float) -> tuple[float, ...]:
    """A number or a non-empty list/tuple of numbers, as `count` floats (any count if None)."""
    if isinstance(rule, (list, tuple)):
        if not rule or count not in (None, len(rule)):
            raise ConfigError(f"{name} list has {len(rule)} entries, "
                              f"expected {count or 'at least 1'}")
        values = tuple(finite_number(f"{name}[{j}]", v) for j, v in enumerate(rule))
    else:
        values = (finite_number(name, rule, "a number or a non-empty list of numbers"),) \
            * (count or 1)
    for v in values:
        if not lo <= v <= hi:
            raise ConfigError(f"{name}={v} outside [{lo}, {hi}]")
    return values


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics: step data and convergence residuals.

    Residuals are computed from the iterate the step started at and the same
    (possibly recycled) graph points the separator used, so the trace
    reflects actual algorithmic state.
    """

    n: int
    theta: float
    tau: float
    violation: float
    res_primal: float    # distance between primal iterate and primal graph points
    res_dualmap: float   # primal graph duals vs adjoint-coupled dual iterate
    res_coupling: float  # coupled primal iterate vs dual graph points
    res_dual: float      # dual graph duals vs dual iterate
    dists: tuple[float, ...] = ()  # distances to the known fixture solutions

    def residual_sum(self) -> float:
        return self.res_primal + self.res_dualmap + self.res_coupling + self.res_dual


class _Side(NamedTuple):
    """One side of the decomposition phase, fixed when the state is built."""

    read: int           # its pair of a buffered iterate: 0 for (x, L* v*), 1 for (L x, v*)
    ops: tuple
    slices: tuple
    offset: np.ndarray  # z_star or r
    step: np.ndarray    # each block's gamma or mu, at the block's coordinates
    groups: list        # (kind, members, stacked parameters, member coordinates) per (kind, dim)
    owners: list        # per group, its members as an index array
    rows: list          # per group, per block of the side, its row in the group (or none)


def _side(read: int, ops, slices, offset: BlockVector, steps) -> _Side:
    groups = operator_groups(ops, slices, steps)
    return _Side(read, tuple(ops), slices, offset.data,
                 np.repeat(steps, [sl.stop - sl.start for sl in slices]), groups,
                 [np.array(js) for _, js, _, _ in groups],
                 [block_rows(js, len(ops)) for _, js, _, _ in groups])


def _buffered(coupling: CouplingMap, x: np.ndarray, v: np.ndarray) -> tuple:
    """A flat iterate (x, v*) as the two sides read it, ((x, L* v*), (L x, v*)), with its images."""
    return (x, coupling.adjoint(v)), (coupling.forward(x), v)


@dataclass
class EngineState:
    """Per-run state: validated inputs, iterate, anchor, recycled graph points, buffers.

    `advance` reads all its inputs here: copies of the problem's offsets,
    coupling and fixtures, of sched and of config (the caller's may change
    later), the rules config.validate returned and the two sides, whose
    operator groups fix the operators' parameters.  trace receives the
    records of the traced iterations: a list unless another destination with
    an `append` was given.  ended names the terminal status after which the
    run cannot go on.
    """

    problem: ProblemSpec
    config: SolverConfig
    sched: ControlSchedule
    rules: Rules
    n: int
    current: PrimalDualPoint
    anchor: PrimalDualPoint
    graph: GraphTable
    buffer: LagBuffer
    primal: _Side
    dual: _Side
    la: KeptImage   # L a and L* b* of the graph points
    lsb: KeptImage
    perturb: Optional[_PerturbState] = None
    trace: list[IterationRecord] = field(default_factory=list)  # or any object with append
    last_record: Optional[IterationRecord] = None
    ended: Optional[str] = None

    @classmethod
    def initial(cls, problem: ProblemSpec, config: SolverConfig, sched: ControlSchedule,
                trace=None) -> "EngineState":
        """The state before iteration 0, once the config is validated and the schedule certified.

        trace is the destination of the records (default: a new list)."""
        rules = config.validate(problem)
        sched = replace(sched, c=dict(sched.c), d=dict(sched.d))  # __post_init__ copies the rest
        cert = validate(sched, problem.m, problem.p)
        if not cert.certified:
            raise ConfigError(f"schedule not certified: {cert.reason} (n={cert.at})")
        problem = copy.copy(problem)  # with its own arrays, where the caller's may change later
        problem.z_star, problem.r = (BlockVector._wrap(b.data.copy(), b.dims)
                                     for b in (problem.z_star, problem.r))
        problem.coupling = problem.coupling.copy()
        problem.known_Z_points = tuple(z._like(z.data.copy()) for z in problem.known_Z_points)
        L, sig = problem.coupling, problem.signature
        current = problem.projector.project(config.start or PrimalDualPoint.zeros(sig))
        sides = (_side(0, problem.A_ops, sig.primal_slices, problem.z_star, rules.gamma),
                 _side(1, problem.B_ops, sig.dual_slices, problem.r, rules.mu))
        return cls(problem, replace(config), sched, rules, n=0, current=current, anchor=current,
                   graph=GraphTable.zeros(sig),
                   buffer=LagBuffer(sched.D, _buffered(L, current.x.data, current.v_star.data)),
                   primal=sides[0], dual=sides[1], la=KeptImage(L), lsb=KeptImage(L, adjoint=True),
                   perturb=None if config.perturbation is None
                   else _PerturbState(config.perturbation, config.inexact, sides),
                   trace=[] if trace is None else trace)


@dataclass
class RunResult:
    status: str  # "solved" | "max_iter" | "exact_point" | "inconsistent"
    final: PrimalDualPoint
    trace: list[IterationRecord]  # a new list, or the destination given to run
    iterations: int
    message: str = ""
    metadata: dict = field(default_factory=dict)
    last_record: Optional[IterationRecord] = None  # of the last iteration, traced or not


class _PerturbState:
    """Run-local RNG, budget and acceptance counters for injected resolvent errors, and the
    operator groups' parameters at step 1, which the budget's membership test reads."""

    def __init__(self, rule: PerturbationRule, budget: InexactnessBudget, sides: tuple):
        self.rng, self.scale, self.budget = np.random.default_rng(rule.seed), rule.scale, budget
        self.unit = [[unit for _, _, unit, _ in operator_groups(side.ops, side.slices)]
                     for side in sides]
        self.accepted = self.rejected = 0

    def draw(self, side: _Side, active: Sequence[int]) -> np.ndarray:
        """Per block of the side, its error coefficient: one draw per activated block, in order."""
        coef = np.zeros(len(side.ops))
        coef[list(active)] = self.rng.uniform(-self.scale, self.scale, size=len(active))
        return coef

    def apply(self, side: _Side, g: int, sel, coef: np.ndarray, args: tuple, exact: tuple):
        """Rows sel of group g: each one's perturbed point if the budget accepts it, else its
        exact one.  args are the group routine's arguments, exact its result."""
        fresh, check, bound = ((graph_point_primal, inexact_primal, self.budget.beta),
                               (graph_point_dual, inexact_dual, self.budget.delta))[side.read]
        err = coef[side.owners[g][sel]][:, None] * (args[2] - exact[0])  # toward the first read
        cap, norm = 0.95 * bound, np.sqrt(row_dots(err, err))
        over = norm > cap
        err[over] *= (cap / norm[over])[:, None]
        candidate = fresh(*args, error=err)
        keep = check(args[0], tuple(q[sel] for q in self.unit[side.read][g]), *candidate,
                     *args[2:], self.budget)
        self.accepted += int(keep.sum())
        self.rejected += keep.size - int(keep.sum())
        return tuple(np.where(keep[:, None], c, e) for c, e in zip(candidate, exact))


def _reads(state: EngineState, side: _Side, active: Sequence[int], lags: list[int]) -> tuple:
    """The side's read arrays: each activated block's slices of the iterate it reads (else 0)."""
    if all(j == lags[0] for j in lags):  # then they are that iterate's own arrays
        return state.buffer.get(lags[0])[side.read]
    out = (np.zeros(side.step.size), np.zeros(side.step.size))
    for idx, j in zip(active, lags):
        for dst, src in zip(out, state.buffer.get(j)[side.read]):
            dst[side.slices[idx]] = src[side.slices[idx]]
    return out


def graph_point_primal(kind: str, params: tuple, x: np.ndarray, lsv: np.ndarray,
                       gamma: np.ndarray, z_star: np.ndarray, error=None) -> tuple:
    """Fresh graph points of a primal operator group, one row per activated block:
    a = J(x + gamma*(z* - L*v)), a* = (x - a)/gamma - L*v, so a* + z* in Op(a).  An error
    perturbs J's input and enters a* the same way, which keeps graph membership."""
    u = x + gamma * (z_star - lsv)
    if error is None:
        a = stacked_resolvent(kind, params, u)
        return a, (x - a) / gamma - lsv
    a = stacked_resolvent(kind, params, u + error)
    return a, (x - a + error) / gamma - lsv


def graph_point_dual(kind: str, params: tuple, lx: np.ndarray, v: np.ndarray,
                     mu: np.ndarray, r: np.ndarray, error=None) -> tuple:
    """Fresh graph points of a dual operator group, one row per activated block:
    b = r + J(Lx + mu*v - r), b* = v + (Lx - b)/mu, so b* in Op(b - r); an error as above."""
    u = lx + mu * v - r
    if error is None:
        b = r + stacked_resolvent(kind, params, u)
        return b, v + (lx - b) / mu
    b = r + stacked_resolvent(kind, params, u + error)
    return b, v + (lx - b + error) / mu


def _decompose(state: EngineState, n: int) -> None:
    """Fresh graph points of the blocks activated at n overwrite their recycled ones.

    The primal side, then the dual side, runs its group routine once per operator
    group with an activated member, on those members' coordinates.  Inexact mode draws
    the side's error coefficients first and keeps each perturbed point the budget
    accepts.  The kept L a and L* b* follow.
    """
    sched, graph, perturb = state.sched, state.graph, state.perturb
    I_n, K_n = sched.blocks_at(n)
    for side, active, lag, fresh, table in (
            (state.primal, I_n, sched.lag_primal, graph_point_primal, (graph.a, graph.a_dual)),
            (state.dual, K_n, sched.lag_dual, graph_point_dual, (graph.b, graph.b_dual))):
        reads = _reads(state, side, active, [lag(j, n) for j in active])
        coef = None if perturb is None else perturb.draw(side, active)
        for g, sel in enumerate(rows_owned(side.rows, active)):
            if isinstance(sel, np.ndarray) and not sel.size:  # no activated member
                continue
            kind, _, params, coords = side.groups[g]
            at = coords[sel]
            args = (kind, tuple(p[sel] for p in params), reads[0][at], reads[1][at],
                    side.step[at], side.offset[at])
            points = fresh(*args)
            if coef is not None:
                points = perturb.apply(side, g, sel, coef, args, points)
            table[0][at], table[1][at] = points
    state.la.update(graph.a, I_n)
    state.lsb.update(graph.b_dual, K_n)


def iteration_record(n: int, theta: float, tau: float, violation: float,
                     problem: ProblemSpec, current: PrimalDualPoint, lx: np.ndarray,
                     lsv: np.ndarray, graph: GraphTable) -> IterationRecord:
    """Assemble the diagnostics row for one iteration; lx, lsv are L x and L* v* of current."""
    x, v = current.x.data, current.v_star.data
    res = (x - graph.a, graph.a_dual + lsv, lx - graph.b, graph.b_dual - v)
    dists = tuple(math.sqrt(flat_inner(d, d, x.size))
                  for d in (current.data - z.data for z in problem.known_Z_points))
    return IterationRecord(n, theta, tau, violation,
                           *(math.sqrt(float(w.dot(w))) for w in res), dists)


def haugazeau_update(anchor: np.ndarray, current: np.ndarray, candidate: np.ndarray,
                     split: int) -> np.ndarray:
    """Project the flat anchor onto the intersection of the two bracketing half-spaces.

    The three-case closed form branches on chi = <anchor-current,
    current-candidate>, the squared norms mu, nu of those differences, and
    the Gram determinant rho = mu*nu - chi^2 (clamped at 0, which exact
    arithmetic guarantees).  A numerically zero rho with clearly negative
    chi means the two half-spaces miss each other, which is impossible when
    a solution exists; it is reported instead of silently patched.
    """
    diff_ay, diff_yz = anchor - current, current - candidate
    chi = flat_inner(diff_ay, diff_yz, split)
    mu, nu = flat_inner(diff_ay, diff_ay, split), flat_inner(diff_yz, diff_yz, split)
    rho = max(mu * nu - chi * chi, 0.0)
    if rho <= RHO_TOL * mu * nu:
        if chi >= -RHO_TOL * (mu + nu):
            return candidate
        raise InconsistencyError(
            f"empty outer approximation (chi={chi:.3e}, mu={mu:.3e}, nu={nu:.3e})")
    if chi * nu >= rho:
        return anchor + (1.0 + chi / nu) * (candidate - current)
    return current + (nu / rho) * (chi * diff_ay + mu * (candidate - current))


def advance(state: EngineState):
    """One iteration of the engine state.config.mode names, on a state made by EngineState.initial.

    Returns None, or the run's terminal (status, point, message): "solved"
    once the residuals pass the stopping test (they certify the iterate the
    step started from), "exact_point" or "inconsistent".  A run that
    returned "exact_point" has ended: advancing it again raises PdsplitError.
    """
    n, current = state.n, state.current
    problem, config, graph = state.problem, state.config, state.graph
    if state.ended is not None:
        raise PdsplitError(f"the run has ended: advance returned {state.ended!r} at iteration "
                           f"{n - 1}; build a new state to run again")
    _decompose(state, n)
    z, split = current.data, graph.a.size
    normal, level, tau, raw = build_separator(graph, problem, (state.lsb.value, state.la.value))
    violation = halfspace_violation(z, normal, level, split)
    theta, nxt = project_halfspace(z, normal, level, tau, violation, state.rules.lam(n),
                                   config.tau_zero_tol)
    if config.mode == "haugazeau":
        try:
            nxt = haugazeau_update(state.anchor.data, z, nxt, split)
        except InconsistencyError as exc:
            return "inconsistent", current, str(exc)
    images = state.buffer.get(n)
    (_, lsv), (lx, _) = images
    record = iteration_record(n, theta, tau, violation, problem, current, lx, lsv, graph)
    state.last_record = record
    if n % config.trace_stride == 0:
        state.trace.append(record)
    residual = record.residual_sum()
    if not (math.isfinite(residual) and math.isfinite(theta) and np.isfinite(nxt).all()):
        return "inconsistent", current, f"non-finite values at iteration {n}"
    if config.exact_tol >= 0.0 and detect_exact_solution(  # raw is normal on the full space
            tau if normal is raw else flat_inner(raw, raw, split),
            float(graph.a.dot(graph.a)) + float(graph.b_dual.dot(graph.b_dual)), config.exact_tol):
        state.n, state.ended = n + 1, "exact_point"
        return ("exact_point", graph.pair(graph.a, graph.b_dual),
                f"separator normal vanished at iteration {n}")
    if nxt is z:  # theta = 0: iterate n + 1 is iterate n, and so are its images
        state.buffer.push(n + 1, images)
    else:
        state.current = current._like(nxt)
        state.buffer.push(n + 1, _buffered(problem.coupling, nxt[:split], nxt[split:]))
    state.n = n + 1
    if residual <= config.resid_tol * (1.0 + math.sqrt(flat_inner(z, z, split))):
        return "solved", current, ""
    return None


def _describe_rule(rule, per: str = "per-block", default: Optional[float] = None) -> str:
    if rule is None:
        return f"{default!r} (default)"
    return per if isinstance(rule, (list, tuple)) else repr(float(rule))


def run(problem: ProblemSpec, config: SolverConfig,
        sched: Optional[ControlSchedule] = None, trace=None) -> RunResult:
    """Iterate until the residual test, an exact solution, or the budget.

    Stops when the sum of the four residuals drops below
    resid_tol * (1 + norm of the iterate they were measured at).  The
    records of the traced iterations go to trace.append, as they are made;
    the default destination is a new list, RunResult.trace.
    """
    if sched is None:
        sched = synchronous(problem.m, problem.p)
    state = EngineState.initial(problem, config, sched, trace)
    metadata = {
        "mode": config.mode,
        "epsilon": config.epsilon,
        "eps_prox": config.eps_prox,
        "relaxation": _describe_rule(config.relaxation, "per-iteration", state.rules.lam(0)),
        "gamma": _describe_rule(config.gamma),
        "mu": _describe_rule(config.mu),
        "schedule_M": sched.M,
        "schedule_D": sched.D,
    }
    for _ in range(config.max_iter):
        terminal = advance(state)
        if terminal is not None:
            break
    else:
        terminal = ("max_iter", state.current,
                    f"residual target not reached in {config.max_iter} iterations")
    if state.perturb is not None:
        metadata["perturb_accepted"] = state.perturb.accepted
        metadata["perturb_rejected"] = state.perturb.rejected
    status, final, message = terminal
    return RunResult(status, final, state.trace, state.n, message, metadata, state.last_record)
