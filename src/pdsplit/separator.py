"""Separating half-spaces for the solution set, subspace projections, and problem data.

The solution set of the coupled inclusion system (all primal-dual pairs
jointly satisfying the per-block conditions) is closed and convex.  From one
graph point per operator one can assemble an affine half-space that contains
it; projecting the current iterate onto that half-space is the coordination
step of both engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .blockspace import (BlockVector, CouplingMap, PrimalDualPoint, SpaceSignature, flat_inner,
                         pd_norm)
from .errors import ConfigError, DimensionError
from .operators import MonotoneOp, graph_distance, operator_groups

SUBSPACE_VARIANTS = ("full", "nullspace", "linear_primal", "zero_sum_dual")

FIXTURE_KT_TOL = 1e-8
FIXTURE_SUBSPACE_TOL = 1e-10
LINEAR_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class SubspaceSpec:
    """Choice of the closed subspace the iterates are confined to.

    full            whole primal-dual space (no confinement)
    nullspace       null space of a dense matrix C over the stacked coordinates
    zero_sum_dual   dual blocks sum to zero (all dual dims equal), primal free
    linear_primal   single primal block x with a linear operator A1 on it:
                    {(x, v*) : A1 x + adjoint-coupling applied to v* = 0}
    """

    variant: str
    C: Optional[np.ndarray] = None
    A1: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.variant not in SUBSPACE_VARIANTS:
            raise ConfigError(f"unknown subspace variant {self.variant!r}")
        name = {"nullspace": "C", "linear_primal": "A1"}.get(self.variant)
        if name is not None:  # the variant's matrix, stored as a 2-D float array
            if getattr(self, name) is None:
                raise ConfigError(f"{self.variant} subspace requires the matrix {name}")
            matrix = np.atleast_2d(np.asarray(getattr(self, name), float))
            if not np.isfinite(matrix).all():  # NaN fails the SVD; inf gives rank 0, no constraint
                raise ConfigError(f"{self.variant} subspace matrix {name} has non-finite values")
            object.__setattr__(self, name, matrix)


@dataclass(eq=False)
class SubspaceProjector:
    """Orthogonal projection onto the configured subspace.

    Dense factorizations are computed once at problem load and shared
    read-only afterwards; projection itself is pure.
    """

    signature: SpaceSignature
    variant: str
    rowspace: Optional[np.ndarray] = None  # orthonormal rows spanning the constraint row space

    def project(self, point: PrimalDualPoint) -> PrimalDualPoint:
        data = self.project_flat(point.data)
        return point if data is point.data else point._like(data)

    def project_flat(self, data: np.ndarray) -> np.ndarray:
        """The projection of a flat primal-dual array: data itself where it cannot move."""
        if self.variant == "zero_sum_dual":
            split = self.signature.primal_slices[-1].stop
            dual = data[split:].reshape(self.signature.p, -1)
            return np.concatenate((data[:split], (dual - dual.mean(axis=0)).ravel()))
        rows = self.rowspace  # None for full; nullspace / linear_primal subtract the row space
        if rows is None or rows.shape[0] == 0:
            return data
        return data - rows.T @ (rows @ data)

    def residual(self, point: PrimalDualPoint) -> float:
        """Distance between a point and its projection (0 when on the subspace)."""
        return 0.0 if self.variant == "full" else pd_norm(self.project(point) - point)


def _rowspace_basis(C: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space of C; drops dependent rows by rank."""
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((0, C.shape[1]))
    rank = int(np.sum(s > s[0] * 1e-12))
    return Vt[:rank]


def build_projector(spec: SubspaceSpec, signature: SpaceSignature,
                    coupling: Optional[CouplingMap] = None) -> SubspaceProjector:
    """Materialize the projection operator for a subspace choice."""
    total = signature.total_dim
    if spec.variant == "full":
        return SubspaceProjector(signature, "full")
    if spec.variant == "zero_sum_dual":
        if len(set(signature.dual_dims)) != 1:
            raise ConfigError("zero_sum_dual requires all dual blocks to share one dimension")
        return SubspaceProjector(signature, "zero_sum_dual")
    if spec.variant == "nullspace":
        C = spec.C
        if C.shape[1] != total:
            raise DimensionError(
                f"nullspace matrix has {C.shape[1]} columns, expected {total}")
        return SubspaceProjector(signature, "nullspace", _rowspace_basis(C))
    # linear_primal: rows [A1 | adjoint blocks of the coupling]
    if signature.m != 1:
        raise ConfigError("linear_primal subspace requires a single primal block")
    if coupling is None:
        raise ConfigError("linear_primal subspace requires the coupling map")
    n1 = signature.primal_dims[0]
    A1 = spec.A1
    if A1.shape != (n1, n1):
        raise DimensionError(f"A1 has shape {A1.shape}, expected ({n1}, {n1})")
    C = np.hstack([A1, coupling.to_dense().T])
    return SubspaceProjector(signature, "linear_primal", _rowspace_basis(C))


def _linear_matrix(op: MonotoneOp) -> Optional[np.ndarray]:
    """Matrix of an operator that is a linear map, or None."""
    if op.kind == "zero":
        return np.zeros((op.dim, op.dim))
    if op.kind == "quadratic" and not op.params["q"].any():
        return op.params["Q"]
    if op.kind == "affine_monotone" and not op.params["c"].any():
        return op.params["M"]
    return None


@dataclass
class ProblemSpec:
    """A validated coupled-inclusion problem over block spaces.

    known_Z_points are optional test fixtures: solution pairs supplied by the
    user, verified at load time, and never consulted by the solve path.
    """

    signature: SpaceSignature
    A_ops: Sequence[MonotoneOp]
    B_ops: Sequence[MonotoneOp]
    coupling: CouplingMap
    z_star: BlockVector
    r: BlockVector
    subspace: SubspaceSpec = field(default_factory=lambda: SubspaceSpec("full"))
    known_Z_points: Sequence[PrimalDualPoint] = field(default_factory=tuple)
    projector: SubspaceProjector = field(init=False)

    def __post_init__(self) -> None:
        sig = self.signature
        self.A_ops = tuple(self.A_ops)
        self.B_ops = tuple(self.B_ops)
        self.known_Z_points = tuple(self.known_Z_points)
        for side, ops, dims in (("primal", self.A_ops, sig.primal_dims),
                                ("dual", self.B_ops, sig.dual_dims)):
            if len(ops) != len(dims):
                raise DimensionError(f"{len(ops)} {side} operators for {len(dims)} blocks")
            for j, (op, dim) in enumerate(zip(ops, dims)):
                if op.dim != dim:
                    raise DimensionError(f"{side} operator {j} has dim {op.dim}, block needs {dim}")
        if self.coupling.signature != sig:
            raise DimensionError("coupling map signature differs from the problem signature")
        if self.z_star.dims != sig.primal_dims:
            raise DimensionError(f"z_star dims {self.z_star.dims} != {sig.primal_dims}")
        if self.r.dims != sig.dual_dims:
            raise DimensionError(f"r dims {self.r.dims} != {sig.dual_dims}")
        for name, offset in (("z_star", self.z_star), ("r", self.r)):
            if not np.isfinite(offset.data).all():
                raise ConfigError(f"{name} has non-finite values")
        self.projector = build_projector(self.subspace, sig, self.coupling)
        if self.subspace.variant == "linear_primal":  # build_projector checked m and A1's shape
            self._validate_linear_primal()
        for j, z in enumerate(self.known_Z_points):
            self.check_point(z, f"known_Z_points[{j}]")
            if not np.isfinite(z.data).all():
                raise ConfigError(f"known_Z_points[{j}] has non-finite values")
            res = kt_residual(self, z)
            if not res.max <= FIXTURE_KT_TOL:  # a NaN residual fails too
                raise ConfigError(
                    f"known_Z_points[{j}] fails the solution conditions: "
                    f"max residual {res.max:.3e} ({res.describe_worst()})")
            sub = self.projector.residual(z)
            if sub > 0.0 and sub > FIXTURE_SUBSPACE_TOL * (1.0 + pd_norm(z)):
                raise ConfigError(
                    f"known_Z_points[{j}] lies off the subspace (residual {sub:.3e})")

    def _validate_linear_primal(self) -> None:
        if self.z_star.data.any():
            raise ConfigError("linear_primal subspace requires z_star = 0")
        mat = _linear_matrix(self.A_ops[0])
        if mat is None:
            raise ConfigError(
                "linear_primal subspace requires a linear primal operator "
                "(zero, quadratic with q=0, or affine_monotone with c=0)")
        if not np.allclose(mat, self.subspace.A1, rtol=0.0, atol=LINEAR_MATCH_TOL):
            raise ConfigError("subspace matrix A1 does not match the primal operator")

    def check_point(self, point: PrimalDualPoint, name: str) -> None:
        """Raise DimensionError unless the named point's blocks have the signature's dims."""
        sig = self.signature
        if (point.x.dims, point.v_star.dims) != (sig.primal_dims, sig.dual_dims):
            raise DimensionError(f"{name} has block dims {point.x.dims}, {point.v_star.dims}; "
                                 f"the problem has {sig.primal_dims}, {sig.dual_dims}")

    @property
    def m(self) -> int:
        return self.signature.m

    @property
    def p(self) -> int:
        return self.signature.p


@dataclass(eq=False)
class GraphTable:
    """One graph point per operator, held in four flat arrays.

    a/a_dual hold the primal operators' points and duals block after block,
    b/b_dual those of the dual operators.  The engine overwrites the blocks
    of activated operators and keeps the others, which is how graph points
    are recycled between iterations.
    """

    signature: SpaceSignature
    a: np.ndarray
    a_dual: np.ndarray
    b: np.ndarray
    b_dual: np.ndarray

    @classmethod
    def zeros(cls, signature: SpaceSignature) -> "GraphTable":
        n_a, n_b = sum(signature.primal_dims), sum(signature.dual_dims)
        return cls(signature, np.zeros(n_a), np.zeros(n_a), np.zeros(n_b), np.zeros(n_b))

    def pair(self, primal: np.ndarray, dual: np.ndarray) -> PrimalDualPoint:
        """A primal-dual point (a copy) from flat arrays; pair(a, b_dual) is the candidate."""
        return PrimalDualPoint(BlockVector._wrap(primal, self.signature.primal_dims),
                               BlockVector._wrap(dual, self.signature.dual_dims))


def build_separator(graph: GraphTable, problem: ProblemSpec,
                    images: Optional[tuple] = None) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Flat (normal, level, norm_sq, raw) of one graph point per operator; normal is raw projected
    (raw itself where that cannot move it).  images: (L* b_dual, L a) if kept, else L is applied."""
    L = problem.coupling
    lsb, la = images or (L.adjoint(graph.b_dual), L.forward(graph.a))
    raw = np.concatenate((graph.a_dual + lsb, graph.b - la))
    level = float(graph.a.dot(graph.a_dual)) + float(graph.b.dot(graph.b_dual))
    normal = problem.projector.project_flat(raw)
    return normal, level, flat_inner(normal, normal, graph.a.size), raw


def detect_exact_solution(raw_sq: float, candidate_sq: float, tol: float) -> bool:
    """Whether the raw normal vanishes next to the candidate (a, b*), which then solves exactly."""
    return math.sqrt(raw_sq) <= tol * (1.0 + math.sqrt(candidate_sq))


def halfspace_violation(z: np.ndarray, normal: np.ndarray, level: float, split: int) -> float:
    """Nonnegative amount by which a flat point violates the half-space {<u, normal> <= level}."""
    return max(0.0, flat_inner(z, normal, split) - level)


def project_halfspace(z: np.ndarray, normal: np.ndarray, level: float, norm_sq: float,
                      violation: float, lam: float,
                      tau_zero_tol: float) -> tuple[float, np.ndarray]:
    """Relaxed projection (theta, next) of a flat point z that violates the half-space by violation;
    theta is 0 and next is z itself if z is inside or the normal is numerically 0 (scaled by
    1 + level^2).  SolverConfig.validate bounds lam."""
    if norm_sq <= tau_zero_tol * (1.0 + level ** 2) or violation <= 0.0:
        return 0.0, z
    theta = lam * violation / norm_sq
    return theta, z - theta * normal


@dataclass(frozen=True)
class KTResidual:
    """Per-condition graph-membership residuals of a candidate solution pair."""

    primal: tuple[float, ...]  # one per primal operator
    dual: tuple[float, ...]    # one per dual operator

    @property
    def max(self) -> float:
        """The first NaN residual (which Python's max can pass over), else the largest one."""
        values = self.primal + self.dual
        return next(filter(math.isnan, values), max(values))

    def describe_worst(self) -> str:
        j = (self.primal + self.dual).index(self.max)  # by identity, so a NaN is found too
        m = len(self.primal)
        return f"primal condition {j}" if j < m else f"dual condition {j - m}"


def kt_residual(problem: ProblemSpec, point: PrimalDualPoint) -> KTResidual:
    """Residuals of the coupled optimality conditions at a primal-dual pair.

    For each primal block i the pair (x_i, z*_i - adjoint coupling of v*)
    must lie in the graph of the i-th operator; for each dual block k the
    pair (coupled primal image - r_k, v*_k) must lie in the graph of the
    k-th operator.  Each membership is measured by the resolvent test.
    """
    problem.check_point(point, "point")
    L, sig = problem.coupling, problem.signature
    x, v = point.x.data, point.v_star.data
    sides = []
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN residual is reported, not warned
        lsv, lx = L.adjoint(v), L.forward(x)
        for ops, slices, args, duals in ((problem.A_ops, sig.primal_slices, x,
                                          problem.z_star.data - lsv),
                                         (problem.B_ops, sig.dual_slices, lx - problem.r.data, v)):
            out = np.empty(len(ops))  # per operator, its blocks' distance from its graph
            for kind, js, unit, at in operator_groups(ops, slices):
                out[js] = graph_distance(kind, unit, args[at], duals[at])
            sides.append(tuple(out.tolist()))
    return KTResidual(*sides)
