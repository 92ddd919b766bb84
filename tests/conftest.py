"""Shared fixtures: the desk-scale benchmark problems and a seeded problem generator."""

import math

import numpy as np
import pytest

import pdsplit as ps

from oracle import adjoint_block, forward_block, resolvent


# Kinds that are subdifferentials of an explicit convex function, so their
# resolvent is a proximity operator and can be cross-checked by minimization.
PROX_REPRESENTABLE = ("zero", "l1_norm", "box_indicator", "quadratic")


def function_value(op, x):
    """Value of the convex function whose subdifferential the operator is.

    Only defined for prox-representable kinds; the box indicator returns
    +inf outside its box.
    """
    x = np.asarray(x, dtype=float)
    if op.kind == "zero":
        return 0.0
    if op.kind == "l1_norm":
        return op.params["weight"] * float(np.abs(x).sum())
    if op.kind == "box_indicator":
        if np.all(x >= op.params["lo"] - 1e-12) and np.all(x <= op.params["hi"] + 1e-12):
            return 0.0
        return math.inf
    if op.kind == "quadratic":
        return 0.5 * float(x @ op.params["Q"] @ x) + float(op.params["q"] @ x)
    raise ValueError(f"kind {op.kind!r} is not prox-representable")


def make_scalar_problem(A_op, B_op, z_fixtures=()):
    """1x1-block problem with identity coupling and zero offsets."""
    sig = ps.SpaceSignature((1,), (1,))
    L = ps.CouplingMap(sig, {(0, 0): [[1.0]]})
    fixtures = [ps.PrimalDualPoint(ps.BlockVector([[zx]]), ps.BlockVector([[zv]]))
                for zx, zv in z_fixtures]
    return ps.ProblemSpec(sig, [A_op], [B_op], L,
                          ps.BlockVector([[0.0]]), ps.BlockVector([[0.0]]),
                          known_Z_points=fixtures)


@pytest.fixture
def l1_identity_problem():
    """A = d|.|, B = identity map, L = 1; unique solution (0, 0)."""
    return make_scalar_problem(ps.l1_norm(1), ps.affine_monotone([[1.0]]),
                               z_fixtures=[(0.0, 0.0)])


@pytest.fixture
def box_problem():
    """A = 0, B = normal cone of [-1,1], L = 1; solution set [-1,1] x {0}."""
    return make_scalar_problem(ps.zero(1), ps.normal_cone_box([-1.0], [1.0]),
                               z_fixtures=[(0.5, 0.0), (-1.0, 0.0), (1.0, 0.0)])


def make_lasso_problem():
    """f = ||.||_1 on R^2, g = 0.5*||. - (2,1)||^2, identity coupling.

    Solution: soft-threshold of (2,1) by 1, i.e. primal (1,0), dual (-1,-1).
    """
    sig = ps.SpaceSignature((2,), (2,))
    L = ps.CouplingMap(sig, {(0, 0): np.eye(2)})
    zfix = ps.PrimalDualPoint(ps.BlockVector([[1.0, 0.0]]),
                              ps.BlockVector([[-1.0, -1.0]]))
    return ps.ProblemSpec(sig, [ps.l1_norm(2)], [ps.quadratic(np.eye(2), [-2.0, -1.0])],
                          L, ps.BlockVector([[0.0, 0.0]]), ps.BlockVector([[0.0, 0.0]]),
                          known_Z_points=[zfix])


def make_overflow_problem(known_Z_points=()):
    """Primal dims (1, 1), dual dim 1, zero operators, L = [1 1] and zero offsets.

    At OVERFLOW_POINT, L x overflows to inf and the dual condition's residual
    is inf - inf = NaN, while both primal residuals are 0.
    """
    sig = ps.SpaceSignature((1, 1), (1,))
    return ps.ProblemSpec(sig, [ps.zero(1), ps.zero(1)], [ps.zero(1)],
                          ps.CouplingMap(sig, {(0, 0): [[1.0]], (0, 1): [[1.0]]}),
                          ps.BlockVector([[0.0], [0.0]]), ps.BlockVector([[0.0]]),
                          known_Z_points=known_Z_points)


OVERFLOW_POINT = ps.PrimalDualPoint(ps.BlockVector([[1e308], [1e308]]), ps.BlockVector([[0.0]]))


@pytest.fixture
def lasso_problem():
    return make_lasso_problem()


def make_linear_primal_problem(subspace_variant):
    """Single linear primal operator diag(1,2); solution x=(1,1/3), v*=-(1,2/3)."""
    Q1 = np.diag([1.0, 2.0])
    sig = ps.SpaceSignature((2,), (2,))
    zfix = ps.PrimalDualPoint(ps.BlockVector([[1.0, 1.0 / 3.0]]),
                              ps.BlockVector([[-1.0, -2.0 / 3.0]]))
    if subspace_variant == "linear_primal":
        sub = ps.SubspaceSpec("linear_primal", A1=Q1)
    else:
        sub = ps.SubspaceSpec("full")
    return ps.ProblemSpec(sig, [ps.quadratic(Q1)], [ps.quadratic(np.eye(2), [-2.0, -1.0])],
                          ps.CouplingMap(sig, {(0, 0): np.eye(2)}),
                          ps.BlockVector([[0.0, 0.0]]), ps.BlockVector([[0.0, 0.0]]),
                          sub, known_Z_points=[zfix])


def point(x, v):
    return ps.PrimalDualPoint(ps.BlockVector(x), ps.BlockVector(v))


def graph_table(a_points, b_points):
    """A GraphTable holding the given graph points, one per operator, in block order."""
    sig = ps.SpaceSignature([gp.point.shape[0] for gp in a_points],
                            [gp.point.shape[0] for gp in b_points])
    return ps.GraphTable(sig, *(np.concatenate([getattr(gp, name) for gp in points])
                                for points in (a_points, b_points) for name in ("point", "dual")))


KINDS = ("zero", "l1_norm", "box_indicator", "quadratic", "affine_monotone", "normal_cone_box")


def random_registry_op(rng, dim, allow_normal_cone):
    kinds = KINDS if allow_normal_cone else KINDS[:-1]
    return registry_op(rng, kinds[int(rng.integers(len(kinds)))], dim)


def registry_op(rng, kind, dim):
    """An operator of the given kind with seeded random parameters."""
    if kind == "zero":
        return ps.zero(dim)
    if kind == "l1_norm":
        return ps.l1_norm(dim, float(rng.uniform(0.5, 2.0)))
    if kind in ("box_indicator", "normal_cone_box"):
        lo = rng.uniform(-2.0, 0.0, dim)
        hi = rng.uniform(0.0, 2.0, dim)
        return ps.box_indicator(lo, hi) if kind == "box_indicator" \
            else ps.normal_cone_box(lo, hi)
    if kind == "quadratic":
        G = rng.normal(size=(dim, dim)) / np.sqrt(dim)
        return ps.quadratic(G.T @ G, rng.normal(size=dim))
    G = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    W = rng.normal(size=(dim, dim))
    return ps.affine_monotone(G.T @ G + 0.5 * (W - W.T), rng.normal(size=dim))


def random_problem(seed):
    """Seeded random problem (m,p <= 3, dims <= 4, coupling norm <= 2).

    The offsets are reverse-engineered from sampled graph points so that one
    solution pair is known exactly and shipped as a fixture.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    pdims = tuple(int(rng.integers(1, 5)) for _ in range(m))
    ddims = tuple(int(rng.integers(1, 5)) for _ in range(p))
    sig = ps.SpaceSignature(pdims, ddims)
    entries = {}
    for k in range(p):
        for i in range(m):
            if rng.random() < 0.85 or (k == 0 and i == 0):
                entries[(k, i)] = rng.normal(size=(ddims[k], pdims[i]))
    L = ps.CouplingMap(sig, entries)
    smax = float(np.linalg.svd(L.to_dense(), compute_uv=False).max())
    if smax > 2.0:
        entries = {key: mat * (2.0 / smax) for key, mat in entries.items()}
        L = ps.CouplingMap(sig, entries)
    A_ops = [random_registry_op(rng, pdims[i], False) for i in range(m)]
    B_ops = [random_registry_op(rng, ddims[k], True) for k in range(p)]
    return _with_known_solution(rng, sig, L, A_ops, B_ops)


def random_blocksparse_problem(seed, blocks=8, dim=3):
    """Seeded problem with `blocks` primal and dual blocks, all of dimension `dim`.

    The coupling has the diagonal blocks and about a quarter of the others,
    all of one shape.  The operators take the kinds in turn: the five that
    random_problem uses on the primal side, and all six on the dual side.
    One solution pair is known, as in random_problem.
    """
    rng = np.random.default_rng(seed)
    sig = ps.SpaceSignature((dim,) * blocks, (dim,) * blocks)
    entries = {(k, i): rng.normal(size=(dim, dim)) / np.sqrt(2 * dim)
               for k in range(blocks) for i in range(blocks) if k == i or rng.random() < 0.25}
    L = ps.CouplingMap(sig, entries)
    A_ops = [registry_op(rng, KINDS[j % 5], dim) for j in range(blocks)]
    B_ops = [registry_op(rng, KINDS[(j + 2) % 6], dim) for j in range(blocks)]
    return _with_known_solution(rng, sig, L, A_ops, B_ops)


def _with_known_solution(rng, sig, L, A_ops, B_ops):
    """The problem whose offsets make one sampled graph point per operator a solution."""
    xbar, wstars = [], []
    for op in A_ops:
        u = rng.normal(size=op.dim)
        a = resolvent(op, 1.0, u)
        xbar.append(a)
        wstars.append(u - a)
    ybar, vbar = [], []
    for op in B_ops:
        u = rng.normal(size=op.dim)
        y = resolvent(op, 1.0, u)
        ybar.append(y)
        vbar.append(u - y)
    xb = ps.BlockVector(xbar)
    vb = ps.BlockVector(vbar)
    z_star = ps.BlockVector([wstars[i] + adjoint_block(L, vb, i) for i in range(len(A_ops))])
    r = ps.BlockVector([forward_block(L, xb, k) - ybar[k] for k in range(len(B_ops))])
    return ps.ProblemSpec(sig, A_ops, B_ops, L, z_star, r,
                          known_Z_points=[ps.PrimalDualPoint(xb, vb)])
