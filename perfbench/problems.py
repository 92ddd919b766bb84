"""Seeded inputs for the benchmark workloads.

Every generator returns plain numpy data (operator parameters, coupling
blocks, offsets and one known solution pair).  Turning that data into
validated pdsplit objects is the workloads' set-up step, which the benchmark
times; generating it is not timed.

Synthetic problems get a *constructed* solution: sample one graph point per
operator from the closed registry, then solve for the offsets z* and r so
that the sampled pair satisfies the coupled optimality conditions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import pdsplit as ps
from pdsplit.blockspace import adjoint_block, forward_block
from pdsplit.operators import resolvent

OPERATOR_MIX = ("l1_norm", "box_indicator", "quadratic", "affine_monotone")

# Size of the block-sparse problem: M primal and M dual blocks of dimension D,
# and the share of off-diagonal coupling blocks that are nonzero.
M = 50
D = 20
DENSITY = 0.1


@dataclass
class RawProblem:
    """Plain data of one coupled-inclusion problem plus its known solution."""

    primal_dims: tuple
    dual_dims: tuple
    A_specs: list          # (kind, params) per primal block
    B_specs: list          # (kind, params) per dual block
    coupling: dict         # (k, i) -> dense block
    z_star: list
    r: list
    x_sol: list
    v_sol: list

    @property
    def m(self) -> int:
        return len(self.primal_dims)

    @property
    def p(self) -> int:
        return len(self.dual_dims)


def make_operator(kind: str, params: dict) -> ps.MonotoneOp:
    """Registry constructor call (including its PSD checks) for one spec."""
    if kind == "l1_norm":
        return ps.l1_norm(params["dim"], params["weight"])
    if kind == "box_indicator":
        return ps.box_indicator(params["lo"], params["hi"])
    if kind == "quadratic":
        return ps.quadratic(params["Q"], params["q"])
    if kind == "affine_monotone":
        return ps.affine_monotone(params["M"], params["c"])
    raise ValueError(f"no generator for operator kind {kind!r}")


def _operator_spec(rng: np.random.Generator, kind: str, dim: int) -> tuple:
    """Random registry parameters for one operator of the given kind."""
    if kind == "l1_norm":
        return kind, {"dim": dim, "weight": float(rng.uniform(0.5, 2.0))}
    if kind == "box_indicator":
        return kind, {"lo": rng.uniform(-2.0, -0.5, dim), "hi": rng.uniform(0.5, 2.0, dim)}
    G = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    S = G.T @ G
    if kind == "quadratic":
        return kind, {"Q": S, "q": rng.normal(size=dim)}
    W = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    return kind, {"M": S + 0.5 * (W - W.T), "c": rng.normal(size=dim)}


def _with_solution(rng: np.random.Generator, primal_dims, dual_dims, A_specs, B_specs,
                   coupling) -> RawProblem:
    """Sample graph points, then pick z* and r so they form a solution pair."""
    x_sol, w_sol = [], []
    for (kind, params), d in zip(A_specs, primal_dims):
        u = rng.normal(size=d)
        a = resolvent(make_operator(kind, params), 1.0, u)
        x_sol.append(a)
        w_sol.append(u - a)
    y_sol, v_sol = [], []
    for (kind, params), d in zip(B_specs, dual_dims):
        u = rng.normal(size=d)
        y = resolvent(make_operator(kind, params), 1.0, u)
        y_sol.append(y)
        v_sol.append(u - y)
    L = ps.CouplingMap(ps.SpaceSignature(primal_dims, dual_dims), coupling)
    x, v = ps.BlockVector(x_sol), ps.BlockVector(v_sol)
    z_star = [w_sol[i] + adjoint_block(L, v, i) for i in range(len(primal_dims))]
    r = [forward_block(L, x, k) - y_sol[k] for k in range(len(dual_dims))]
    return RawProblem(tuple(primal_dims), tuple(dual_dims), A_specs, B_specs, coupling,
                      z_star, r, x_sol, v_sol)


def blocksparse(seed: int) -> RawProblem:
    """M primal and M dual blocks of dimension D.

    The coupling has the diagonal blocks plus exactly round(DENSITY*M*(M-1))
    off-diagonal blocks at seeded positions, and the four operator kinds of
    OPERATOR_MIX appear equally often on each side, so the amount of work
    per iteration does not depend on the seed.
    """
    rng = np.random.default_rng(seed)
    off = [(k, i) for k in range(M) for i in range(M) if k != i]
    chosen = rng.choice(len(off), size=round(DENSITY * len(off)), replace=False)
    keys = sorted([(i, i) for i in range(M)] + [off[j] for j in chosen])
    nnz_row = np.bincount([k for k, _ in keys], minlength=M)
    nnz_col = np.bincount([i for _, i in keys], minlength=M)
    coupling = {}
    for k, i in keys:
        # row/column-balanced scaling keeps ||L|| of order one
        scale = 1.0 / np.sqrt(D * max(nnz_row[k], nnz_col[i]))
        coupling[(k, i)] = rng.normal(scale=scale, size=(D, D))
    kinds = [OPERATOR_MIX[j % len(OPERATOR_MIX)] for j in range(2 * M)]
    kinds = [kinds[j] for j in rng.permutation(2 * M)]
    A_specs = [_operator_spec(rng, kind, D) for kind in kinds[:M]]
    B_specs = [_operator_spec(rng, kind, D) for kind in kinds[M:]]
    return _with_solution(rng, (D,) * M, (D,) * M, A_specs, B_specs, coupling)


def lasso(seed: int) -> RawProblem:
    """The 2-dim lasso min ||x||_1 + 0.5*||x - t||^2 with t = (+-2, +-1).

    The seed picks the signs.  Negating a coordinate of every vector is exact
    in floating point and both terms are invariant under it, so every seed
    gives the same arithmetic and iteration count; the solution is
    x = (+-1, 0), v* = (-+1, -+1) with the same signs.  Coordinate swaps are
    not used: they reorder two-term sums, which changes rounding, and the
    haugazeau iteration count on this problem is sensitive to that.
    """
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=2)
    return RawProblem((2,), (2,), [("l1_norm", {"dim": 2, "weight": 1.0})],
                      [("quadratic", {"Q": np.eye(2), "q": -sign * [2.0, 1.0]})],
                      {(0, 0): np.eye(2)}, [np.zeros(2)], [np.zeros(2)],
                      [sign * [1.0, 0.0]], [sign * [-1.0, -1.0]])


def build_problem(raw: RawProblem) -> ps.ProblemSpec:
    """Validated ProblemSpec; its known_Z_points[0] is the constructed solution."""
    sig = ps.SpaceSignature(raw.primal_dims, raw.dual_dims)
    fixture = ps.PrimalDualPoint(ps.BlockVector(raw.x_sol), ps.BlockVector(raw.v_sol))
    return ps.ProblemSpec(sig,
                          [make_operator(kind, params) for kind, params in raw.A_specs],
                          [make_operator(kind, params) for kind, params in raw.B_specs],
                          ps.CouplingMap(sig, raw.coupling),
                          ps.BlockVector(raw.z_star), ps.BlockVector(raw.r),
                          known_Z_points=[fixture])
