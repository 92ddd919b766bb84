"""Registry of maximally monotone operators with exact resolvents.

The registry is closed on purpose: six kinds, each with a closed-form resolvent (a linear kind's
by the inverse of its I + gamma*A, formed once per group and step), so every downstream guarantee
can be tested exhaustively.  To extend, add a kind constructor, its branches in
`stacked_parameters` and `stacked_resolvent` (a linear kind, x -> Ax + b, names its matrix and
offset in `LINEAR_KINDS` instead), and its fields in fileio's table.  A problem groups its
operators by (kind, dim) once, when it is built: `ProblemSpec.groups`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, integer

PSD_EIGENVALUE_FLOOR = -1e-10
MEMBERSHIP_TOL = 1e-9  # a graph point is accepted within this times (1 + its norm)
LINEAR_KINDS = {"quadratic": ("Q", "q"), "affine_monotone": ("M", "c")}  # (matrix, offset) fields


@dataclass(frozen=True)
class MonotoneOp:
    """A monotone operator from the closed registry: a kind tag plus parameters."""

    kind: str
    dim: int
    params: dict

    def __repr__(self) -> str:
        return f"MonotoneOp(kind={self.kind!r}, dim={self.dim})"


def finite_number(name: str, value, kind: str = "a number") -> float:
    """value as a float; a ConfigError naming `name` unless it is a finite real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is non-finite: an integer too large for a float") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} is non-finite: {out}")
    return out


def finite_array(arr: np.ndarray, name: str) -> np.ndarray:
    """arr itself; a ConfigError naming `name` if it holds NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} has non-finite values")
    return arr


def _as_bound(v, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise DimensionError(f"{name} has shape {arr.shape}, expected ({dim},)")
    return finite_array(arr, name)


def _check_psd(S: np.ndarray, name: str) -> None:
    """A ConfigError unless the symmetric S has no eigenvalue below the PSD floor."""
    lo = float(np.linalg.eigvalsh(S).min())
    if not lo >= PSD_EIGENVALUE_FLOOR:  # a NaN eigenvalue fails too
        raise ConfigError(f"{name} has eigenvalue {lo:.3e} below the PSD floor")


def _plus_transpose(S: np.ndarray, name: str) -> np.ndarray:
    """S + S'; a ConfigError naming `name` if an entry overflows."""
    try:
        with np.errstate(over="raise"):
            return S + S.T
    except FloatingPointError:
        raise ConfigError(f"{name} has entries too large: its sum with its transpose "
                          "overflows") from None


def _check_sym_psd(S: np.ndarray, name: str) -> None:
    scale = 1.0 + float(np.abs(S).max(initial=0.0))
    with np.errstate(over="ignore"):  # a difference too large for a float is asymmetric too
        asymmetry = float(np.abs(S - S.T).max(initial=0.0))
    if asymmetry > 1e-10 * scale:
        raise ConfigError(f"{name} is not symmetric")
    _check_psd(0.5 * _plus_transpose(S, name), name)


def zero(dim: int) -> MonotoneOp:
    """The zero operator; its resolvent is the identity."""
    return MonotoneOp("zero", integer("zero dim", dim), {})


def l1_norm(dim: int, weight: float = 1.0) -> MonotoneOp:
    """Subdifferential of w * ||.||_1; resolvent is coordinatewise soft-thresholding."""
    w = finite_number("l1_norm weight", weight)
    if w <= 0:
        raise ConfigError(f"l1_norm weight must be > 0, got {w}")
    return MonotoneOp("l1_norm", integer("l1_norm dim", dim), {"weight": w})


def _box(kind: str, lo, hi) -> MonotoneOp:
    lo_arr = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_arr = _as_bound(hi, lo_arr.shape[0], f"{kind} hi")
    lo_arr = _as_bound(lo_arr, lo_arr.shape[0], f"{kind} lo")
    if np.any(lo_arr > hi_arr):
        raise ConfigError("box bounds must satisfy lo <= hi coordinatewise")
    return MonotoneOp(kind, lo_arr.shape[0], {"lo": lo_arr, "hi": hi_arr})


def box_indicator(lo, hi) -> MonotoneOp:
    """Subdifferential of the indicator of [lo, hi]; resolvent clamps to the box."""
    return _box("box_indicator", lo, hi)


def normal_cone_box(lo, hi) -> MonotoneOp:
    """Normal cone operator of [lo, hi]; same resolvent as the box indicator."""
    return _box("normal_cone_box", lo, hi)


def _linear(kind: str, matrix, offset, check) -> MonotoneOp:
    """The linear kind's operator x -> matrix x + offset, once check(matrix, name) passes."""
    mat, vec = LINEAR_KINDS[kind]
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{mat} must be square, got {arr.shape}")
    check(finite_array(arr, f"{kind} {mat}"), f"{kind} {mat}")
    d = arr.shape[0]
    off = np.zeros(d) if offset is None else _as_bound(offset, d, f"{kind} {vec}")
    return MonotoneOp(kind, d, {mat: arr.copy(), vec: off})


def quadratic(Q, q=None) -> MonotoneOp:
    """Gradient of the convex quadratic x -> x'Qx/2 + q'x with Q symmetric PSD."""
    return _linear("quadratic", Q, q, _check_sym_psd)


def affine_monotone(M, c=None) -> MonotoneOp:
    """Affine map x -> Mx + c with M + M' PSD (M itself may be asymmetric)."""
    # M + M' is symmetric bit for bit, and halving its sum with its transpose is exact
    return _linear("affine_monotone", M, c,
                   lambda S, name: _check_psd(_plus_transpose(S, name), f"{name} + M'"))


def stacked_parameters(ops, gammas) -> tuple:
    """The parameters of (Id + gamma*Op)^{-1} that stacked_resolvent reads, for operators of one
    kind and dim at steps gammas: one row each.  A linear kind's are the inverse of its stack of
    I + gamma*A, from one batched call, and gamma*b; a singular stack is a NumericalError."""
    kind, g = ops[0].kind, np.array(gammas, float)
    if kind == "zero":
        return ()
    if kind == "l1_norm":
        return (g[:, None] * np.array([[op.params["weight"]] for op in ops]),)
    if kind in ("box_indicator", "normal_cone_box"):
        return tuple(np.array([op.params[key] for op in ops]) for key in ("lo", "hi"))
    if kind not in LINEAR_KINDS:
        raise ConfigError(f"unknown operator kind {kind!r}")
    mat, vec = LINEAR_KINDS[kind]
    try:  # one batched inverse of the stack, formed here once for every later resolvent
        inv = np.linalg.inv(np.eye(ops[0].dim) + g[:, None, None]
                            * np.array([op.params[mat] for op in ops]))
    except np.linalg.LinAlgError as exc:  # cannot happen for monotone inputs
        raise NumericalError(f"resolvent inverse failed for kind {kind!r}: {exc}") from exc
    return inv, g[:, None] * np.array([op.params[vec] for op in ops])


def operator_groups(ops, slices) -> list:
    """The operators grouped by (kind, dim), in order of first appearance: per group its kind,
    its members' indices, their stacked parameters at step 1, and their coordinates in a flat
    array that slices cut into blocks, one row per member."""
    members: dict[tuple[str, int], list[int]] = {}
    for j, op in enumerate(ops):
        members.setdefault((op.kind, op.dim), []).append(j)
    return [(kind, js, stacked_parameters([ops[j] for j in js], [1.0] * len(js)),
             np.add.outer([slices[j].start for j in js], np.arange(dim)))
            for (kind, dim), js in members.items()]


def stacked_resolvent(kind: str, params: tuple, u: np.ndarray) -> np.ndarray:
    """Row j of u through the resolvent with row j of params (one resolvent if unstacked); a
    linear kind's is a matmul by the inverse stacked_parameters formed, no factorization."""
    if kind == "zero":
        return u.copy()
    if kind == "l1_norm":
        return np.sign(u) * np.maximum(np.abs(u) - params[0], 0.0)
    if kind in ("box_indicator", "normal_cone_box"):
        return np.minimum(np.maximum(u, params[0]), params[1])
    inv, offset = params  # (I + gamma*Q)^{-1} and gamma*q, or (I + gamma*M)^{-1} and gamma*c
    return np.matmul(inv, (u - offset)[..., None])[..., 0]  # rows as (n, d, 1) right-hand sides


# No package code calls the per-block resolvent.  It stays as documented API, and because
# perfbench's problem generator imports it and its tracer patches it.
def resolvent(op: MonotoneOp, gamma: float, u: np.ndarray) -> np.ndarray:
    """Evaluate (Id + gamma*Op)^{-1} at u, the one-row case of stacked_resolvent.

    Returns the unique a with (u - a)/gamma in Op(a).
    """
    if gamma <= 0:
        raise ConfigError(f"resolvent parameter must be > 0, got {gamma}")
    u = np.asarray(u, dtype=float)
    if u.shape != (op.dim,):
        raise DimensionError(f"resolvent input has shape {u.shape}, expected ({op.dim},)")
    return stacked_resolvent(op.kind, stacked_parameters([op], [gamma]), u[None])[0]


@dataclass(frozen=True)
class InexactnessBudget:
    """Bounds for accepting approximate resolvent evaluations.

    beta/sigma govern the primal side, delta/zeta the dual side.
    """

    beta: float
    sigma: float
    delta: float
    zeta: float

    def __post_init__(self) -> None:
        for name in ("beta", "sigma", "delta", "zeta"):
            finite_number(name, getattr(self, name))
        if not self.beta > 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not 0 <= self.sigma < 1:
            raise ConfigError(f"sigma must lie in [0, 1), got {self.sigma}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not 0 <= self.zeta < 1:
            raise ConfigError(f"zeta must lie in [0, 1), got {self.zeta}")


def row_dots(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row j of u dotted with row j of w, bitwise what u[j].dot(w[j]) gives."""
    return np.matmul(u[:, None, :], w[:, :, None])[:, 0, 0]


def graph_distance(kind: str, unit: tuple, point: np.ndarray, dual: np.ndarray) -> np.ndarray:
    """Per row, the distance of (point, dual) from the group's operator graph by the resolvent
    test: dual in Op(point) iff point = J(point + dual), J's parameters at step 1 in unit."""
    d = point - stacked_resolvent(kind, unit, point + dual)
    return np.sqrt(row_dots(d, d))


def inexact_primal(kind: str, unit: tuple, a: np.ndarray, a_dual: np.ndarray, x: np.ndarray,
                   lstar: np.ndarray, gamma: np.ndarray, z_star: np.ndarray,
                   budget: InexactnessBudget) -> np.ndarray:
    """Per row of an operator group (a block each, gamma its step along the row), whether
    the approximate primal graph point passes all four conditions on the implied error
    e = a + gamma*(a* + lstar) - x:
      membership   (a, z* + a*) must lie in the operator graph
      norm-bound   ||e|| <= beta
      sigma-dual   <e, a* + l*> <= sigma * gamma * ||a* + l*||^2
      sigma-primal <x - a, e>  >= -sigma * ||x - a||^2
    """
    e, w, d = a + gamma * (a_dual + lstar) - x, a_dual + lstar, x - a
    return ~((graph_distance(kind, unit, a, a_dual + z_star)
              > MEMBERSHIP_TOL * (1.0 + np.sqrt(row_dots(a, a))))
             | (np.sqrt(row_dots(e, e)) > budget.beta)
             | (row_dots(e, w) > budget.sigma * gamma[:, 0] * row_dots(w, w))
             | (row_dots(d, e) < -budget.sigma * row_dots(d, d)))


def inexact_dual(kind: str, unit: tuple, b: np.ndarray, b_dual: np.ndarray, l_k: np.ndarray,
                 v_lag: np.ndarray, mu: np.ndarray, r: np.ndarray,
                 budget: InexactnessBudget) -> np.ndarray:
    """Dual-side counterpart of :func:`inexact_primal`; the implied error is
    f = b + mu*b* - l - mu*v_lag, and the conditions are
      membership   (b - r, b*) must lie in the operator graph
      norm-bound   ||f|| <= delta
      zeta-primal  <l - b, f> >= -zeta * ||l - b||^2
      zeta-dual    <f, b* - v*> <= zeta * mu * ||b* - v*||^2
    """
    f, d, w = b + mu * b_dual - l_k - mu * v_lag, l_k - b, b_dual - v_lag
    return ~((graph_distance(kind, unit, b - r, b_dual)
              > MEMBERSHIP_TOL * (1.0 + np.sqrt(row_dots(b, b))))
             | (np.sqrt(row_dots(f, f)) > budget.delta)
             | (row_dots(d, f) < -budget.zeta * row_dots(d, d))
             | (row_dots(f, w) > budget.zeta * mu[:, 0] * row_dots(w, w)))
