"""Registry of maximally monotone operators with exact resolvents.

The registry is closed on purpose: six kinds, each with a closed-form or
direct-solve resolvent, so every downstream guarantee can be tested
exhaustively.  To extend, add a kind constructor, its branches in
`_parameters` and `stacked_resolvent`, and its fields in fileio's table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError

PSD_EIGENVALUE_FLOOR = -1e-10
MEMBERSHIP_TOL = 1e-9  # a graph point is accepted within this times (1 + its norm)


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


def _finite_array(arr: np.ndarray, name: str) -> np.ndarray:
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
    return _finite_array(arr, name)


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
    return MonotoneOp("zero", int(dim), {})


def l1_norm(dim: int, weight: float = 1.0) -> MonotoneOp:
    """Subdifferential of w * ||.||_1; resolvent is coordinatewise soft-thresholding."""
    w = finite_number("l1_norm weight", weight)
    if w <= 0:
        raise ConfigError(f"l1_norm weight must be > 0, got {w}")
    return MonotoneOp("l1_norm", int(dim), {"weight": w})


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


def quadratic(Q, q=None) -> MonotoneOp:
    """Gradient of the convex quadratic x -> x'Qx/2 + q'x with Q symmetric PSD."""
    Q_arr = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q_arr.shape[0] != Q_arr.shape[1]:
        raise DimensionError(f"Q must be square, got {Q_arr.shape}")
    _check_sym_psd(_finite_array(Q_arr, "quadratic Q"), "quadratic Q")
    d = Q_arr.shape[0]
    q_arr = np.zeros(d) if q is None else _as_bound(q, d, "quadratic q")
    return MonotoneOp("quadratic", d, {"Q": Q_arr.copy(), "q": q_arr})


def affine_monotone(M, c=None) -> MonotoneOp:
    """Affine map x -> Mx + c with M + M' PSD (M itself may be asymmetric)."""
    M_arr = np.atleast_2d(np.asarray(M, dtype=float))
    if M_arr.shape[0] != M_arr.shape[1]:
        raise DimensionError(f"M must be square, got {M_arr.shape}")
    # M + M' is symmetric bit for bit, and halving its sum with its transpose is exact
    _check_psd(_plus_transpose(_finite_array(M_arr, "affine_monotone M"), "affine_monotone M"),
               "affine_monotone M + M'")
    d = M_arr.shape[0]
    c_arr = np.zeros(d) if c is None else _as_bound(c, d, "affine_monotone c")
    return MonotoneOp("affine_monotone", d, {"M": M_arr.copy(), "c": c_arr})


def _parameters(op: MonotoneOp, gamma: float) -> tuple:
    """The parameters of (Id + gamma*Op)^{-1} that stacked_resolvent reads."""
    if op.kind == "zero":
        return ()
    if op.kind == "l1_norm":
        return (np.array([gamma * op.params["weight"]]),)
    if op.kind in ("box_indicator", "normal_cone_box"):
        return op.params["lo"], op.params["hi"]
    if op.kind not in ("quadratic", "affine_monotone"):
        raise ConfigError(f"unknown operator kind {op.kind!r}")
    mat, vec = ("Q", "q") if op.kind == "quadratic" else ("M", "c")
    return np.eye(op.dim) + gamma * op.params[mat], gamma * op.params[vec]


def stacked_parameters(ops, gammas) -> tuple:
    """The parameters of operators of one kind and dim at steps gammas, one row each."""
    return tuple(map(np.array, zip(*map(_parameters, ops, gammas))))


def operator_groups(ops, slices, steps=None) -> list:
    """The operators grouped by (kind, dim), in order of first appearance: per group its kind,
    its members' indices, their stacked parameters at their steps (at 1 if steps is None), and
    their coordinates in a flat array that slices cut into blocks, one row per member."""
    members: dict[tuple[str, int], list[int]] = {}
    for j, op in enumerate(ops):
        members.setdefault((op.kind, op.dim), []).append(j)
    return [(kind, js, stacked_parameters([ops[j] for j in js],
                                          [1.0 if steps is None else steps[j] for j in js]),
             np.add.outer([slices[j].start for j in js], np.arange(dim)))
            for (kind, dim), js in members.items()]


def stacked_resolvent(kind: str, params: tuple, u: np.ndarray) -> np.ndarray:
    """Row j of u through the resolvent with row j of params (one resolvent if unstacked)."""
    if kind == "zero":
        return u.copy()
    if kind == "l1_norm":
        return np.sign(u) * np.maximum(np.abs(u) - params[0], 0.0)
    if kind in ("box_indicator", "normal_cone_box"):
        return np.minimum(np.maximum(u, params[0]), params[1])
    A, offset = params  # I + gamma*Q and gamma*q (quadratic), I + gamma*M and gamma*c (affine)
    try:  # right-hand sides as (n, d, 1): numpy reads (n, d) as a stack of matrices
        return np.linalg.solve(A, (u - offset)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:  # cannot happen for monotone inputs
        raise NumericalError(f"resolvent solve failed for kind {kind!r}: {exc}") from exc


# No package code calls the per-block resolvent.  It stays as documented API, and because
# perfbench's problem generator imports it and its tracer patches it.
def resolvent(op: MonotoneOp, gamma: float, u: np.ndarray) -> np.ndarray:
    """Evaluate (Id + gamma*Op)^{-1} at u.

    Returns the unique a with (u - a)/gamma in Op(a).
    """
    if gamma <= 0:
        raise ConfigError(f"resolvent parameter must be > 0, got {gamma}")
    u = np.asarray(u, dtype=float)
    if u.shape != (op.dim,):
        raise DimensionError(f"resolvent input has shape {u.shape}, expected ({op.dim},)")
    return stacked_resolvent(op.kind, _parameters(op, gamma), u)


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
