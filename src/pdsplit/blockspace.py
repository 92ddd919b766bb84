"""Block vectors over products of real coordinate spaces and block-sparse couplings.

A block vector and a primal-dual point each store their coordinates in one
contiguous float64 array; blocks are views into it.  Values are treated as
immutable after construction: every operation allocates a fresh output array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionError


def _block_slices(dims: tuple[int, ...]) -> tuple[slice, ...]:
    """Slices that cut a flat array into consecutive blocks of the given dimensions."""
    ends = list(itertools.accumulate(dims))
    return tuple(map(slice, [0, *ends[:-1]], ends))


@dataclass(frozen=True)
class SpaceSignature:
    """Per-block dimensions of the primal and dual product spaces."""

    primal_dims: tuple[int, ...]
    dual_dims: tuple[int, ...]
    primal_slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    dual_slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "primal_dims", tuple(map(int, self.primal_dims)))
        object.__setattr__(self, "dual_dims", tuple(map(int, self.dual_dims)))
        if not self.primal_dims or not self.dual_dims:
            raise DimensionError("signature needs at least one primal and one dual block")
        if any(d < 1 for d in self.primal_dims + self.dual_dims):
            raise DimensionError("every block dimension must be >= 1")
        object.__setattr__(self, "primal_slices", _block_slices(self.primal_dims))
        object.__setattr__(self, "dual_slices", _block_slices(self.dual_dims))

    @property
    def m(self) -> int:
        return len(self.primal_dims)

    @property
    def p(self) -> int:
        return len(self.dual_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.primal_dims) + sum(self.dual_dims)


class BlockVector:
    """Indexed family of dense real vectors, one per factor space, stored flat.

    It has no algebra: compute on PrimalDualPoint or on the flat `data`.
    """

    __slots__ = ("data", "dims")

    def __init__(self, blocks: Iterable):
        converted = [np.array(b, dtype=float) for b in blocks]  # copies
        if not converted:
            raise DimensionError("a block vector needs at least one block")
        for j, arr in enumerate(converted):
            if arr.ndim != 1:
                if arr.ndim:
                    raise DimensionError(f"block {j} is not a vector (ndim={arr.ndim})")
                converted[j] = arr.reshape(1)
        self.data = converted[0] if len(converted) == 1 else np.concatenate(converted)
        self.dims = tuple(map(len, converted))

    @classmethod
    def _wrap(cls, data: np.ndarray, dims: tuple[int, ...]) -> "BlockVector":
        """Adopt a flat array (no copy) whose length is sum(dims)."""
        out = cls.__new__(cls)
        out.data, out.dims = data, dims
        return out

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.data[s] for s in _block_slices(self.dims))


class PrimalDualPoint:
    """A pair (x, v*) in one contiguous array `data`, primal blocks first; x and v_star view it."""

    __slots__ = ("data", "x", "v_star")

    def __init__(self, x: BlockVector, v_star: BlockVector):
        self._adopt(np.concatenate((x.data, v_star.data)), x, v_star)

    @classmethod
    def zeros(cls, signature: SpaceSignature) -> "PrimalDualPoint":
        return cls(*(BlockVector._wrap(np.zeros(sum(dims)), dims)
                     for dims in (signature.primal_dims, signature.dual_dims)))

    def _adopt(self, data: np.ndarray, x: BlockVector, v_star: BlockVector) -> None:
        split = x.data.shape[0]
        self.data, self.x = data, BlockVector._wrap(data[:split], x.dims)
        self.v_star = BlockVector._wrap(data[split:], v_star.dims)

    def _like(self, data: np.ndarray) -> "PrimalDualPoint":
        """A point with this point's block layout over a flat array (no copy)."""
        out = PrimalDualPoint.__new__(PrimalDualPoint)
        out._adopt(data, self.x, self.v_star)
        return out

    def __add__(self, other: "PrimalDualPoint") -> "PrimalDualPoint":
        return self._like(self.data + other.data)

    def __sub__(self, other: "PrimalDualPoint") -> "PrimalDualPoint":
        return self._like(self.data - other.data)

    def __mul__(self, alpha: float) -> "PrimalDualPoint":
        return self._like(alpha * self.data)

    __rmul__ = __mul__


def pd_inner(u: PrimalDualPoint, v: PrimalDualPoint) -> float:
    """Inner product on the primal-dual product space, summed primal side first."""
    return float(np.dot(u.x.data, v.x.data)) + float(np.dot(u.v_star.data, v.v_star.data))


def pd_norm_sq(u: PrimalDualPoint) -> float:
    return pd_inner(u, u)


def pd_norm(u: PrimalDualPoint) -> float:
    return math.sqrt(pd_norm_sq(u))


class CouplingMap:
    """Block-sparse linear map between the primal and dual product spaces.

    Entry (k, i) holds the dense matrix mapping primal block i into dual
    block k; absent entries are zero maps.  The adjoint of entry (k, i) is
    its transpose.  Entries are stored once, stacked by block shape, and
    `entries[(k, i)]` is a view into its stack.  With the gather and scatter
    index arrays built here, the full forward and adjoint maps are a fixed
    handful of numpy calls whose summation order depends only on the keys.
    """

    __slots__ = ("signature", "entries", "_rows", "_cols", "_groups", "_index")

    def __init__(self, signature: SpaceSignature, entries: Mapping[tuple[int, int], np.ndarray]):
        self.signature = signature
        arrays: dict[tuple[int, int], np.ndarray] = {}
        for key, mat in entries.items():
            k, i = int(key[0]), int(key[1])
            if not (0 <= k < signature.p and 0 <= i < signature.m):
                raise DimensionError(f"coupling entry ({k},{i}) outside signature range")
            arr = np.atleast_2d(np.asarray(mat, dtype=float))
            expected = (signature.dual_dims[k], signature.primal_dims[i])
            if arr.shape != expected:
                raise DimensionError(
                    f"coupling entry ({k},{i}) has shape {arr.shape}, expected {expected}")
            arrays[(k, i)] = arr
        keys = sorted(arrays)
        by_shape: dict[tuple[int, int], list] = {}
        for key in keys:
            by_shape.setdefault(arrays[key].shape, []).append(key)
        self.entries: dict[tuple[int, int], np.ndarray] = {}
        self._groups = []  # (stack, keys), one per block shape
        for group in by_shape.values():
            stack = np.array([arrays[key] for key in group])
            self.entries.update(zip(group, stack))
            self._groups.append((stack, group))
        self._index = None  # per group, (stack, flat row index, flat column index); see _indexed
        self._rows = {k: [] for k in range(signature.p)}  # (primal slice, entry) per dual block
        self._cols = {i: [] for i in range(signature.m)}  # (dual slice, entry) per primal block
        for k, i in keys:
            self._rows[k].append((signature.primal_slices[i], self.entries[(k, i)]))
            self._cols[i].append((signature.dual_slices[k], self.entries[(k, i)]))

    def _indexed(self) -> list:
        """The stacks with their gather/scatter index arrays, built at the first full apply."""
        if self._index is None:
            sig = self.signature
            self._index = [(stack, _flat_index([sig.dual_slices[k] for k, _ in keys]),
                            _flat_index([sig.primal_slices[i] for _, i in keys]))
                           for stack, keys in self._groups]
        return self._index

    def forward(self, x: np.ndarray) -> np.ndarray:
        """L x for a flat primal array, as a flat dual array."""
        return _scatter([(rows, np.matmul(stack, x[cols].reshape(len(stack), -1, 1)))
                         for stack, rows, cols in self._indexed()],
                        self.signature.dual_slices[-1].stop)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """L* y for a flat dual array, as a flat primal array."""
        return _scatter([(cols, np.matmul(y[rows].reshape(len(stack), 1, -1), stack))
                         for stack, rows, cols in self._indexed()],
                        self.signature.primal_slices[-1].stop)

    def to_dense(self) -> np.ndarray:
        """Assemble the full matrix (diagnostics and tests only)."""
        sig = self.signature
        out = np.zeros((sum(sig.dual_dims), sum(sig.primal_dims)))
        for (k, i), mat in self.entries.items():
            out[sig.dual_slices[k], sig.primal_slices[i]] = mat
        return out


def _flat_index(slices: list) -> np.ndarray:
    """Flat coordinates covered by a list of equally long block slices, in order."""
    width = slices[0].stop - slices[0].start
    return np.add.outer([sl.start for sl in slices], np.arange(width)).ravel()


def _scatter(parts: list, size: int) -> np.ndarray:
    """Sum (flat index, per-block product) pairs into a flat vector, in list order."""
    if not parts:
        return np.zeros(size)
    if len(parts) == 1:
        return np.bincount(parts[0][0], weights=parts[0][1].ravel(), minlength=size)
    return np.bincount(np.concatenate([at for at, _ in parts]), minlength=size,
                       weights=np.concatenate([prod.ravel() for _, prod in parts]))


def forward_block(cmap: CouplingMap, x: BlockVector, k: int) -> np.ndarray:
    """Dual block k of the forward map: sum over i of entry (k,i) applied to x_i."""
    acc = np.zeros(cmap.signature.dual_dims[k])
    for sl, mat in cmap._rows[k]:
        acc += mat @ x.data[sl]
    return acc


def adjoint_block(cmap: CouplingMap, y: BlockVector, i: int) -> np.ndarray:
    """Primal block i of the adjoint map: sum over k of entry (k,i) transposed applied to y_k."""
    acc = np.zeros(cmap.signature.primal_dims[i])
    for sl, mat in cmap._cols[i]:
        acc += mat.T @ y.data[sl]
    return acc

