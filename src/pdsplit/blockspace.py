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

    __slots__ = ("signature", "entries", "_groups", "_index", "_per_block")

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
        self._index = None  # per group, (stack, row index, column index, keys); see _indexed
        self._per_block = None  # see _blocks

    def copy(self) -> "CouplingMap":
        """A copy with its own stacks in the same layout, so its applies give the same bits."""
        out = CouplingMap.__new__(CouplingMap)
        out.signature, out._per_block = self.signature, None
        out._groups = [(stack.copy(), keys) for stack, keys in self._groups]
        out.entries = {key: mat for stack, keys in out._groups for key, mat in zip(keys, stack)}
        out._index = [(stack, *index[1:]) for (stack, _), index in zip(out._groups, self._indexed())]
        return out

    def _blocks(self) -> tuple:
        """Per dual block its (primal slice, entry) pairs, and per primal block its (dual slice,
        entry) pairs, in key order; built at the first per-block apply."""
        if self._per_block is None:
            sig = self.signature
            self._per_block = [[] for _ in range(sig.p)], [[] for _ in range(sig.m)]
            for (k, i), mat in sorted(self.entries.items()):
                self._per_block[0][k].append((sig.primal_slices[i], mat))
                self._per_block[1][i].append((sig.dual_slices[k], mat))
        return self._per_block

    def _indexed(self) -> list:
        """Per stack: its entries' dual and primal coordinates and (k, i), built at the first apply."""
        if self._index is None:
            sig = self.signature
            self._index = [(stack, _flat_index([sig.dual_slices[k] for k, _ in keys]),
                            _flat_index([sig.primal_slices[i] for _, i in keys]), np.array(keys))
                           for stack, keys in self._groups]
        return self._index

    def _products(self, v: np.ndarray, adjoint: bool, picks=None) -> list:
        """Per stack, its entries' products (of picks[stack] only, if given) as (entries, width)."""
        out = []
        for g, (stack, rows, cols, _) in enumerate(self._indexed()):
            read = rows if adjoint else cols
            if picks is not None:
                stack, read = stack[picks[g]], read[picks[g]]
            read = v[read]
            out.append(np.matmul(read.reshape(len(read), 1, read.shape[1]), stack)[:, 0]
                       if adjoint else np.matmul(stack, read.reshape(*read.shape, 1))[..., 0])
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """L x for a flat primal array, as a flat dual array."""
        return _scatter([rows for _, rows, _, _ in self._indexed()], self._products(x, False),
                        self.signature.dual_slices[-1].stop)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """L* y for a flat dual array, as a flat primal array."""
        return _scatter([cols for _, _, cols, _ in self._indexed()], self._products(y, True),
                        self.signature.primal_slices[-1].stop)

    def to_dense(self) -> np.ndarray:
        """Assemble the full matrix (diagnostics and tests only)."""
        sig = self.signature
        out = np.zeros((sum(sig.dual_dims), sum(sig.primal_dims)))
        for (k, i), mat in self.entries.items():
            out[sig.dual_slices[k], sig.primal_slices[i]] = mat
        return out


def _flat_index(slices: list) -> np.ndarray:
    """Flat coordinates covered by a list of equally long block slices, one row per slice."""
    width = slices[0].stop - slices[0].start
    return np.add.outer([sl.start for sl in slices], np.arange(width))


def _scatter(at: list, products: list, size: int) -> np.ndarray:
    """Sum each stack's products into a flat vector at its flat indices, in list order."""
    if not at:
        return np.zeros(size)
    if len(at) == 1:
        return np.bincount(at[0].ravel(), weights=products[0].ravel(), minlength=size)
    return np.bincount(np.concatenate([a.ravel() for a in at]), minlength=size,
                       weights=np.concatenate([prod.ravel() for prod in products]))


class KeptImage:
    """L v, or L* v if adjoint, kept for a flat v that starts at 0 and changes a few blocks at a time.

    It keeps each entry's product, flat in the full apply's order.  update
    recomputes the products of the entries that read a changed block of v
    and re-sums the output blocks they feed in that order, so value stays
    bitwise equal to forward(v) (adjoint(v)).
    """

    __slots__ = ("coupling", "adjoint", "value", "_inputs", "_at", "_flat", "_products", "_outs",
                 "_reads", "_feeds")

    def __init__(self, coupling: CouplingMap, adjoint: bool = False):
        sig, out = coupling.signature, int(adjoint)  # out: the key index naming an output block
        stacks = [(cols if adjoint else rows, keys) for _, rows, cols, keys in coupling._indexed()]
        ends, none = np.cumsum([at.size for at, _ in stacks]).tolist(), [np.zeros(0, np.intp)]
        self.coupling, self.adjoint, self._inputs = coupling, adjoint, (sig.m, sig.p)[out]
        self._at = np.concatenate([at.ravel() for at, _ in stacks] + none)  # per product
        self._flat = np.zeros(self._at.size)
        self._products = [self._flat[end - at.size:end].reshape(at.shape)  # per stack, views
                          for end, (at, _) in zip(ends, stacks)]
        self.value = np.zeros(sum(sig.primal_dims if adjoint else sig.dual_dims))
        # per stack: each entry's output block, and per block of v the entries that read it
        self._outs = [keys[:, out] for _, keys in stacks]
        self._reads = [_by_owner(keys[:, 1 - out], self._inputs) for _, keys in stacks]
        self._feeds = _by_owner(np.concatenate([np.repeat(keys[:, out], at.shape[1])  # products
                                                for at, keys in stacks] + none), (sig.p, sig.m)[out])

    def update(self, v: np.ndarray, changed) -> None:
        """Bring value up to date after the blocks `changed` (sorted, distinct) of v changed."""
        if len(changed) == self._inputs:
            for kept, fresh in zip(self._products, self.coupling._products(v, self.adjoint)):
                kept[...] = fresh
            self.value = np.bincount(self._at, weights=self._flat, minlength=self.value.size)
            return
        picks = [r[changed[0]] if len(changed) == 1 else np.concatenate([r[c] for c in changed])
                 for r in self._reads]
        for kept, fresh, pick in zip(self._products,
                                     self.coupling._products(v, self.adjoint, picks), picks):
            kept[pick] = fresh
        fed = set().union(*(outs[pick].tolist() for outs, pick in zip(self._outs, picks)))
        if fed:
            sel = np.concatenate([self._feeds[t] for t in fed])
            at = self._at[sel]
            self.value[at] = np.bincount(at, weights=self._flat[sel], minlength=self.value.size)[at]


def _by_owner(owner: np.ndarray, count: int) -> list:
    """For each value 0..count-1, the positions in owner that hold it, in order."""
    order, ends = np.argsort(owner, kind="stable"), np.bincount(owner, minlength=count).cumsum()
    return [order[start:end] for start, end in zip([0, *ends.tolist()], ends.tolist())]


def forward_block(cmap: CouplingMap, x: BlockVector, k: int) -> np.ndarray:
    """Dual block k of the forward map: sum over i of entry (k,i) applied to x_i."""
    acc = np.zeros(cmap.signature.dual_dims[k])
    for sl, mat in cmap._blocks()[0][k]:
        acc += mat @ x.data[sl]
    return acc


def adjoint_block(cmap: CouplingMap, y: BlockVector, i: int) -> np.ndarray:
    """Primal block i of the adjoint map: sum over k of entry (k,i) transposed applied to y_k."""
    acc = np.zeros(cmap.signature.primal_dims[i])
    for sl, mat in cmap._blocks()[1][i]:
        acc += mat.T @ y.data[sl]
    return acc

