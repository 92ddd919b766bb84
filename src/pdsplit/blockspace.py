"""Block vectors over products of real coordinate spaces and block-sparse couplings.

A block vector and a primal-dual point each store their coordinates in one
contiguous float64 array; blocks are views into it.  Values are treated as
immutable after construction: every operation allocates a fresh output array.
The engine computes on those flat arrays (flat_inner); points are the API type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, DimensionError, integer, is_integer


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
        for name in ("primal_dims", "dual_dims"):
            object.__setattr__(self, name, tuple(integer(f"{name}[{j}]", dim, DimensionError)
                                                 for j, dim in enumerate(getattr(self, name))))
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
        converted = [np.atleast_1d(np.array(b, dtype=float)) for b in blocks]  # copies
        if not converted:
            raise DimensionError("a block vector needs at least one block")
        for j, arr in enumerate(converted):
            if arr.ndim != 1:
                raise DimensionError(f"block {j} is not a vector (ndim={arr.ndim})")
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


def flat_inner(u: np.ndarray, w: np.ndarray, split: int) -> float:
    """<u, w> of flat primal-dual arrays with `split` primal entries, summed primal side first."""
    return float(u[:split].dot(w[:split])) + float(u[split:].dot(w[split:]))


def pd_norm(u: PrimalDualPoint) -> float:
    """Norm on the primal-dual product space: sqrt of flat_inner of u's array with itself."""
    return math.sqrt(flat_inner(u.data, u.data, u.x.data.shape[0]))


class CouplingMap:
    """Block-sparse linear map between the primal and dual product spaces.

    Entry (k, i) holds the dense matrix mapping primal block i into dual
    block k; absent entries are zero maps.  The adjoint of entry (k, i) is
    its transpose.  Entries are stored once, stacked by block shape, and
    `entries[(k, i)]` is a view into its stack.  The index tables are built
    here with the stacks and never change: per stack its keys and its
    entries' coordinates on each side, per direction the output coordinate
    of each product, and per side, stack and block the rows whose entries
    read that block.  A full forward or
    adjoint map is then a fixed handful of numpy calls whose summation
    order depends only on the keys.
    """

    __slots__ = ("signature", "entries", "_stacks", "_keys", "_coords", "_at", "_rows")

    def __init__(self, signature: SpaceSignature, entries: Mapping[tuple[int, int], np.ndarray]):
        self.signature = sig = signature
        p, m, ddims, pdims = sig.p, sig.m, sig.dual_dims, sig.primal_dims
        arrays: dict[tuple[int, int], np.ndarray] = {}
        for key, mat in entries.items():
            if not (is_integer(key[0]) and is_integer(key[1])):
                raise DimensionError(f"coupling entry {key!r}: its indices must be integers")
            k, i = int(key[0]), int(key[1])
            if not (0 <= k < p and 0 <= i < m):
                raise DimensionError(f"coupling entry ({k},{i}) outside signature range")
            arr = np.atleast_2d(np.asarray(mat, dtype=float))
            expected = (ddims[k], pdims[i])
            if arr.shape != expected:
                raise DimensionError(
                    f"coupling entry ({k},{i}) has shape {arr.shape}, expected {expected}")
            arrays[(k, i)] = arr
        keys = sorted(arrays)
        by_shape: dict[tuple[int, int], list] = {}
        for key in keys:
            by_shape.setdefault(arrays[key].shape, []).append(key)
        self._keys = list(by_shape.values())  # per stack, its keys in order
        self._stacks = [np.array([arrays[key] for key in group]) for group in self._keys]
        for group, stack in zip(self._keys, self._stacks):
            if not np.isfinite(stack).all():
                k, i = group[int(np.isfinite(stack).all(axis=(1, 2)).argmin())]
                raise ConfigError(f"coupling entry ({k},{i}) has non-finite values")
        self.entries = dict(zip(itertools.chain(*self._keys), itertools.chain(*self._stacks)))
        # per side (primal, dual), per stack: its entries' coordinates on that side, one row each
        self._coords = tuple([_flat_index([slices[key[at]] for key in group])
                              for group in self._keys]
                             for slices, at in ((sig.primal_slices, 1), (sig.dual_slices, 0)))
        # per direction (forward, adjoint): each product's output coordinate, stack after stack
        self._at = (_flat(self._coords[1]), _flat(self._coords[0]))
        # per side (primal, dual), per stack, per block of that side: the rows that read it
        self._rows = tuple([block_rows([key[at] for key in group], count) for group in self._keys]
                           for at, count in ((1, m), (0, p)))

    def copy(self) -> "CouplingMap":
        """A copy with its own stacks in the same layout, so its applies give the same bits."""
        out = CouplingMap.__new__(CouplingMap)
        for name in CouplingMap.__slots__:  # the index tables are shared
            setattr(out, name, getattr(self, name))
        out._stacks = [stack.copy() for stack in self._stacks]
        out.entries = dict(zip(self.entries, itertools.chain(*out._stacks)))
        return out

    def _products(self, v: np.ndarray, adjoint: bool, picks=None) -> list:
        """Per stack, its entries' products (of picks[stack] only, if given) as (entries, width)."""
        out = []
        for g, (stack, read) in enumerate(zip(self._stacks, self._coords[adjoint])):
            if picks is not None:
                stack, read = stack[picks[g]], read[picks[g]]
            read = v[read]
            out.append(np.matmul(read.reshape(len(read), 1, read.shape[1]), stack)[:, 0]
                       if adjoint else np.matmul(stack, read.reshape(*read.shape, 1))[..., 0])
        return out

    def _sum(self, products: np.ndarray, adjoint: bool) -> np.ndarray:
        """Flat products, in the order of _at, summed into a flat output array of the direction."""
        size = (self.signature.dual_slices, self.signature.primal_slices)[adjoint][-1].stop
        return np.bincount(self._at[adjoint], weights=products, minlength=size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """L x for a flat primal array, as a flat dual array."""
        return self._sum(_flat(self._products(x, False)), False)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """L* y for a flat dual array, as a flat primal array."""
        return self._sum(_flat(self._products(y, True)), True)

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


def _flat(arrays: list) -> np.ndarray:
    """The arrays raveled and joined in order (an empty index array if there are none)."""
    if len(arrays) == 1:
        return arrays[0].ravel()
    return np.concatenate([a.ravel() for a in arrays] + [np.zeros(0, np.intp)])


class KeptImage:
    """L v, or L* v if adjoint, kept for a flat v that starts at 0 and changes a few blocks at a time.

    It keeps each entry's product, flat in the full apply's order.  update
    recomputes the products of the entries that read a changed block of v
    and sums all kept products as the full apply does, so value stays
    bitwise equal to forward(v) (adjoint(v)).
    """

    __slots__ = ("coupling", "adjoint", "value", "_flat", "_products")

    def __init__(self, coupling: CouplingMap, adjoint: bool = False):
        out = int(adjoint)  # the key index naming an output block
        self.coupling, self.adjoint = coupling, adjoint
        writes, self._flat = coupling._coords[1 - out], np.zeros(coupling._at[out].size)
        ends = np.cumsum([w.size for w in writes]).tolist()
        self._products = [self._flat[end - w.size:end].reshape(w.shape)  # per stack, views
                          for end, w in zip(ends, writes)]
        self.value = coupling._sum(self._flat, adjoint)

    def update(self, v: np.ndarray, changed) -> None:
        """Bring value up to date after the blocks `changed` (sorted, distinct) of v changed."""
        picks = rows_owned(self.coupling._rows[self.adjoint], changed)
        for kept, fresh, pick in zip(self._products,
                                     self.coupling._products(v, self.adjoint, picks), picks):
            kept[pick] = fresh
        self.value = self.coupling._sum(self._flat, self.adjoint)


def block_rows(owner: Iterable[int], count: int) -> list:
    """Per block 0..count-1, the positions in owner (a block index each) that name it, ascending."""
    rows: list[list[int]] = [[] for _ in range(count)]
    for row, block in enumerate(owner):
        rows[block].append(row)
    return [np.array(r, dtype=np.intp) for r in rows]


def rows_owned(table: list, active) -> list:
    """Per stack, its rows owned by the blocks in active (distinct), from table (per stack, per
    block, its rows, as block_rows gives them): slice(None) if every block is active, else the
    active blocks' rows, block after block."""
    if not table or len(active) == len(table[0]):
        return [slice(None)] * len(table)
    if len(active) == 1:
        return [rows[active[0]] for rows in table]
    return [np.concatenate([rows[j] for j in active]) for rows in table]


# Only perfbench reads the per-block applies: its problem generator imports them and its tracer
# patches them.  Once perfbench has its own copies (ROADMAP item 1), they can be deleted.
def forward_block(cmap: CouplingMap, x: BlockVector, k: int) -> np.ndarray:
    """Dual block k of the forward map: block k of cmap.forward(x)."""
    return cmap.forward(x.data)[cmap.signature.dual_slices[k]]


def adjoint_block(cmap: CouplingMap, y: BlockVector, i: int) -> np.ndarray:
    """Primal block i of the adjoint map: block i of cmap.adjoint(y)."""
    return cmap.adjoint(y.data)[cmap.signature.primal_slices[i]]
