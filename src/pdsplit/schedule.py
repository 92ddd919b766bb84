"""Deterministic control data for block-iterative, lagged iterations.

A schedule fixes, for every iteration n, which primal/dual operator blocks
are activated (I_n, K_n) and from which earlier iterate each activated block
reads its inputs (lag maps).  Certified schedules obey:

  * iteration 0 activates every block on both sides;
  * every window of M consecutive iterations activates every block;
  * every activated read lags at most D iterations (and never before 0).

Schedules are finite; past their horizon they repeat their last coverage
window, which preserves certification.  Block indices are 0-based.  A lag
table is its caller's {(block, n): read} dict or its generator's LagTable
array, so generating and certifying a schedule cost array operations.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, integer, is_integer


@dataclass(frozen=True)
class CertResult:
    """Outcome of schedule validation: certified, or first violation found."""

    certified: bool
    reason: Optional[str] = None
    at: Optional[int] = None  # first offending iteration index


class LagTable(Mapping):
    """A generator's lag table: the {(block, n): read iteration} mapping held as a read-only
    array over its schedule's (horizon, blocks) grid, reads[n, block], which is negative where
    the block has no entry.  depth is the greatest lag of its entries.  Every read of the
    mapping, iteration-major, comes from the array: the table holds no second copy."""

    __slots__ = ("reads", "depth", "_view", "_len")

    def __init__(self, reads: np.ndarray):
        """reads: a generator's integer array, which the table takes over."""
        has = reads >= 0
        lag = np.subtract(np.arange(len(reads), dtype=reads.dtype)[:, None], reads,
                          out=np.zeros_like(reads), where=has)
        if lag.min(initial=0) < 0:
            raise ConfigError("a lag table entry reads a later iterate")
        reads.flags.writeable = False
        self.reads, self._view, self.depth = reads, memoryview(reads), int(lag.max(initial=0))
        self._len = int(np.count_nonzero(has))

    def get(self, key, default=None):
        try:
            idx, n = key
            read = self._view[n, idx] if n >= 0 <= idx else -1
        except (IndexError, TypeError, ValueError):  # off the grid, or not a (block, n) pair
            return default
        return read if read >= 0 else default

    def __getitem__(self, key):
        if (read := self.get(key)) is None:
            raise KeyError(key)
        return read

    def __iter__(self):
        n, i = np.nonzero(self.reads >= 0)
        return zip(i.tolist(), n.tolist())

    def __len__(self) -> int:
        return self._len


@dataclass
class ControlSchedule:
    """Explicit activation sets (sorted, repeats dropped) and lag tables over a finite horizon.

    c maps activated (i, n) to the primal read iteration; d likewise for the
    dual side.  Missing entries mean "no lag" (read iteration n), so fully
    synchronous schedules need no tables at all.  Each is a {(i, n): read} dict, which is
    copied (None: {}), or a generator's LagTable, which is kept while its grid matches the sets.
    """

    horizon: int
    I_seq: list[tuple[int, ...]]
    K_seq: list[tuple[int, ...]]
    c: Any = None
    d: Any = None
    M: int = 1
    D: int = 0

    def __post_init__(self, left: tuple = ((), ())) -> None:  # left: the sets it left, see copy
        for name, table, kept in (("I_seq", "c", left[0]), ("K_seq", "d", left[1])):
            seq = _sets(self, name, kept)
            # a certifiable schedule activates exactly blocks 0..count-1 at n = 0
            lags, grid = getattr(self, table), (len(seq), len(seq[0]) if seq else 0)
            setattr(self, name, seq)
            setattr(self, table, lags if isinstance(lags, LagTable) and lags.reads.shape == grid
                    else dict(lags or {}))
        self._left = (tuple(self.I_seq), tuple(self.K_seq))  # the sets as it left them

    def copy(self) -> ControlSchedule:
        """A copy built as the constructor builds one, which checks only the sets assigned since."""
        (new := copy.copy(self)).__post_init__(self._left)
        return new

    def _source(self, n: int) -> int:
        """n within the horizon; past it, n's place in the last window of min(M, horizon)."""
        window = min(self.M, self.horizon)
        return n if n < self.horizon else self.horizon - window + (n - self.horizon) % window

    def blocks_at(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        src = self._source(n)
        return self.I_seq[src], self.K_seq[src]

    def _lag(self, table: Mapping, idx: int, n: int) -> int:
        if not table:  # no lags: every read is of iterate n
            return n
        src = self._source(n)
        return n - src + table.get((idx, src), src)  # src's lag

    def lag_primal(self, i: int, n: int) -> int:
        return self._lag(self.c, i, n)

    def lag_dual(self, k: int, n: int) -> int:
        return self._lag(self.d, k, n)


def validate(s: ControlSchedule, m: int, p: int) -> CertResult:
    """Certify a schedule for (m, p) blocks, reading its sets in the form the engine runs."""
    try:
        at_least(("m", m, 1), ("p", p, 1), ("M", s.M, 1), ("D", s.D, 0), ("horizon", s.horizon, 1))
        I_seq, K_seq = (_sets(s, name, kept) for name, kept in zip(("I_seq", "K_seq"), s._left))
    except ConfigError as exc:
        return CertResult(False, str(exc))
    if len(I_seq) != s.horizon or len(K_seq) != s.horizon:
        return CertResult(False, "activation sequences do not match the horizon")
    sides = ((I_seq, m), (K_seq, p))
    idle = [_first_idle(seq, count, s.M) for seq, count in sides]
    if None in idle:  # an empty set, an index out of range or a short iteration 0: find which
        for n, (I_n, K_n) in enumerate(zip(I_seq, K_seq)):
            if not I_n or not K_n:
                return CertResult(False, "empty block set", n)
            if any(i < 0 or i >= m for i in I_n):
                return CertResult(False, f"primal index out of range in {I_n}", n)
            if any(k < 0 or k >= p for k in K_n):
                return CertResult(False, f"dual index out of range in {K_n}", n)
    if any(len(seq[0]) != count or seq[0] != tuple(range(count)) for seq, count in sides):
        return CertResult(False, "iteration 0 must activate every block", 0)
    if min(idle) < s.horizon:  # on a tie the primal side is reported first
        side = ("primal", "dual")[idle.index(min(idle))]
        return CertResult(False, f"window of {s.M} misses {side} blocks", min(idle))
    for table, count, side in ((s.c or {}, m, "primal"), (s.d or {}, p, "dual")):
        if isinstance(table, LagTable) and table.reads.shape == (s.horizon, count) \
                and table.depth <= s.D:
            continue
        for (idx, n), val in table.items():  # report the first bad entry, in order
            if not (type(idx) is type(n) is type(val) is int or all(map(is_integer, (idx, n, val)))):
                return CertResult(False, f"{side} lag entry ({idx},{n}): {val!r} not an integer")
            if not (0 <= idx < count) or not (0 <= n < s.horizon):
                return CertResult(False, f"{side} lag entry ({idx},{n}) out of range", n)
            if val > n:
                return CertResult(False, "lag points into the future", n)
            if val < max(0, n - s.D):
                return CertResult(False, "lag exceeds D", n)
    return CertResult(True)


def read_depth(s: ControlSchedule) -> int:
    """The greatest lag a read of a certified schedule has, at most its D."""
    return min(s.D, max(t.depth if isinstance(t, LagTable) else
                        max((n - val for (_, n), val in t.items()), default=0) for t in (s.c, s.d)))


def lag_rows(table: Mapping) -> Iterator[tuple[Any, list, list]]:
    """Each block of a table with entries, with its iterations and their reads, ascending."""
    if isinstance(table, LagTable):
        for idx, reads in enumerate(table.reads.T.copy()):  # block by block
            if (n := np.flatnonzero(reads >= 0)).size:
                yield idx, n.tolist(), reads[n].tolist()
        return
    for idx, entries in itertools.groupby(sorted(table.items()), lambda entry: entry[0][0]):
        keys, reads = zip(*entries)
        yield idx, [n for _, n in keys], list(reads)


def _no_reads(shape: tuple) -> np.ndarray:
    """A (horizon, blocks) array of reads without entries, in the narrowest type that holds them."""
    return np.full(shape, -1, np.min_scalar_type(-max(shape[0], 1)))


def _sets(s: ControlSchedule, name: str, kept: tuple) -> list[tuple[int, ...]]:
    """A new list of s's sets named name in the constructor's form: each a sorted tuple of
    distinct plain ints, by the integer rule (a ConfigError names the first set that breaks it).
    A set that is still its place's tuple in kept, as the constructor left it, is not read."""
    seq, flat = list(getattr(s, name)), itertools.chain.from_iterable
    new = [t for t, k in zip(seq, kept) if t is not k] + seq[len(kept):]
    if set(map(type, new)) <= {tuple} and all(new) and set(map(type, flat(new))) <= {int}:
        sets = set(new)  # a repeated set is checked once, and its last entry against inf
        if all(map(operator.lt, flat(sets), flat(t[1:] + (math.inf,) for t in sets))):
            return seq
    return [t if n < len(kept) and t is kept[n] else
            tuple(sorted({i if type(i) is int else integer(f"{name}[{n}] entry", i) for i in t}))
            for n, t in enumerate(seq)]


def _first_idle(seq: list, count: int, M: int) -> Optional[int]:
    """The first window of M iterations in which one of count blocks is idle in seq (len(seq)
    if none), or None if a set of seq is empty or holds an index outside [0, count), or if the
    first set does not hold count blocks.  It reads each block's gaps between activations, so
    its memory follows the sets, not the horizon times the blocks."""
    if M >= len(seq):  # the one window holds iteration 0: only the sets need checking
        return len(seq) if all(seq) and 0 <= min(map(min, seq)) and max(map(max, seq)) < count \
            else None
    lens = np.fromiter(map(len, seq), np.intp, len(seq))
    try:
        blocks = np.fromiter(itertools.chain.from_iterable(seq), np.int32, lens.sum())
    except OverflowError:  # an index past 32 bits
        return None
    if not (lens.all() and lens[0] == count and 0 <= blocks.min() and blocks.max() < count):
        return None
    # per block, its activations between -1 and len(seq), as block * span + n + 1, sorted
    span, size = len(seq) + 2, blocks.size
    keys = np.empty(size + 2 * count, np.int64)
    np.multiply(blocks, span, out=keys[:size], dtype=np.int64)
    keys[:size] += np.repeat(np.arange(1, span - 1, dtype=np.int64), lens)
    keys[size:size + count] = np.arange(0, count * span, span, dtype=np.int64)
    keys[size + count:] = keys[size:size + count] + span - 1
    keys.sort()
    idle = keys[:-1][np.diff(keys) > M] % span  # a gap across two blocks is 1
    return int(idle.min()) if idle.size else len(seq)


def synchronous(m: int, p: int) -> ControlSchedule:
    """Every block every iteration, no lag (M=1, D=0)."""
    return ControlSchedule(1, [tuple(range(m))], [tuple(range(p))], M=1, D=0)


def at_least(*checks) -> None:
    """ConfigError for the first (name, value, low) that breaks the integer rule or is below low."""
    for name, value, low in checks:
        if integer(name, value) < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


# pattern: (the generator-spec field that holds its lag d, the read iterations at iterations n)
LAG_PATTERNS = {"zero": (None, None), "constant": ("value", lambda n, d: np.maximum(n - d, 0)),
                "sawtooth": ("max", lambda n, d: n - n % (d + 1))}


def _pattern_depth(pattern) -> int:
    """The read lag bound D of a lag pattern, once its shape and value are checked."""
    shape = (pattern[0], len(pattern)) if isinstance(pattern, (tuple, list)) and pattern else None
    if shape not in [(name, 1 + (key is not None)) for name, (key, _) in LAG_PATTERNS.items()]:
        raise ConfigError(f"unknown or malformed lag pattern {pattern!r}")
    depth = pattern[1] if len(pattern) == 2 else 0
    if not is_integer(depth) or depth < 0:
        raise ConfigError(f"lag pattern {pattern!r}: the lag must be an integer >= 0")
    return int(depth)


def periodic(m: int, p: int, group_size: int, horizon: int,
             lag_pattern: tuple = ("zero",)) -> ControlSchedule:
    """Round-robin activation in groups of the given size, deterministic lags.

    Iteration 0 activates everything; afterwards consecutive index chunks
    cycle through each side.  The stored coverage bound M is tight for the
    generated pattern.  lag_pattern is ("zero",), ("constant", d), or
    ("sawtooth", D).
    """
    at_least(("m", m, 1), ("p", p, 1), ("group_size", group_size, 1), ("horizon", horizon, 1))
    D, rule = _pattern_depth(lag_pattern), LAG_PATTERNS[lag_pattern[0]][1]
    n, seqs, tables = np.arange(horizon)[:, None], [], []
    for count in (m, p):  # from n = 1, chunk n - 1 of gs blocks
        gs = min(group_size, count)
        chunks = np.sort(((n[1:] - 1) * gs + np.arange(gs)) % count, axis=1)
        cycle = list(map(tuple, chunks[:count].tolist()))  # chunk k + count is chunk k
        seqs.append([tuple(range(count)), *(cycle * (horizon // count + 1))[:horizon - 1]])
        if rule is None:  # a zero lag needs no table
            tables.append({})
        else:
            reads = _no_reads((horizon, count))
            reads[0], reads[n[1:], chunks] = rule(n[:1], D), rule(n[1:], D)
            tables.append(LagTable(reads))
    M = max(-(-m // min(group_size, m)), -(-p // min(group_size, p)))
    return ControlSchedule(horizon, *seqs, *tables, M=M, D=D)


def random_admissible(m: int, p: int, M: int, D: int, horizon: int,
                      seed: int) -> ControlSchedule:
    """Seeded random activation sets and lags, guaranteed certified.

    Each block joins each iteration with probability 1/2; a round-robin
    fallback force-includes any block not activated within the last M-1
    iterations, which guarantees window coverage.  Lags are uniform over the
    admissible range.  Identical seeds give identical schedules.
    """
    at_least(("m", m, 1), ("p", p, 1), ("M", M, 1), ("D", D, 0), ("horizon", horizon, 1),
              ("seed", seed, 0))
    rng = np.random.default_rng(seed)

    def draw(count: int) -> list[tuple[int, ...]]:
        seq, due = [tuple(range(count))], np.full(count, M)  # due: when a block is forced in
        for n in range(1, horizon):
            chosen = (rng.random(count) < 0.5) | (due <= n)
            if not chosen.any():
                chosen[rng.integers(count)] = True
            due[chosen] = n + M
            seq.append(tuple(chosen.nonzero()[0].tolist()))
        return seq

    I_seq, K_seq = draw(m), draw(p)  # the sets, then the lags
    c, d = (_no_reads((horizon, count)) for count in (m, p))
    for n, (I_n, K_n) in enumerate(zip(I_seq, K_seq)):  # primal blocks first
        lags = rng.integers(max(0, n - D), n + 1, len(I_n) + len(K_n))
        c[n, I_n], d[n, K_n] = lags[:len(I_n)], lags[len(I_n):]
    return ControlSchedule(horizon, I_seq, K_seq, LagTable(c), LagTable(d), M=M, D=D)

