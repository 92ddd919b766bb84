"""Deterministic control data for block-iterative, lagged iterations.

A schedule fixes, for every iteration n, which primal/dual operator blocks
are activated (I_n, K_n) and from which earlier iterate each activated block
reads its inputs (lag maps).  Certified schedules obey:

  * iteration 0 activates every block on both sides;
  * every window of M consecutive iterations activates every block;
  * every activated read lags at most D iterations (and never before 0).

Schedules are finite; past their horizon they repeat their last coverage
window, which preserves certification.  Block indices are 0-based.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CertResult:
    """Outcome of schedule validation: certified, or first violation found."""

    certified: bool
    reason: Optional[str] = None
    at: Optional[int] = None  # first offending iteration index


@dataclass
class ControlSchedule:
    """Explicit activation sets (sorted, repeats dropped) and lag tables over a finite horizon.

    c maps activated (i, n) to the primal read iteration; d likewise for the
    dual side.  Missing entries mean "no lag" (read iteration n), so fully
    synchronous schedules need no tables at all.
    """

    horizon: int
    I_seq: list[tuple[int, ...]]
    K_seq: list[tuple[int, ...]]
    c: dict[tuple[int, int], int] = field(default_factory=dict)
    d: dict[tuple[int, int], int] = field(default_factory=dict)
    M: int = 1
    D: int = 0

    def __post_init__(self) -> None:
        self.I_seq = [tuple(sorted({int(i) for i in s})) for s in self.I_seq]
        self.K_seq = [tuple(sorted({int(k) for k in s})) for s in self.K_seq]

    def _tail_source(self, n: int) -> int:
        """Map an iteration beyond the horizon to its source in the tail window."""
        block = min(self.M, self.horizon)
        start = self.horizon - block
        return start + (n - start) % block

    def blocks_at(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        src = n if n < self.horizon else self._tail_source(n)
        return self.I_seq[src], self.K_seq[src]

    def _lag(self, table: dict, idx: int, n: int) -> int:
        if not table:  # no lags: every read is of iterate n
            return n
        if n < self.horizon:
            return table.get((idx, n), n)
        src = self._tail_source(n)
        offset = src - table.get((idx, src), src)
        return max(0, n - offset)

    def lag_primal(self, i: int, n: int) -> int:
        return self._lag(self.c, i, n)

    def lag_dual(self, k: int, n: int) -> int:
        return self._lag(self.d, k, n)


def validate(s: ControlSchedule, m: int, p: int) -> CertResult:
    """Check a schedule against the certification conditions for (m, p) blocks."""
    for name, count in (("m", m), ("p", p)):
        if count < 1:
            return CertResult(False, f"{name} must be >= 1, got {count}")
    if s.M < 1:
        return CertResult(False, f"M must be >= 1, got {s.M}")
    if s.D < 0:
        return CertResult(False, f"D must be >= 0, got {s.D}")
    if s.horizon < 1:
        return CertResult(False, f"horizon must be >= 1, got {s.horizon}")
    if len(s.I_seq) != s.horizon or len(s.K_seq) != s.horizon:
        return CertResult(False, "activation sequences do not match the horizon")
    # Window coverage in one pass: a block idle for M or more iterations in a
    # row leaves the window where its idle run starts uncovered.
    last = ([-1] * m, [-1] * p)  # per side, the iteration each block was last active
    starts = []                  # (start of an uncovered window, side)
    for n, (I_n, K_n) in enumerate(zip(s.I_seq, s.K_seq)):
        if not I_n or not K_n:
            return CertResult(False, "empty block set", n)
        if any(i < 0 or i >= m for i in I_n):
            return CertResult(False, f"primal index out of range in {I_n}", n)
        if any(k < 0 or k >= p for k in K_n):
            return CertResult(False, f"dual index out of range in {K_n}", n)
        for side, active in enumerate((I_n, K_n)):
            for idx in active:
                if n - last[side][idx] > s.M:
                    starts.append((last[side][idx] + 1, side))
                last[side][idx] = n
    if s.I_seq[0] != tuple(range(m)) or s.K_seq[0] != tuple(range(p)):
        return CertResult(False, "iteration 0 must activate every block", 0)
    starts += [(seen + 1, side) for side in (0, 1) for seen in last[side]
               if s.horizon - seen > s.M]
    if starts:
        at, side = min(starts)  # on a tie the primal side is reported first
        return CertResult(False, f"window of {s.M} misses {('primal', 'dual')[side]} blocks", at)
    for table, count, side in ((s.c, m, "primal"), (s.d, p, "dual")):
        for (idx, n), val in table.items():
            if not (0 <= idx < count) or not (0 <= n < s.horizon):
                return CertResult(False, f"{side} lag entry ({idx},{n}) out of range", n)
            if val > n:
                return CertResult(False, "lag points into the future", n)
            if val < max(0, n - s.D):
                return CertResult(False, "lag exceeds D", n)
    return CertResult(True)


def synchronous(m: int, p: int) -> ControlSchedule:
    """Every block every iteration, no lag (M=1, D=0)."""
    return ControlSchedule(1, [tuple(range(m))], [tuple(range(p))], M=1, D=0)


def at_least(*checks) -> None:
    """ConfigError for the first (name, value, low) whose value is a bool, not an integer or
    below low."""
    for name, value, low in checks:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def _lag_value(pattern: tuple, n: int) -> int:
    if pattern[0] == "constant":
        return max(0, n - pattern[1])
    return max(0, n - (n % (pattern[1] + 1)))  # sawtooth


def _pattern_depth(pattern) -> int:
    """The read lag bound D of a lag pattern, once its shape and value are checked."""
    shape = (pattern[0], len(pattern)) if isinstance(pattern, (tuple, list)) and pattern else None
    if shape not in (("zero", 1), ("constant", 2), ("sawtooth", 2)):
        raise ConfigError(f"unknown or malformed lag pattern {pattern!r}")
    depth = 0 if shape[0] == "zero" else pattern[1]
    if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth < 0:
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
    D = _pattern_depth(lag_pattern)

    def sweep(count: int) -> list[tuple[int, ...]]:
        gs = min(group_size, count)
        seq = [tuple(range(count))]
        for n in range(1, horizon):
            start = ((n - 1) * gs) % count
            seq.append(tuple(sorted((start + j) % count for j in range(gs))))
        return seq

    M = max(-(-m // min(group_size, m)), -(-p // min(group_size, p)))
    c = {}
    d = {}
    I_seq = sweep(m)
    K_seq = sweep(p)
    if lag_pattern[0] != "zero":
        for n in range(horizon):
            for i in I_seq[n]:
                c[(i, n)] = _lag_value(lag_pattern, n)
            for k in K_seq[n]:
                d[(k, n)] = _lag_value(lag_pattern, n)
    out = ControlSchedule(horizon, I_seq, K_seq, c, d, M=M, D=D)
    cert = validate(out, m, p)
    if not cert.certified:  # generator bug, not user error
        raise AssertionError(f"periodic generator produced an invalid schedule: {cert}")
    return out


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
        seq = [tuple(range(count))]
        last = {i: 0 for i in range(count)}
        for n in range(1, horizon):
            chosen = {i for i in range(count) if rng.random() < 0.5}
            chosen.update(i for i in range(count) if n - last[i] >= M)
            if not chosen:
                chosen.add(int(rng.integers(count)))
            for i in chosen:
                last[i] = n
            seq.append(tuple(sorted(chosen)))
        return seq

    I_seq = draw(m)
    K_seq = draw(p)
    c = {}
    d = {}
    for n in range(horizon):
        lo = max(0, n - D)
        for i in I_seq[n]:
            c[(i, n)] = int(rng.integers(lo, n + 1))
        for k in K_seq[n]:
            d[(k, n)] = int(rng.integers(lo, n + 1))
    out = ControlSchedule(horizon, I_seq, K_seq, c, d, M=M, D=D)
    cert = validate(out, m, p)
    if not cert.certified:
        raise AssertionError(f"random generator produced an invalid schedule: {cert}")
    return out


class LagBuffer:
    """Ring buffer of the last D+1 iterates (as the engine stores them), by absolute iteration.

    Owned exclusively by the engine's coordination step (single writer);
    reads are validated against the admissible window.
    """

    def __init__(self, depth: int, first: Any):
        if depth < 0:
            raise ConfigError(f"buffer depth must be >= 0, got {depth}")
        self._size = depth + 1
        self._slots: list[Any] = [None] * self._size
        self._latest = -1
        self.push(0, first)

    def push(self, index: int, point: Any) -> None:
        if index != self._latest + 1:
            raise ConfigError(f"buffer push out of order: {index} after {self._latest}")
        self._slots[index % self._size] = point
        self._latest = index

    def get(self, index: int) -> Any:
        if index > self._latest or index < 0 or index <= self._latest - self._size:
            raise LookupError(
                f"iterate {index} not buffered (have {max(0, self._latest - self._size + 1)}"
                f"..{self._latest})")
        return self._slots[index % self._size]
