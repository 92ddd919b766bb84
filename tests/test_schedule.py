import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsplit as ps
from pdsplit import fileio
from pdsplit.cli import main
from pdsplit.schedule import (CertResult, ControlSchedule, LagTable, periodic, random_admissible,
                              read_depth, synchronous, validate)

from conftest import random_blocksparse_problem


def test_validate_synchronous():
    s = ControlSchedule(4, [(0, 1)] * 4, [(0,)] * 4, M=1, D=0)
    assert validate(s, 2, 1).certified


@pytest.mark.parametrize("m, p, reason", [(0, 1, "m must be >= 1, got 0"),
                                           (2, -3, "p must be >= 1, got -3")])
def test_validate_names_a_block_count_below_one(m, p, reason):
    # it said "primal index out of range in (0, 1)", which names neither count
    s = ControlSchedule(4, [(0, 1)] * 4, [(0,)] * 4, M=1, D=0)
    assert validate(s, m, p) == ps.schedule.CertResult(False, reason)


def test_validate_periodic_sweep():
    # full at 0, then one block at a time with period 3
    I_seq = [(0, 1, 2)] + [((n - 1) % 3,) for n in range(1, 10)]
    K_seq = [(0,)] * 10
    s = ControlSchedule(10, I_seq, K_seq, M=3, D=0)
    assert validate(s, 3, 1).certified


def test_activation_sets_are_sorted_sets():
    # a block listed twice is activated once, so a full set reads as full
    s = ControlSchedule(2, [(1, 0, 1), (0, 1, 1)], [(0, 0), (0,)], M=1, D=0)
    assert s.I_seq == [(0, 1), (0, 1)] and s.K_seq == [(0,), (0,)]
    assert validate(s, 2, 1).certified


@pytest.mark.parametrize("seq", [[(0, 1), (), (), (3, 1)], [(0, 1), (1, 1)], [[1, 0], (0,)],
                                 [(0, np.int64(2)), (2, 1)], [(0,), (2, 0), (1,)]],
                         ids=["after-empty-sets", "repeat", "list", "numpy-int", "unsorted"])
def test_sets_that_are_not_sorted_tuples_of_ints_are_rebuilt(seq):
    s = ControlSchedule(len(seq), seq, [(0,)] * len(seq))
    assert s.I_seq == [tuple(sorted(set(map(int, t)))) for t in seq]
    assert all(type(t) is tuple and all(type(i) is int for i in t) for t in s.I_seq)


def test_validate_empty_block_set():
    I_seq = [(0,)] * 5 + [()] + [(0,)] * 2
    s = ControlSchedule(8, I_seq, [(0,)] * 8, M=1, D=0)
    cert = validate(s, 1, 1)
    assert not cert.certified and cert.at == 5 and "empty" in cert.reason


def test_validate_lag_exceeds_bound():
    s = ControlSchedule(10, [(0, 1)] * 10, [(0,)] * 10,
                        c={(1, 7): 2}, M=1, D=4)
    cert = validate(s, 2, 1)
    assert not cert.certified and cert.at == 7 and "lag exceeds D" in cert.reason


def test_validate_requires_full_start():
    s = ControlSchedule(3, [(0,), (0, 1), (0, 1)], [(0,)] * 3, M=2, D=0)
    cert = validate(s, 2, 1)
    assert not cert.certified and cert.at == 0


def test_validate_coverage_window():
    # block 1 never activated after iteration 0
    s = ControlSchedule(6, [(0, 1)] + [(0,)] * 5, [(0,)] * 6, M=2, D=0)
    cert = validate(s, 2, 1)
    assert not cert.certified and "misses primal" in cert.reason


def test_periodic_full_group_is_synchronous():
    s = periodic(3, 2, group_size=3, horizon=8)
    assert s.M == 1
    assert all(I == (0, 1, 2) for I in s.I_seq)
    assert validate(s, 3, 2).certified


def test_periodic_half_groups():
    s = periodic(4, 1, group_size=2, horizon=12)
    assert s.M == 2
    assert validate(s, 4, 1).certified


def test_periodic_sawtooth_lags():
    s = periodic(2, 2, group_size=1, horizon=16, lag_pattern=("sawtooth", 3))
    assert s.D == 3
    assert validate(s, 2, 2).certified
    lags = [n - s.lag_primal(i, n) for n in range(16) for i in s.I_seq[n]]
    assert max(lags) == 3


_PATTERN_LAGS = {"constant": lambda n, d: max(0, n - d), "sawtooth": lambda n, D: n - n % (D + 1)}


@pytest.mark.parametrize("m, p, group_size, horizon", [(1, 1, 1, 5), (3, 2, 1, 12), (5, 4, 2, 20),
                                                       (4, 7, 3, 25), (6, 6, 6, 10), (2, 9, 4, 17)])
@pytest.mark.parametrize("pattern", [("zero",), ("constant", 0), ("constant", 3), ("sawtooth", 0),
                                     ("sawtooth", 2)], ids=str)
def test_periodic_matches_its_closed_forms(m, p, group_size, horizon, pattern):
    s = periodic(m, p, group_size, horizon, pattern)
    for seq, count in ((s.I_seq, m), (s.K_seq, p)):
        gs = min(group_size, count)
        assert seq == [tuple(range(count))] + [
            tuple(sorted(((n - 1) * gs + j) % count for j in range(gs))) for n in range(1, horizon)]
    assert s.M == max(-(-m // min(group_size, m)), -(-p // min(group_size, p)))
    assert (s.horizon, s.D) == (horizon, 0 if pattern == ("zero",) else pattern[1])
    for table, seq in ((s.c, s.I_seq), (s.d, s.K_seq)):
        assert table == ({} if pattern == ("zero",) else
                         {(idx, n): _PATTERN_LAGS[pattern[0]](n, pattern[1])
                          for n in range(horizon) for idx in seq[n]})


# (generator, arguments, SHA-256 of its schedule_to_dict as sorted-key JSON)
_SCHEDULE_PINS = [
    (periodic, (3, 2, 1, 12, ("zero",)),
     "65987b4d080057bb1e3a34f233dd43f9c0638a6597545c99ccce5f2aa0de3d06"),
    (periodic, (5, 4, 2, 20, ("constant", 3)),
     "ec70c8a7cb0af88f42463063957632b4815df8049457c551728bfa35b9ed1019"),
    (periodic, (6, 6, 6, 10, ("constant", 0)),
     "f2e6f093813e0599144a47f3903284fdb859e12b8581c5f74101893c59f533ad"),
    (periodic, (4, 7, 3, 25, ("sawtooth", 2)),
     "abb220e362474d355ed3d7c2f9b2a62daf100a829b61d395b38c1ac19ba59432"),
    (periodic, (7, 3, 2, 30, ("sawtooth", 0)),
     "4ea33e2b77f32d445b88767aaa31473dbadc4f973f66d155d3fe6bf0c8e907a0"),
    (periodic, (50, 50, 1, 200, ("sawtooth", 3)),
     "02b22f96508feb7cee19daaf755918257fe5638714c2331611421aadaee582b0"),
    (random_admissible, (3, 2, 3, 4, 64, 11),
     "6a12f2a415d969f50f45cbd50aaa62f5d3ed7cb1d07578c2864d07973084716e"),
    (random_admissible, (5, 7, 2, 0, 40, 3),
     "7eac07a953200d0157659d63705f9ac6ef6b416de6b48832b53269a8398dfcb5"),
    (random_admissible, (1, 4, 1, 2, 16, 0),
     "6fbb4a5ac2ce6b27a8715fa8e8fcdf615ba79117f1c117b18f1113bf4c9a756f"),
    (random_admissible, (50, 50, 4, 3, 200, 1),
     "97db74165b03bc06652eb8b04fb3da9dd663d42ecec8e184f8b48fcb12ad9a49"),
]


@pytest.mark.parametrize("make, args, digest", _SCHEDULE_PINS,
                         ids=[f"{make.__name__}{args}" for make, args, _ in _SCHEDULE_PINS])
def test_generated_schedules_keep_their_bits(make, args, digest):
    blob = json.dumps(fileio.schedule_to_dict(make(*args)), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: periodic(2, 2, 1.5, 10), "group_size must be an integer, got 1.5",
                 id="periodic-float"),  # was a bare TypeError
    pytest.param(lambda: periodic(2, 2, 1, True), "horizon must be an integer, got True",
                 id="periodic-bool"),
    pytest.param(lambda: random_admissible(2, 2, 2.5, 1, 10, 0), "M must be an integer, got 2.5",
                 id="random-float"),  # was an AssertionError that blamed the generator
    pytest.param(lambda: random_admissible(2, 2, 2, False, 10, 0),
                 "D must be an integer, got False", id="random-bool"),
])
def test_generators_name_a_count_that_is_not_an_integer(make, message):
    with pytest.raises(ps.ConfigError, match=f"^{message}$"):
        make()


def test_random_admissible_deterministic():
    a = random_admissible(3, 2, M=3, D=4, horizon=64, seed=11)
    b = random_admissible(3, 2, M=3, D=4, horizon=64, seed=11)
    assert a.I_seq == b.I_seq and a.K_seq == b.K_seq and a.c == b.c and a.d == b.d


def test_random_admissible_m1_always_full():
    s = random_admissible(3, 2, M=1, D=2, horizon=32, seed=5)
    assert all(I == (0, 1, 2) for I in s.I_seq)
    assert all(K == (0, 1) for K in s.K_seq)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_random_admissible_always_certified(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    M = int(rng.integers(1, 5))
    D = int(rng.integers(0, 6))
    s = random_admissible(m, p, M, D, horizon=40, seed=seed)
    assert validate(s, m, p).certified


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_periodic_always_certified(seed):
    # the generators do not certify their own output: their consumers do, and these tests
    rng = np.random.default_rng(seed)
    m, p = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    group_size, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 40))
    pattern = [("zero",), ("constant", int(rng.integers(0, 5))),
               ("sawtooth", int(rng.integers(0, 5)))][int(rng.integers(3))]
    s = periodic(m, p, group_size, horizon, pattern)
    assert validate(s, m, p).certified


def test_zero_lag_is_identity():
    s = random_admissible(2, 2, M=2, D=0, horizon=32, seed=3)
    for n in range(32):
        for i in s.I_seq[n]:
            assert s.lag_primal(i, n) == n
        for k in s.K_seq[n]:
            assert s.lag_dual(k, n) == n


def test_schedules_without_lag_tables_read_iterate_n():
    for s in (synchronous(3, 2), periodic(3, 2, 1, horizon=5)):
        assert not s.c and not s.d
        for n in range(12):  # within and beyond the horizon
            assert [s.lag_primal(i, n) for i in s.blocks_at(n)[0]] == [n] * len(s.blocks_at(n)[0])
            assert [s.lag_dual(k, n) for k in s.blocks_at(n)[1]] == [n] * len(s.blocks_at(n)[1])


def test_tail_extension_preserves_certification():
    s = random_admissible(3, 3, M=3, D=4, horizon=20, seed=9)
    # coverage over windows straddling and beyond the horizon
    for n in range(10, 80):
        got_I, got_K = set(), set()
        for j in range(n, n + s.M):
            I_j, K_j = s.blocks_at(j)
            got_I.update(I_j)
            got_K.update(K_j)
        assert got_I == {0, 1, 2} and got_K == {0, 1, 2}
    for n in range(20, 80):
        I_n, K_n = s.blocks_at(n)
        for i in I_n:
            c = s.lag_primal(i, n)
            assert max(0, n - s.D) <= c <= n
        for k in K_n:
            d = s.lag_dual(k, n)
            assert max(0, n - s.D) <= d <= n


def test_synchronous_helper():
    s = synchronous(2, 3)
    assert validate(s, 2, 3).certified
    assert s.blocks_at(100) == ((0, 1), (0, 1, 2))
    assert s.lag_primal(0, 57) == 57


@pytest.mark.parametrize("pattern", [("constant",), ("sawtooth", 1, 2), ("linear", 1), (),
                                     "zero", None])
def test_periodic_rejects_a_malformed_lag_pattern(pattern):
    with pytest.raises(ps.ConfigError,
                       match=rf"^unknown or malformed lag pattern {re.escape(repr(pattern))}$"):
        periodic(2, 2, group_size=1, horizon=8, lag_pattern=pattern)


def _validate_by_windows(s, m, p):
    """The window-by-window certification check, kept as the reference for `validate`."""
    from pdsplit.schedule import CertResult
    if s.M < 1:
        return CertResult(False, f"M must be >= 1, got {s.M}")
    if s.D < 0:
        return CertResult(False, f"D must be >= 0, got {s.D}")
    if s.horizon < 1:
        return CertResult(False, f"horizon must be >= 1, got {s.horizon}")
    if len(s.I_seq) != s.horizon or len(s.K_seq) != s.horizon:
        return CertResult(False, "activation sequences do not match the horizon")
    for n, (I_n, K_n) in enumerate(zip(s.I_seq, s.K_seq)):
        if not I_n or not K_n:
            return CertResult(False, "empty block set", n)
        if any(i < 0 or i >= m for i in I_n):
            return CertResult(False, f"primal index out of range in {I_n}", n)
        if any(k < 0 or k >= p for k in K_n):
            return CertResult(False, f"dual index out of range in {K_n}", n)
    if s.I_seq[0] != tuple(range(m)) or s.K_seq[0] != tuple(range(p)):
        return CertResult(False, "iteration 0 must activate every block", 0)
    for n in range(s.horizon - s.M + 1):
        got_I: set[int] = set()
        got_K: set[int] = set()
        for j in range(n, n + s.M):
            got_I.update(s.I_seq[j])
            got_K.update(s.K_seq[j])
        if len(got_I) != m:
            return CertResult(False, f"window of {s.M} misses primal blocks", n)
        if len(got_K) != p:
            return CertResult(False, f"window of {s.M} misses dual blocks", n)
    for table, count, side in ((s.c, m, "primal"), (s.d, p, "dual")):
        for (idx, n), val in table.items():
            if not (0 <= idx < count) or not (0 <= n < s.horizon):
                return CertResult(False, f"{side} lag entry ({idx},{n}) out of range", n)
            if val > n:
                return CertResult(False, "lag points into the future", n)
            if val < max(0, n - s.D):
                return CertResult(False, "lag exceeds D", n)
    return CertResult(True)


def _generated_schedules(seed):
    rng = np.random.default_rng(seed)
    m, p = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    horizon = int(rng.integers(1, 40))
    yield random_admissible(m, p, M=int(rng.integers(1, 6)), D=int(rng.integers(0, 4)),
                            horizon=horizon, seed=seed), m, p
    yield periodic(m, p, group_size=int(rng.integers(1, 4)), horizon=horizon,
                   lag_pattern=("sawtooth", int(rng.integers(0, 3)))), m, p


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_validate_matches_window_check_on_generated_schedules(seed):
    for s, m, p in _generated_schedules(seed):
        assert validate(s, m, p) == _validate_by_windows(s, m, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_validate_matches_window_check_on_broken_schedules(seed):
    rng = np.random.default_rng(seed)
    for s, m, p in _generated_schedules(seed):
        # drop blocks from a few iterations after 0, and sometimes tighten M
        for seq in (s.I_seq, s.K_seq):
            for n in rng.integers(1, s.horizon, size=min(3, s.horizon - 1)):
                if len(seq[n]) > 1:
                    seq[n] = tuple(np.delete(seq[n], rng.integers(len(seq[n]))).tolist())
        if rng.random() < 0.5:
            s.M = max(1, s.M - int(rng.integers(0, 3)))
        assert validate(s, m, p) == _validate_by_windows(s, m, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_validate_matches_window_check_on_malformed_lag_tables(seed):
    # 1-3 entries of a generated schedule's tables move to random places in the insertion
    # order with a bad block, iteration or read: the first bad one in that order is reported
    rng = np.random.default_rng(seed)
    for s, m, p in _generated_schedules(seed):
        tables = {"c": list(s.c.items()), "d": list(s.d.items())}
        for _ in range(int(rng.integers(1, 4))):
            name = str(rng.choice([key for key, entries in tables.items() if entries]))
            entries, count, k = tables[name], (m if name == "c" else p), int(rng.integers(3))
            (idx, n), val = entries.pop(int(rng.integers(len(entries))))
            key, val = [((count + k, n), val),            # block out of range
                        ((idx, s.horizon + k), val),      # iteration past the horizon
                        ((idx, n), n + 1 + k),            # a read above n
                        ((idx, n), n - s.D - 1 - k)][int(rng.integers(4))]  # below n - D
            entries.insert(int(rng.integers(len(entries) + 1)), (key, val))
        bad = ControlSchedule(s.horizon, s.I_seq, s.K_seq, dict(tables["c"]), dict(tables["d"]),
                              M=s.M, D=s.D)
        cert = validate(bad, m, p)
        assert not cert.certified and cert == _validate_by_windows(bad, m, p)


def test_a_lag_table_reads_its_default_off_the_grid():
    table = periodic(2, 3, 1, horizon=4, lag_pattern=("constant", 1)).d  # a 4 x 3 grid
    assert table.get((1, 2), "none") == 1
    for key in ((0, 3), (3, 0), (0, 4), (-1, 2), (1, -1), (5, 9)):  # no entry, then off the grid
        assert table.get(key, "none") == "none"


def test_a_lag_table_follows_a_new_horizon_and_new_sets():
    # a generated table given to a longer schedule, and a shorter copy of a generated schedule
    short, long = (periodic(2, 2, 1, horizon, ("constant", 1)) for horizon in (3, 5))
    grown = ControlSchedule(5, [(0, 1)] * 5, [(0, 1)] * 5, c=short.c, M=1, D=1)
    cut = replace(long, horizon=3, I_seq=long.I_seq[:3], K_seq=long.K_seq[:3])
    assert validate(grown, 2, 2) == _validate_by_windows(grown, 2, 2) == CertResult(True)
    assert [grown.lag_primal(1, n) for n in range(7)] == [0, 1, 1, 3, 4, 5, 6]
    assert validate(cut, 2, 2) == _validate_by_windows(cut, 2, 2) == CertResult(
        False, "primal lag entry (0,3) out of range", 3)
    # sets that gain a block after the table was built: the entries still decide every read
    for c in ({(0, 2): 1}, {(1, 2): 1}):
        s = ControlSchedule(4, [(0,)] * 4, [(0,)] * 4, c=c, M=1, D=1)
        for n in range(4):
            s.I_seq[n] = (0, 1)
        assert validate(s, 2, 1) == _validate_by_windows(s, 2, 1) == CertResult(True)
        assert [[s.lag_primal(i, n) for n in range(6)] for i in (0, 1)] == [
            [c.get((i, n), n) if n < 4 else n for n in range(6)] for i in (0, 1)]


def _lags(s, horizons=3):
    """Every activated block's primal and dual reads over horizons * horizon iterations."""
    return [([s.lag_primal(i, n) for i in I_n], [s.lag_dual(k, n) for k in K_n])
            for n in range(horizons * s.horizon) for I_n, K_n in [s.blocks_at(n)]]


def test_dict_tables_assigned_to_a_generated_schedule_are_read():
    # assigning a dict to s.c raised AttributeError in validate and in every lookup
    problem = random_blocksparse_problem(4, blocks=2, dim=2)
    cfg = ps.SolverConfig(max_iter=20, resid_tol=0.0, exact_tol=-1.0)
    for c, d, cert in [({(1, 2): 1, (0, 3): 3}, {(1, 2): 2, (0, 5): 4}, CertResult(True)),
                       ({(1, 2): 0}, {}, CertResult(False, "lag exceeds D", 2))]:
        s = periodic(2, 2, 1, 6, ("constant", 1))
        s.c, s.d = c, d
        built = ControlSchedule(6, s.I_seq, s.K_seq, c, d, M=s.M, D=s.D)
        assert validate(s, 2, 2) == validate(built, 2, 2) == cert
        assert _lags(s) == _lags(built)
        if cert.certified:
            assigned, given = ps.run(problem, cfg, s), ps.run(problem, cfg, built)
            assert assigned.trace == given.trace
            assert np.array_equal(assigned.final.data, given.final.data)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_dict_copies_of_generated_tables_behave_the_same(seed):
    # a generated table read from its array and its dict copy read entry by entry must agree on
    # lookups, buffer depth, file bytes and certification: under every D up to the schedule's,
    # and on the broken variants that test_validate_matches_window_check_on_broken_schedules makes
    rng = np.random.default_rng(seed)
    for s, m, p in _generated_schedules(seed):
        copy = replace(s, c=dict(s.c), d=dict(s.d))
        assert not isinstance(copy.c, LagTable) and not isinstance(copy.d, LagTable)
        assert _lags(s) == _lags(copy) and read_depth(s) == read_depth(copy)
        assert json.dumps(fileio.schedule_to_dict(s), indent=1) == json.dumps(
            fileio.schedule_to_dict(copy), indent=1)
        for D in range(s.D + 1):
            assert validate(replace(s, D=D), m, p) == validate(replace(copy, D=D), m, p) == \
                _validate_by_windows(replace(copy, D=D), m, p)
        for seq in (s.I_seq, s.K_seq):
            for n in rng.integers(1, s.horizon, size=min(3, s.horizon - 1)):
                if len(seq[n]) > 1:
                    seq[n] = tuple(np.delete(seq[n], rng.integers(len(seq[n]))).tolist())
        if rng.random() < 0.5:
            s.M = max(1, s.M - int(rng.integers(0, 3)))
        copy = replace(s, c=dict(s.c), d=dict(s.d))
        assert validate(s, m, p) == validate(copy, m, p) == _validate_by_windows(s, m, p)


def test_validate_reports_the_first_window_and_primal_first():
    # primal block 1 idle over n = 1..4, dual block 1 idle over n = 2..5 (M = 3)
    I_seq = [(0, 1), (0,), (0,), (0,), (0,), (0, 1), (0, 1)]
    K_seq = [(0, 1), (0, 1), (0,), (0,), (0,), (0,), (0, 1)]
    s = ControlSchedule(7, I_seq, K_seq, M=3, D=0)
    cert = validate(s, 2, 2)
    assert cert == _validate_by_windows(s, 2, 2)
    assert (cert.reason, cert.at) == ("window of 3 misses primal blocks", 1)
    s.K_seq[1] = (0,)  # now both sides first miss at n = 1: primal is reported
    assert validate(s, 2, 2) == _validate_by_windows(s, 2, 2)
    s.I_seq[1] = (0, 1)  # only the dual side misses from n = 1
    cert = validate(s, 2, 2)
    assert cert == _validate_by_windows(s, 2, 2)
    assert (cert.reason, cert.at) == ("window of 3 misses dual blocks", 1)


def traced_peak(call):
    """call()'s result and the peak of the allocations it traced, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BIG = 10**7  # a block count whose coverage table or tuple(range(...)) takes hundreds of MB


@pytest.mark.parametrize("I_seq, K_seq, m, p, reason, at", [
    pytest.param([(0,)] * 3, [(0,)] * 3, BIG, 1, "iteration 0 must activate every block", 0,
                 id="primal-iteration-0"),
    pytest.param([(0,)] * 3, [(0,)] * 3, 1, BIG, "iteration 0 must activate every block", 0,
                 id="dual-iteration-0"),
    pytest.param([(0,), (0,), ()], [(0,)] * 3, BIG, 1, "empty block set", 2, id="empty-set"),
    pytest.param([(0,), (BIG,), (0,)], [(0,)] * 3, BIG, 1,
                 f"primal index out of range in ({BIG},)", 1, id="index-out-of-range"),
])
def test_validate_sizes_its_tables_by_the_sets_it_is_given(I_seq, K_seq, m, p, reason, at):
    # a 3-iteration schedule for 10**7 blocks took 1.1 s and 412 MB to be told that iteration 0
    # misses blocks; empty and out-of-range sets are still reported before iteration 0
    s = ControlSchedule(3, I_seq, K_seq, M=1)
    cert, peak = traced_peak(lambda: validate(s, m, p))
    assert cert == CertResult(False, reason, at) and peak < 1e6
    small = (min(m, 2), min(p, 2))
    assert validate(s, *small) == _validate_by_windows(s, *small)


def test_validate_memory_follows_the_sets_not_the_horizon_times_the_blocks():
    # 20,000 blocks over 2,000 iterations, about 42,000 set entries: a coverage table of the
    # horizon by the blocks took a 160 MB peak to certify it
    every = tuple(range(20000))
    s = ControlSchedule(2000, [every, every] + [(0,)] * 1998, [(0,)] * 2000, M=1999, D=0)
    cert, peak = traced_peak(lambda: validate(s, 20000, 1))
    assert cert == CertResult(True) and peak < 20e6
    s.I_seq[1] = (0,)  # block 1 is idle from n = 1 to the horizon, a window of 1999
    assert validate(s, 20000, 1) == CertResult(False, "window of 1999 misses primal blocks", 1)


@pytest.mark.parametrize("horizon", [126, 127, 128, 254, 32766, 32767])
def test_validate_one_block_per_side_at_horizons_near_a_power_of_two(horizon):
    # one block over the horizon gives keys up to horizon + 1, past int8 at 126 and int16 at 32766
    s = ControlSchedule(horizon, [(0,)] * horizon, [(0,)] * horizon, M=1)
    assert validate(s, 1, 1) == _validate_by_windows(s, 1, 1) == CertResult(True)
    # two primal blocks, block 1 idle at horizon - 3 and horizon - 2: a window of 2 misses it
    s = replace(s, M=2, I_seq=[(0, 1)] * (horizon - 3) + [(0,)] * 2 + [(0, 1)])
    assert validate(s, 2, 1) == _validate_by_windows(s, 2, 1) \
        == CertResult(False, "window of 2 misses primal blocks", horizon - 3)


def test_validate_schedule_of_a_huge_block_count_is_a_violation(tmp_path, capsys):
    fileio.write_schedule(ControlSchedule(3, [(0,)] * 3, [(0,)] * 3, M=1), tmp_path / "s.json")
    code, peak = traced_peak(lambda: main(["validate-schedule", "--schedule",
                                           str(tmp_path / "s.json"), "--m", str(BIG), "--p", "1"]))
    assert code == 3 and peak < 1e6
    assert capsys.readouterr().out == "violation: iteration 0 must activate every block at n=0\n"


@pytest.mark.parametrize("fields, reason, at", [
    pytest.param(dict(M=0), "M must be >= 1, got 0", None, id="M-below-one"),
    pytest.param(dict(I_seq=[(0, 1)] * 3), "activation sequences do not match the horizon", None,
                 id="short-I_seq"),
    pytest.param(dict(K_seq=[(0,)] * 5), "activation sequences do not match the horizon", None,
                 id="long-K_seq"),
    pytest.param(dict(c={(2, 1): 1}), "primal lag entry (2,1) out of range", 1,
                 id="lag-block-out-of-range"),
    pytest.param(dict(d={(0, 4): 4}), "dual lag entry (0,4) out of range", 4,
                 id="lag-past-the-horizon"),
    pytest.param(dict(c={(1, 2): 3}, D=1), "lag points into the future", 2,
                 id="lag-reads-a-later-iterate"),
])
def test_validate_rejects_malformed_schedules_in_python_and_from_a_file(tmp_path, capsys, fields,
                                                                        reason, at):
    s = ControlSchedule(**{**dict(horizon=4, I_seq=[(0, 1)] * 4, K_seq=[(0,)] * 4), **fields})
    assert validate(s, 2, 1) == _validate_by_windows(s, 2, 1) == CertResult(False, reason, at)
    fileio.write_schedule(s, tmp_path / "s.json")
    code = main(["validate-schedule", "--schedule", str(tmp_path / "s.json"), "--m", "2",
                 "--p", "1"])
    where = "" if at is None else f" at n={at}"
    assert code == 3 and capsys.readouterr().out == f"violation: {reason}{where}\n"


@pytest.mark.parametrize("fields, reason", [
    pytest.param(dict(M=1.5), "M must be an integer, got 1.5", id="fractional-M"),
    pytest.param(dict(D=True), "D must be an integer, got True", id="boolean-D"),
    pytest.param(dict(horizon="2"), "horizon must be an integer, got '2'", id="string-horizon"),
    pytest.param(dict(c={(0, 1): 0.5}, D=1), "primal lag entry (0,1): 0.5 not an integer",
                 id="fractional-lag"),
    pytest.param(dict(d={(0, 1.0): 0}, D=1), "dual lag entry (0,1.0): 0 not an integer",
                 id="fractional-lag-iteration"),
])
def test_python_built_counts_and_lags_follow_the_integer_rule(fields, reason):
    # each was certified, and run then raised "TypeError: list indices must be integers"
    s = ControlSchedule(**{**dict(horizon=2, I_seq=[(0,), (0,)], K_seq=[(0,), (0,)]), **fields})
    assert validate(s, 1, 1) == CertResult(False, reason)
    problem = ps.ProblemSpec(ps.SpaceSignature((1,), (1,)), [ps.zero(1)], [ps.zero(1)],
                             ps.CouplingMap(ps.SpaceSignature((1,), (1,)), {(0, 0): [[1.0]]}),
                             ps.BlockVector([[0.0]]), ps.BlockVector([[0.0]]))
    with pytest.raises(ps.ConfigError, match=f"^schedule not certified: {re.escape(reason)}"):
        ps.run(problem, ps.SolverConfig(max_iter=3), s)


@pytest.mark.parametrize("side", ["I_seq", "K_seq"])
@pytest.mark.parametrize("bad", [0.7, True, "0"], ids=["fraction", "boolean", "string"])
def test_activation_indices_follow_the_integer_rule(side, bad):
    # 0.7 was truncated to block 0, True read as block 1 and "0" as block 0
    seqs = dict(I_seq=[(0,), (0,)], K_seq=[(0,), (0,)])
    seqs[side] = [(0,), (0, bad)]
    with pytest.raises(ps.ConfigError, match=rf"^{side}\[1\] entry must be an integer, "
                                             rf"got {re.escape(repr(bad))}$"):
        ControlSchedule(2, **seqs)
    s = ControlSchedule(2, [(np.int64(0),), (np.int32(0),)], [(0,), (np.uint8(0),)])
    assert s.I_seq == s.K_seq == [(0,), (0,)]
    assert all(type(i) is int for seq in (s.I_seq, s.K_seq) for t in seq for i in t)
