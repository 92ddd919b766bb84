import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsplit as ps
from pdsplit.schedule import (ControlSchedule, LagBuffer, periodic, random_admissible,
                              synchronous, validate)

from conftest import point


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


def test_lag_buffer_window():
    p0 = point([[0.0]], [[0.0]])
    buf = LagBuffer(3, p0)  # keeps last 4 iterates
    pts = [p0]
    for n in range(1, 10):
        pt = point([[float(n)]], [[0.0]])
        buf.push(n, pt)
        pts.append(pt)
    for j in range(10):
        if 6 <= j <= 9:
            assert buf.get(j) is pts[j]
        else:
            with pytest.raises(LookupError):
                buf.get(j)
    with pytest.raises(LookupError):
        buf.get(10)


def test_lag_buffer_push_order():
    buf = LagBuffer(2, point([[0.0]], [[0.0]]))
    with pytest.raises(ps.ConfigError):
        buf.push(5, point([[1.0]], [[0.0]]))


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
