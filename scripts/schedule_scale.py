#!/usr/bin/env python3
"""Time and memory of building and certifying one large random schedule.

Usage: PYTHONPATH=src python scripts/schedule_scale.py

Builds random_admissible(200, 200, M=10, D=5, horizon=4000, seed=1) and
certifies it with validate, as a caller would.  Then validates a 3-iteration
schedule that activates one block against 10**9 primal blocks, which must
fail at iteration 0 without a table sized by the block count.  Prints the
wall time of these steps (measured without tracing) and their peak traced
allocation (tracemalloc, in a second run).  Then reads both lag tables of a
new copy of the large schedule as mappings (dict(s.c) and dict(s.d), each
dropped at once) and prints the traced memory they leave behind.  Then
writes the large schedule with write_schedule, parses the file back (its lag
tables are then dicts) and writes that again, prints the first write's time,
and validates the generated and the parsed schedule, printing both times.
Exits 1 if a schedule that should be certified is not, the small one is not
rejected at iteration 0, the peak reaches MAX_PEAK_MB, the mapping reads
leave more than MAX_KEPT_MB, or the second file differs from the first.  The
times are printed but not checked, since they depend on the machine.
"""

from __future__ import annotations

import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from pdsplit.fileio import parse_schedule, write_schedule
from pdsplit.schedule import CertResult, ControlSchedule, random_admissible, validate

ARGS = (200, 200, 10, 5, 4000, 1)  # m, p, M, D, horizon, seed
HUGE_M = 10**9
MAX_PEAK_MB = 20.0
MAX_KEPT_MB = 1.0


def build_and_certify() -> bool:
    m, p = ARGS[:2]
    small = ControlSchedule(3, [(0,)] * 3, [(0,)] * 3, M=1)
    return (validate(random_admissible(*ARGS), m, p).certified and validate(small, HUGE_M, 1)
            == CertResult(False, "iteration 0 must activate every block", 0))


def _timed(call, *args) -> tuple:
    """call(*args) and the seconds it took."""
    start = time.perf_counter()
    return call(*args), time.perf_counter() - start


def round_trip() -> tuple[bool, float, list]:
    """Whether the large schedule's file, parsed and written again, keeps its bytes, the seconds
    the first write took, and validate's (result, seconds) on the generated schedule and on
    the parsed one, whose lag tables are dicts."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        schedule = random_admissible(*ARGS)
        seconds = _timed(write_schedule, schedule, first)[1]
        parsed = parse_schedule(first)
        write_schedule(parsed, second)
        checks = [_timed(validate, s, *ARGS[:2]) for s in (schedule, parsed)]
        return first.read_bytes() == second.read_bytes(), seconds, checks


def mapping_reads_kept_mb() -> float:
    """The traced MB that reading both lag tables of the large schedule as mappings leaves
    behind, once the dicts read are dropped."""
    schedule = random_admissible(*ARGS)
    tracemalloc.start()
    list(zip(range(5000), range(5000)))  # fills the interpreter's free list of pairs first
    before = tracemalloc.get_traced_memory()[0]
    for table in (schedule.c, schedule.d):
        dict(table)
    kept_mb = (tracemalloc.get_traced_memory()[0] - before) / 1e6
    tracemalloc.stop()
    return kept_mb


def main() -> int:
    start = time.perf_counter()
    ok = build_and_certify()
    seconds = time.perf_counter() - start
    tracemalloc.start()
    build_and_certify()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    print(f"random_admissible{ARGS} + validate, and a 3-iteration schedule for m = {HUGE_M}: "
          f"as expected={ok}, {seconds:.3f} s, peak {peak_mb:.1f} MB "
          f"(limit {MAX_PEAK_MB:g} MB)")
    kept_mb = mapping_reads_kept_mb()
    print(f"dict(s.c) and dict(s.d), each dropped at once: {kept_mb:.2f} MB kept "
          f"(limit {MAX_KEPT_MB:g} MB)")
    same, write_s, checks = round_trip()
    print(f"write_schedule of it: {write_s:.3f} s; parsed and written again: "
          f"{'same bytes' if same else 'DIFFERENT bytes'}")
    (generated, generated_s), (parsed, parsed_s) = checks
    print(f"validate: generated {generated_s:.3f} s (certified={generated.certified}), "
          f"parsed back {parsed_s:.3f} s (certified={parsed.certified})")
    return 0 if ok and peak_mb < MAX_PEAK_MB and kept_mb <= MAX_KEPT_MB and same \
        and generated.certified and parsed.certified else 1


if __name__ == "__main__":
    sys.exit(main())
