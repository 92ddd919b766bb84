#!/usr/bin/env python3
"""Time and memory of building and certifying one large random schedule.

Usage: PYTHONPATH=src python scripts/schedule_scale.py

Builds random_admissible(200, 200, M=10, D=5, horizon=4000, seed=1) and
certifies it with validate, as a caller would.  Then validates a 3-iteration schedule that activates one block
against 10**9 primal blocks, which must fail at iteration 0 without a table
sized by the block count.  Prints the wall time of these steps (measured
without tracing) and their peak traced allocation (tracemalloc, in a second
run).  Then writes the large schedule with write_schedule, parses the file
back (its lag tables are then dicts) and writes that again, and prints the
first write's time.  Exits 1 if the schedule is not certified, the small one
is not rejected at iteration 0, the peak reaches MAX_PEAK_MB, or the second
file differs from the first.  The times are printed but not checked, since
they depend on the machine.
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


def build_and_certify() -> bool:
    m, p = ARGS[:2]
    small = ControlSchedule(3, [(0,)] * 3, [(0,)] * 3, M=1)
    return (validate(random_admissible(*ARGS), m, p).certified and validate(small, HUGE_M, 1)
            == CertResult(False, "iteration 0 must activate every block", 0))


def round_trip() -> tuple[bool, float]:
    """Whether the large schedule's file, parsed and written again, keeps its bytes, and the
    seconds the first write took."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        schedule = random_admissible(*ARGS)
        start = time.perf_counter()
        write_schedule(schedule, first)
        seconds = time.perf_counter() - start
        write_schedule(parse_schedule(first), second)
        return first.read_bytes() == second.read_bytes(), seconds


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
    same, write_s = round_trip()
    print(f"write_schedule of it: {write_s:.3f} s; parsed and written again: "
          f"{'same bytes' if same else 'DIFFERENT bytes'}")
    return 0 if ok and peak_mb < MAX_PEAK_MB and same else 1


if __name__ == "__main__":
    sys.exit(main())
