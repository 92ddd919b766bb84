#!/usr/bin/env python3
"""Time and memory of building and certifying one large random schedule.

Usage: PYTHONPATH=src python scripts/schedule_scale.py

Builds random_admissible(200, 200, M=10, D=5, horizon=4000, seed=1), which
certifies itself, and certifies it once more with validate, as a caller
would.  Prints the wall time of both steps (measured without tracing) and
their peak traced allocation (tracemalloc, in a second run).  Exits 1 if the
schedule is not certified or the peak reaches MAX_PEAK_MB.  The time is
printed but not checked, since it depends on the machine.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from pdsplit.schedule import random_admissible, validate

ARGS = (200, 200, 10, 5, 4000, 1)  # m, p, M, D, horizon, seed
MAX_PEAK_MB = 20.0


def build_and_certify() -> bool:
    m, p = ARGS[:2]
    return validate(random_admissible(*ARGS), m, p).certified


def main() -> int:
    start = time.perf_counter()
    certified = build_and_certify()
    seconds = time.perf_counter() - start
    tracemalloc.start()
    build_and_certify()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    print(f"random_admissible{ARGS} + validate: certified={certified}, {seconds:.3f} s, "
          f"peak {peak_mb:.1f} MB (limit {MAX_PEAK_MB:g} MB)")
    return 0 if certified and peak_mb < MAX_PEAK_MB else 1


if __name__ == "__main__":
    sys.exit(main())
