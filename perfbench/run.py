#!/usr/bin/env python3
"""pdsplit benchmark: one workload per process, seeded inputs, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ./src, never from an installed copy.  With
--trace 0 the run measures the end-to-end metrics: set-up is repeated and
its median reported, then the solve is repeated until S seconds have
passed and its median reported.  With --trace 1 untraced and traced solves
alternate, and the per-layer metrics come from spans recorded around
pdsplit's functions (see tracer.py).  Every solve is checked; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Detailed results with the environment go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# Fixed before numpy loads, at one thread, so timings do not depend on the core count.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pdsplit" / "__init__.py").is_file():
        print(f"error: no pdsplit sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np
    import pdsplit
    import harness
    import workloads

    if not Path(pdsplit.__file__).resolve().is_relative_to(SRC):
        print(f"error: pdsplit imported from {pdsplit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(args.seed, workdir)
        result = harness.measure(wl, inputs, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result.pop("tally")
    spans = result.pop("spans", None)
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": harness.environment(BLAS_THREAD_VARS),
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_ratio": tally.failed / max(tally.attempted, 1),
              "failures": tally.messages, **result}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        np.savez(OUT_DIR / f"{wl.name}-spans.npz", **spans)

    for name, m in record["metrics"].items():
        aux = record["timings"].get(name)
        extra = "" if aux is None else (
            f"  (median of {aux['n']}"
            + ("" if aux["tail"] is None else f"; p{aux['tail_pct']} {aux['tail']:.6g}") + ")")
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"{wl.name} fail_ratio = {record['fail_ratio']:g} "
          f"({tally.failed} of {tally.attempted} solves failed)")
    print(json.dumps({k: record[k] for k in ("environment", "timings", "detail")}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
