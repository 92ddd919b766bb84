"""Timing loop of one benchmark run: repeated set-up, repeated checked solves.

Import only after the BLAS thread variables are set and ./src is on the
path (run.py does both).
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

MIN_SOLVES = 5          # per kind of solve, even past the time budget
SETUP_SHARE = 0.1       # share of the time budget spent repeating set-up

END_TO_END_UNITS = {"solve_s": "s", "us_per_iter": "us", "iters": "count",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def environment(blas_thread_vars) -> dict:
    """Interpreter, numpy/BLAS and CPU facts recorded with every result."""
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": {v: os.environ.get(v) for v in blas_thread_vars}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    env["cpu_model"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    env["caches"] = caches
    return env


def timing_summary(samples: list) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    if n > 10:
        out["tail_pct"] = int(100 * (n - 10) / n)
        out["tail"] = ordered[n - 11]
    return out


class Tally:
    """Attempted and failed solves, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(wl: workloads.Workload, inputs, workdir: Path, seconds: float,
            traced: bool) -> dict:
    """Set up and solve repeatedly within the time budget; return metrics and detail.

    Untraced, the metrics are the end-to-end ones.  Traced, untraced and
    traced solves alternate and the metrics are the per-layer ones.
    """
    clock = time.perf_counter
    tally = Tally()
    empty = {"tally": tally, "metrics": {}, "timings": {}, "detail": {}}
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    t_begin = clock()
    deadline = t_begin + seconds
    hard_stop = t_begin + 2 * seconds + 10  # the minimum counts give way here
    setup_times, setup_layers = [], []
    setup_total = [0.0]
    plain, plain_iters, traced_times, layer_rows = [], [], [], []
    references = []

    def set_up():
        with setup_tracer.recording() if traced else contextlib.nullcontext():
            t0 = clock()
            prepared = wl.setup(inputs)
            setup_times.append(clock() - t0)
        setup_total[0] += setup_times[-1]
        if traced:
            setup_layers.append(tracing.setup_metrics(setup_tracer))
        return prepared

    try:
        prep = set_up()
    except Exception:  # every failure is counted, none ends the run unreported
        tally.attempted += 1
        tally.fail(f"set-up raised:\n{traceback.format_exc()}")
        return empty
    while clock() < deadline or (
            clock() < hard_stop
            and (len(plain) < MIN_SOLVES or (traced and len(traced_times) < MIN_SOLVES))):
        use_tracer = traced and len(traced_times) < len(plain)
        tally.attempted += 1
        try:
            with tracer.recording() if use_tracer else contextlib.nullcontext():
                t0 = clock()
                out = wl.solve(prep, workdir)
                dt = clock() - t0
            errors = workloads.check(wl, prep, out)
            if not use_tracer and len(references) < 2:
                references.append(workloads.trace_bytes(prep, out, workdir))
                if len(references) == 2 and references[0] != references[1]:
                    errors.append("two solves of the same inputs wrote different trace CSVs")
            # set-up samples are spread over the whole run, a fixed share of its time
            prep = set_up()
            while setup_total[0] < SETUP_SHARE * (clock() - t_begin):
                prep = set_up()
        except Exception:
            tally.fail(f"solve or set-up raised:\n{traceback.format_exc()}")
            continue
        if errors:
            tally.fail("; ".join(errors))
        elif use_tracer:
            traced_times.append(dt)
            row = tracing.solve_metrics(tracer, out.iters)
            # only a trace the solve wrote itself is the program's output
            row["fileio.trace_bytes"] = (
                0.0 if out.trace_path is None else float(out.trace_path.stat().st_size))
            row["trace.layer_sum_ratio"] = tracing.layer_sum_s(row, out.iters) / dt
            layer_rows.append(row)
        else:
            plain.append(dt)
            plain_iters.append(out.iters)

    if not plain or (traced and not traced_times):
        return empty
    timings = {"solve_s": timing_summary(plain), "setup_s": timing_summary(setup_times)}
    solve_s = timings["solve_s"]["median"]
    iters = statistics.median(plain_iters)
    detail = {"iters_all": sorted(set(plain_iters))}
    if not traced:
        values = {"solve_s": solve_s, "us_per_iter": 1e6 * solve_s / iters, "iters": iters,
                  "setup_s": timings["setup_s"]["median"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        return {"tally": tally, "metrics": metrics, "timings": timings, "detail": detail}

    timings["traced_solve_s"] = timing_summary(traced_times)
    values = {}
    for rows in (layer_rows, setup_layers):
        for name in {k for row in rows for k in row}:
            values[name] = statistics.median(row[name] for row in rows if name in row)
    values["trace.overhead_ratio"] = timings["traced_solve_s"]["median"] / solve_s
    metrics = {name: _metric(values[name], unit)
               for name, unit in tracing.PER_LAYER.items() if name in values}
    detail.update({
        "missing_names": tracer.missing + sorted(tracer.unmeasured),
        "self_us_per_iter_by_span": {
            name: 1e6 * s / iters for name, s in tracer.self_times()[0].items()},
    })
    return {"tally": tally, "metrics": metrics, "timings": timings, "detail": detail,
            "spans": tracer.spans()}
