"""Span tracer that times pdsplit's layers from outside the package.

Nothing in pdsplit is edited: while a recording is open, the functions and
methods listed in SPANS are replaced by wrappers at every place they are
looked up (the defining module *and* each module that imported the name),
and restored afterwards.  Each wrapped call records a span (name, start,
end, parent span) into flat in-memory arrays; a layer's self time is its
spans' durations minus the durations of their direct children.

A name that does not exist in the code being measured is skipped and
reported as missing, so the tracer survives refactors that merge or move
functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# span name -> places the callable is looked up from.  "module:attr" patches
# a module attribute, "module:Class.attr" a method.
SPANS = {
    "engine.run": ["pdsplit:run", "pdsplit.engine:run", "pdsplit.cli:run"],
    "engine.diagnostics": ["pdsplit.engine:iteration_record"],
    "engine.anchor": ["pdsplit.engine:haugazeau_update"],
    "blockspace.coupling": ["pdsplit.blockspace:forward_block", "pdsplit.engine:forward_block",
                            "pdsplit.separator:forward_block", "pdsplit.blockspace:adjoint_block",
                            "pdsplit.engine:adjoint_block", "pdsplit.separator:adjoint_block"],
    "operators.resolvent": ["pdsplit.operators:resolvent", "pdsplit.separator:resolvent"],
    "operators.graph_point": ["pdsplit.operators:graph_point_primal",
                              "pdsplit.operators:graph_point_dual",
                              "pdsplit.engine:graph_point_primal",
                              "pdsplit.engine:graph_point_dual"],
    "separator.build": ["pdsplit.separator:build_separator", "pdsplit.engine:build_separator"],
    "separator.project": ["pdsplit.separator:project_halfspace",
                          "pdsplit.separator:halfspace_violation",
                          "pdsplit.separator:detect_exact_solution",
                          "pdsplit.engine:project_halfspace",
                          "pdsplit.engine:halfspace_violation",
                          "pdsplit.engine:detect_exact_solution"],
    "separator.problem": ["pdsplit.separator:ProblemSpec.__post_init__"],
    "schedule.lookup": ["pdsplit.schedule:ControlSchedule.blocks_at",
                        "pdsplit.schedule:ControlSchedule.lag_primal",
                        "pdsplit.schedule:ControlSchedule.lag_dual",
                        "pdsplit.schedule:LagBuffer.get", "pdsplit.schedule:LagBuffer.push"],
    "schedule.generate": ["pdsplit:synchronous", "pdsplit:periodic",
                          "pdsplit.schedule:synchronous", "pdsplit.schedule:periodic",
                          "pdsplit.engine:synchronous"],
    "schedule.validate": ["pdsplit:validate", "pdsplit.schedule:validate",
                          "pdsplit.engine:validate"],
    "fileio.parse": ["pdsplit.fileio:parse_problem", "pdsplit.fileio:parse_config",
                     "pdsplit.fileio:parse_schedule"],
    "fileio.write_trace": ["pdsplit.fileio:write_trace"],
    "cli.main": ["pdsplit.cli:main"],
}

FLOPS = "blockspace.coupling.flops_per_iter"
ACTIVE = "schedule.active_blocks_per_iter"
STALENESS = "schedule.mean_staleness"

# Counted, not timed: a span per construction would cost more than the work.
COUNTERS = {"blockspace.vector_alloc": "pdsplit.blockspace:BlockVector.__init__"}


def _resolve(target: str):
    """(owner, attribute, current value) for a target, or None if it is absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in vars(owner):
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counts while a recording is open."""

    def __init__(self):
        self.span_names = list(SPANS)
        self._ids = {name: j for j, name in enumerate(self.span_names)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches = []
        self.missing = []
        self._clear()

    def _clear(self) -> None:
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack[:] = [-1]
        self.counts = {name: 0 for name in COUNTERS}
        self.flops = 0
        self.active = []      # (n, activated blocks) per schedule lookup
        self.staleness = []   # n minus read iteration, per activated read
        self._flop_tables = {}
        self.installed = set()
        self.unmeasured = set()  # observed metrics whose calls no longer fit

    # ---------------------------------------------------------------- patching
    def _observer(self, fn):
        """(metric, callback) counting from the arguments and result of some calls."""
        kind = getattr(fn, "__qualname__", "")
        if kind == "forward_block":      # (cmap, x, k)
            return FLOPS, lambda args, out: self._add_flops(args[0], 0, args[2])
        if kind == "adjoint_block":      # (cmap, y, i)
            return FLOPS, lambda args, out: self._add_flops(args[0], 1, args[2])
        if kind == "ControlSchedule.blocks_at":   # (self, n) -> (I_n, K_n)
            return ACTIVE, lambda args, out: self.active.append(
                (args[1], len(out[0]) + len(out[1])))
        if kind in ("ControlSchedule.lag_primal", "ControlSchedule.lag_dual"):  # (self, idx, n)
            return STALENESS, lambda args, out: self.staleness.append(args[2] - out)
        return None

    def _add_flops(self, cmap, side: int, idx: int) -> None:
        """2*rows*cols per coupling block the call applies, from block shapes."""
        key = id(cmap)
        if key not in self._flop_tables:
            sig = cmap.signature
            table = ([0] * sig.p, [0] * sig.m)
            for (k, i), mat in cmap.entries.items():
                table[0][k] += 2 * mat.shape[0] * mat.shape[1]
                table[1][i] += 2 * mat.shape[0] * mat.shape[1]
            self._flop_tables[key] = (cmap, table)  # holding cmap keeps its id unique
        self.flops += self._flop_tables[key][1][side][idx]

    def _span_wrapper(self, fn, sid: int, observe):
        name, parent, start, end, stack = (self._name, self._parent, self._start,
                                           self._end, self._stack)
        unmeasured = self.unmeasured
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe[1](args, out)
                except (IndexError, TypeError, AttributeError, KeyError):
                    unmeasured.add(observe[0])  # the signature changed: drop the count
            return out
        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _install(self) -> None:
        for span, targets in SPANS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, fn = found
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, self._span_wrapper(fn, self._ids[span], self._observer(fn)))
                self.installed.add(span)
        for counter, target in COUNTERS.items():
            found = _resolve(target)
            if found is not None:
                owner, attr, fn = found
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, self._count_wrapper(fn, counter))
                self.installed.add(counter)
        self.missing = sorted((set(SPANS) | set(COUNTERS)) - self.installed)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def recording(self):
        """Clear previous records, patch pdsplit, and restore it on exit."""
        self._clear()
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # ---------------------------------------------------------------- analysis
    def spans(self) -> dict:
        """Flat span arrays of the last recording (name ids, parent index, start, end)."""
        return {"name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self._start, dtype=np.float64).copy(),
                "end": np.frombuffer(self._end, dtype=np.float64).copy(),
                "names": np.array(self.span_names)}

    def self_times(self) -> tuple[dict, dict, float]:
        """Self seconds and call count per span name, and the summed root durations."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        nested = sp["parent"] >= 0
        children = np.zeros_like(dur)
        np.add.at(children, sp["parent"][nested], dur[nested])
        k = len(self.span_names)
        self_s = np.bincount(sp["name"], weights=dur - children, minlength=k)
        calls = np.bincount(sp["name"], minlength=k)
        return (dict(zip(self.span_names, self_s.tolist())),
                dict(zip(self.span_names, calls.tolist())), float(dur[~nested].sum()))

    def inclusive(self, names) -> float:
        """Seconds spent inside spans of the given names, nested ones counted once."""
        ids = {self._ids[n] for n in names}
        covered = []  # per span: does it or an ancestor belong to ids
        total = 0.0
        for idx, (sid, parent) in enumerate(zip(self._name, self._parent)):
            above = parent >= 0 and covered[parent]
            covered.append(above or sid in ids)
            if sid in ids and not above:
                total += self._end[idx] - self._start[idx]
        return total


# Per-layer metrics and their units.  *_us_per_iter are self times.
PER_LAYER = {
    "blockspace.coupling.applies_per_iter": "count/iter",
    "blockspace.coupling.us_per_iter": "us/iter",
    "blockspace.coupling.flops_per_iter": "flop/iter",
    "blockspace.vector_allocs_per_iter": "count/iter",
    "operators.resolvent.calls_per_iter": "count/iter",
    "operators.resolvent.us_per_iter": "us/iter",
    "operators.graph_point.us_per_iter": "us/iter",
    "separator.build.us_per_iter": "us/iter",
    "separator.project.us_per_iter": "us/iter",
    "separator.problem_s": "s",
    "engine.diagnostics.us_per_iter": "us/iter",
    "engine.anchor.us_per_iter": "us/iter",
    "engine.self.us_per_iter": "us/iter",
    "schedule.lookup.us_per_iter": "us/iter",
    "schedule.active_blocks_per_iter": "count/iter",
    "schedule.mean_staleness": "iter",
    "schedule.setup_s": "s",
    "fileio.parse_s": "s",
    "fileio.write_trace_s": "s",
    "fileio.trace_bytes": "B",
    "cli.self_s": "s",
    "solve.repeated_setup_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.layer_sum_ratio": "ratio",
}

# Set-up layers whose work the solve does again: run() regenerates and
# validates the schedule, and the CLI parses its input files.
SETUP_SPANS = ("separator.problem", "schedule.generate", "schedule.validate", "fileio.parse")

# The per-layer metrics that hold the self times of a traced solve.
SOLVE_SELF_TIMES = ("blockspace.coupling.us_per_iter", "operators.resolvent.us_per_iter",
                    "operators.graph_point.us_per_iter", "separator.build.us_per_iter",
                    "separator.project.us_per_iter", "engine.diagnostics.us_per_iter",
                    "engine.anchor.us_per_iter", "engine.self.us_per_iter",
                    "schedule.lookup.us_per_iter", "fileio.write_trace_s", "cli.self_s",
                    "solve.repeated_setup_s")


def solve_metrics(tr: Tracer, iters: int) -> dict:
    """Per-layer metrics of one traced solve that ran `iters` iterations."""
    self_s, calls, _ = tr.self_times()
    out = {}

    def put(name, span, value):
        if span in tr.installed and name not in tr.unmeasured:
            out[name] = value

    for layer in ("blockspace.coupling", "operators.resolvent", "operators.graph_point",
                  "separator.build", "separator.project", "engine.diagnostics",
                  "engine.anchor", "schedule.lookup"):
        put(f"{layer}.us_per_iter", layer, 1e6 * self_s[layer] / iters)
    put("engine.self.us_per_iter", "engine.run", 1e6 * self_s["engine.run"] / iters)
    put("blockspace.coupling.applies_per_iter", "blockspace.coupling",
        calls["blockspace.coupling"] / iters)
    put(FLOPS, "blockspace.coupling", tr.flops / iters)
    put("blockspace.vector_allocs_per_iter", "blockspace.vector_alloc",
        tr.counts["blockspace.vector_alloc"] / iters)
    put("operators.resolvent.calls_per_iter", "operators.resolvent",
        calls["operators.resolvent"] / iters)
    # iteration 0 of every certified schedule activates all blocks; leave it out
    later = [count for n, count in tr.active if n >= 1] or [c for _, c in tr.active]
    put(ACTIVE, "schedule.lookup", sum(later) / len(later) if later else 0.0)
    put(STALENESS, "schedule.lookup",
        sum(tr.staleness) / len(tr.staleness) if tr.staleness else 0.0)
    put("fileio.write_trace_s", "fileio.write_trace", self_s["fileio.write_trace"])
    put("cli.self_s", "cli.main", self_s["cli.main"])
    present = [span for span in SETUP_SPANS if span in tr.installed]
    if present:
        out["solve.repeated_setup_s"] = sum(self_s[span] for span in present)
    return out


def layer_sum_s(metrics: dict, iters: int) -> float:
    """Seconds of a traced solve that its reported per-layer self times account for."""
    total = 0.0
    for name in SOLVE_SELF_TIMES:
        value = metrics.get(name, 0.0)
        total += value * iters / 1e6 if name.endswith("us_per_iter") else value
    return total


def setup_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced set-up (inclusive times)."""
    out = {}
    for name, spans in (("separator.problem_s", ["separator.problem"]),
                        ("schedule.setup_s", ["schedule.generate", "schedule.validate"]),
                        ("fileio.parse_s", ["fileio.parse"])):
        present = [s for s in spans if s in tr.installed]
        if present:
            out[name] = tr.inclusive(present)
    return out
