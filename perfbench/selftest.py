"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import pdsplit as ps  # noqa: E402
from pdsplit import fileio  # noqa: E402
import harness  # noqa: E402
import problems  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_run(problem, schedule, iters):
    tr = tracing.Tracer()
    config = ps.SolverConfig(**workloads._fixed_count(iters))
    with tr.recording():
        res = ps.run(problem, config, schedule)
    assert res.iterations == iters
    return tr, tracing.solve_metrics(tr, iters)


@pytest.fixture(scope="module")
def blocksparse():
    raw = problems.blocksparse(7)
    return raw, problems.build_problem(raw)


@pytest.mark.parametrize("raw", [problems.blocksparse(0), problems.blocksparse(1),
                                 problems.lasso(0), problems.lasso(3)])
def test_generated_fixture_solves_the_problem(raw):
    problem = problems.build_problem(raw)
    assert ps.kt_residual(problem, problem.known_Z_points[0]).max <= 1e-8


def test_generators_are_seeded():
    a, b, c = problems.blocksparse(3), problems.blocksparse(3), problems.blocksparse(4)
    assert a.coupling.keys() == b.coupling.keys()
    assert all(np.array_equal(a.coupling[key], b.coupling[key]) for key in a.coupling)
    assert a.coupling.keys() != c.coupling.keys()


def test_blocksparse_work_does_not_depend_on_seed():
    for seed in (0, 1):
        raw = problems.blocksparse(seed)
        m = problems.M
        assert len(raw.coupling) == m + round(problems.DENSITY * m * (m - 1))
        kinds = [kind for kind, _ in raw.A_specs + raw.B_specs]
        assert all(kinds.count(kind) == 2 * m // len(problems.OPERATOR_MIX)
                   for kind in problems.OPERATOR_MIX)


def test_lasso_signs_leave_the_arithmetic_unchanged(tmp_path):
    seeds = (0, 1, 2)
    targets = {tuple(problems.lasso(s).B_specs[0][1]["q"]) for s in seeds}
    assert len(targets) == len(seeds)
    config = ps.SolverConfig(mode="haugazeau", max_iter=300, resid_tol=0.0)
    texts = set()
    for seed in seeds:
        res = ps.run(problems.build_problem(problems.lasso(seed)), config)
        fileio.write_trace(res.trace, tmp_path / "trace.csv", 1)
        texts.add((tmp_path / "trace.csv").read_bytes())
    assert len(texts) == 1


def test_sync_counts_match_the_inputs(blocksparse):
    raw, problem = blocksparse
    tr, metrics = traced_run(problem, ps.synchronous(raw.m, raw.p), 3)
    assert metrics["operators.resolvent.calls_per_iter"] == 100
    # fresh points, separator and diagnostics each apply L and L* block by block
    assert metrics["blockspace.coupling.applies_per_iter"] == 3 * (raw.m + raw.p)
    block_flops = sum(2 * mat.shape[0] * mat.shape[1] for mat in raw.coupling.values())
    assert metrics["blockspace.coupling.flops_per_iter"] == 3 * 2 * block_flops
    assert metrics["schedule.active_blocks_per_iter"] == raw.m + raw.p
    assert metrics["schedule.mean_staleness"] == 0


def test_round_robin_activates_two_blocks_after_iteration_zero(blocksparse):
    raw, problem = blocksparse
    tr, metrics = traced_run(problem, workloads._round_robin(raw.m, raw.p), 9)
    assert metrics["schedule.active_blocks_per_iter"] == 2
    assert [count for n, count in tr.active if n == 0] == [raw.m + raw.p]
    # sawtooth with D = 3: reads at n - n % 4
    assert tr.staleness == [n % 4 for n in range(9) for _ in range(2 if n else raw.m + raw.p)]


def test_tracer_restores_pdsplit_and_self_times_add_up(blocksparse):
    raw, problem = blocksparse
    before = (ps.run, ps.engine.forward_block, ps.schedule.LagBuffer.get,
              ps.blockspace.BlockVector.__init__)
    tr, metrics = traced_run(problem, ps.synchronous(raw.m, raw.p), 2)
    after = (ps.run, ps.engine.forward_block, ps.schedule.LagBuffer.get,
             ps.blockspace.BlockVector.__init__)
    assert before == after
    assert tr.missing == []
    self_s, calls, root_s = tr.self_times()
    assert calls["engine.run"] == 1
    assert sum(self_s.values()) == pytest.approx(root_s, rel=1e-9)
    # every span's self time is in some reported per-layer metric
    assert tracing.layer_sum_s(metrics, 2) == pytest.approx(root_s, rel=1e-9)


def test_tracer_reports_renamed_or_reshaped_functions_as_missing(blocksparse, monkeypatch):
    raw, problem = blocksparse
    monkeypatch.setitem(tracing.SPANS, "engine.step", ["pdsplit.engine:step"])
    original = ps.schedule.ControlSchedule.blocks_at

    def blocks_at(self, n):  # same name, still unpacks, no longer indexable
        return iter(original(self, n))
    blocks_at.__qualname__ = original.__qualname__
    monkeypatch.setattr(ps.schedule.ControlSchedule, "blocks_at", blocks_at)
    tr, metrics = traced_run(problem, workloads._round_robin(raw.m, raw.p), 3)
    assert tr.missing == ["engine.step"]
    assert tr.unmeasured == {tracing.ACTIVE}
    assert tracing.ACTIVE not in metrics and tracing.STALENESS in metrics


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_setup_sees_every_setup_layer(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(0, tmp_path)
    tr = tracing.Tracer()
    with tr.recording():
        wl.setup(inputs)
    metrics = tracing.setup_metrics(tr)
    assert metrics["separator.problem_s"] > 0
    assert metrics["schedule.setup_s"] > 0
    assert (metrics["fileio.parse_s"] > 0) == (name == "lasso-cli")


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_metric(trace, kind):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "blocksparse-sync",
                           "--seed", "3", "--seconds", "0.5", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC[kind]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "lasso-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
