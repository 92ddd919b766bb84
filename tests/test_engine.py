import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pdsplit as ps
from pdsplit.blockspace import pd_norm, rows_owned
from pdsplit.engine import EngineState, advance, haugazeau_update
from pdsplit.errors import ConfigError, InconsistencyError, PdsplitError
from pdsplit.operators import LINEAR_KINDS, operator_groups
from pdsplit.schedule import read_depth, synchronous

from conftest import (make_lasso_problem, make_linear_primal_problem, point,
                      random_blocksparse_problem, random_problem)
from oracle import (checked_run, fejer_reference_trace, lagged_reference_run,
                    project_intersection_two_halfspaces, rows_owned_by_mask)


def start_20():
    return point([[2.0]], [[0.0]])


def fejer_config(**kw):
    base = dict(mode="fejer", relaxation=1.0, gamma=1.0, mu=1.0,
                max_iter=100, resid_tol=0.0, exact_tol=-1.0, start=start_20())
    base.update(kw)
    return ps.SolverConfig(**base)


def test_step_fejer_hand_trace(l1_identity_problem):
    # from (2,0): fresh points (1,1) and (1,1), normal (2,0), level 2,
    # norm_sq 4, violation 2, theta 0.5, next (1,0)
    cfg = fejer_config(max_iter=1)
    res = ps.run(l1_identity_problem, cfg)
    rec = res.trace[0]
    assert rec.tau == 4.0
    assert rec.violation == 2.0
    assert rec.theta == 0.5
    assert res.final.x.blocks[0][0] == 1.0
    assert res.final.v_star.blocks[0][0] == 0.0


def test_step_determinism(l1_identity_problem):
    sched = synchronous(1, 1)
    cfg = fejer_config()
    outs = []
    for _ in range(2):
        state = EngineState.initial(l1_identity_problem, cfg, sched)
        advance(state)
        outs.append((state.current.x.blocks[0][0], state.current.v_star.blocks[0][0],
                     state.last_record.theta))
    assert outs[0] == outs[1]


def test_run_max_iter_zero(l1_identity_problem):
    cfg = fejer_config(max_iter=0)
    res = ps.run(l1_identity_problem, cfg)
    assert res.status == "max_iter"
    assert res.final.x.blocks[0][0] == 2.0
    assert res.trace == []


def test_exact_point_at_start(l1_identity_problem):
    # starting exactly on the solution produces a vanishing separator normal
    cfg = fejer_config(start=point([[0.0]], [[0.0]]), exact_tol=1e-14, max_iter=10)
    res = ps.run(l1_identity_problem, cfg)
    assert res.status == "exact_point"
    assert res.iterations == 1
    assert res.final.x.blocks[0][0] == 0.0 and res.final.v_star.blocks[0][0] == 0.0


def test_fixed_point_at_solution(l1_identity_problem):
    # consistent graph data at the solution: violation 0, theta 0, no motion
    cfg = fejer_config(start=point([[0.0]], [[0.0]]), max_iter=3)
    res = ps.run(l1_identity_problem, cfg)
    assert all(rec.theta == 0.0 and rec.violation == 0.0 for rec in res.trace)
    assert res.final.x.blocks[0][0] == 0.0


def test_nan_aborts_with_diagnostic(l1_identity_problem):
    # a non-finite start is a ConfigError (test_non_finite_start_is_a_config_error); an
    # iterate that turns non-finite during the run, here set by hand, ends it "inconsistent"
    state = EngineState.initial(l1_identity_problem, fejer_config(max_iter=5), synchronous(1, 1))
    state.current.data[0] = math.nan  # the buffered iterate's x reads this array
    status, _, message = advance(state)
    assert status == "inconsistent"
    assert "non-finite" in message


# --- anchored best-approximation update -----------------------------------

def test_haugazeau_degenerate_branches():
    x0 = np.array([0.0, 0.0])
    y = np.array([1.0, 0.5])
    assert haugazeau_update(x0, y, y, 1) is y          # candidate equals current
    z = np.array([2.0, 0.0])
    assert haugazeau_update(y, y, z, 1) is z           # anchor equals current


def test_haugazeau_example_triple():
    x0 = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    z = np.array([1.0, -1.0])
    out = haugazeau_update(x0, y, z, 1)
    assert out[0] == 1.0 and out[1] == -1.0


def test_haugazeau_inconsistency_signal():
    # collinear, opposed directions: the two half-spaces miss each other
    x0 = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    z = np.array([0.5, 0.0])
    with pytest.raises(InconsistencyError):
        haugazeau_update(x0, y, z, 1)


def test_haugazeau_matches_projection_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        split = max(1, d // 2)
        x0, y, z = rng.normal(size=(3, d))
        got = haugazeau_update(x0, y, z, split)
        n1, o1 = x0 - y, float(np.dot(y, x0 - y))
        n2, o2 = y - z, float(np.dot(z, y - z))
        ref = project_intersection_two_halfspaces(x0, (n1, o1), (n2, o2))
        worst = max(worst, float(np.linalg.norm(got - ref)))
    assert worst <= 1e-9


def test_haugazeau_anchor_distance_monotone(box_problem):
    cfg = ps.SolverConfig(mode="haugazeau", max_iter=200, resid_tol=0.0, exact_tol=-1.0,
                          start=point([[5.0]], [[3.0]]))
    res = checked_run(box_problem, cfg)
    anchor = point([[5.0]], [[3.0]])
    # reconstruct distances from the trace fixture columns is not possible;
    # re-run stepwise and track the distance directly
    sched = synchronous(1, 1)
    state = EngineState.initial(box_problem, cfg, sched)
    dist = pd_norm(state.current - state.anchor)
    for _ in range(200):
        advance(state)
        new_dist = pd_norm(state.current - state.anchor)
        assert new_dist >= dist - 1e-10
        dist = new_dist


def test_haugazeau_violation_zero_is_fixed_point(box_problem):
    cfg = ps.SolverConfig(mode="haugazeau", max_iter=5, resid_tol=0.0, exact_tol=-1.0,
                          start=point([[0.5]], [[0.0]]))
    res = ps.run(box_problem, cfg)
    assert all(rec.theta == 0.0 for rec in res.trace)
    assert res.final.x.blocks[0][0] == 0.5 and res.final.v_star.blocks[0][0] == 0.0


# --- engine-level invariants -------------------------------------------------

def test_fejer_monotone_on_fixture(l1_identity_problem):
    cfg = fejer_config(relaxation=1.9, max_iter=300)
    res = checked_run(l1_identity_problem, cfg)
    dists = [rec.dists[0] for rec in res.trace]
    assert all(b <= a + 1e-10 for a, b in zip(dists, dists[1:]))


def test_theta_tau_partial_sums_vanish(l1_identity_problem):
    cfg = fejer_config(relaxation=1.9, max_iter=400)
    res = ps.run(l1_identity_problem, cfg)
    terms = [rec.theta ** 2 * rec.tau for rec in res.trace]
    assert all(t >= 0.0 for t in terms)
    assert sum(terms) < 1e6
    head = max(terms[:40])
    tail = max(terms[-40:])
    assert tail <= head + 1e-12


def test_trace_stride_thins_output(l1_identity_problem):
    cfg = fejer_config(max_iter=20, trace_stride=5)
    res = ps.run(l1_identity_problem, cfg)
    assert [rec.n for rec in res.trace] == [0, 5, 10, 15]


def test_run_determinism_async(l1_identity_problem):
    sched = ps.random_admissible(1, 1, M=3, D=5, horizon=128, seed=21)
    cfg = fejer_config(relaxation=1.9, max_iter=120)
    t1 = ps.run(l1_identity_problem, cfg, sched).trace
    t2 = ps.run(l1_identity_problem, cfg, sched).trace
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert a == b


def test_synchronous_matches_reference_bitwise(l1_identity_problem):
    cfg = fejer_config(relaxation=1.9, max_iter=60)
    res = ps.run(l1_identity_problem, cfg)
    ref, final = fejer_reference_trace(l1_identity_problem, cfg, 60)
    assert res.trace == ref
    assert res.final.x.blocks[0][0] == final.x.blocks[0][0]


def test_synchronous_matches_reference_lasso():
    prob = make_lasso_problem()
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=40,
                          resid_tol=0.0, exact_tol=-1.0)
    res = ps.run(prob, cfg)
    ref, _ = fejer_reference_trace(prob, cfg, 40)
    assert res.trace == ref


def test_synchronous_matches_reference_multiblock():
    # 8 blocks of one shape per side, every operator kind, a step per block:
    # the batched phase must give the block-by-block reference's bits
    prob = random_blocksparse_problem(3)
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=40, resid_tol=0.0,
                          exact_tol=-1.0, gamma=[0.5 + 0.25 * i for i in range(8)],
                          mu=[2.0 - 0.2 * k for k in range(8)])
    res = ps.run(prob, cfg)
    ref, final = fejer_reference_trace(prob, cfg, 40)
    assert res.trace == ref
    assert np.array_equal(res.final.data, final.data)


# (accepted, rejected) perturbations of these runs at the commit before the
# decomposition phase was batched (random) and before its one-block path was
# folded into the per-group one (round-robin: one block per side, read lag D = 3)
_SCHEDULES = {"random": lambda m, p: ps.random_admissible(m, p, M=3, D=4, horizon=64, seed=3),
              "round-robin": lambda m, p: ps.periodic(m, p, 1, 4 * m, ("sawtooth", 3))}


@pytest.mark.parametrize("mode, counts, schedule", [
    pytest.param("fejer", (216, 340), "random", id="fejer-counts0"),
    pytest.param("haugazeau", (218, 338), "random", id="haugazeau-counts1"),
    pytest.param("fejer", (57, 77), "round-robin", id="fejer-round-robin"),
    pytest.param("haugazeau", (57, 77), "round-robin", id="haugazeau-round-robin")])
def test_perturbed_lagged_run_matches_the_blockwise_reference(mode, counts, schedule):
    prob = random_blocksparse_problem(3)
    sched = _SCHEDULES[schedule](prob.m, prob.p)
    cfg = ps.SolverConfig(mode=mode, max_iter=60, resid_tol=0.0, exact_tol=-1.0,
                          inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
                          perturbation=ps.PerturbationRule(seed=7, scale=0.6))
    res = ps.run(prob, cfg, sched)
    ref, final, ref_counts = lagged_reference_run(prob, cfg, sched, 60)
    assert res.trace == ref
    assert np.array_equal(res.final.data, final.data)
    assert (res.metadata["perturb_accepted"], res.metadata["perturb_rejected"]) == ref_counts
    assert ref_counts == counts


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
def test_kept_images_equal_the_full_applies_after_every_step(mode):
    # lagged runs on mixed block shapes, with perturbed graph points
    shapes = 0
    for seed in range(12):
        problem = random_problem(seed)
        sched = ps.random_admissible(problem.m, problem.p, M=3, D=4, horizon=64, seed=seed)
        cfg = ps.SolverConfig(mode=mode, max_iter=40, resid_tol=0.0, exact_tol=-1.0,
                              inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
                              perturbation=ps.PerturbationRule(seed=seed, scale=0.6))
        state = EngineState.initial(problem, cfg, sched)
        L, graph = state.problem.coupling, state.graph
        shapes = max(shapes, len(L._stacks))
        for _ in range(cfg.max_iter):
            assert advance(state) is None
            assert state.la.value.tobytes() == L.forward(graph.a).tobytes()
            assert state.lsb.value.tobytes() == L.adjoint(graph.b_dual).tobytes()
    assert shapes > 1


def test_default_exact_tol_lasso_run_matches_the_blockwise_reference():
    # the exact-point test runs every iteration (and never fires) without moving a bit
    prob = make_lasso_problem()
    cfg = ps.SolverConfig(mode="haugazeau", max_iter=300)
    res = ps.run(prob, cfg)
    ref, final, _ = lagged_reference_run(prob, cfg, synchronous(1, 1), 300)
    assert (res.status, res.iterations) == ("max_iter", 300)
    assert res.trace == ref
    assert np.array_equal(res.final.data, final.data)


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
def test_projected_normal_run_matches_the_blockwise_reference(mode):
    # on the linear_primal subspace the separator's normal is the projected raw normal,
    # and the exact-point test measures the raw one
    prob = make_linear_primal_problem("linear_primal")
    cfg = ps.SolverConfig(mode=mode, max_iter=100)
    for sched in (synchronous(1, 1), ps.random_admissible(1, 1, M=2, D=3, horizon=64, seed=5)):
        res = ps.run(prob, cfg, sched)
        ref, final, _ = lagged_reference_run(prob, cfg, sched, 100)
        assert (res.status, res.iterations) == ("max_iter", 100)
        assert res.trace == ref
        assert np.array_equal(res.final.data, final.data)


def test_lasso_haugazeau_iteration_count_is_pinned():
    # the count moves on rounding alone (swapping the two coordinates gives 9,643), so
    # a change that reorders a sum on the haugazeau path shows here
    res = ps.run(make_lasso_problem(),
                 ps.SolverConfig(mode="haugazeau", max_iter=20000, resid_tol=1e-6))
    assert (res.status, res.iterations) == ("solved", 7124)


def test_recycling_reads_lagged_iterates():
    # with D>0 the trace differs from the synchronous run, but stays admissible
    prob = random_problem(12)
    sched = ps.random_admissible(prob.m, prob.p, M=3, D=4, horizon=64, seed=4)
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.5, max_iter=64,
                          resid_tol=0.0, exact_tol=-1.0)
    res = checked_run(prob, cfg, sched)
    assert res.status == "max_iter"
    sync = ps.run(prob, cfg)
    assert any(a != b for a, b in zip(res.trace, sync.trace))


def test_haugazeau_async_multiblock():
    # anchor monotonicity and graph membership hold under block activation and lags
    prob = random_problem(23)
    sched = ps.random_admissible(prob.m, prob.p, M=2, D=3, horizon=128, seed=8)
    cfg = ps.SolverConfig(mode="haugazeau", max_iter=150, resid_tol=0.0, exact_tol=-1.0)
    res = checked_run(prob, cfg, sched)
    assert res.status == "max_iter"


def test_run_extends_past_schedule_horizon(l1_identity_problem):
    sched = ps.random_admissible(1, 1, M=3, D=5, horizon=8, seed=2)
    cfg = fejer_config(relaxation=1.9, max_iter=64)
    res = checked_run(l1_identity_problem, cfg, sched)
    assert res.status == "max_iter"
    assert [rec.n for rec in res.trace] == list(range(64))


def test_config_validation_bounds(l1_identity_problem):
    with pytest.raises(ConfigError):
        ps.run(l1_identity_problem, fejer_config(relaxation=1.96, epsilon=0.05))
    with pytest.raises(ConfigError):
        ps.run(l1_identity_problem,
               ps.SolverConfig(mode="haugazeau", relaxation=1.5, start=start_20()))
    with pytest.raises(ConfigError):
        ps.run(l1_identity_problem, fejer_config(gamma=1e-4))
    with pytest.raises(ConfigError):
        ps.run(l1_identity_problem, fejer_config(mode="other"))


@pytest.mark.parametrize("fields", [
    pytest.param(dict(relaxation=[]), id="empty-relaxation-list"),
    pytest.param(dict(mode="haugazeau", relaxation=np.array([1.5])), id="haugazeau-ndarray-1.5"),
    pytest.param(dict(gamma="1"), id="string-gamma"),
    pytest.param(dict(relaxation="fast"), id="string-relaxation"),
    pytest.param(dict(gamma=lambda i, n: 1.0), id="callable-gamma"),
    pytest.param(dict(relaxation=np.array([1.0, 1.5])), id="multi-entry-ndarray"),
    pytest.param(dict(mu=[True]), id="boolean-in-mu-list"),
    pytest.param(dict(max_iter=2.5), id="fractional-max_iter"),
    pytest.param(dict(max_iter=True), id="boolean-max_iter"),
    pytest.param(dict(trace_stride=2.5), id="fractional-trace_stride"),
    pytest.param(dict(trace_stride=True), id="boolean-trace_stride"),
    pytest.param(dict(resid_tol=math.nan), id="nan-resid_tol"),
    pytest.param(dict(tau_zero_tol=math.inf), id="inf-tau_zero_tol"),
    pytest.param(dict(exact_tol=math.nan), id="nan-exact_tol"),
    pytest.param(dict(inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
                      perturbation=ps.PerturbationRule(seed=-1, scale=0.25)),
                 id="negative-perturbation-seed"),
    pytest.param(dict(inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
                      perturbation=ps.PerturbationRule(seed=1, scale=math.nan)),
                 id="nan-perturbation-scale"),
    pytest.param(dict(perturbation=ps.PerturbationRule(seed=1, scale=0.25)),
                 id="perturbation-without-budget"),
])
def test_bad_config_values_raise_config_error(l1_identity_problem, fields):
    with pytest.raises(ConfigError):
        ps.run(l1_identity_problem, fejer_config(**fields))


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
@pytest.mark.parametrize("start", [point([[math.nan]], [[0.0]]), point([[0.0]], [[math.inf]])],
                         ids=["nan", "inf"])
def test_non_finite_start_is_a_config_error(l1_identity_problem, mode, start):
    # it used to reach iteration 0 and end "inconsistent", which the CLI reports as exit 4
    with pytest.raises(ConfigError, match="start"):
        ps.run(l1_identity_problem, ps.SolverConfig(mode=mode, start=start))


@pytest.mark.parametrize("mode, relaxation", [("fejer", [1.2, 1.5, 0.9, 1.8]),
                                              ("haugazeau", [0.5, 1.0, 0.8])])
def test_stepwise_advance_matches_run(mode, relaxation):
    problem = random_problem(5)
    sched = ps.random_admissible(problem.m, problem.p, M=3, D=4, horizon=256, seed=5)
    cfg = ps.SolverConfig(mode=mode, relaxation=relaxation, max_iter=120, resid_tol=0.0,
                          exact_tol=-1.0, inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
                          perturbation=ps.PerturbationRule(seed=5, scale=0.25))
    res = ps.run(problem, cfg, sched)
    state = EngineState.initial(problem, cfg, sched)
    records = []
    for _ in range(cfg.max_iter):
        terminal = advance(state)
        records.append(state.last_record)
        assert terminal is None
    assert records == res.trace
    assert np.array_equal(state.current.data, res.final.data)
    assert state.perturb.accepted == res.metadata["perturb_accepted"] > 0
    assert state.perturb.rejected == res.metadata["perturb_rejected"]


class _Sink:
    """A trace destination that is not a list: it keeps what append was given."""

    def __init__(self):
        self.got = []

    def append(self, record):
        self.got.append(record)


@pytest.mark.parametrize("stride", [1, 7])
def test_a_trace_destination_gets_the_records_the_default_list_gets(stride):
    problem = random_problem(5)
    sched = ps.random_admissible(problem.m, problem.p, M=3, D=4, horizon=256, seed=5)
    cfg = ps.SolverConfig(max_iter=60, resid_tol=0.0, trace_stride=stride,
                          inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
                          perturbation=ps.PerturbationRule(seed=5, scale=0.25))
    res = ps.run(problem, cfg, sched)
    sink = _Sink()
    streamed = ps.run(problem, cfg, sched, trace=sink)
    assert streamed.trace is sink and sink.got == res.trace and len(res.trace) == -(-60 // stride)
    assert np.array_equal(streamed.final.data, res.final.data)
    stepwise = _Sink()
    state = EngineState.initial(problem, cfg, sched, trace=stepwise)
    for _ in range(cfg.max_iter):
        advance(state)
    assert state.trace is stepwise and stepwise.got == res.trace


def test_state_keeps_the_config_it_validated(l1_identity_problem):
    cfg = fejer_config(relaxation=1.9)
    state = EngineState.initial(l1_identity_problem, cfg, synchronous(1, 1))
    cfg.mode = "haugazeau"  # haugazeau allows relaxation <= 1; the state was validated as fejer
    advance(state)
    assert state.config.mode == "fejer" and state.rules.lam(0) == 1.9
    assert state.current.x.blocks[0][0] == pytest.approx(0.1)  # the fejer step from (2, 0)


def test_state_keeps_the_schedule_it_certified(l1_identity_problem):
    cfg = fejer_config(max_iter=6, exact_tol=1e-14)
    expected = ps.run(l1_identity_problem, cfg, ps.periodic(1, 1, 1, 4, ("constant", 1)))
    sched = ps.periodic(1, 1, 1, 4, ("constant", 1))
    state = EngineState.initial(l1_identity_problem, cfg, sched)
    sched.I_seq[0] = sched.K_seq[0] = ()  # no block at n=0: the zero graph would be "exact"
    sched.c, sched.d = {**sched.c, (0, 2): 2}, {**sched.d, (0, 2): 2}
    assert not ps.validate(sched, 1, 1).certified
    terminal = None
    while terminal is None and state.n < cfg.max_iter:
        terminal = advance(state)
    assert state.trace == expected.trace and state.trace[0].theta > 0
    assert np.array_equal(state.current.data, expected.final.data)


_PERTURBED = dict(inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
                  perturbation=ps.PerturbationRule(seed=7, scale=0.6))


@pytest.mark.parametrize("extra", [{}, _PERTURBED], ids=["exact", "perturbed"])
def test_a_set_assigned_out_of_order_runs_as_its_sorted_set(extra):
    # the state's copy rebuilds it as the constructor would: unsorted, its blocks would take
    # their perturbation draws in the order assigned
    problem = random_blocksparse_problem(3)
    cfg = ps.SolverConfig(max_iter=10, resid_tol=0.0, exact_tol=-1.0, **extra)
    expected = ps.run(problem, cfg, ps.periodic(problem.m, problem.p, 3, 16))
    sched = ps.periodic(problem.m, problem.p, 3, 16)
    sched.I_seq[1], sched.K_seq[2] = sched.I_seq[1][::-1], sched.K_seq[2][::-1]
    res = ps.run(problem, cfg, sched)
    assert res.trace == expected.trace and np.array_equal(res.final.data, expected.final.data)
    assert res.metadata == expected.metadata
    assert ("perturb_accepted" in res.metadata) == bool(extra)


@pytest.mark.parametrize("side", ["I_seq", "K_seq"])
def test_a_set_assigned_with_a_repeat_runs_without_it(side):
    # with m = p = 2, (1, 1) has as many entries as there are blocks: read as every block
    # active, block 0 would take a step the schedule never asked for
    problem = random_blocksparse_problem(1, blocks=2)
    cfg = ps.SolverConfig(max_iter=8, resid_tol=0.0, exact_tol=-1.0)
    expected = ps.run(problem, cfg, ps.periodic(2, 2, 1, 8))
    sched = ps.periodic(2, 2, 1, 8)
    assert getattr(sched, side)[2] == (1,)
    getattr(sched, side)[2] = (1, 1)
    res = ps.run(problem, cfg, sched)
    assert res.trace == expected.trace and np.array_equal(res.final.data, expected.final.data)


@pytest.mark.parametrize("side", ["I_seq", "K_seq"])
@pytest.mark.parametrize("bad", [0.7, True, "0"], ids=["fraction", "boolean", "string"])
def test_a_set_assigned_with_a_non_integer_is_refused(side, bad):
    # the integer rule of the constructor: (0, True) would run as blocks 0 and 1
    problem, cfg = random_blocksparse_problem(3, blocks=2), ps.SolverConfig(max_iter=4)
    sched = ps.periodic(2, 2, 1, 8)
    getattr(sched, side)[1] = (0, bad)
    with pytest.raises(ps.ConfigError, match=rf"^{side}\[1\] entry must be an integer, "
                                             rf"got {re.escape(repr(bad))}$"):
        ps.run(problem, cfg, sched)


def test_advancing_past_an_exact_point_raises(l1_identity_problem):
    cfg = fejer_config(start=point([[0.0]], [[0.0]]), exact_tol=1e-14)
    state = EngineState.initial(l1_identity_problem, cfg, synchronous(1, 1))
    assert advance(state)[0] == "exact_point"
    with pytest.raises(PdsplitError, match="run has ended"):
        advance(state)


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
def test_advancing_past_an_inconsistent_return_raises(monkeypatch, l1_identity_problem, mode):
    # a re-run of the iteration that returned would add a trace row for it each time, and
    # draw new perturbations in inexact mode
    state = EngineState.initial(l1_identity_problem, fejer_config(mode=mode), synchronous(1, 1))
    assert advance(state) is None and advance(state) is None
    if mode == "fejer":  # a non-finite iterate, as in test_nan_aborts_with_diagnostic
        state.current.data[0] = math.nan
    else:  # an anchored update that finds the two half-spaces disjoint
        def disjoint(*args):
            raise InconsistencyError("empty outer approximation")
        monkeypatch.setattr(ps.engine, "haugazeau_update", disjoint)
    assert advance(state)[0] == "inconsistent"
    rows = [rec.n for rec in state.trace]
    for _ in range(2):
        with pytest.raises(PdsplitError, match="returned 'inconsistent' at iteration 2;"):
            advance(state)
    # iteration 2 ran when its values went non-finite, and its row is traced; the anchored
    # update raises before the row is made
    assert [rec.n for rec in state.trace] == rows and state.n == (3 if mode == "fejer" else 2)


def test_state_keeps_its_own_problem_arrays():
    problem = random_blocksparse_problem(3)
    sched = ps.random_admissible(problem.m, problem.p, M=3, D=4, horizon=64, seed=3)
    cfg = ps.SolverConfig(max_iter=30, resid_tol=0.0, exact_tol=-1.0)
    expected = ps.run(problem, cfg, sched)
    state = EngineState.initial(problem, cfg, sched)
    problem.z_star.data[:] = 5.0
    problem.r.data[:] = 5.0
    problem.coupling.entries[(0, 0)][0, 0] += 1.0
    problem.known_Z_points[0].data[:] = 5.0
    for _ in range(cfg.max_iter):
        assert advance(state) is None
    assert state.trace == expected.trace
    assert np.array_equal(state.current.data, expected.final.data)


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
def test_state_keeps_its_own_start_point(mode):
    # on the full subspace the projection cannot move the start, so the state copies it
    problem = make_lasso_problem()
    sched = ps.random_admissible(m=1, p=1, M=1, D=4, horizon=512, seed=0)
    start = point([[0.5, -0.5]], [[0.25, 0.0]])
    cfg = ps.SolverConfig(mode=mode, max_iter=50, resid_tol=0.0, exact_tol=-1.0, start=start)
    expected = ps.run(problem, cfg, sched)
    state = EngineState.initial(problem, cfg, sched)
    start.data[:] = 7.0
    for _ in range(cfg.max_iter):
        assert advance(state) is None
    assert state.trace == expected.trace
    assert np.array_equal(state.current.data, expected.final.data)
    # a run solved at iteration 0 returns its own copy of the start, not the caller's point
    solution = point([[1.0, 0.0]], [[-1.0, -1.0]])
    res = ps.run(problem, replace(cfg, resid_tol=1e-8, start=solution), sched)
    assert (res.status, res.iterations) == ("solved", 1)
    assert res.final is not solution and np.array_equal(res.final.data, solution.data)


def test_state_keeps_its_own_dict_lag_tables():
    # a dict table is copied when the state is built, so setting an entry of the caller's dict
    # later (which a generated table does not allow) leaves the state's reads as they were
    problem = random_blocksparse_problem(3)
    gen = ps.random_admissible(problem.m, problem.p, M=3, D=4, horizon=64, seed=3)
    sched = replace(gen, c=dict(gen.c), d=dict(gen.d))
    cfg = ps.SolverConfig(max_iter=30, resid_tol=0.0, exact_tol=-1.0)
    expected = ps.run(problem, cfg, sched)
    state = EngineState.initial(problem, cfg, sched)
    for i, n in sched.c:
        sched.c[(i, n)] = n  # every primal read without lag
    assert ps.run(problem, cfg, sched).trace != expected.trace
    for _ in range(cfg.max_iter):
        assert advance(state) is None
    assert state.trace == expected.trace
    assert np.array_equal(state.current.data, expected.final.data)


def test_run_rejects_uncertified_schedule(l1_identity_problem):
    bad = ps.ControlSchedule(3, [(0,), (0,), (0,)], [(0,)] * 3, c={(0, 2): 0},
                             M=1, D=1)
    cert = ps.validate(bad, 1, 1)
    assert not cert.certified
    with pytest.raises(ConfigError):
        ps.run(l1_identity_problem, fejer_config(), bad)
    cfg = fejer_config()
    with pytest.raises(ConfigError):  # a stepwise loop used to end in a bare LookupError
        state = EngineState.initial(l1_identity_problem, cfg, bad)
        for _ in range(cfg.max_iter):
            advance(state)


def test_start_projected_onto_subspace():
    from conftest import make_linear_primal_problem
    prob = make_linear_primal_problem("linear_primal")
    cfg = ps.SolverConfig(mode="fejer", max_iter=1, resid_tol=0.0, exact_tol=-1.0,
                          start=point([[1.0, 1.0]], [[1.0, 1.0]]))
    res = checked_run(prob, cfg)
    assert res.status == "max_iter"  # no invariant violation: iterate on subspace


def test_operator_groups_split_by_kind_and_dim():
    groups = EngineState.initial(random_blocksparse_problem(3), ps.SolverConfig(),
                                 synchronous(8, 8)).primal.groups
    assert [(kind, members) for kind, members, _, _ in groups] == [
        ("zero", [0, 5]), ("l1_norm", [1, 6]), ("box_indicator", [2, 7]), ("quadratic", [3]),
        ("affine_monotone", [4])]
    assert groups[1][3].tolist() == [[3, 4, 5], [18, 19, 20]]  # the members' coordinates
    sig = ps.SpaceSignature((2, 3, 2), (1,))
    problem = ps.ProblemSpec(sig, [ps.l1_norm(2), ps.l1_norm(3), ps.l1_norm(2)], [ps.zero(1)],
                             ps.CouplingMap(sig, {(0, 1): np.ones((1, 3))}),
                             ps.BlockVector([np.zeros(2), np.zeros(3), np.zeros(2)]),
                             ps.BlockVector([[0.0]]))
    groups = EngineState.initial(problem, ps.SolverConfig(), synchronous(3, 1)).primal.groups
    assert [(kind, members) for kind, members, _, _ in groups] == [
        ("l1_norm", [0, 2]), ("l1_norm", [1])]


@pytest.mark.parametrize("sched, slots", [
    (ps.ControlSchedule(1, [(0,)], [(0,)], M=1, D=10**7), 1),
    (replace(ps.periodic(1, 1, 1, 6, ("sawtooth", 2)), D=10**7), 3)])
def test_the_lag_buffer_holds_the_iterates_the_schedule_reads(sched, slots):
    # it took D + 1 slots whatever the schedule read: 80 MB more for D = 10**7
    problem, config = make_lasso_problem(), ps.SolverConfig(max_iter=40, resid_tol=0.0)
    tracemalloc.start()
    try:
        state = EngineState.initial(problem, config, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.depth + 1 == slots and peak < 1e6
    for _ in range(2 * slots):
        assert advance(state) is None
    assert len(state.buffer) == slots
    result, tight = (ps.run(problem, config, s) for s in (sched, replace(sched, D=slots - 1)))
    assert result.status == tight.status == "max_iter" and result.iterations == 40
    assert np.array_equal(result.final.data, tight.final.data)


@pytest.mark.parametrize("problem, sched, depth", [
    (random_blocksparse_problem(3), synchronous(8, 8), 0),
    (random_blocksparse_problem(3), ps.periodic(8, 8, 3, 12, ("sawtooth", 2)), 2),
    (random_blocksparse_problem(3), ps.random_admissible(8, 8, 3, 4, 12, 5), 4),
    (make_lasso_problem(), ps.ControlSchedule(1, [(0,)], [(0,)], M=1, D=10**7), 0)])
def test_the_buffer_holds_the_last_read_depth_plus_one_iterates(problem, sched, depth):
    # 40 iterations run every schedule past its horizon, where its tail window repeats
    state = EngineState.initial(problem, ps.SolverConfig(resid_tol=0.0, exact_tol=-1.0), sched)
    assert state.depth == read_depth(sched) == depth and list(state.buffer) == [0]
    for _ in range(40):
        assert advance(state) is None
        assert sorted(state.buffer) == list(range(max(0, state.n - depth), state.n + 1))
    assert len(state.buffer) == depth + 1


def test_a_built_problem_is_never_grouped_again(monkeypatch):
    # kt_residual, the engine's sides and the perturbation budget read ProblemSpec.groups
    import pdsplit.operators
    import pdsplit.separator
    problem = random_blocksparse_problem(3)
    fixture, sched = problem.known_Z_points[0], ps.periodic(8, 8, 3, 12, ("sawtooth", 2))
    configs = [ps.SolverConfig(max_iter=12, resid_tol=0.0),
               ps.SolverConfig(max_iter=12, resid_tol=0.0,
                               inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
                               perturbation=ps.PerturbationRule(seed=7, scale=0.6))]
    want = ps.kt_residual(problem, fixture), [ps.run(problem, cfg, sched) for cfg in configs]

    def regroup(*args):
        raise AssertionError("operator_groups called once the problem was built")
    for module in (pdsplit.operators, pdsplit.separator):
        monkeypatch.setattr(module, "operator_groups", regroup)
    assert ps.kt_residual(problem, fixture) == want[0]
    for cfg, before in zip(configs, want[1]):
        after = ps.run(problem, cfg, sched)
        assert np.array_equal(after.final.data, before.final.data)
        assert after.metadata == before.metadata
    assert want[1][1].metadata["perturb_accepted"] > 0
    with pytest.raises(AssertionError, match="operator_groups called"):
        replace(problem)  # building a problem is what groups its operators


def test_row_tables_pick_the_rows_the_mask_picks():
    # random activated sets on mixed block shapes, for the coupling stacks of both kept
    # images; the tables may order rows by block
    rng, shapes = np.random.default_rng(0), 0
    for seed in range(40):
        problem = random_problem(seed)
        L, sig = problem.coupling, problem.signature
        shapes = max(shapes, len(L._stacks))
        cases = [(L._rows[side], [np.array(keys)[:, 1 - side] for keys in L._keys], count)
                 for side, count in ((0, sig.m), (1, sig.p))]
        for table, owners, count in cases:
            for _ in range(8):
                active = tuple(sorted(rng.choice(count, rng.integers(1, count + 1), False)))
                got, want = rows_owned(table, active), rows_owned_by_mask(owners, active, count)
                assert len(got) == len(want) == len(owners)
                for picked, rows in zip(got, want):
                    if isinstance(rows, slice):
                        assert picked == slice(None)
                    else:
                        assert sorted(picked.tolist()) == rows.tolist()
    assert shapes > 1


def test_synchronous_iteration_calls_each_resolvent_group_once(monkeypatch):
    import pdsplit.engine
    import pdsplit.operators
    state = EngineState.initial(random_blocksparse_problem(3), ps.SolverConfig(), synchronous(8, 8))
    calls = {"group": 0, "block": 0}
    group_call, block_call = pdsplit.engine.stacked_resolvent, pdsplit.operators.resolvent

    def counted_group(*args):
        calls["group"] += 1
        return group_call(*args)

    def counted_block(*args):
        calls["block"] += 1
        return block_call(*args)
    monkeypatch.setattr(pdsplit.engine, "stacked_resolvent", counted_group)
    monkeypatch.setattr(pdsplit.operators, "resolvent", counted_block)
    groups = len(state.primal.groups) + len(state.dual.groups)
    assert groups == 5 + 6
    for n in range(3):
        assert advance(state) is None
        assert calls == {"group": groups * (n + 1), "block": 0}


def _count_factorizations(monkeypatch) -> list:
    """A one-entry list that each np.linalg.solve or np.linalg.inv call adds 1 to."""
    calls = [0]
    for name in ("solve", "inv"):
        def counted(*args, call=getattr(np.linalg, name), **kw):
            calls[0] += 1
            return call(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("inexact", [False, True])
@pytest.mark.parametrize("schedule", ["synchronous", "periodic", "random_admissible"])
@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
def test_iterations_factor_no_matrix(monkeypatch, mode, schedule, inexact):
    """The linear resolvents' inverses are formed when the state is built, never in advance."""
    kw = dict(inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
              perturbation=ps.PerturbationRule(seed=7, scale=0.6)) if inexact else {}
    cfg = ps.SolverConfig(mode=mode, max_iter=30, resid_tol=0.0, exact_tol=-1.0, **kw)
    linear = 0
    for seed in range(6):
        problem = random_problem(seed)
        m, p = problem.m, problem.p
        sched = {"synchronous": lambda: synchronous(m, p),
                 "periodic": lambda: ps.periodic(m, p, 1, 12, ("sawtooth", 2)),
                 "random_admissible": lambda: ps.random_admissible(m, p, 3, 4, 64, seed)}[schedule]()
        state = EngineState.initial(problem, cfg, sched)
        linear += sum(kind in ("quadratic", "affine_monotone")
                      for side in (state.primal, state.dual) for kind, *_ in side.groups)
        calls = _count_factorizations(monkeypatch)
        for _ in range(30):
            advance(state)
        monkeypatch.undo()
        assert calls == [0], (seed, state.n)
    assert linear > 0  # the problems have linear resolvents to factor


def test_kt_residual_factors_no_matrix(monkeypatch):
    problem = random_blocksparse_problem(3)
    calls = _count_factorizations(monkeypatch)
    for z in (problem.known_Z_points[0], ps.PrimalDualPoint.zeros(problem.signature)):
        ps.kt_residual(problem, z)
    assert calls == [0]


_STEPS = {"unit": (1.0, 1.0), "dual-only": (1.0, [2.0 - 0.2 * k for k in range(8)]),
          "per-block": ([0.5 + 0.25 * i for i in range(8)], [2.0 - 0.2 * k for k in range(8)])}


@pytest.mark.parametrize("gamma, mu", list(_STEPS.values()), ids=list(_STEPS))
def test_a_side_at_unit_steps_reads_the_problems_groups(monkeypatch, gamma, mu):
    # a side whose steps are all 1 takes the problem's groups, arrays and all, and forms no
    # inverse; any other side forms one per linear group, what operator_groups gives at its steps
    problem = random_blocksparse_problem(3)
    cfg = ps.SolverConfig(gamma=gamma, mu=mu)
    calls = _count_factorizations(monkeypatch)
    state = EngineState.initial(problem, cfg, synchronous(problem.m, problem.p))
    monkeypatch.undo()
    rules, sig, formed = cfg.validate(problem), problem.signature, 0
    for side, ops, slices, steps in ((state.primal, problem.A_ops, sig.primal_slices, rules.gamma),
                                     (state.dual, problem.B_ops, sig.dual_slices, rules.mu)):
        if set(steps) == {1.0}:
            assert side.groups is problem.groups[side.read]
            continue
        want = operator_groups(ops, slices, steps)
        assert len(side.groups) == len(want) > 1
        for (kind, js, params, at), (kind_w, js_w, params_w, at_w) in zip(side.groups, want):
            assert (kind, js) == (kind_w, js_w) and np.array_equal(at, at_w)
            assert [(p.shape, p.tobytes()) for p in params] == \
                [(p.shape, p.tobytes()) for p in params_w]
        formed += sum(kind in LINEAR_KINDS for kind, *_ in side.groups)
    assert calls == [formed] and (formed > 0) == ((gamma, mu) != (1.0, 1.0))


def _count_lag_lookups(monkeypatch) -> list:
    """A list that each ControlSchedule.lag_primal or lag_dual call appends its (block, n) to."""
    calls = []
    for name in ("lag_primal", "lag_dual"):
        def counted(sched, idx, n, lookup=getattr(ps.ControlSchedule, name)):
            calls.append((idx, n))
            return lookup(sched, idx, n)
        monkeypatch.setattr(ps.ControlSchedule, name, counted)
    return calls


def _zero_lag_copy(sched):
    """sched with an explicit zero-lag dict entry for every activation on both sides."""
    return replace(sched, **{table: {(idx, n): n for n, blocks in enumerate(seq) for idx in blocks}
                             for table, seq in (("c", sched.I_seq), ("d", sched.K_seq))})


@pytest.mark.parametrize("schedule", ["synchronous", "periodic-zero", "explicit-zero-lags"])
def test_a_lag_free_schedule_reads_iterate_n_without_lag_lookups(monkeypatch, schedule):
    prob = random_blocksparse_problem(3)
    periodic = ps.periodic(prob.m, prob.p, 3, 12, ("zero",))
    sched = {"synchronous": synchronous(prob.m, prob.p), "periodic-zero": periodic,
             "explicit-zero-lags": _zero_lag_copy(periodic)}[schedule]
    assert ps.schedule.read_depth(sched) == 0
    cfg = ps.SolverConfig(max_iter=30, resid_tol=0.0, exact_tol=-1.0)
    calls = _count_lag_lookups(monkeypatch)
    res = ps.run(prob, cfg, sched)
    assert calls == []
    monkeypatch.undo()
    ref, final, _ = lagged_reference_run(prob, cfg, sched, cfg.max_iter)
    assert res.trace == ref
    assert np.array_equal(res.final.data, final.data)


def test_a_lagged_schedule_looks_up_each_activated_block_once(monkeypatch):
    prob = random_blocksparse_problem(3)
    sched = ps.periodic(prob.m, prob.p, 3, 12, ("sawtooth", 2))
    cfg = ps.SolverConfig(max_iter=30, resid_tol=0.0, exact_tol=-1.0)
    calls = _count_lag_lookups(monkeypatch)
    res = ps.run(prob, cfg, sched)
    assert calls == [(idx, n) for n in range(cfg.max_iter) for side in sched.blocks_at(n)
                     for idx in side]
    monkeypatch.undo()
    ref, final, _ = lagged_reference_run(prob, cfg, sched, cfg.max_iter)
    assert res.trace == ref
    assert np.array_equal(res.final.data, final.data)


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
@pytest.mark.parametrize("schedule", ["random", "periodic-2", "periodic-3"])
def test_exact_subsets_on_mixed_block_dims_match_the_blockwise_reference(mode, schedule):
    # the activated coordinates of several blocks of different dims are one index array,
    # and each operator group finds its rows among them; on couplings with several block
    # shapes a block-by-block read sums in another order than the batched apply, so the
    # reference reads its slices of the full apply, as the engine's buffered images hold them
    several = shapes = 0
    for seed in range(12):
        prob = random_problem(seed)
        m, p = prob.m, prob.p
        sched = {"random": lambda: ps.random_admissible(m, p, M=3, D=4, horizon=64, seed=seed),
                 "periodic-2": lambda: ps.periodic(m, p, 2, 24, ("sawtooth", 2)),
                 "periodic-3": lambda: ps.periodic(m, p, 3, 24, ("zero",))}[schedule]()
        cfg = ps.SolverConfig(mode=mode, max_iter=40, resid_tol=0.0, exact_tol=-1.0)
        res = ps.run(prob, cfg, sched)
        one_shape = len(prob.coupling._stacks) == 1
        ref, final, _ = lagged_reference_run(prob, cfg, sched, cfg.max_iter, not one_shape)
        assert res.trace == ref
        assert np.array_equal(res.final.data, final.data)
        sig, shapes = prob.signature, shapes + (not one_shape)
        several += sum(1 < len(active) < len(dims) and len(set(dims)) > 1
                       for n in range(cfg.max_iter)
                       for active, dims in zip(sched.blocks_at(n), (sig.primal_dims,
                                                                    sig.dual_dims)))
    assert shapes > 0 and (several > 0 or schedule == "periodic-3")


def _ring_problem(m):
    """m = p blocks of dimension 2; dual block k couples primal blocks k and k+1."""
    sig = ps.SpaceSignature((2,) * m, (2,) * m)
    entries = {(k, k): np.eye(2) for k in range(m)}
    entries.update({(k, (k + 1) % m): 0.5 * np.eye(2) for k in range(m) if m > 1})
    return ps.ProblemSpec(sig, [ps.l1_norm(2)] * m, [ps.quadratic(np.eye(2), [1.0, -1.0])] * m,
                          ps.CouplingMap(sig, entries), ps.BlockVector([np.zeros(2)] * m),
                          ps.BlockVector([np.zeros(2)] * m))


def _coupling_calls_per_iteration(monkeypatch, m, iters):
    """(per-block applies, full applies, restricted entries, activated blocks) per iteration.

    Every apply of the coupling stacks goes through CouplingMap._products: a
    full apply multiplies every entry, a restricted one only the entries it
    picks, which are counted.
    """
    import pdsplit.blockspace
    import pdsplit.engine
    import pdsplit.separator
    calls = {"block": 0, "full": 0, "entries": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper
    for module in (pdsplit.blockspace, pdsplit.engine, pdsplit.separator):
        for name in ("forward_block", "adjoint_block"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted("block", getattr(module, name)))
    products = ps.CouplingMap._products

    def counted_products(cmap, v, adjoint, picks=None):
        out = products(cmap, v, adjoint, picks)
        if picks is None or all(isinstance(pick, slice) for pick in picks):
            calls["full"] += 1
        else:
            calls["entries"] += sum(len(prod) for prod in out)
        return out
    monkeypatch.setattr(ps.CouplingMap, "_products", counted_products)
    problem = _ring_problem(m)
    sched = ps.periodic(m, m, group_size=1, horizon=4 * m)
    cfg = fejer_config(start=None, max_iter=iters)
    state = EngineState.initial(problem, cfg, sched)
    rows = []
    for n in range(iters):
        before = dict(calls)
        assert advance(state) is None
        I_n, K_n = sched.blocks_at(n)
        rows.append(tuple(calls[key] - before[key] for key in ("block", "full", "entries"))
                    + (len(I_n) + len(K_n),))
    return rows


def test_iteration_cost_follows_the_activated_blocks(monkeypatch):
    # iteration 0 activates every block: the kept images L a and L* b* take a
    # full apply each, besides the 2 for the images of the new iterate
    for m in (12, 48):
        rows = _coupling_calls_per_iteration(monkeypatch, m, 30)
        assert rows[0] == (0, 4, 0, 2 * m)
        # then one block per side: the new iterate's 2 full applies, and the
        # kept images recompute only the entries that read the activated
        # blocks, 2 per side on the ring whatever m is
        assert {row for row in rows[1:]} == {(0, 2, 4, 2)}


@pytest.mark.parametrize("mode", ["fejer", "haugazeau"])
def test_an_iterate_that_does_not_move_costs_no_full_apply(monkeypatch, mode):
    # a theta = 0 step keeps the iterate, and iterate n + 1 reuses the buffered L x and
    # L* v* of iterate n; any other step applies L and L* to the new iterate once each
    prob = random_blocksparse_problem(3)
    sched = _SCHEDULES["round-robin"](prob.m, prob.p)
    cfg = ps.SolverConfig(mode=mode, max_iter=60, resid_tol=0.0, exact_tol=-1.0)
    full, products = [0], ps.CouplingMap._products

    def counted_products(cmap, v, adjoint, picks=None):
        full[0] += picks is None or all(isinstance(pick, slice) for pick in picks)
        return products(cmap, v, adjoint, picks)
    monkeypatch.setattr(ps.CouplingMap, "_products", counted_products)
    state, still = EngineState.initial(prob, cfg, sched), 0
    for n in range(cfg.max_iter):
        before, current = full[0], state.current
        assert advance(state) is None
        moved = state.last_record.theta != 0.0
        # iteration 0 activates every block, so the kept images take a full apply each
        assert full[0] - before == (2 if n == 0 else 0) + (2 if moved else 0)
        assert (state.current is current) == (not moved)
        still += not moved
    assert still > 0
    monkeypatch.undo()
    ref, final, _ = lagged_reference_run(prob, cfg, sched, cfg.max_iter)
    assert state.trace == ref
    assert np.array_equal(state.current.data, final.data)


def test_a_negative_exact_tol_skips_the_exact_point_test(monkeypatch):
    # no norm can pass it, so neither the candidate pair nor its norms are built
    def exact_point_test(*args):
        raise AssertionError("the exact-point test ran")
    monkeypatch.setattr(ps.engine, "detect_exact_solution", exact_point_test)
    result = ps.run(random_problem(3), ps.SolverConfig(max_iter=5, resid_tol=0.0, exact_tol=-1.0))
    assert (result.status, result.iterations) == ("max_iter", 5)
    with pytest.raises(AssertionError, match="exact-point test"):
        ps.run(random_problem(3), ps.SolverConfig(max_iter=5, resid_tol=0.0, exact_tol=0.0))
