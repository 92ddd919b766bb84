"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

import pdsplit as ps
from pdsplit import fileio
from pdsplit.blockspace import pd_norm
from pdsplit.cli import main
from pdsplit.engine import EngineState, advance, haugazeau_update
from pdsplit.operators import (InexactnessBudget, inexact_dual, inexact_primal,
                               stacked_parameters)
from pdsplit.schedule import synchronous
from pdsplit.separator import kt_residual

from conftest import (make_lasso_problem, make_linear_primal_problem,
                      make_scalar_problem, point, random_problem)
from oracle import (GraphPoint, InvariantViolation, checked_run, closed_form_Z_box,
                    fejer_reference_trace, graph_point_dual, graph_point_primal, grid_minimize,
                    project_intersection_two_halfspaces, validate_inexact_dual,
                    validate_inexact_primal)


def _finish(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def l1_identity_problem():
    return make_scalar_problem(ps.l1_norm(1), ps.affine_monotone([[1.0]]),
                               z_fixtures=[(0.0, 0.0)])


def box_problem():
    return make_scalar_problem(ps.zero(1), ps.normal_cone_box([-1.0], [1.0]),
                               z_fixtures=[(0.5, 0.0), (-1.0, 0.0), (1.0, 0.0)])


def test_criterion_1_scalar_inclusion_fejer():
    # independent ground truth: argmin |x| + x^2/2 is 0
    oracle = grid_minimize(lambda a: abs(a[0]) + a[0] ** 2 / 2.0, [(-5.0, 5.0)], 1e-4)
    assert abs(oracle[0]) <= 1e-6
    prob = l1_identity_problem()
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, gamma=1.0, mu=1.0,
                          max_iter=5000, resid_tol=2.5e-7, start=point([[2.0]], [[0.0]]))
    schedules = [("synchronous", None)]
    schedules += [(f"random seed {s}", ps.random_admissible(1, 1, M=3, D=5,
                                                            horizon=512, seed=s))
                  for s in (1, 2, 3)]
    details = []
    ok = True
    for label, sched in schedules:
        t0 = time.perf_counter()
        res = checked_run(prob, cfg, sched)
        elapsed = time.perf_counter() - t0
        resid = res.trace[-1].residual_sum()
        dist = pd_norm(res.final - point([[0.0]], [[0.0]]))
        case_ok = (res.status == "solved" and res.iterations <= 5000
                   and resid <= 1e-6 and dist <= 1e-4 and elapsed < 1.0)
        ok = ok and case_ok
        details.append(f"{label}: n={res.iterations} resid={resid:.2e} "
                       f"dist={dist:.2e} {elapsed * 1e3:.0f}ms")
    _finish("1 (scalar inclusion, Fejer engine)", ok, "; ".join(details))


def test_criterion_2_box_best_approximation():
    target = closed_form_Z_box(5.0, 3.0)
    assert target == (1.0, 0.0)
    prob = box_problem()
    anchor = point([[5.0]], [[3.0]])
    cfg = ps.SolverConfig(mode="haugazeau", max_iter=20000, resid_tol=1e-9,
                          start=anchor)
    best_dist = pd_norm(point([[1.0]], [[0.0]]) - anchor)
    details = []
    ok = True
    for label, sched in (("synchronous", synchronous(1, 1)),
                         ("M=2 D=3", ps.random_admissible(1, 1, M=2, D=3,
                                                          horizon=512, seed=7))):
        state = EngineState.initial(prob, cfg, sched)
        dist = pd_norm(state.current - state.anchor)
        monotone = True
        bounded = True
        terminal = None
        for _ in range(cfg.max_iter):
            terminal = advance(state)
            new_dist = pd_norm(state.current - state.anchor)
            monotone = monotone and new_dist >= dist - 1e-10
            bounded = bounded and new_dist <= best_dist + 1e-8
            dist = new_dist
            if terminal is not None:
                break
        final = terminal[1] if terminal is not None else state.current
        err = pd_norm(final - point([[1.0]], [[0.0]]))
        case_ok = err <= 1e-4 and state.n <= 20000 and monotone and bounded
        ok = ok and case_ok
        details.append(f"{label}: n={state.n} err={err:.2e} monotone={monotone}")
    _finish("2 (box fixture, best approximation)", ok, "; ".join(details))


def test_criterion_3_lasso_both_engines():
    def obj(x):
        return 0.5 * ((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2) + abs(x[0]) + abs(x[1])
    oracle = grid_minimize(obj, [(-3.0, 3.0)] * 2, 2e-2)
    assert np.linalg.norm(oracle - np.array([1.0, 0.0])) <= 1e-2
    prob = make_lasso_problem()
    target = point([[1.0, 0.0]], [[-1.0, -1.0]])
    details = []
    ok = True
    for mode in ("fejer", "haugazeau"):
        cfg = ps.SolverConfig(mode=mode, max_iter=10000, resid_tol=3e-6)
        res = checked_run(prob, cfg)
        kt = kt_residual(prob, res.final).max
        primal_err = float(np.linalg.norm(res.final.x.blocks[0] - target.x.blocks[0]))
        case_ok = res.iterations <= 10000 and kt <= 1e-4 and primal_err <= 1e-3
        ok = ok and case_ok
        details.append(f"{mode}: n={res.iterations} kt={kt:.2e} err={primal_err:.2e}")
    _finish("3 (2-dim composite minimization)", ok, "; ".join(details))


def test_criterion_4_property_suite_random_problems():
    # invariant checking raises on: half-space validity vs fixture (1e-10),
    # graph membership (1e-9 scaled), Fejer monotonicity (1e-10),
    # subspace residual of iterates (1e-9)
    violations = 0
    for seed in range(50):
        prob = random_problem(seed)
        rng = np.random.default_rng(1000 + seed)
        sched = ps.random_admissible(prob.m, prob.p, M=int(rng.integers(1, 4)),
                                     D=int(rng.integers(0, 5)), horizon=256,
                                     seed=seed)
        cfg = ps.SolverConfig(mode="fejer", relaxation=1.5, max_iter=200,
                              resid_tol=0.0, exact_tol=-1.0)
        try:
            checked_run(prob, cfg, sched)
        except InvariantViolation as exc:
            violations += 1
            print(f"seed {seed}: {exc}")
    _finish("4 (property suite, 50 random problems x 200 iterations)",
            violations == 0, f"violations={violations}")


def test_criterion_5_anchored_update_vs_projection_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        split = max(1, d // 2)
        x0, y, z = rng.normal(size=(3, d))
        got = haugazeau_update(x0, y, z, split)
        ref = project_intersection_two_halfspaces(
            x0, (x0 - y, float(np.dot(y, x0 - y))), (y - z, float(np.dot(z, y - z))))
        worst = max(worst, float(np.linalg.norm(got - ref)))
    y = np.array([1.0, 2.0, 0.5])
    z = np.array([0.0, 1.0, 2.0])
    degenerate_ok = (haugazeau_update(np.zeros(3), y, y, 2) is y
                     and haugazeau_update(y, y, z, 2) is z)
    _finish("5 (anchored update vs projection oracle)",
            worst <= 1e-9 and degenerate_ok,
            f"max_err={worst:.2e} degenerate={degenerate_ok}")


def test_criterion_6_linear_primal_subspace():
    Q1 = np.diag([1.0, 2.0])
    prob_full = make_linear_primal_problem("full")
    prob_lin = make_linear_primal_problem("linear_primal")
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=20000, resid_tol=1e-8)
    res_full = checked_run(prob_full, cfg)
    sched = synchronous(1, 1)
    state = EngineState.initial(prob_lin, cfg, sched)
    worst_constraint = float(np.linalg.norm(
        Q1 @ state.current.x.blocks[0] + state.current.v_star.blocks[0]))
    for _ in range(cfg.max_iter):
        if advance(state) is not None:
            break
        worst_constraint = max(worst_constraint, float(np.linalg.norm(
            Q1 @ state.current.x.blocks[0] + state.current.v_star.blocks[0])))
        if state.last_record.residual_sum() <= cfg.resid_tol:
            break
    gap = float(np.linalg.norm(res_full.final.x.blocks[0] - state.current.x.blocks[0]))
    ok = worst_constraint <= 1e-9 and gap <= 1e-4
    _finish("6 (structured subspace run)", ok,
            f"constraint={worst_constraint:.2e} primal_gap={gap:.2e}")


def test_criterion_7_synchronous_equivalence(tmp_path):
    cases = [
        ("scalar", l1_identity_problem(),
         ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=200, resid_tol=0.0,
                         exact_tol=-1.0, start=point([[2.0]], [[0.0]]))),
        ("lasso", make_lasso_problem(),
         ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=200, resid_tol=0.0,
                         exact_tol=-1.0)),
    ]
    ok = True
    details = []
    for label, prob, cfg in cases:
        res = ps.run(prob, cfg)
        ref, _ = fejer_reference_trace(prob, cfg, cfg.max_iter)
        pa = tmp_path / f"{label}_engine.csv"
        pb = tmp_path / f"{label}_reference.csv"
        fileio.write_trace(res.trace, pa, len(prob.known_Z_points))
        fileio.write_trace(ref, pb, len(prob.known_Z_points))
        code = main(["compare", "--trace-a", str(pa), "--trace-b", str(pb),
                     "--tol", "0"])
        ok = ok and code == 0
        details.append(f"{label}: exit={code}")
    _finish("7 (synchronous equivalence, byte-level)", ok, "; ".join(details))


def test_criterion_8_inexact_mode():
    prob = l1_identity_problem()
    budget = InexactnessBudget(beta=1.0, sigma=0.3, delta=1.0, zeta=0.3)
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=20000,
                          resid_tol=2.5e-5, start=point([[2.0]], [[0.0]]),
                          inexact=budget, perturbation=ps.PerturbationRule(seed=5, scale=0.25))
    res = ps.run(prob, cfg)
    resid = res.trace[-1].residual_sum()
    used = res.metadata["perturb_accepted"]
    converged = (res.status == "solved" and res.iterations <= 20000
                 and resid <= 1e-4 and used > 0)

    # wrapper rejections, exhaustive over the three error conditions per side
    l1 = ps.l1_norm(1)
    loose = InexactnessBudget(beta=10.0, sigma=0.5, delta=10.0, zeta=0.5)
    tight = InexactnessBudget(beta=1.0, sigma=0.5, delta=1.0, zeta=0.5)
    cand = GraphPoint(np.array([1.0]), np.array([1.0]))
    zero1 = np.zeros(1)
    got = [
        validate_inexact_primal(l1, cand, np.array([-3.0]), zero1, zero1, 1.0, tight).reason,
        validate_inexact_primal(l1, cand, np.array([1.9]), np.array([1.0]), zero1,
                                1.0, loose).reason,
        validate_inexact_primal(l1, cand, np.array([4.0]), zero1, zero1, 1.0, loose).reason,
    ]
    aff = ps.affine_monotone([[1.0]])
    got_dual = [
        validate_inexact_dual(aff, cand, np.array([-3.0]), zero1, zero1, 1.0, tight).reason,
        validate_inexact_dual(aff, cand, np.array([-1.0]), zero1, zero1, 1.0, loose).reason,
        validate_inexact_dual(aff, cand, np.array([1.2]), zero1, zero1, 1.0, loose).reason,
    ]
    ids_ok = (got == ["norm-bound", "sigma-dual", "sigma-primal"]
              and got_dual == ["norm-bound", "zeta-primal", "zeta-dual"])

    # the package's per-group check, one row per call: it rejects the same six
    # candidates and accepts the oracle's exact graph points
    def package(check, op, c, read0, read1, budget):
        return bool(check(op.kind, stacked_parameters([op], [1.0]), c.point[None], c.dual[None],
                          np.array([read0]), np.array([read1]), np.ones((1, 1)),
                          np.zeros((1, 1)), budget)[0])
    rejects_six = not any([
        package(inexact_primal, l1, cand, [-3.0], zero1, tight),
        package(inexact_primal, l1, cand, [1.9], [1.0], loose),
        package(inexact_primal, l1, cand, [4.0], zero1, loose),
        package(inexact_dual, aff, cand, [-3.0], zero1, tight),
        package(inexact_dual, aff, cand, [-1.0], zero1, loose),
        package(inexact_dual, aff, cand, [1.2], zero1, loose)])
    accepts_exact = all([
        package(inexact_primal, l1, graph_point_primal(l1, zero1, 1.0, np.array([2.0]), zero1),
                [2.0], zero1, loose),
        package(inexact_dual, aff, graph_point_dual(aff, zero1, 1.0, np.array([1.0]), zero1),
                [1.0], zero1, loose)])
    _finish("8 (inexact resolvent mode)", converged and ids_ok and rejects_six and accepts_exact,
            f"n={res.iterations} resid={resid:.2e} accepted={used} ids={got + got_dual} "
            f"package rejects the six={rejects_six} accepts exact={accepts_exact}")


def test_criterion_9_determinism(tmp_path):
    runs = [
        ("fix1_sync", l1_identity_problem(), None,
         ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=5000, resid_tol=2.5e-7,
                         start=point([[2.0]], [[0.0]]))),
        ("fix1_async", l1_identity_problem(),
         ps.random_admissible(1, 1, M=3, D=5, horizon=512, seed=2),
         ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=5000, resid_tol=2.5e-7,
                         start=point([[2.0]], [[0.0]]))),
        ("fix2", box_problem(),
         ps.random_admissible(1, 1, M=2, D=3, horizon=512, seed=7),
         ps.SolverConfig(mode="haugazeau", max_iter=20000, resid_tol=1e-9,
                         start=point([[5.0]], [[3.0]]))),
        ("fix3", make_lasso_problem(), None,
         ps.SolverConfig(mode="haugazeau", max_iter=10000, resid_tol=3e-6)),
    ]
    ok = True
    details = []
    for label, prob, sched, cfg in runs:
        paths = []
        for rep in range(2):
            res = ps.run(prob, cfg, sched)
            path = tmp_path / f"{label}_{rep}.csv"
            fileio.write_trace(res.trace, path, len(prob.known_Z_points))
            paths.append(path)
        same = paths[0].read_bytes() == paths[1].read_bytes()
        ok = ok and same
        details.append(f"{label}: identical={same}")
    _finish("9 (byte-identical reruns)", ok, "; ".join(details))
