import numpy as np
import pytest

import pdsplit as ps
from pdsplit.engine import EngineState, advance
from pdsplit.errors import InconsistencyError
from pdsplit.operators import resolvent
from pdsplit.schedule import synchronous

from conftest import (PROX_REPRESENTABLE, function_value, make_lasso_problem,
                      make_linear_primal_problem, make_scalar_problem, point,
                      random_blocksparse_problem, random_registry_op)
from oracle import (InvariantViolation, check_step, closed_form_Z_box, grid_minimize,
                    lagged_reference_run, project_intersection_two_halfspaces)


def test_grid_minimize_1d_frozen():
    got = grid_minimize(lambda a: abs(a[0]) + a[0] ** 2 / 2.0, [(-5.0, 5.0)], 1e-4)
    assert abs(got[0]) <= 1e-6
    got = grid_minimize(lambda a: abs(a[0]) + (a[0] - 2.0) ** 2 / 2.0, [(-5.0, 5.0)], 1e-4)
    assert abs(got[0] - 1.0) <= 1e-6


def test_grid_minimize_2d_frozen():
    def obj(x):
        return 0.5 * ((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2) + abs(x[0]) + abs(x[1])
    got = grid_minimize(obj, [(-3.0, 3.0)] * 2, 2e-2)
    assert np.linalg.norm(got - np.array([1.0, 0.0])) <= 1e-2


def test_grid_minimize_boundary_warning():
    with pytest.warns(UserWarning, match="boundary"):
        grid_minimize(lambda a: a[0], [(-1.0, 1.0)], 1e-2)


def _prox_objective(op, u, gamma):
    def obj(a):
        return function_value(op, a) + float(np.dot(a - u, a - u)) / (2.0 * gamma)
    return obj


@pytest.mark.parametrize("seed", range(4))
def test_resolvent_agrees_with_grid_1d(seed):
    # prox-representable kinds: resolvent == argmin f(a) + ||u-a||^2/(2*gamma)
    rng = np.random.default_rng(seed)
    ops = [op for op in [random_registry_op(rng, 1, False) for _ in range(8)]
           if op.kind in PROX_REPRESENTABLE]
    gamma = float(rng.uniform(0.5, 2.0))
    for op in ops[:3]:
        u = rng.uniform(-2.0, 2.0, 1)
        ref = grid_minimize(_prox_objective(op, u, gamma), [(-8.0, 8.0)], 1e-4)
        assert np.linalg.norm(resolvent(op, gamma, u) - ref) <= 1e-3


@pytest.mark.parametrize("op,gamma,u", [
    (ps.l1_norm(2, 1.5), 0.8, np.array([1.3, -0.4])),
    (ps.box_indicator([-1.0, -0.5], [0.5, 1.0]), 1.7, np.array([1.8, 0.2])),
    (ps.quadratic(np.eye(2), [-2.0, -1.0]), 1.0, np.array([0.3, -0.9])),
    (ps.zero(2), 1.2, np.array([-1.1, 0.7])),
], ids=["l1", "box", "quadratic", "zero"])
def test_resolvent_agrees_with_grid_2d(op, gamma, u):
    ref = grid_minimize(_prox_objective(op, u, gamma), [(-3.0, 3.0)] * 2, 1.25e-2)
    assert np.linalg.norm(resolvent(op, gamma, u) - ref) <= 1e-3


def test_projector_inside_both():
    x = np.array([0.0, 0.0])
    h1 = (np.array([1.0, 0.0]), 1.0)
    h2 = (np.array([0.0, 1.0]), 1.0)
    assert np.array_equal(project_intersection_two_halfspaces(x, h1, h2), x)


def test_projector_single_active():
    x = np.array([3.0, 0.0])
    h1 = (np.array([1.0, 0.0]), 1.0)
    h2 = (np.array([0.0, 1.0]), 1.0)
    got = project_intersection_two_halfspaces(x, h1, h2)
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)


def test_projector_corner_case():
    # the worked triple: project origin onto {h1 >= 1} as <-h1 <= -1> etc.
    x = np.zeros(2)
    h1 = (np.array([-1.0, 0.0]), -1.0)   # h[0] >= 1
    h2 = (np.array([0.0, 1.0]), -1.0)    # h[1] <= -1
    got = project_intersection_two_halfspaces(x, h1, h2)
    assert np.allclose(got, [1.0, -1.0], atol=1e-12)


def test_projector_empty_intersection():
    x = np.zeros(2)
    h1 = (np.array([1.0, 0.0]), -1.0)    # u0 <= -1
    h2 = (np.array([-1.0, 0.0]), -1.0)   # u0 >= 1
    with pytest.raises(InconsistencyError):
        project_intersection_two_halfspaces(x, h1, h2)


def test_projector_properties():
    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x = rng.normal(size=d) * 2
        n1 = rng.normal(size=d)
        n2 = rng.normal(size=d)
        o1 = float(rng.normal())
        o2 = float(rng.normal())
        proj = project_intersection_two_halfspaces(x, (n1, o1), (n2, o2))
        assert np.dot(n1, proj) - o1 <= 1e-12 * (1 + np.linalg.norm(x))
        assert np.dot(n2, proj) - o2 <= 1e-12 * (1 + np.linalg.norm(x))
        # variational inequality against 50 sampled feasible points
        count = 0
        while count < 50:
            h = proj + rng.normal(size=d)
            if np.dot(n1, h) <= o1 and np.dot(n2, h) <= o2:
                assert np.dot(x - proj, h - proj) <= 1e-9
                count += 1


def test_closed_form_Z_box():
    assert closed_form_Z_box(5.0, 3.0) == (1.0, 0.0)
    assert closed_form_Z_box(0.0, 0.0) == (0.0, 0.0)
    assert closed_form_Z_box(-7.0, -2.0) == (-1.0, 0.0)


# --- the per-step invariant checker ------------------------------------------
# Each case takes one real step, which must pass check_step, then breaks one
# guarantee: the graph, the fixture list, or the point the step started from.

def _l1_problem():
    return make_scalar_problem(ps.l1_norm(1), ps.affine_monotone([[1.0]]), z_fixtures=[(0.0, 0.0)])


def _box_problem():
    return make_scalar_problem(ps.zero(1), ps.normal_cone_box([-1.0], [1.0]),
                               z_fixtures=[(0.5, 0.0), (-1.0, 0.0), (1.0, 0.0)])


def _move_graph_dual(state, before):
    state.graph.a_dual += 5.0
    return before


def _add_non_solution_fixture(state, before):
    state.problem.known_Z_points = (point([[5.0]], [[0.0]]),)
    return before


def _start_at_the_solution(state, before):
    return state.problem.known_Z_points[0]


def _start_far_from_the_anchor(state, before):
    return state.anchor + point([[100.0]], [[0.0]])


def _leave_the_subspace(state, before):
    state.current = point([[1.0, 1.0]], [[1.0, 1.0]])
    return state.current


@pytest.mark.parametrize("make, mode, start, corrupt, message", [
    pytest.param(_l1_problem, "fejer", point([[2.0]], [[0.0]]), _move_graph_dual,
                 "primal graph point 0 off its graph at n=0", id="graph-membership"),
    pytest.param(_l1_problem, "fejer", point([[2.0]], [[0.0]]), _add_non_solution_fixture,
                 "half-space at n=0 cuts off fixture solution 0", id="halfspace"),
    pytest.param(_l1_problem, "fejer", point([[2.0]], [[0.0]]), _start_at_the_solution,
                 "distance to fixture solution 0 increased at n=0", id="fejer-monotone"),
    pytest.param(_box_problem, "haugazeau", point([[5.0]], [[3.0]]), _start_far_from_the_anchor,
                 "anchor distance decreased at n=0", id="anchor-distance"),
    pytest.param(lambda: make_linear_primal_problem("linear_primal"), "fejer", None,
                 _leave_the_subspace, "iterate left the subspace at n=0", id="subspace"),
])
def test_check_step_catches_each_broken_guarantee(make, mode, start, corrupt, message):
    problem = make()
    cfg = ps.SolverConfig(mode=mode, relaxation=1.0, max_iter=1, resid_tol=0.0,
                          exact_tol=-1.0, start=start)
    state = EngineState.initial(problem, cfg, synchronous(problem.m, problem.p))
    before = state.current
    assert advance(state) is None
    check_step(state, before, 0)
    with pytest.raises(InvariantViolation, match=message):
        check_step(state, corrupt(state, before), 0)


def _scaled_theta(project):
    def mutant(z, normal, *args):
        theta, nxt = project(z, normal, *args)
        theta *= 1.0 + 1e-13
        return theta, z if nxt is z else z - theta * normal
    return mutant


def _scaled_level(build):
    def mutant(*args):
        normal, level, tau, raw = build(*args)
        return normal, level * (1.0 + 1e-13), tau, raw
    return mutant


@pytest.mark.parametrize("case", ["lasso-haugazeau", "lagged-fejer"])
def test_the_reference_catches_a_last_bit_change_in_the_coordination_step(monkeypatch, case):
    # the reference computes the half-space, the projection and the anchored update itself;
    # while it called the engine's own routines, these mutations passed every comparison
    if case == "lasso-haugazeau":
        prob, mode, sched = make_lasso_problem(), "haugazeau", synchronous(1, 1)
    else:
        prob, mode = random_blocksparse_problem(3), "fejer"
        sched = ps.random_admissible(prob.m, prob.p, M=3, D=4, horizon=64, seed=3)
    cfg = ps.SolverConfig(mode=mode, max_iter=60, resid_tol=0.0, exact_tol=-1.0)
    ref, final, _ = lagged_reference_run(prob, cfg, sched, cfg.max_iter)
    res = ps.run(prob, cfg, sched)
    assert res.trace == ref and np.array_equal(res.final.data, final.data)
    for name, mutate in (("project_halfspace", _scaled_theta),
                         ("build_separator", _scaled_level)):
        with monkeypatch.context() as patch:
            patch.setattr(ps.engine, name, mutate(getattr(ps.engine, name)))
            assert ps.run(prob, cfg, sched).trace != ref, name


def _nudge_linear_resolvents(patch):
    resolve = ps.operators.stacked_resolvent

    def nudged(kind, params, u):
        out = resolve(kind, params, u)
        return np.nextafter(out, np.inf) if kind in ps.operators.LINEAR_KINDS else out
    for module in (ps.operators, ps.engine):  # every module a source edit would reach
        patch.setattr(module, "stacked_resolvent", nudged)


def _nudge_coupling_products(patch):
    products = ps.CouplingMap._products

    def nudged(cmap, v, adjoint, picks=None):
        return [np.nextafter(prod, np.inf) for prod in products(cmap, v, adjoint, picks)]
    patch.setattr(ps.CouplingMap, "_products", nudged)


@pytest.mark.parametrize("nudge", [_nudge_linear_resolvents, _nudge_coupling_products],
                         ids=["linear-resolvents", "coupling-products"])
@pytest.mark.parametrize("make, mode, make_sched", [
    pytest.param(make_lasso_problem, "haugazeau", lambda prob: synchronous(1, 1),
                 id="lasso-haugazeau"),
    pytest.param(lambda: random_blocksparse_problem(3), "fejer",
                 lambda prob: ps.random_admissible(prob.m, prob.p, M=3, D=4, horizon=64, seed=3),
                 id="lagged-fejer"),
])
def test_the_reference_catches_a_last_bit_change_in_the_decomposition_phase(
        monkeypatch, make, mode, make_sched, nudge):
    # a nudge stands for a source edit, so the reference runs under it too; while the reference
    # evaluated its resolvents through the package's, a one-ulp change to them passed both cases
    prob = make()
    sched = make_sched(prob)
    cfg = ps.SolverConfig(mode=mode, max_iter=60, resid_tol=0.0, exact_tol=-1.0)
    with monkeypatch.context() as patch:
        nudge(patch)
        assert ps.run(prob, cfg, sched).trace != lagged_reference_run(prob, cfg, sched, 60)[0]
