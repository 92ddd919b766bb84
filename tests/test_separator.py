import math
import re

import numpy as np
import pytest

import pdsplit as ps
from pdsplit.blockspace import pd_inner, pd_norm
from pdsplit.errors import ConfigError, DimensionError
from pdsplit.operators import resolvent
from pdsplit.separator import (build_projector, build_separator, detect_exact_solution,
                               halfspace_violation, kt_residual, project_halfspace)

from conftest import (graph_table, make_lasso_problem, make_linear_primal_problem,
                      make_scalar_problem, point)
from oracle import GraphPoint


def scalar_problem():
    return make_scalar_problem(ps.l1_norm(1), ps.affine_monotone([[1.0]]),
                               z_fixtures=[(0.0, 0.0)])


# --- subspace projections ------------------------------------------------

def test_full_projection_is_identity():
    prob = scalar_problem()
    u = point([[2.0]], [[3.0]])
    assert prob.projector.project(u) is u


def test_zero_sum_dual_centering():
    sig = ps.SpaceSignature((1,), (1, 1))
    proj = build_projector(ps.SubspaceSpec("zero_sum_dual"), sig)
    u = point([[7.0]], [[3.0], [-1.0]])
    out = proj.project(u)
    assert out.x.blocks[0][0] == 7.0
    assert out.v_star.blocks[0][0] == 2.0 and out.v_star.blocks[1][0] == -2.0


def test_zero_sum_dual_requires_equal_dims():
    sig = ps.SpaceSignature((1,), (1, 2))
    with pytest.raises(ConfigError):
        build_projector(ps.SubspaceSpec("zero_sum_dual"), sig)


def test_nullspace_projection():
    sig = ps.SpaceSignature((1,), (1,))
    proj = build_projector(ps.SubspaceSpec("nullspace", C=[[1.0, 1.0]]), sig)
    out = proj.project(point([[3.0]], [[1.0]]))
    assert abs(out.x.blocks[0][0] - 1.0) <= 1e-12
    assert abs(out.v_star.blocks[0][0] + 1.0) <= 1e-12


def test_nullspace_drops_dependent_rows():
    sig = ps.SpaceSignature((1,), (1,))
    # second row is a multiple of the first; same subspace
    proj = build_projector(ps.SubspaceSpec("nullspace", C=[[1.0, 1.0], [2.0, 2.0]]), sig)
    out = proj.project(point([[3.0]], [[1.0]]))
    assert abs(out.x.blocks[0][0] - 1.0) <= 1e-12


def _projector_cases():
    sig_a = ps.SpaceSignature((2,), (1, 1))
    yield build_projector(ps.SubspaceSpec("zero_sum_dual"), sig_a), sig_a
    yield build_projector(
        ps.SubspaceSpec("nullspace", C=np.random.default_rng(0).normal(size=(2, 4))),
        sig_a), sig_a
    prob = make_linear_primal_problem("linear_primal")
    yield prob.projector, prob.signature


@pytest.mark.parametrize("proj,sig", list(_projector_cases()),
                         ids=["zero_sum_dual", "nullspace", "linear_primal"])
def test_projection_properties(proj, sig):
    # idempotent, self-adjoint, norm-nonexpansive on 500 random vectors
    rng = np.random.default_rng(42)

    def sample():
        return point([rng.normal(size=d) for d in sig.primal_dims],
                     [rng.normal(size=d) for d in sig.dual_dims])

    for _ in range(500):
        u, v = sample(), sample()
        pu, pv = proj.project(u), proj.project(v)
        assert pd_norm(proj.project(pu) - pu) <= 1e-10
        assert abs(pd_inner(pu, v) - pd_inner(u, pv)) <= 1e-10
        assert pd_norm(pu) <= pd_norm(u) + 1e-10


def test_linear_primal_requires_structure():
    with pytest.raises(ConfigError, match="z_star"):
        sig = ps.SpaceSignature((1,), (1,))
        ps.ProblemSpec(sig, [ps.quadratic([[1.0]])], [ps.affine_monotone([[1.0]])],
                       ps.CouplingMap(sig, {(0, 0): [[1.0]]}),
                       ps.BlockVector([[1.0]]), ps.BlockVector([[0.0]]),
                       ps.SubspaceSpec("linear_primal", A1=[[1.0]]))
    with pytest.raises(ConfigError, match="linear"):
        sig = ps.SpaceSignature((1,), (1,))
        ps.ProblemSpec(sig, [ps.l1_norm(1)], [ps.affine_monotone([[1.0]])],
                       ps.CouplingMap(sig, {(0, 0): [[1.0]]}),
                       ps.BlockVector([[0.0]]), ps.BlockVector([[0.0]]),
                       ps.SubspaceSpec("linear_primal", A1=[[1.0]]))


def test_linear_primal_contains_solution():
    prob = make_linear_primal_problem("linear_primal")
    assert prob.projector.residual(prob.known_Z_points[0]) <= 1e-10


# --- separator assembly ---------------------------------------------------

def test_build_separator_hand_example():
    # a = (0,0), b = (1,1): raw normal (1,1), level 1, norm_sq 2
    prob = scalar_problem()
    a = [GraphPoint(np.zeros(1), np.zeros(1))]
    b = [GraphPoint(np.array([1.0]), np.array([1.0]))]
    sep, raw = build_separator(graph_table(a, b), prob)
    assert raw.x.blocks[0][0] == 1.0 and raw.v_star.blocks[0][0] == 1.0
    assert sep.level == 1.0 and sep.norm_sq == 2.0


def test_build_separator_zero_points():
    prob = scalar_problem()
    gp = [GraphPoint(np.zeros(1), np.zeros(1))]
    sep, raw = build_separator(graph_table(gp, gp), prob)
    assert sep.level == 0.0 and sep.norm_sq == 0.0
    assert pd_norm(raw) == 0.0


def test_separator_never_cuts_fixture():
    # graph points sampled anywhere: the fixture solution stays inside
    prob = scalar_problem()
    z = prob.known_Z_points[0]
    rng = np.random.default_rng(7)
    for _ in range(200):
        ua, ub = rng.normal(size=2) * 5
        a_pt = resolvent(prob.A_ops[0], 1.0, np.array([ua]))
        a = [GraphPoint(a_pt, np.array([ua]) - a_pt)]
        b_pt = resolvent(prob.B_ops[0], 1.0, np.array([ub]))
        b = [GraphPoint(b_pt, np.array([ub]) - b_pt)]
        sep, _ = build_separator(graph_table(a, b), prob)
        gap = pd_inner(z, sep.normal) - sep.level
        assert gap <= 1e-10


def test_separator_normal_lies_on_subspace():
    prob = make_linear_primal_problem("linear_primal")
    rng = np.random.default_rng(5)
    for _ in range(50):
        ua = rng.normal(size=2) * 3
        ub = rng.normal(size=2) * 3
        a_pt = resolvent(prob.A_ops[0], 1.0, ua)
        b_pt = resolvent(prob.B_ops[0], 1.0, ub)
        sep, _ = build_separator(graph_table([GraphPoint(a_pt, ua - a_pt)],
                                             [GraphPoint(b_pt, ub - b_pt)]), prob)
        assert prob.projector.residual(sep.normal) <= 1e-10
        assert abs(sep.norm_sq - pd_norm(sep.normal) ** 2) <= 1e-12 * (1 + sep.norm_sq)


def test_detect_exact_solution():
    zero_pt = point([[0.0]], [[0.0]])
    candidate = point([[0.0]], [[0.0]])
    assert detect_exact_solution(zero_pt, candidate, 1e-14) is candidate
    one = point([[1.0]], [[0.0]])
    assert detect_exact_solution(one, candidate, 1e-9) is None
    # on the scalar fixture, zero graph points certify the solution (0, 0)
    prob = scalar_problem()
    res = kt_residual(prob, candidate)
    assert res.max == 0.0


# --- half-space projection -------------------------------------------------

def _sep(tstar, t, level, norm_sq):
    return ps.Separator(point([[tstar]], [[t]]), level, norm_sq)


def test_project_halfspace_no_violation():
    sep = _sep(1.0, 1.0, 10.0, 2.0)
    cur = point([[1.0]], [[1.0]])
    theta, nxt = project_halfspace(cur, sep, 1.0)
    assert theta == 0.0 and nxt is cur


def test_project_halfspace_example():
    sep = _sep(1.0, 1.0, 1.0, 2.0)
    cur = point([[2.0]], [[0.0]])
    theta, nxt = project_halfspace(cur, sep, 1.0)
    assert theta == 0.5
    assert nxt.x.blocks[0][0] == 1.5 and nxt.v_star.blocks[0][0] == -0.5
    # lam = 1 lands exactly on the boundary
    boundary = pd_inner(nxt, sep.normal)
    assert abs(boundary - sep.level) <= 1e-9 * (1 + abs(sep.level))


def test_project_halfspace_overshoot():
    sep = _sep(1.0, 1.0, 1.0, 2.0)
    cur = point([[2.0]], [[0.0]])
    theta, nxt = project_halfspace(cur, sep, 2.0)
    assert theta == 1.0
    assert nxt.x.blocks[0][0] == 1.0 and nxt.v_star.blocks[0][0] == -1.0
    inside = pd_inner(nxt, sep.normal)
    assert inside < sep.level  # reflection lands strictly inside


def test_project_halfspace_zero_normal():
    sep = _sep(0.0, 0.0, 0.0, 0.0)
    cur = point([[5.0]], [[5.0]])
    theta, nxt = project_halfspace(cur, sep, 1.9)
    assert theta == 0.0 and nxt is cur


def test_halfspace_violation_value():
    sep = _sep(1.0, 1.0, 1.0, 2.0)
    assert halfspace_violation(point([[2.0]], [[0.0]]), sep) == 1.0
    assert halfspace_violation(point([[0.0]], [[0.0]]), sep) == 0.0


# --- solution residuals ----------------------------------------------------

def test_kt_residual_scalar_fixture():
    prob = scalar_problem()
    assert kt_residual(prob, point([[0.0]], [[0.0]])).max == 0.0
    res = kt_residual(prob, point([[1.0]], [[0.0]]))
    assert abs(res.primal[0] - 1.0) <= 1e-15  # soft-threshold of 1 is 0


def test_kt_residual_box_fixture():
    prob = make_scalar_problem(ps.zero(1), ps.normal_cone_box([-1.0], [1.0]))
    assert kt_residual(prob, point([[0.5]], [[0.0]])).max == 0.0
    assert kt_residual(prob, point([[2.0]], [[0.0]])).max > 0.1


def test_kt_residual_lasso_solution():
    prob = make_lasso_problem()
    res = kt_residual(prob, point([[1.0, 0.0]], [[-1.0, -1.0]]))
    assert res.max <= 1e-12


# --- problem validation ------------------------------------------------------

def test_problem_rejects_bad_fixture():
    with pytest.raises(ConfigError, match="known_Z_points"):
        make_scalar_problem(ps.l1_norm(1), ps.affine_monotone([[1.0]]),
                            z_fixtures=[(1.0, 1.0)])


@pytest.mark.parametrize("name", ["z_star", "r", "known_Z_points[0]"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_non_finite_offsets_and_fixtures(name, bad):
    lasso = make_lasso_problem()
    fields = {"z_star": lasso.z_star, "r": lasso.r, "known_Z_points[0]": lasso.known_Z_points[0]}
    data = fields[name].data.copy()
    data[1] = bad
    fields[name] = fields[name]._like(data) if name.startswith("known") else ps.BlockVector([data])
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} has non-finite values"):
        ps.ProblemSpec(lasso.signature, lasso.A_ops, lasso.B_ops, lasso.coupling,
                       fields["z_star"], fields["r"], known_Z_points=[fields["known_Z_points[0]"]])


def test_problem_rejects_mismatched_ops():
    sig = ps.SpaceSignature((2,), (1,))
    with pytest.raises(ps.DimensionError):
        ps.ProblemSpec(sig, [ps.l1_norm(1)], [ps.zero(1)],
                       ps.CouplingMap(sig, {}),
                       ps.BlockVector([[0.0, 0.0]]), ps.BlockVector([[0.0]]))


@pytest.mark.parametrize("x", [pytest.param([[1.0, 0.0, 99.0]], id="extra-coordinate"),
                               pytest.param([[1.0], [0.0]], id="mis-split")])
def test_fixtures_and_start_points_are_checked_against_the_signature(x):
    # the lasso solution's x with a wrong block layout: was accepted as a fixture, and
    # kt_residual, which reads only the flat arrays, gave it max 0.0
    lasso, bad = make_lasso_problem(), point(x, [[-1.0, -1.0]])
    with pytest.raises(DimensionError, match="point has block dims"):
        kt_residual(lasso, bad)
    with pytest.raises(DimensionError, match=r"known_Z_points\[0\] has block dims"):
        ps.ProblemSpec(lasso.signature, lasso.A_ops, lasso.B_ops, lasso.coupling, lasso.z_star,
                       lasso.r, known_Z_points=[bad])
    with pytest.raises(DimensionError, match="start has block dims"):
        ps.SolverConfig(start=bad).validate(lasso)
