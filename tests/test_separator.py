import math
import re
import warnings

import numpy as np
import pytest

import pdsplit as ps
from pdsplit.blockspace import flat_inner, pd_norm
from pdsplit.errors import ConfigError, DimensionError
from pdsplit.operators import resolvent
from pdsplit.separator import (build_projector, build_separator, detect_exact_solution,
                               halfspace_violation, kt_residual, project_halfspace)

from conftest import (OVERFLOW_POINT, graph_table, make_lasso_problem, make_linear_primal_problem,
                      make_overflow_problem, make_scalar_problem, point, random_blocksparse_problem,
                      random_problem)
from oracle import GraphPoint, reference_kt_residual


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
        split = pu.x.data.size
        assert abs(flat_inner(pu.data, v.data, split) - flat_inner(u.data, pv.data, split)) <= 1e-10
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


@pytest.mark.parametrize("variant, name", [("nullspace", "C"), ("linear_primal", "A1")])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_subspace_rejects_a_non_finite_matrix(variant, name, bad):
    # NaN made the SVD raise an uncaught LinAlgError; inf gave rank 0 and dropped the
    # constraint, so a run reported exact_point at iteration 0
    with pytest.raises(ConfigError, match=f"^{variant} subspace matrix {name} has non-finite"):
        ps.SubspaceSpec(variant, **{name: [[bad, 0.0]]})


def test_linear_primal_contains_solution():
    prob = make_linear_primal_problem("linear_primal")
    assert prob.projector.residual(prob.known_Z_points[0]) <= 1e-10


# --- separator assembly ---------------------------------------------------

def test_build_separator_hand_example():
    # a = (0,0), b = (1,1): raw normal (1,1), level 1, norm_sq 2
    prob = scalar_problem()
    a = [GraphPoint(np.zeros(1), np.zeros(1))]
    b = [GraphPoint(np.array([1.0]), np.array([1.0]))]
    _, level, norm_sq, raw = build_separator(graph_table(a, b), prob)
    assert raw[0] == 1.0 and raw[1] == 1.0
    assert level == 1.0 and norm_sq == 2.0


def test_build_separator_zero_points():
    prob = scalar_problem()
    gp = [GraphPoint(np.zeros(1), np.zeros(1))]
    _, level, norm_sq, raw = build_separator(graph_table(gp, gp), prob)
    assert level == 0.0 and norm_sq == 0.0
    assert flat_inner(raw, raw, 1) == 0.0


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
        normal, level, _, _ = build_separator(graph_table(a, b), prob)
        gap = flat_inner(z.data, normal, 1) - level
        assert gap <= 1e-10


def test_separator_normal_lies_on_subspace():
    prob = make_linear_primal_problem("linear_primal")
    rng = np.random.default_rng(5)
    for _ in range(50):
        ua = rng.normal(size=2) * 3
        ub = rng.normal(size=2) * 3
        a_pt = resolvent(prob.A_ops[0], 1.0, ua)
        b_pt = resolvent(prob.B_ops[0], 1.0, ub)
        graph = graph_table([GraphPoint(a_pt, ua - a_pt)], [GraphPoint(b_pt, ub - b_pt)])
        normal, _, norm_sq, _ = build_separator(graph, prob)
        normal = graph.pair(normal[:graph.a.size], normal[graph.a.size:])
        assert prob.projector.residual(normal) <= 1e-10
        assert abs(norm_sq - pd_norm(normal) ** 2) <= 1e-12 * (1 + norm_sq)


def test_detect_exact_solution():
    # its arguments are the squared norms of the raw normal and of the candidate
    zero_pt = point([[0.0]], [[0.0]])
    candidate = point([[0.0]], [[0.0]])
    assert detect_exact_solution(pd_norm(zero_pt) ** 2, pd_norm(candidate) ** 2, 1e-14) is True
    one = point([[1.0]], [[0.0]])
    assert detect_exact_solution(pd_norm(one) ** 2, pd_norm(candidate) ** 2, 1e-9) is False
    # on the scalar fixture, zero graph points certify the solution (0, 0)
    prob = scalar_problem()
    res = kt_residual(prob, candidate)
    assert res.max == 0.0


# --- half-space projection -------------------------------------------------

def _sep(tstar, t, level, norm_sq):
    """A half-space {<u, normal> <= level} of the scalar space, as build_separator gives it."""
    return np.array([tstar, t]), level, norm_sq


def _project(cur, sep, lam):
    normal, level, norm_sq = sep
    violation = halfspace_violation(cur.data, normal, level, 1)
    return project_halfspace(cur.data, normal, level, norm_sq, violation, lam, 1e-14)


def test_project_halfspace_no_violation():
    sep = _sep(1.0, 1.0, 10.0, 2.0)
    cur = point([[1.0]], [[1.0]])
    theta, nxt = _project(cur, sep, 1.0)
    assert theta == 0.0 and nxt is cur.data


def test_project_halfspace_example():
    sep = _sep(1.0, 1.0, 1.0, 2.0)
    cur = point([[2.0]], [[0.0]])
    theta, nxt = _project(cur, sep, 1.0)
    assert theta == 0.5
    assert nxt[0] == 1.5 and nxt[1] == -0.5
    # lam = 1 lands exactly on the boundary
    boundary = flat_inner(nxt, sep[0], 1)
    assert abs(boundary - sep[1]) <= 1e-9 * (1 + abs(sep[1]))


def test_project_halfspace_overshoot():
    sep = _sep(1.0, 1.0, 1.0, 2.0)
    cur = point([[2.0]], [[0.0]])
    theta, nxt = _project(cur, sep, 2.0)
    assert theta == 1.0
    assert nxt[0] == 1.0 and nxt[1] == -1.0
    inside = flat_inner(nxt, sep[0], 1)
    assert inside < sep[1]  # reflection lands strictly inside


def test_project_halfspace_zero_normal():
    sep = _sep(0.0, 0.0, 0.0, 0.0)
    cur = point([[5.0]], [[5.0]])
    theta, nxt = _project(cur, sep, 1.9)
    assert theta == 0.0 and nxt is cur.data


def test_halfspace_violation_value():
    normal, level, _ = _sep(1.0, 1.0, 1.0, 2.0)
    assert halfspace_violation(point([[2.0]], [[0.0]]).data, normal, level, 1) == 1.0
    assert halfspace_violation(point([[0.0]], [[0.0]]).data, normal, level, 1) == 0.0


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


def test_a_nan_kt_residual_is_the_max_and_the_worst():
    # Python's max drops a NaN that is not first, so the max read 0.0 here
    res = kt_residual(make_overflow_problem(), OVERFLOW_POINT)
    assert res.primal == (0.0, 0.0) and math.isnan(res.dual[0])
    assert math.isnan(res.max) and res.describe_worst() == "dual condition 0"
    res = ps.KTResidual((0.5, math.nan), (math.nan, 2.0))
    assert math.isnan(res.max) and res.describe_worst() == "primal condition 1"
    assert ps.KTResidual((0.5,), (2.0, 1.0)).describe_worst() == "dual condition 0"


def _kt_inputs():
    """(problem, point) pairs: each fixture of random_problem seeds 0-39 and of a block-sparse
    problem with several operator kinds per side, and seeded perturbations of each fixture at
    three scales."""
    rng = np.random.default_rng(18)
    for prob in [random_problem(seed) for seed in range(40)] + [random_blocksparse_problem(5)]:
        z = prob.known_Z_points[0]
        yield prob, z
        for scale in (1e-9, 1e-3, 1.0):
            yield prob, z._like(z.data + scale * rng.normal(size=z.data.size))


def _bits(res):
    return np.array(res.primal).tobytes(), np.array(res.dual).tobytes()


def test_kt_residual_matches_the_per_block_reference_bitwise():
    kinds = set()
    for prob, z in _kt_inputs():
        got = kt_residual(prob, z)
        assert _bits(got) == _bits(reference_kt_residual(prob, z))
        assert all(type(value) is float for value in got.primal + got.dual)
        kinds.update((side, op.kind) for side, ops in (("A", prob.A_ops), ("B", prob.B_ops))
                     for op in ops)
    assert len(kinds) == 5 + 6  # every kind random_problem draws, on each side
    overflow = make_overflow_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN residual is reported, not warned
        res = kt_residual(overflow, OVERFLOW_POINT)
    assert _bits(res) == _bits(reference_kt_residual(overflow, OVERFLOW_POINT))
    assert math.isnan(res.max) and all(type(v) is float for v in res.primal + res.dual)


def test_a_fixture_with_a_nan_kt_residual_is_rejected():
    with pytest.raises(ConfigError, match=r"^known_Z_points\[0\] fails the solution conditions: "
                                          r"max residual nan \(dual condition 0\)$"):
        make_overflow_problem(known_Z_points=[OVERFLOW_POINT])


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


def _scalar_fields(**changes):
    """ProblemSpec's arguments for an l1 primal operator, the identity as the dual one, L = 1 and
    zero offsets, with the given ones replaced."""
    sig = ps.SpaceSignature((1,), (1,))
    return {**dict(signature=sig, A_ops=[ps.l1_norm(1)], B_ops=[ps.affine_monotone([[1.0]])],
                   coupling=ps.CouplingMap(sig, {(0, 0): [[1.0]]}), z_star=ps.BlockVector([[0.0]]),
                   r=ps.BlockVector([[0.0]])), **changes}


_TWO_PRIMAL = ps.SpaceSignature((1, 1), (1,))


@pytest.mark.parametrize("changes, error, message", [
    pytest.param(dict(subspace=ps.SubspaceSpec("nullspace", C=[[1.0]])), DimensionError,
                 "nullspace matrix has 1 columns, expected 2", id="nullspace-columns"),
    pytest.param(dict(signature=_TWO_PRIMAL, A_ops=[ps.zero(1)] * 2,
                      coupling=ps.CouplingMap(_TWO_PRIMAL, {(0, 0): [[1.0]]}),
                      z_star=ps.BlockVector([[0.0], [0.0]]),
                      subspace=ps.SubspaceSpec("linear_primal", A1=[[1.0]])), ConfigError,
                 "linear_primal subspace requires a single primal block", id="linear-two-blocks"),
    pytest.param(dict(subspace=ps.SubspaceSpec("linear_primal", A1=np.eye(2))), DimensionError,
                 r"A1 has shape \(2, 2\), expected \(1, 1\)", id="A1-shape"),
    pytest.param(dict(A_ops=[ps.quadratic([[1.0]])],
                      subspace=ps.SubspaceSpec("linear_primal", A1=[[2.0]])), ConfigError,
                 "subspace matrix A1 does not match the primal operator", id="A1-mismatch"),
    pytest.param(dict(A_ops=[ps.l1_norm(1)] * 2), DimensionError,
                 "2 primal operators for 1 blocks", id="operator-count"),
    pytest.param(dict(coupling=ps.CouplingMap(_TWO_PRIMAL, {})), DimensionError,
                 "coupling map signature differs from the problem signature", id="coupling"),
    pytest.param(dict(z_star=ps.BlockVector([[0.0, 0.0]])), DimensionError,
                 r"z_star dims \(2,\) != \(1,\)", id="z_star-dims"),
    pytest.param(dict(r=ps.BlockVector([[0.0], [0.0]])), DimensionError,
                 r"r dims \(1, 1\) != \(1,\)", id="r-dims"),
    pytest.param(dict(A_ops=[ps.zero(1)], B_ops=[ps.normal_cone_box([-1.0], [1.0])],
                      subspace=ps.SubspaceSpec("nullspace", C=[[1.0, 0.0]]),
                      known_Z_points=[point([[0.5]], [[0.0]])]), ConfigError,
                 r"known_Z_points\[0\] lies off the subspace \(residual 5.000e-01\)",
                 id="fixture-off-subspace"),
])
def test_problem_rejections_name_their_error(changes, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        ps.ProblemSpec(**_scalar_fields(**changes))


def test_linear_primal_requires_the_coupling_map():
    with pytest.raises(ConfigError, match="^linear_primal subspace requires the coupling map$"):
        build_projector(ps.SubspaceSpec("linear_primal", A1=[[1.0]]), ps.SpaceSignature((1,), (1,)))


@pytest.mark.parametrize("A_op, A1", [
    pytest.param(ps.zero(2), np.zeros((2, 2)), id="zero"),
    pytest.param(ps.affine_monotone([[1.0, 2.0], [-2.0, 1.0]]), [[1.0, 2.0], [-2.0, 1.0]],
                 id="affine_monotone"),
])
def test_linear_primal_accepts_a_zero_or_affine_linear_operator(A_op, A1):
    sig = ps.SpaceSignature((2,), (2,))
    prob = ps.ProblemSpec(**_scalar_fields(
        signature=sig, A_ops=[A_op], B_ops=[ps.zero(2)],
        coupling=ps.CouplingMap(sig, {(0, 0): np.eye(2)}), z_star=ps.BlockVector([[0.0, 0.0]]),
        r=ps.BlockVector([[0.0, 0.0]]), subspace=ps.SubspaceSpec("linear_primal", A1=A1)))
    assert prob.projector.variant == "linear_primal" and prob.projector.rowspace.shape == (2, 4)


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
