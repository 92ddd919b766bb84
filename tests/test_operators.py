import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsplit as ps
from pdsplit import operators
from pdsplit.errors import ConfigError, DimensionError, NumericalError
from pdsplit.operators import (InexactnessBudget, MonotoneOp, _check_sym_psd, inexact_dual,
                               inexact_primal, resolvent, stacked_parameters, stacked_resolvent)

from conftest import KINDS, PROX_REPRESENTABLE, function_value, registry_op
from oracle import (GraphPoint, graph_point_dual, graph_point_primal, grid_minimize,
                    membership_residual, validate_inexact_dual, validate_inexact_primal)


def _registry_sample(rng, dim):
    G = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    W = rng.normal(size=(dim, dim))
    return [
        ps.zero(dim),
        ps.l1_norm(dim, float(rng.uniform(0.5, 2.0))),
        ps.box_indicator(rng.uniform(-2, 0, dim), rng.uniform(0, 2, dim)),
        ps.quadratic(G.T @ G, rng.normal(size=dim)),
        ps.affine_monotone(G.T @ G + 0.5 * (W - W.T), rng.normal(size=dim)),
        ps.normal_cone_box(rng.uniform(-2, 0, dim), rng.uniform(0, 2, dim)),
    ]


def test_resolvent_zero_identity():
    u = np.array([4.0, -2.0])
    assert np.array_equal(resolvent(ps.zero(2), 1.0, u), u)
    assert np.array_equal(resolvent(ps.zero(2), 7.5, u), u)


def test_resolvent_soft_threshold():
    # grid oracle: argmin |a| + (a-2)^2/2 over [-5,5] at 1e-4 -> 1.0
    oracle = grid_minimize(lambda a: abs(a[0]) + (a[0] - 2.0) ** 2 / 2.0,
                           [(-5.0, 5.0)], 1e-4)
    assert abs(oracle[0] - 1.0) <= 1e-6
    got = resolvent(ps.l1_norm(1), 1.0, np.array([2.0]))
    assert abs(got[0] - 1.0) <= 1e-12


def test_resolvent_quadratic():
    got = resolvent(ps.quadratic(np.eye(1)), 1.0, np.array([3.0]))
    assert abs(got[0] - 1.5) <= 1e-15


def test_resolvent_box_projection():
    got = resolvent(ps.box_indicator([-1.0], [1.0]), 1.0, np.array([3.0]))
    assert got[0] == 1.0


def test_resolvent_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        resolvent(ps.zero(1), 0.0, np.array([1.0]))


def test_psd_validation():
    with pytest.raises(ConfigError):
        ps.quadratic([[-1.0]])
    with pytest.raises(ConfigError):
        ps.quadratic([[0.0, 1.0], [0.0, 0.0]])  # asymmetric
    with pytest.raises(ConfigError):
        ps.affine_monotone([[-1.0]])
    # asymmetric but monotone (skew part) is fine
    ps.affine_monotone([[1.0, 2.0], [-2.0, 1.0]])


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: ps.l1_norm(1, math.nan), "l1_norm weight", id="l1-weight-nan"),
    pytest.param(lambda: ps.l1_norm(1, math.inf), "l1_norm weight", id="l1-weight-inf"),
    pytest.param(lambda: ps.box_indicator([math.nan], [1.0]), "box_indicator lo", id="box-lo"),
    pytest.param(lambda: ps.box_indicator([0.0], [math.inf]), "box_indicator hi", id="box-hi"),
    pytest.param(lambda: ps.normal_cone_box([-math.inf, 0.0], 1.0), "normal_cone_box lo",
                 id="cone-lo"),
    pytest.param(lambda: ps.normal_cone_box([0.0], math.nan), "normal_cone_box hi", id="cone-hi"),
    pytest.param(lambda: ps.quadratic([[1.0, math.nan], [math.nan, 1.0]]), "quadratic Q",
                 id="quadratic-Q"),
    pytest.param(lambda: ps.quadratic([[1.0]], [math.inf]), "quadratic q", id="quadratic-q"),
    pytest.param(lambda: ps.affine_monotone([[math.inf]]), "affine_monotone M", id="affine-M"),
    pytest.param(lambda: ps.affine_monotone([[1.0]], [math.nan]), "affine_monotone c",
                 id="affine-c")])
def test_constructors_reject_non_finite_data(build, field):
    # such data made run end "inconsistent", the meaning of exit 4, for a malformed input
    with pytest.raises(ConfigError, match=f"^{field} (has|is) non-finite"):
        build()


@pytest.mark.parametrize("build, field", [
    pytest.param(ps.quadratic, "quadratic Q", id="quadratic"),
    pytest.param(ps.affine_monotone, "affine_monotone M", id="affine_monotone")])
def test_a_matrix_whose_symmetric_part_overflows_is_a_config_error(build, field):
    # finite entries near the float limit: symmetrizing overflowed and raised a RuntimeWarning
    # under -W error::RuntimeWarning, before the NaN eigenvalue check could reject the matrix
    with pytest.raises(ConfigError, match=f"^{field} has entries too large"):
        build([[1e308, 0.0], [0.0, 1e308]])
    build([[8e307, 0.0], [0.0, 8e307]])  # whose sum with its transpose is finite


def test_a_quadratic_whose_asymmetry_overflows_is_not_symmetric():
    # Q - Q' overflows to inf, which is asymmetric too; it used to warn, not raise
    with pytest.raises(ConfigError, match="^quadratic Q is not symmetric"):
        ps.quadratic([[0.0, 1e308], [-1e308, 0.0]])


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: ps.box_indicator([0.0, 0.0], [1.0]), DimensionError,
                 r"box_indicator hi has shape \(1,\), expected \(2,\)", id="box-bound-shape"),
    pytest.param(lambda: ps.normal_cone_box([1.0], [0.0]), ConfigError,
                 "box bounds must satisfy lo <= hi coordinatewise", id="box-lo-above-hi"),
    pytest.param(lambda: ps.quadratic([[1.0, 0.0]]), DimensionError,
                 r"Q must be square, got \(1, 2\)", id="quadratic-not-square"),
    pytest.param(lambda: ps.affine_monotone([[1.0, 0.0]]), DimensionError,
                 r"M must be square, got \(1, 2\)", id="affine-not-square"),
    pytest.param(lambda: resolvent(MonotoneOp("cubic", 1, {}), 1.0, np.zeros(1)), ConfigError,
                 "unknown operator kind 'cubic'", id="unknown-kind"),
    pytest.param(lambda: resolvent(ps.zero(2), 1.0, np.zeros(3)), DimensionError,
                 r"resolvent input has shape \(3,\), expected \(2,\)", id="resolvent-input"),
])
def test_operator_rejections_name_their_error(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, name", [(ps.zero, "zero"), (ps.l1_norm, "l1_norm")])
@pytest.mark.parametrize("dim", [1.5, 2.9, True, "2"], ids=str)
def test_operator_dims_follow_the_integer_rule(build, name, dim):
    # zero(1.5) had dim 1 and l1_norm(2.9) dim 2
    with pytest.raises(ConfigError, match=rf"^{name} dim must be an integer, got {dim!r}$"):
        build(dim)
    op = build(np.int64(3))
    assert op.dim == 3 and type(op.dim) is int


def test_psd_check_rejects_a_nan_eigenvalue():
    with pytest.raises(ConfigError, match="eigenvalue nan below the PSD floor"):
        _check_sym_psd(np.array([[1.0, math.nan], [math.nan, 1.0]]), "S")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.05, max_value=20.0))
def test_resolvent_nonexpansive(seed, gamma):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    for op in _registry_sample(rng, dim):
        u = rng.normal(size=dim) * 3
        v = rng.normal(size=dim) * 3
        lhs = np.linalg.norm(resolvent(op, gamma, u) - resolvent(op, gamma, v))
        assert lhs <= np.linalg.norm(u - v) + 1e-12


def _textbook_resolvent(op, gamma, u):
    """The resolvent formulas written out for one operator, as a fixed reference."""
    if op.kind == "zero":
        return u.copy()
    if op.kind == "l1_norm":
        return np.sign(u) * np.maximum(np.abs(u) - gamma * op.params["weight"], 0.0)
    if op.kind in ("box_indicator", "normal_cone_box"):
        return np.minimum(np.maximum(u, op.params["lo"]), op.params["hi"])
    mat, vec = ("Q", "q") if op.kind == "quadratic" else ("M", "c")
    return np.linalg.inv(np.eye(op.dim) + gamma * op.params[mat]) @ (u - gamma * op.params[vec])


@pytest.mark.parametrize("dim", [1, 2, 20])
@pytest.mark.parametrize("kind", KINDS)
def test_grouped_resolvent_matches_the_per_block_one_bitwise(kind, dim):
    rng = np.random.default_rng(dim)
    ops = [registry_op(rng, kind, dim) for _ in range(5)]
    gammas = [float(g) for g in rng.uniform(0.1, 3.0, 5)]
    u = 3.0 * rng.normal(size=(5, dim))
    single = [resolvent(op, g, row) for op, g, row in zip(ops, gammas, u)]
    for op, g, row, out in zip(ops, gammas, u, single):
        assert np.array_equal(out, _textbook_resolvent(op, g, row))
    params = stacked_parameters(ops, gammas)
    whole = stacked_resolvent(kind, params, u)
    assert all(np.array_equal(whole[j], single[j]) for j in range(5))
    for rows in ([3], [0, 2, 4], [1, 2]):  # part of the group active, as the engine selects it
        part = stacked_resolvent(kind, tuple(p[rows] for p in params), u[rows])
        assert len(part) == len(rows)
        assert all(np.array_equal(out, single[j]) for out, j in zip(part, rows))


def _badly_scaled_stack(rng, kind, dim, scale):
    """Four operators of a linear kind, scale times a rank-1 matrix plus 1e-3 times a PSD one
    (plus a skew part for the affine kind), with offsets of the same scale."""
    ops = []
    for _ in range(4):
        v, G = rng.normal(size=dim), rng.normal(size=(dim, dim)) / np.sqrt(dim)
        S = np.outer(v, v) + 1e-3 * (G.T @ G)
        S = 0.5 * (S + S.T)
        if kind == "quadratic":
            ops.append(ps.quadratic(scale * S, scale * rng.normal(size=dim)))
        else:
            W = rng.normal(size=(dim, dim))
            ops.append(ps.affine_monotone(scale * (S + W - W.T), scale * rng.normal(size=dim)))
    return ops


@pytest.mark.parametrize("gamma", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("dim", [2, 20])
@pytest.mark.parametrize("kind", ["quadratic", "affine_monotone"])
def test_linear_resolvents_stay_accurate_when_badly_scaled(kind, dim, scale, gamma):
    rng = np.random.default_rng(dim)
    ops = _badly_scaled_stack(rng, kind, dim, scale)
    u = rng.normal(size=(4, dim))
    a = stacked_resolvent(kind, stacked_parameters(ops, [gamma] * 4), u)
    mat, vec = operators.LINEAR_KINDS[kind]
    for op, row, got in zip(ops, u, a):
        A, rhs = np.eye(dim) + gamma * op.params[mat], row - gamma * op.params[vec]
        residual = np.linalg.norm(A @ got - rhs)
        assert residual <= 1e-14 * (np.linalg.norm(A, 2) * np.linalg.norm(got)
                                    + np.linalg.norm(rhs))
        ref = np.linalg.solve(A, rhs)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_a_singular_linear_stack_is_a_numerical_error():
    op = MonotoneOp("quadratic", 2, {"Q": -np.eye(2), "q": np.zeros(2)})  # I + Q = 0
    with pytest.raises(NumericalError, match="'quadratic'"):
        stacked_parameters([op], [1.0])


def test_graph_point_primal_soft_threshold():
    gp = graph_point_primal(ps.l1_norm(1), np.zeros(1), 1.0, np.array([2.0]), np.zeros(1))
    assert gp.point[0] == 1.0 and gp.dual[0] == 1.0
    assert membership_residual(ps.l1_norm(1), gp.point, gp.dual) == 0.0


def test_graph_point_primal_zero_op():
    u = np.array([3.0, -1.0])
    w = np.zeros(2)
    gp = graph_point_primal(ps.zero(2), np.zeros(2), 2.0, u, w)
    assert np.array_equal(gp.point, u)
    assert np.array_equal(gp.dual, np.zeros(2))
    # nonzero coupled read shifts the point by gamma * read
    w = np.array([0.5, 0.25])
    gp = graph_point_primal(ps.zero(2), np.zeros(2), 2.0, u, w)
    assert np.allclose(gp.point, u - 2.0 * w)
    assert np.allclose(gp.dual, np.zeros(2))


def test_graph_point_primal_with_coupled_read():
    gp = graph_point_primal(ps.l1_norm(1), np.zeros(1), 1.0,
                            np.array([2.0]), np.array([0.5]))
    assert gp.point[0] == 0.5 and gp.dual[0] == 1.0
    assert membership_residual(ps.l1_norm(1), gp.point, gp.dual) == 0.0


def test_graph_point_dual_affine():
    op = ps.affine_monotone([[1.0]])
    gp = graph_point_dual(op, np.zeros(1), 1.0, np.array([1.0]), np.zeros(1))
    assert abs(gp.point[0] - 0.5) <= 1e-15 and abs(gp.dual[0] - 0.5) <= 1e-15


def test_graph_point_dual_normal_cone():
    op = ps.normal_cone_box([-1.0], [1.0])
    gp = graph_point_dual(op, np.zeros(1), 1.0, np.array([0.0]), np.zeros(1))
    assert gp.point[0] == 0.0 and gp.dual[0] == 0.0
    gp = graph_point_dual(op, np.zeros(1), 1.0, np.array([3.0]), np.zeros(1))
    assert gp.point[0] == 1.0 and gp.dual[0] == 2.0
    assert membership_residual(op, gp.point, gp.dual) == 0.0


def test_membership_examples():
    l1 = ps.l1_norm(1)
    assert membership_residual(l1, np.zeros(1), np.zeros(1)) <= 1e-9
    assert membership_residual(l1, np.array([1.0]), np.array([1.0])) <= 1e-9
    assert not membership_residual(l1, np.array([0.5]), np.array([2.0])) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_graph_point_identity_and_membership(seed):
    # a + gamma*(a* + l*) == x_lag to 1e-12 and membership at 1e-9, exact mode
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    gamma = float(rng.uniform(0.05, 10.0))
    x_lag = rng.normal(size=dim) * 2
    lstar = rng.normal(size=dim)
    z_star = rng.normal(size=dim)
    for op in _registry_sample(rng, dim):
        gp = graph_point_primal(op, z_star, gamma, x_lag, lstar)
        recon = gp.point + gamma * (gp.dual + lstar)
        assert np.linalg.norm(recon - x_lag) <= 1e-12 * (1 + np.linalg.norm(x_lag))
        res = membership_residual(op, gp.point, gp.dual + z_star)
        assert res <= 1e-9 * (1 + np.linalg.norm(gp.point))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_graph_point_dual_identity_and_membership(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    mu = float(rng.uniform(0.05, 10.0))
    l_k = rng.normal(size=dim) * 2
    v_lag = rng.normal(size=dim)
    r = rng.normal(size=dim)
    for op in _registry_sample(rng, dim):
        gp = graph_point_dual(op, r, mu, l_k, v_lag)
        recon = gp.point + mu * (gp.dual - v_lag)
        assert np.linalg.norm(recon - l_k) <= 1e-12 * (1 + np.linalg.norm(l_k))
        res = membership_residual(op, gp.point - r, gp.dual)
        assert res <= 1e-9 * (1 + np.linalg.norm(gp.point))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_subgradient_inequality(seed):
    # f(w) >= f(a) + <a*, w - a> for claimed subgradients of prox kinds
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    for op in _registry_sample(rng, dim):
        if op.kind not in PROX_REPRESENTABLE:
            continue
        u = rng.normal(size=dim) * 2
        a = resolvent(op, 1.0, u)
        a_star = u - a
        fa = function_value(op, a)
        for _ in range(20):
            if op.kind == "box_indicator":
                w = rng.uniform(op.params["lo"], op.params["hi"])
            else:
                w = rng.normal(size=dim) * 3
            assert function_value(op, w) >= fa + float(np.dot(a_star, w - a)) - 1e-9


# --- inexactness wrapper -----------------------------------------------

BUDGET = InexactnessBudget(beta=10.0, sigma=0.5, delta=10.0, zeta=0.5)


def test_inexact_primal_exact_accepted():
    op = ps.l1_norm(1)
    gp = graph_point_primal(op, np.zeros(1), 1.0, np.array([2.0]), np.zeros(1))
    check = validate_inexact_primal(op, gp, np.array([2.0]), np.zeros(1),
                                    np.zeros(1), 1.0, BUDGET)
    assert check.accepted


def test_inexact_primal_norm_bound():
    op = ps.l1_norm(1)
    cand = GraphPoint(np.array([1.0]), np.array([1.0]))  # e = 2 - x
    tight = InexactnessBudget(beta=1.0, sigma=0.5, delta=1.0, zeta=0.5)
    check = validate_inexact_primal(op, cand, np.array([-3.0]), np.zeros(1),
                                    np.zeros(1), 1.0, tight)
    assert not check.accepted and check.reason == "norm-bound"


def test_inexact_primal_sigma_dual():
    # a* + l* = 2, gamma = 1, sigma = 0.5, e = 1.1: 2.2 > 0.5 * 4
    op = ps.l1_norm(1)
    cand = GraphPoint(np.array([1.0]), np.array([1.0]))
    check = validate_inexact_primal(op, cand, np.array([1.9]), np.array([1.0]),
                                    np.zeros(1), 1.0, BUDGET)
    assert not check.accepted and check.reason == "sigma-dual"


def test_inexact_primal_sigma_primal():
    # e = -2, x - a = 3: <3, -2> = -6 < -0.5 * 9
    op = ps.l1_norm(1)
    cand = GraphPoint(np.array([1.0]), np.array([1.0]))
    check = validate_inexact_primal(op, cand, np.array([4.0]), np.zeros(1),
                                    np.zeros(1), 1.0, BUDGET)
    assert not check.accepted and check.reason == "sigma-primal"


def test_inexact_primal_membership_rejected():
    op = ps.l1_norm(1)
    cand = GraphPoint(np.array([0.5]), np.array([2.0]))  # 2 not in d|0.5|
    check = validate_inexact_primal(op, cand, np.array([2.0]), np.zeros(1),
                                    np.zeros(1), 1.0, BUDGET)
    assert not check.accepted and check.reason == "membership"


def test_inexact_dual_condition_ids():
    op = ps.affine_monotone([[1.0]])
    cand = GraphPoint(np.array([1.0]), np.array([1.0]))  # f = 2 - l - v, v = 0
    r = np.zeros(1)
    tight = InexactnessBudget(beta=1.0, sigma=0.5, delta=1.0, zeta=0.5)
    check = validate_inexact_dual(op, cand, np.array([-3.0]), np.zeros(1), r, 1.0, tight)
    assert check.reason == "norm-bound"
    check = validate_inexact_dual(op, cand, np.array([-1.0]), np.zeros(1), r, 1.0, BUDGET)
    assert check.reason == "zeta-primal"
    check = validate_inexact_dual(op, cand, np.array([1.2]), np.zeros(1), r, 1.0, BUDGET)
    assert check.reason == "zeta-dual"
    exact = graph_point_dual(op, r, 1.0, np.array([1.0]), np.zeros(1))
    assert validate_inexact_dual(op, exact, np.array([1.0]), np.zeros(1), r, 1.0, BUDGET).accepted



_SIDES = ((graph_point_primal, validate_inexact_primal, inexact_primal,
           {"membership", "norm-bound", "sigma-dual", "sigma-primal"}),
          (graph_point_dual, validate_inexact_dual, inexact_dual,
           {"membership", "norm-bound", "zeta-primal", "zeta-dual"}))


@pytest.mark.parametrize("seed", [0, 1])
def test_grouped_inexact_check_matches_the_per_block_one_row_by_row(seed):
    # groups of 12 rows of every kind: the oracle's per-block candidates, exact,
    # perturbed at several scales or pushed off the graph, then the hand-built
    # 1-D candidates above; the package's accept mask must be the oracle's
    rng = np.random.default_rng(seed)
    budget = InexactnessBudget(beta=1.0, sigma=0.3, delta=1.0, zeta=0.3)
    groups = []
    for kind in KINDS:
        for dim in (1, 3):
            ops = [registry_op(rng, kind, dim) for _ in range(12)]
            steps, reads = rng.uniform(0.3, 3.0, 12), 2.0 * rng.normal(size=(2, 12, dim))
            offsets = rng.normal(size=(12, dim))
            for side, (point, _, _, _) in enumerate(_SIDES):
                cands = []
                for j, op in enumerate(ops):
                    err = rng.normal(size=dim) * (0.0, 0.2, 1.0, 3.0)[j % 4]
                    cand = point(op, offsets[j], steps[j], reads[0][j], reads[1][j], error=err)
                    if j % 6 == 5:
                        cand = GraphPoint(cand.point, cand.dual + rng.normal(size=dim))
                    cands.append(cand)
                groups.append((side, ops, cands, reads[0], reads[1], offsets, steps, budget))
    cand = GraphPoint(np.array([1.0]), np.array([1.0]))
    tight = InexactnessBudget(beta=1.0, sigma=0.5, delta=1.0, zeta=0.5)
    for side, op, x_or_l in ((0, ps.l1_norm(1), (-3.0, 1.9, 4.0, 2.0)),
                             (1, ps.affine_monotone([[1.0]]), (-3.0, -1.0, 1.2, 1.0))):
        for check in (tight, BUDGET):
            groups.append((side, [op] * 4, [cand] * 4, np.array(x_or_l)[:, None],
                           np.array([[0.0], [1.0 - side], [0.0], [0.0]]), np.zeros((4, 1)),
                           np.ones(4), check))
    reasons = (set(), set())
    for side, ops, cands, r0, r1, offsets, steps, check in groups:
        _, oracle_check, package_check, _ = _SIDES[side]
        want = [oracle_check(op, c, r0[j], r1[j], offsets[j], steps[j], check)
                for j, (op, c) in enumerate(zip(ops, cands))]
        got = package_check(ops[0].kind, stacked_parameters(ops, [1.0] * len(ops)),
                            np.array([c.point for c in cands]), np.array([c.dual for c in cands]),
                            r0, r1, np.repeat(steps[:, None], r0.shape[1], axis=1), offsets, check)
        assert got.tolist() == [w.accepted for w in want]
        reasons[side].update(w.reason for w in want)
    for side, (_, _, _, conditions) in enumerate(_SIDES):
        assert reasons[side] == conditions | {None}  # each condition rejects a row, some pass


@pytest.mark.parametrize("side", [0, 1], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", ["zero", "quadratic", "affine_monotone"])
def test_inexact_checks_reject_graph_points_a_relative_1e_6_off_the_graph(kind, side,
                                                                          monkeypatch):
    # membership holds within 1e-9 of (1 + |point|): exact graph points pass, and points whose
    # dual moved 1e-6 of that off the graph fail, in the package and in the oracle
    rng = np.random.default_rng(7)
    budget = InexactnessBudget(beta=1.0, sigma=0.3, delta=1.0, zeta=0.3)
    make, oracle_check, package_check, _ = _SIDES[side]
    ops = [registry_op(rng, kind, 3) for _ in range(8)]
    reads, offsets = rng.normal(size=(2, 8, 3)), rng.normal(size=(8, 3))
    exact = [make(op, offsets[j], 1.0, reads[0][j], reads[1][j]) for j, op in enumerate(ops)]
    push = rng.normal(size=(8, 3))
    scale = 1e-6 * (1.0 + np.linalg.norm([c.point for c in exact], axis=1))
    push *= (scale / np.linalg.norm(push, axis=1))[:, None]
    off = [GraphPoint(c.point, c.dual + push[j]) for j, c in enumerate(exact)]

    def package(cands):
        return package_check(kind, stacked_parameters(ops, [1.0] * 8),
                             np.array([c.point for c in cands]), np.array([c.dual for c in cands]),
                             reads[0], reads[1], np.ones((8, 3)), offsets, budget)

    def oracle(cands):
        return [oracle_check(op, c, reads[0][j], reads[1][j], offsets[j], 1.0, budget).reason
                for j, (op, c) in enumerate(zip(ops, cands))]

    assert package(exact).all() and oracle(exact) == [None] * 8
    assert not package(off).any() and oracle(off) == ["membership"] * 8
    monkeypatch.setattr(operators, "MEMBERSHIP_TOL", 1e-3)  # membership alone rejects them
    assert package(off).all()


def test_budget_validation():
    with pytest.raises(ConfigError):
        InexactnessBudget(beta=0.0, sigma=0.5, delta=1.0, zeta=0.5)
    with pytest.raises(ConfigError):
        InexactnessBudget(beta=1.0, sigma=1.0, delta=1.0, zeta=0.5)
