import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsplit as ps
from pdsplit.blockspace import (BlockVector, CouplingMap, SpaceSignature, adjoint_block,
                                apply_adjoint, apply_forward, forward_block, inner, norm)
from pdsplit.errors import DimensionError


def test_signature_validation():
    sig = SpaceSignature((2, 3), (1,))
    assert sig.m == 2 and sig.p == 1 and sig.total_dim == 6
    with pytest.raises(DimensionError):
        SpaceSignature((), (1,))
    with pytest.raises(DimensionError):
        SpaceSignature((2, 0), (1,))


def test_forward_zero_map():
    sig = SpaceSignature((2,), (3,))
    L = CouplingMap(sig, {})
    out = apply_forward(L, BlockVector([[3.0, -1.0]]))
    assert np.array_equal(out.blocks[0], np.zeros(3))


def test_forward_identity():
    sig = SpaceSignature((2,), (2,))
    L = CouplingMap(sig, {(0, 0): np.eye(2)})
    out = apply_forward(L, BlockVector([[3.0, -1.0]]))
    assert np.array_equal(out.blocks[0], [3.0, -1.0])


def test_forward_stacked_scalars():
    # two 1-dim primal blocks, one 1-dim dual block: 3*1 + (-1)*2 = 1
    sig = SpaceSignature((1, 1), (1,))
    L = CouplingMap(sig, {(0, 0): [[1.0]], (0, 1): [[2.0]]})
    out = apply_forward(L, BlockVector([[3.0], [-1.0]]))
    assert out.blocks[0][0] == 1.0


def test_adjoint_trivial_cases():
    sig = SpaceSignature((2,), (2,))
    zero_map = CouplingMap(sig, {})
    y = BlockVector([[1.0, 2.0]])
    assert np.array_equal(apply_adjoint(zero_map, y).blocks[0], np.zeros(2))
    ident = CouplingMap(sig, {(0, 0): np.eye(2)})
    assert np.array_equal(apply_adjoint(ident, y).blocks[0], [1.0, 2.0])


def test_shape_mismatch_names_entry():
    sig = SpaceSignature((2,), (3,))
    with pytest.raises(DimensionError, match=r"\(0,0\)"):
        CouplingMap(sig, {(0, 0): np.eye(2)})
    L = CouplingMap(sig, {(0, 0): np.ones((3, 2))})
    with pytest.raises(DimensionError):
        apply_forward(L, BlockVector([[1.0, 2.0, 3.0]]))


def test_inner_examples():
    z = BlockVector([[0.0, 0.0]])
    assert inner(z, z) == 0.0
    u = BlockVector([[1.0, 1.0]])
    assert inner(u, u) == 2.0
    with pytest.raises(DimensionError):
        inner(u, BlockVector([[1.0]]))


def test_inner_bilinearity():
    rng = np.random.default_rng(3)
    u = BlockVector([rng.normal(size=3), rng.normal(size=2)])
    v = BlockVector([rng.normal(size=3), rng.normal(size=2)])
    w = BlockVector([rng.normal(size=3), rng.normal(size=2)])
    lhs = inner(2.5 * u + (-1.25) * v, w)
    assert abs(lhs - (2.5 * inner(u, w) - 1.25 * inner(v, w))) <= 1e-12


def _random_setup(seed):
    rng = np.random.default_rng(seed)
    sig = SpaceSignature(tuple(rng.integers(1, 4, size=2)), tuple(rng.integers(1, 4, size=2)))
    entries = {}
    for k in range(sig.p):
        for i in range(sig.m):
            if rng.random() < 0.7:
                entries[(k, i)] = rng.normal(size=(sig.dual_dims[k], sig.primal_dims[i]))
    L = CouplingMap(sig, entries)
    x = BlockVector([rng.normal(size=d) for d in sig.primal_dims])
    y = BlockVector([rng.normal(size=d) for d in sig.dual_dims])
    return L, x, y


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_adjoint_identity(seed):
    # <Lx, y> == <x, L*y> for random block-sparse maps
    L, x, y = _random_setup(seed)
    assert abs(inner(apply_forward(L, x), y) - inner(x, apply_adjoint(L, y))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_adjoint_linearity(seed):
    L, x, y = _random_setup(seed)
    rng = np.random.default_rng(seed + 1)
    x2 = BlockVector([rng.normal(size=d) for d in L.signature.primal_dims])
    a, b = 1.75, -0.5
    lhs = apply_forward(L, a * x + b * x2)
    rhs = a * apply_forward(L, x) + b * apply_forward(L, x2)
    assert norm(lhs - rhs) <= 1e-12
    y2 = BlockVector([rng.normal(size=d) for d in L.signature.dual_dims])
    lhs = apply_adjoint(L, a * y + b * y2)
    rhs = a * apply_adjoint(L, y) + b * apply_adjoint(L, y2)
    assert norm(lhs - rhs) <= 1e-12


def test_flat_round_trip():
    v = BlockVector([[1.0, 2.0], [3.0]])
    back = BlockVector.from_flat(v.to_flat(), v.dims)
    assert all(np.array_equal(a, b) for a, b in zip(v.blocks, back.blocks))


def _random_map(rng, density, single_entry):
    """Mixed block dims; with density < 1 some block rows and columns have no entries."""
    m, p = (int(v) for v in rng.integers(1, 6, size=2))
    sig = SpaceSignature(tuple(rng.integers(1, 5, size=m)), tuple(rng.integers(1, 5, size=p)))
    keys = [(k, i) for k in range(p) for i in range(m) if rng.random() < density]
    if single_entry:
        keys = [(int(rng.integers(p)), int(rng.integers(m)))]
    return CouplingMap(sig, {(k, i): rng.normal(size=(sig.dual_dims[k], sig.primal_dims[i]))
                             for k, i in keys})


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.booleans())
def test_batched_applies_match_the_dense_matrix(seed, density, single_entry):
    rng = np.random.default_rng(seed)
    L = _random_map(rng, density, single_entry)
    dense = L.to_dense()
    x = BlockVector([rng.normal(size=d) for d in L.signature.primal_dims])
    y = BlockVector([rng.normal(size=d) for d in L.signature.dual_dims])
    scale = 1.0 + np.linalg.norm(dense)
    lx, lsy = apply_forward(L, x), apply_adjoint(L, y)
    assert lx.dims == L.signature.dual_dims and lsy.dims == L.signature.primal_dims
    assert np.linalg.norm(lx.data - dense @ x.data) <= 1e-12 * scale * norm(x)
    assert np.linalg.norm(lsy.data - dense.T @ y.data) <= 1e-12 * scale * norm(y)
    assert abs(inner(lx, y) - inner(x, lsy)) <= 1e-12 * scale * norm(x) * norm(y)
    # the per-block applies used for activated blocks agree with the batched ones
    for k, block in enumerate(lx.blocks):
        assert np.allclose(forward_block(L, x, k), block, rtol=1e-12, atol=1e-12 * scale)
    for i, block in enumerate(lsy.blocks):
        assert np.allclose(adjoint_block(L, y, i), block, rtol=1e-12, atol=1e-12 * scale)


def test_coupling_blocks_are_views_into_one_stack_per_shape():
    sig = SpaceSignature((2, 3), (2, 2))
    L = CouplingMap(sig, {(0, 0): np.eye(2), (1, 0): 2 * np.eye(2), (1, 1): np.ones((2, 3))})
    assert L.entries[(0, 0)].base is L.entries[(1, 0)].base
    assert L.entries[(1, 1)].base is not L.entries[(0, 0)].base
    assert np.array_equal(L.entries[(1, 0)], 2 * np.eye(2))


def test_point_blocks_view_one_array():
    pt = ps.PrimalDualPoint(BlockVector([[1.0, 2.0], [3.0]]), BlockVector([[4.0]]))
    assert np.array_equal(pt.data, [1.0, 2.0, 3.0, 4.0])
    assert np.shares_memory(pt.x.blocks[1], pt.data) and np.shares_memory(pt.v_star.data, pt.data)
    assert np.array_equal((2.0 * pt - pt).data, pt.data)
