import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsplit as ps
from pdsplit.blockspace import (BlockVector, CouplingMap, KeptImage, SpaceSignature,
                                adjoint_block, flat_inner, forward_block, pd_norm)
from pdsplit.errors import ConfigError, DimensionError


def test_signature_validation():
    sig = SpaceSignature((2, 3), (1,))
    assert sig.m == 2 and sig.p == 1 and sig.total_dim == 6
    with pytest.raises(DimensionError):
        SpaceSignature((), (1,))
    with pytest.raises(DimensionError):
        SpaceSignature((2, 0), (1,))


@pytest.mark.parametrize("blocks, message", [
    pytest.param([], "a block vector needs at least one block", id="no-blocks"),
    pytest.param([[0.0, 1.0], [[1.0]]], r"block 1 is not a vector \(ndim=2\)", id="matrix-block"),
])
def test_block_vector_rejects_a_malformed_family(blocks, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        BlockVector(blocks)


def test_forward_zero_map():
    sig = SpaceSignature((2,), (3,))
    L = CouplingMap(sig, {})
    assert np.array_equal(L.forward(np.array([3.0, -1.0])), np.zeros(3))


def test_forward_identity():
    sig = SpaceSignature((2,), (2,))
    L = CouplingMap(sig, {(0, 0): np.eye(2)})
    assert np.array_equal(L.forward(np.array([3.0, -1.0])), [3.0, -1.0])


def test_forward_stacked_scalars():
    # two 1-dim primal blocks, one 1-dim dual block: 3*1 + (-1)*2 = 1
    sig = SpaceSignature((1, 1), (1,))
    L = CouplingMap(sig, {(0, 0): [[1.0]], (0, 1): [[2.0]]})
    assert np.array_equal(L.forward(BlockVector([[3.0], [-1.0]]).data), [1.0])


def test_adjoint_trivial_cases():
    sig = SpaceSignature((2,), (2,))
    zero_map = CouplingMap(sig, {})
    y = np.array([1.0, 2.0])
    assert np.array_equal(zero_map.adjoint(y), np.zeros(2))
    ident = CouplingMap(sig, {(0, 0): np.eye(2)})
    assert np.array_equal(ident.adjoint(y), [1.0, 2.0])


def test_shape_mismatch_names_entry():
    sig = SpaceSignature((2,), (3,))
    with pytest.raises(DimensionError, match=r"\(0,0\)"):
        CouplingMap(sig, {(0, 0): np.eye(2)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_entry_is_rejected_by_name(bad):
    # two block shapes: the entry is found within its own stack
    sig = SpaceSignature((2, 1), (2,))
    entry = np.ones((2, 1))
    entry[1, 0] = bad
    with pytest.raises(ConfigError, match=r"^coupling entry \(0,1\) has non-finite values"):
        CouplingMap(sig, {(0, 0): np.eye(2), (0, 1): entry})


def test_pd_inner_sums_the_primal_side_first():
    # the byte-identical traces depend on this exact order of float operations
    rng = np.random.default_rng(3)
    u, v = (ps.PrimalDualPoint(BlockVector([rng.normal(size=3), rng.normal(size=2)]),
                               BlockVector([rng.normal(size=4)])) for _ in range(2))
    primal, dual = float(np.dot(u.x.data, v.x.data)), float(np.dot(u.v_star.data, v.v_star.data))
    assert flat_inner(u.data, v.data, 5) == primal + dual
    norm_sq = float(np.dot(u.x.data, u.x.data)) + float(np.dot(u.v_star.data, u.v_star.data))
    assert flat_inner(u.data, u.data, 5) == norm_sq and pd_norm(u) == math.sqrt(norm_sq)
    # one left-to-right sum over (1e16, 1, 1) would round to 1e16
    big = ps.PrimalDualPoint(BlockVector([[1e16]]), BlockVector([[1.0, 1.0]]))
    ones = ps.PrimalDualPoint(BlockVector([[1.0]]), BlockVector([[1.0, 1.0]]))
    assert flat_inner(big.data, ones.data, 1) == 1e16 + 2.0


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
    assert abs(np.dot(L.forward(x.data), y.data) - np.dot(x.data, L.adjoint(y.data))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_forward_adjoint_linearity(seed):
    L, x, y = _random_setup(seed)
    rng = np.random.default_rng(seed + 1)
    x, y = x.data, y.data
    x2 = rng.normal(size=x.shape)
    a, b = 1.75, -0.5
    lhs = L.forward(a * x + b * x2)
    rhs = a * L.forward(x) + b * L.forward(x2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12
    y2 = rng.normal(size=y.shape)
    lhs = L.adjoint(a * y + b * y2)
    rhs = a * L.adjoint(y) + b * L.adjoint(y2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


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
    lx, lsy = L.forward(x.data), L.adjoint(y.data)
    assert lx.shape == y.data.shape and lsy.shape == x.data.shape
    nx, ny = np.linalg.norm(x.data), np.linalg.norm(y.data)
    assert np.linalg.norm(lx - dense @ x.data) <= 1e-12 * scale * nx
    assert np.linalg.norm(lsy - dense.T @ y.data) <= 1e-12 * scale * ny
    assert abs(np.dot(lx, y.data) - np.dot(x.data, lsy)) <= 1e-12 * scale * nx * ny
    # the per-block applies used for activated blocks agree with the batched ones
    for k, sl in enumerate(L.signature.dual_slices):
        assert np.allclose(forward_block(L, x, k), lx[sl], rtol=1e-12, atol=1e-12 * scale)
    for i, sl in enumerate(L.signature.primal_slices):
        assert np.allclose(adjoint_block(L, y, i), lsy[sl], rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.booleans())
def test_kept_images_equal_the_full_applies_bitwise(seed, density, single_entry):
    # v starts at 0 and changes a random set of blocks per step, sometimes all of them
    rng = np.random.default_rng(seed)
    L = _random_map(rng, density, single_entry)
    for adjoint, apply, slices in ((False, L.forward, L.signature.primal_slices),
                                   (True, L.adjoint, L.signature.dual_slices)):
        kept, v = KeptImage(L, adjoint), np.zeros(slices[-1].stop)
        for _ in range(8):
            changed = tuple(b for b in range(len(slices)) if rng.random() < 0.4) or (0,)
            for b in changed:
                v[slices[b]] = rng.normal(size=slices[b].stop - slices[b].start)
            kept.update(v, changed)
            assert kept.value.tobytes() == apply(v).tobytes()


def test_coupling_copy_owns_its_stacks():
    sig = SpaceSignature((2, 3), (2, 2))
    L = CouplingMap(sig, {(0, 0): np.eye(2), (1, 0): 2 * np.eye(2), (1, 1): np.ones((2, 3))})
    x = np.arange(5.0)
    copy = L.copy()
    L.entries[(1, 0)][0, 0] = 7.0
    assert np.array_equal(copy.forward(x), [0.0, 1.0, 9.0, 11.0])
    assert copy.entries[(1, 0)].base is copy.entries[(0, 0)].base
    # the index tables never change, so the copy shares them
    assert all(getattr(copy, name) is getattr(L, name) for name in ("_keys", "_coords", "_at",
                                                                      "_rows"))


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
