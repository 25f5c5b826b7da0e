"""Operator abstraction: dense agreement, adjointness, motion Gramians."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dynct import _linalg
from dynct.errors import ConfigError, NumericError
from dynct.linops import Identity, PatchRank1, SparseCSR, payload_nbytes
from dynct.motion import VelocityField, build_warp
from helpers import random_basis
from oracles import DENSE_LIMIT, dense, dense_basis


def _sample_ops(rng):
    mat = sp.random(18, 12, density=0.3, random_state=np.random.RandomState(7),
                    format="csr")
    ops = [
        SparseCSR(mat),
        Identity(12),
        # one patch over the whole 4 x 3 image: the M2 rank-1 map u v^T / d
        PatchRank1(4, 3, 4, 3, rng.standard_normal(12), rng.standard_normal(12),
                   1.7),
        PatchRank1(4, 3, 2, 3, rng.standard_normal(12), rng.standard_normal(12),
                   0.4),
        # 2 x 2 grid of non-square 3 x 2 patches: rows of one patch are not
        # contiguous in the state vector, and slices cut through patches
        PatchRank1(6, 4, 3, 2, rng.standard_normal(24), rng.standard_normal(24),
                   0.9),
    ]
    warp_mat = sp.random(12, 12, density=0.4,
                         random_state=np.random.RandomState(3), format="csr")
    ops.append(SparseCSR(warp_mat))
    return ops


@pytest.fixture(scope="module")
def ops():
    return _sample_ops(np.random.default_rng(0))


@pytest.fixture(scope="module")
def square_ops(ops):
    """The square sample operators and a square SparseCSR: every kind that
    serves as a motion."""
    square = [op for op in ops if op.shape[0] == op.shape[1]]
    square.append(SparseCSR(sp.random(12, 12, density=0.3,
                                      random_state=np.random.RandomState(9))))
    # an M1 warp on the 4 x 3 grid with displacements up to the grid size:
    # each row chunk references rows of P far outside it
    rng = np.random.default_rng(11)
    square.append(build_warp(VelocityField(s_x=rng.uniform(-4, 4, 12),
                                           s_y=rng.uniform(-4, 4, 12),
                                           n_x=4, n_y=3)))
    assert {type(op).__name__ for op in square} == {
        "Identity", "SparseCSR", "PatchRank1"}
    assert {op.denoms.shape for op in square if isinstance(op, PatchRank1)} == {
        (1, 1), (2, 1), (2, 2)}
    return square


def _dense_reference(op):
    """The operator's matrix, built from its definition, not its products."""
    if isinstance(op, SparseCSR):
        return op.matrix.toarray()
    if isinstance(op, Identity):
        return np.eye(op.shape[0])
    bx, z_x, by, z_y = op.tiles
    pixels = np.arange(op.shape[0]).reshape(bx * z_x, by * z_y)
    ref = np.zeros(op.shape)
    for a in range(bx):
        for b in range(by):
            rows = pixels[a * z_x:(a + 1) * z_x, b * z_y:(b + 1) * z_y].ravel()
            ref[np.ix_(rows, rows)] += (np.outer(op.u[rows], op.v[rows])
                                        / op.denoms[a, b])
    return ref


def test_apply_matches_dense(ops):
    rng = np.random.default_rng(1)
    for op in ops:
        ref = _dense_reference(op)
        np.testing.assert_allclose(dense(op), ref, atol=1e-12)
        x = rng.standard_normal(op.shape[1])
        y = rng.standard_normal(op.shape[0])
        np.testing.assert_allclose(op.apply(x), ref @ x, atol=1e-12)
        np.testing.assert_allclose(op.apply_transpose(y), ref.T @ y,
                                   atol=1e-12)


def test_adjoint_identity(ops):
    rng = np.random.default_rng(2)
    for op in ops:
        for _ in range(20):
            x = rng.standard_normal(op.shape[1])
            y = rng.standard_normal(op.shape[0])
            lhs = float(op.apply(x) @ y)
            rhs = float(x @ op.apply_transpose(y))
            scale = np.linalg.norm(op.apply(x)) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


def _grid(op):
    """The image grid of a square sample operator: its patch tiling for
    PatchRank1, else 4 x 3 (n = 12)."""
    if isinstance(op, PatchRank1):
        g_x, z_x, g_y, z_y = op.tiles
        return g_x * z_x, g_y * z_y
    assert op.shape[0] == 12
    return 4, 3


def test_gram_pair_matches_dense(square_ops, monkeypatch):
    # several row chunks, so the sparse loop stitches its Gramians
    monkeypatch.setattr(_linalg, "CHUNK_ELEMS", 20)
    rng = np.random.default_rng(5)
    for op in square_ops:
        n = op.shape[0]
        basis = random_basis(*_grid(op), 5, rng)
        P = dense_basis(basis)
        w = rng.uniform(0.2, 3.0, n)
        MP = _dense_reference(op) @ P
        want = (MP.T @ (w[:, None] * MP), MP.T @ (w[:, None] * P))
        got = op.gram_pair(basis, w)
        assert len(got) == 2
        for g, ref in zip(got, want):
            np.testing.assert_allclose(g, ref, rtol=1e-12)
        # G_MP alone is the pair's second Gramian
        np.testing.assert_allclose(op.gram_mp(basis, w), got[1], rtol=1e-13)
        # Identity's two Gramians are the basis Gram, one array
        if isinstance(op, Identity):
            assert got[0] is got[1]
            np.testing.assert_array_equal(got[0], basis.gram(w))


def _q_terms_dense(op, P, psi, omega):
    MP = _dense_reference(op) @ P
    return (np.diag(MP @ psi @ MP.T), np.diag(P @ omega @ MP.T))


def _q_inputs(rng, op, r):
    basis = random_basis(*_grid(op), r, rng)
    A = rng.standard_normal((basis.rank, basis.rank))
    return basis, A @ A.T, rng.standard_normal((basis.rank, basis.rank))


def _assert_q_terms(op, basis, psi, omega):
    got = op.q_terms(basis, psi, omega)
    assert len(got) == 2
    for g, ref in zip(got, _q_terms_dense(op, dense_basis(basis), psi, omega)):
        np.testing.assert_allclose(g, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


def test_q_terms_match_dense(square_ops, monkeypatch):
    # several row chunks, so the sparse loop stitches its diagonals
    monkeypatch.setattr(_linalg, "CHUNK_ELEMS", 20)
    rng = np.random.default_rng(8)
    for op in square_ops:
        _assert_q_terms(op, *_q_inputs(rng, op, 5))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 16))
def test_patch_rank1_q_terms_any_tiling(bx, by, z_x, z_y, r, seed):
    # non-square grids and patches, one patch, one-pixel patches
    rng = np.random.default_rng(seed)
    n_s = bx * z_x * by * z_y
    op = PatchRank1(bx * z_x, by * z_y, z_x, z_y, rng.standard_normal(n_s),
                    rng.standard_normal(n_s), rng.uniform(0.5, 2.0))
    _assert_q_terms(op, *_q_inputs(rng, op, min(r, n_s)))


def test_shape_validation(ops):
    rng = np.random.default_rng(10)
    for op in ops:
        with pytest.raises(ConfigError):
            op.apply(np.zeros(op.shape[1] + 1))
        if op.shape[0] == op.shape[1]:
            # a basis on another grid: one more row, or (for PatchRank1)
            # the same pixel count with the axes swapped
            n_x, n_y = _grid(op)
            for grid in ((n_x + 1, n_y), (n_y, n_x)):
                if grid[0] * grid[1] == op.shape[0] and not isinstance(op, PatchRank1):
                    continue
                bad = random_basis(*grid, 3, rng)
                w = np.ones(op.shape[0])
                with pytest.raises(ConfigError):
                    op.gram_pair(bad, w)
                with pytest.raises(ConfigError):
                    op.gram_mp(bad, w)
                with pytest.raises(ConfigError):
                    op.q_terms(bad, np.eye(3), np.eye(3))


def test_to_dense_guard():
    big = Identity(DENSE_LIMIT + 1)
    with pytest.raises(ConfigError):
        dense(big)


def test_sparse_csr_canonicalizes_duplicates():
    # duplicate entries must be summed, not kept
    rows = np.array([0, 0, 1])
    cols = np.array([1, 1, 0])
    vals = np.array([2.0, 3.0, 1.0])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(2, 2))
    op = SparseCSR(m)
    np.testing.assert_allclose(dense(op), [[0.0, 5.0], [1.0, 0.0]])
    # a CSR input with unsorted columns and an explicit zero: the operator
    # holds its own canonical CSR copy and leaves the input as it was
    data, indices, indptr = [0.0, 4.0, 2.0, 1.0], [2, 1, 0, 1], [0, 3, 4]
    a = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)),
                      shape=(2, 3))
    op = SparseCSR(a)
    mat = op.matrix
    assert mat.format == "csr" and mat.dtype == np.float64
    assert mat.has_canonical_format and mat.has_sorted_indices
    np.testing.assert_array_equal(mat.indices, [0, 1, 1])
    np.testing.assert_array_equal(mat.data, [2.0, 4.0, 1.0])
    np.testing.assert_array_equal(a.data, data)
    np.testing.assert_array_equal(a.indices, indices)
    np.testing.assert_array_equal(a.indptr, indptr)
    for ours in (mat.data, mat.indices, mat.indptr):
        for theirs in (a.data, a.indices, a.indptr):
            assert not np.shares_memory(ours, theirs)
    # a later write to the input does not reach the operator
    a.data[1] = 7.0
    np.testing.assert_array_equal(op.apply(np.ones(3)), [6.0, 1.0])


def _kernel_cases():
    """A non-square matrix with empty rows and columns, and an all-zero
    one."""
    mat = sp.random(9, 6, density=0.4, random_state=np.random.RandomState(5),
                    format="csr")
    mat = sp.csr_matrix(mat.toarray() * (np.arange(9) % 3 != 1)[:, None]
                        * (np.arange(6) != 2))
    assert (np.diff(mat.indptr) == 0).any()
    assert 2 not in mat.indices
    return [mat, sp.csr_matrix((4, 7))]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("mat", _kernel_cases())
def test_sparse_csr_kernels_match_public_products(mat, dtype):
    # apply/apply_transpose call SciPy's CSR kernels directly: bitwise the
    # products matrix @ x and matrix.T @ y, on the owned arrays, each a new
    # array, also for strided (non-contiguous) input. SciPy keeps int64
    # indices only where int32 cannot hold them, so they are set here.
    op = SparseCSR(mat)
    assert not hasattr(op, "_adjoint")
    op.matrix.indices = op.matrix.indices.astype(dtype)
    op.matrix.indptr = op.matrix.indptr.astype(dtype)
    mat = op.matrix
    m, n = mat.shape
    rng = np.random.default_rng(9)
    xs = rng.standard_normal(2 * n)
    ys = rng.standard_normal(2 * m)
    for x, y in ((xs[:n].copy(), ys[:m].copy()), (xs[::2], ys[::2])):
        fx, fy = op.apply(x), op.apply_transpose(y)
        np.testing.assert_array_equal(fx, mat @ x)
        np.testing.assert_array_equal(fy, mat.T @ y)
        assert fx.dtype == fy.dtype == np.float64
        for out in (fx, fy):
            for arg in (x, y, op.matrix.data):
                assert not np.shares_memory(out, arg)
    with pytest.raises(ConfigError, match="length"):
        op.apply(np.ones(n + 1))
    with pytest.raises(ConfigError, match="length"):
        op.apply_transpose(np.ones(n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparse_csr_rejects_non_finite_entries(bad):
    m = sp.csr_matrix(np.array([[1.0, 0.0], [bad, 2.0]]))
    with pytest.raises(ConfigError, match="finite"):
        SparseCSR(m)


def test_rank1_denominator_guard():
    # one whole-image patch, as M2 builds it; d = ||v||^2 + zeta
    for zeta in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="zeta"):
            PatchRank1(3, 1, 3, 1, np.ones(3), np.ones(3), zeta)
    # an all-zero source patch at zeta = 0 has no fit
    with pytest.raises(NumericError, match="positive and finite"):
        PatchRank1(4, 2, 2, 2, np.ones(8), np.r_[np.ones(4), np.zeros(4)], 0.0)
    # ||v||^2 overflows to inf
    with pytest.raises(NumericError, match="positive and finite"):
        PatchRank1(3, 1, 3, 1, np.ones(3), np.full(3, 1e200), 0.0)


def test_patch_rank1_tiling_guard():
    # a patch that does not tile the image, and patch sizes below one
    for n_x, n_y, z_x, z_y in ((5, 3, 2, 3), (4, 4, 0, 2), (4, 4, 2, 0)):
        with pytest.raises(ConfigError, match=rf"\({z_x}, {z_y}\) does not tile"):
            PatchRank1(n_x, n_y, z_x, z_y, np.zeros(n_x * n_y),
                       np.zeros(n_x * n_y), 1.0)


def test_payload_nbytes(ops):
    for op in ops:
        n = payload_nbytes(op)
        assert n >= 0
        if isinstance(op, Identity):
            assert n == 0
        if isinstance(op, PatchRank1):
            # u and v are held, not owned: a run charges them as rows of
            # its smoothed trajectory
            assert n == op.denoms.nbytes
        if isinstance(op, SparseCSR):
            # one stored matrix, which both products read
            m = op.matrix
            assert n == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
