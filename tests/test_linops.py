"""Operator abstraction: dense agreement, adjointness, block kernels."""

import numpy as np
import pytest
import scipy.sparse as sp

from dynct._linalg import motion_gram_triple, op_gram, weighted_gram
from dynct.errors import ConfigError
from dynct.linops import (DENSE_LIMIT, Identity, LinearOperator, PatchRank1,
                          Rank1, SparseCSR, Warp, payload_nbytes)


def _sample_ops(rng):
    mat = sp.random(18, 12, density=0.3, random_state=np.random.RandomState(7),
                    format="csr")
    ops = [
        SparseCSR(mat),
        Identity(12),
        Rank1(rng.standard_normal(12), rng.standard_normal(12), 1.7),
        PatchRank1(4, 3, 2, 3, rng.standard_normal((2, 6)),
                   rng.standard_normal((2, 6)), np.array([1.3, 0.4])),
        # 2 x 2 grid of non-square 3 x 2 patches: rows of one patch are not
        # contiguous in the state vector, and slices cut through patches
        PatchRank1(6, 4, 3, 2, rng.standard_normal((4, 6)),
                   rng.standard_normal((4, 6)), np.array([1.3, 0.4, 2.1, 0.9])),
    ]
    warp_mat = sp.random(12, 12, density=0.4,
                         random_state=np.random.RandomState(3), format="csr")
    ops.append(Warp(warp_mat, 4, 3))
    return ops


@pytest.fixture(scope="module")
def ops():
    return _sample_ops(np.random.default_rng(0))


def test_apply_matches_dense(ops):
    rng = np.random.default_rng(1)
    for op in ops:
        dense = op.to_dense()
        x = rng.standard_normal(op.shape[1])
        y = rng.standard_normal(op.shape[0])
        np.testing.assert_allclose(op.apply(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(op.apply_transpose(y), dense.T @ y,
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


def test_apply_block_rows_agrees_with_full(ops):
    rng = np.random.default_rng(4)
    for op in ops:
        X = rng.standard_normal((op.shape[1], 4))
        full = np.column_stack([op.apply(x) for x in X.T])
        m = op.shape[0]
        for rows in (slice(0, m), slice(2, 7), slice(m - 3, m), slice(0, 0)):
            got = op.apply_block_rows(X, rows)
            np.testing.assert_allclose(got, full[rows], atol=1e-12)
        # chunked concatenation reproduces the whole product
        parts = [op.apply_block_rows(X, slice(a, min(a + 5, m)))
                 for a in range(0, m, 5)]
        np.testing.assert_allclose(np.vstack(parts), full, atol=1e-12)


def test_motion_gram_triple_matches_dense(ops):
    rng = np.random.default_rng(5)
    square = [op for op in ops if op.shape[0] == op.shape[1]]
    assert {type(op).__name__ for op in square} == {
        "Identity", "Rank1", "PatchRank1", "Warp"}
    for op in square:
        n = op.shape[0]
        P = rng.standard_normal((n, 5))
        w = rng.uniform(0.2, 3.0, n)
        MP = op.to_dense() @ P
        want = (MP.T @ (w[:, None] * MP), MP.T @ (w[:, None] * P),
                P.T @ (w[:, None] * P))
        g_pp = weighted_gram(P, w)
        got = motion_gram_triple(op, P, w, g_pp)
        for g, ref in zip(got, want):
            np.testing.assert_allclose(g, ref, rtol=1e-12)
        # the basis Gram is the caller's, handed back untouched
        assert got[2] is g_pp
        if isinstance(op, Identity):
            assert all(g is g_pp for g in got)


def test_shape_validation(ops):
    for op in ops:
        with pytest.raises(ConfigError):
            op.apply(np.zeros(op.shape[1] + 1))
        with pytest.raises(ConfigError):
            op.apply_block_rows(np.zeros((op.shape[1] + 2, 3)), slice(None))
        with pytest.raises(ConfigError):
            op.apply_block_rows(np.zeros(op.shape[1]), slice(None))


def test_operator_without_row_kernel_raises():
    class NoRowKernel(LinearOperator):
        shape = (3, 3)

        def apply(self, x):
            return x.copy()

        def apply_transpose(self, y):
            return y.copy()

    op = NoRowKernel()
    with pytest.raises(NotImplementedError):
        op.to_dense()
    with pytest.raises(NotImplementedError):
        op_gram(op, np.eye(3))
    with pytest.raises(NotImplementedError):
        op.gram_triple(np.eye(3), np.ones(3), np.eye(3))


def test_to_dense_guard():
    big = Identity(DENSE_LIMIT + 1)
    with pytest.raises(ConfigError):
        big.to_dense()


def test_sparse_csr_canonicalizes_duplicates():
    # duplicate entries must be summed, not kept
    rows = np.array([0, 0, 1])
    cols = np.array([1, 1, 0])
    vals = np.array([2.0, 3.0, 1.0])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(2, 2))
    op = SparseCSR(m)
    np.testing.assert_allclose(op.to_dense(), [[0.0, 5.0], [1.0, 0.0]])


def test_rank1_denominator_guard():
    with pytest.raises(ConfigError):
        Rank1(np.ones(3), np.ones(3), 0.0)


def test_patch_rank1_tiling_guard():
    with pytest.raises(ConfigError):
        PatchRank1(5, 3, 2, 3, np.zeros((2, 6)), np.zeros((2, 6)),
                   np.ones(2))


def test_warp_requires_square_grid_operator():
    with pytest.raises(ConfigError):
        Warp(sp.eye(12, 10, format="csr"), 4, 3)


def test_payload_nbytes(ops):
    for op in ops:
        n = payload_nbytes(op)
        assert n >= 0
        if isinstance(op, Identity):
            assert n == 0
        if isinstance(op, Rank1):
            assert n == op.u.nbytes + op.v.nbytes
