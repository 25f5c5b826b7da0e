"""Separable squared-exponential prior and its whitening basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynct.errors import ConfigError, NumericError
from dynct.prior import (PriorConfig, ProjectionBasis, _eigh_descending,
                         build_projection, se_kernel_1d)
from helpers import rel_err
from oracles import (column_loop_projection, dense_covariance,
                     dense_se_covariance, se_covariance_entry)


def test_dense_covariance_matches_pairwise_oracle():
    for n_x, n_y, alpha, ell in ((5, 4, 1.3, 2.0), (6, 6, 0.28, 1.1)):
        got = dense_covariance(n_x, n_y, alpha, ell)
        want = dense_se_covariance(n_x, n_y, alpha, ell)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_entry_function_agrees_with_dense():
    alpha, ell = 0.9, 1.7
    sig = dense_covariance(4, 3, alpha, ell)
    for p_flat in range(12):
        for q_flat in range(12):
            p = divmod(p_flat, 3)
            q = divmod(q_flat, 3)
            assert np.isclose(sig[p_flat, q_flat],
                              se_covariance_entry(p, q, alpha, ell),
                              atol=1e-14)


def test_full_rank_basis_reproduces_covariance():
    n_x, n_y = 7, 6
    cfg = PriorConfig(alpha=1.1, ell=0.9, rank=n_x * n_y)
    basis = build_projection(n_x, n_y, cfg)
    np.testing.assert_allclose(basis.P @ basis.P.T,
                               dense_covariance(n_x, n_y, 1.1, 0.9),
                               atol=1e-10)


def test_truncated_basis_is_best_rank_r():
    n_x = n_y = 6
    sig = dense_covariance(n_x, n_y, 1.0, 1.4)
    vals = np.linalg.eigvalsh(sig)[::-1]
    r = 10
    basis = build_projection(n_x, n_y, PriorConfig(alpha=1.0, ell=1.4, rank=r))
    # retained spectrum matches the top of the dense spectrum
    np.testing.assert_allclose(np.sort(basis.eigenvalues)[::-1], vals[:r],
                               rtol=1e-10)
    # approximation error equals the tail eigenvalue sum (in trace norm)
    err = np.trace(sig - basis.P @ basis.P.T)
    np.testing.assert_allclose(err, vals[r:].sum(), rtol=1e-8)


def test_eigenvalues_descending_with_lexicographic_ties():
    basis = build_projection(5, 5, PriorConfig(alpha=1.0, ell=1.2, rank=25))
    vals = basis.eigenvalues
    assert np.all(np.diff(vals) <= 1e-12 * vals[0])
    for k in range(len(vals) - 1):
        if np.isclose(vals[k], vals[k + 1], rtol=1e-12):
            assert tuple(basis.index_pairs[k]) <= tuple(basis.index_pairs[k + 1])


def test_sign_convention_first_nonzero_positive():
    basis = build_projection(6, 5, PriorConfig(alpha=1.0, ell=1.3, rank=30))
    for k in range(basis.P.shape[1]):
        col = basis.P[:, k]
        nz = np.flatnonzero(np.abs(col) > 0)
        assert col[nz[0]] > 0


def test_tiny_ell_gives_scaled_identity():
    alpha = 0.7
    basis = build_projection(4, 4, PriorConfig(alpha=alpha, ell=0.01, rank=16))
    np.testing.assert_allclose(basis.P, alpha * np.eye(16), atol=1e-12)


def test_whitening_invariant():
    n_x, n_y, alpha, ell = 6, 5, 1.2, 1.5
    sig = dense_covariance(n_x, n_y, alpha, ell)
    for r in (5, 12, 30):
        basis = build_projection(n_x, n_y,
                                 PriorConfig(alpha=alpha, ell=ell, rank=r))
        white = basis.P.T @ np.linalg.solve(sig, basis.P)
        np.testing.assert_allclose(white, np.eye(r), atol=1e-8)


def test_scalar_grid():
    basis = build_projection(1, 1, PriorConfig(alpha=0.4, ell=2.0, rank=1))
    np.testing.assert_allclose(basis.P, [[0.4]], atol=1e-15)


def test_underflow_guard():
    with pytest.raises(NumericError):
        build_projection(12, 12, PriorConfig(alpha=1.0, ell=1e8, rank=144))


def test_rank_validation():
    with pytest.raises(ConfigError):
        build_projection(4, 4, PriorConfig(alpha=1.0, ell=1.0, rank=17))
    with pytest.raises(ConfigError):
        PriorConfig(alpha=0.0, ell=1.0, rank=4)
    with pytest.raises(ConfigError):
        PriorConfig(alpha=1.0, ell=-1.0, rank=4)
    with pytest.raises(ConfigError):
        PriorConfig(alpha=1.0, ell=1.0, rank=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_prior_rejected(bad):
    with pytest.raises(ConfigError, match="finite"):
        PriorConfig(alpha=bad, ell=1.0, rank=4)
    with pytest.raises(ConfigError, match="finite"):
        PriorConfig(alpha=1.0, ell=bad, rank=4)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), st.integers(2, 7),
       st.floats(0.2, 3.0), st.floats(0.3, 4.0))
def test_kernel_symmetric_psd(n_x, n_y, alpha, ell):
    sig = dense_covariance(n_x, n_y, alpha, ell)
    np.testing.assert_allclose(sig, sig.T, atol=1e-13)
    vals = np.linalg.eigvalsh(sig)
    assert vals.min() >= -1e-10 * max(vals.max(), 1.0)


def test_1d_kernel_unit_diagonal():
    k = se_kernel_1d(9, 1.7)
    np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-15)
    assert k.max() <= 1.0 + 1e-15


@pytest.mark.parametrize("n_x, n_y", [(6, 10), (9, 4)])
def test_basis_gram_is_diagonal_eigenvalues(n_x, n_y):
    n_s = n_x * n_y
    for r in (1, n_s // 2, n_s):
        basis = build_projection(n_x, n_y, PriorConfig(alpha=1.3, ell=1.1, rank=r))
        lam = basis.eigenvalues
        np.testing.assert_allclose(basis.P.T @ basis.P, np.diag(lam),
                                   rtol=0, atol=1e-12 * lam.max())


def _rebuilt(basis, P=None, eigenvalues=None, index_pairs=None,
             factor_x=None, factor_y=None):
    def pick(given, own):
        return own if given is None else given

    return ProjectionBasis(P=pick(P, basis.P),
                           eigenvalues=pick(eigenvalues, basis.eigenvalues),
                           index_pairs=pick(index_pairs, basis.index_pairs),
                           factor_x=pick(factor_x, basis.factor_x),
                           factor_y=pick(factor_y, basis.factor_y),
                           n_x=basis.n_x, n_y=basis.n_y, config=basis.config)


def test_basis_rejects_columns_that_are_not_orthogonal():
    basis = build_projection(6, 5, PriorConfig(alpha=1.2, ell=1.3, rank=8))
    lam = basis.eigenvalues
    assert lam[0] > lam[1]
    _rebuilt(basis)  # the basis itself passes
    # turn column 0's direction toward column 1 by a plane rotation: every
    # column norm is still sqrt(eigenvalue), but P^T P is no longer diagonal
    u = basis.P / np.sqrt(lam)
    theta = 0.3
    P = basis.P.copy()
    P[:, 0] = np.sqrt(lam[0]) * (np.cos(theta) * u[:, 0] + np.sin(theta) * u[:, 1])
    np.testing.assert_allclose(np.sum(P ** 2, axis=0), lam, rtol=1e-12)
    with pytest.raises(ConfigError):
        _rebuilt(basis, P=P)
    # mis-scaled column: orthogonal, but its squared norm is not its eigenvalue
    P = basis.P.copy()
    P[:, 5] *= 1.01
    with pytest.raises(ConfigError):
        _rebuilt(basis, P=P)


def test_basis_rejects_inconsistent_shapes():
    basis = build_projection(4, 3, PriorConfig(alpha=1.0, ell=1.0, rank=5))
    with pytest.raises(ConfigError):
        _rebuilt(basis, eigenvalues=basis.eigenvalues[:4])
    with pytest.raises(ConfigError):
        _rebuilt(basis, P=basis.P[:-1])
    with pytest.raises(ConfigError):
        _rebuilt(basis, eigenvalues=-basis.eigenvalues)


def test_basis_gram_matches_dense():
    basis = build_projection(7, 5, PriorConfig(alpha=0.8, ell=1.4, rank=20))
    P = basis.P
    rng = np.random.default_rng(4)
    for w in (np.full(35, 2.5), rng.uniform(0.1, 3.0, 35)):
        want = P.T @ (w[:, None] * P)
        assert rel_err(basis.gram(w), want) <= 1e-12
    with pytest.raises(ConfigError):
        basis.gram(np.ones(34))


@pytest.mark.parametrize("n_x, n_y, ell, rank", [(12, 8, 1.1, 96), (9, 7, 1.3, 23),
                                                 (64, 64, 2.0, 300)])
def test_assembly_matches_column_loop_bitwise(n_x, n_y, ell, rank):
    basis = build_projection(n_x, n_y, PriorConfig(alpha=1.3, ell=ell, rank=rank))
    n_a, n_b = basis.box
    # the factor blocks are the leading 1-D eigenvectors, as few as the
    # retained pairs reach
    for block, n, top in ((basis.factor_x, n_x, basis.index_pairs[:, 0].max()),
                          (basis.factor_y, n_y, basis.index_pairs[:, 1].max())):
        assert block.shape == (n, top + 1)
        _, vecs = _eigh_descending(se_kernel_1d(n, ell))
        np.testing.assert_array_equal(block, vecs[:, :top + 1])
    want = column_loop_projection(basis.factor_x, basis.factor_y,
                                  basis.index_pairs, basis.eigenvalues)
    np.testing.assert_array_equal(basis.P, want)
    # row-major, like the column loop's output, so products sum alike
    assert basis.P.flags.c_contiguous


@pytest.mark.parametrize("n_x, n_y, ell, rank", [(12, 8, 1.1, 96), (9, 7, 1.3, 23)])
def test_basis_reductions_match_dense(n_x, n_y, ell, rank):
    # (12, 8) at r = n_s fills the whole factor box (A B = n_s); (9, 7) at
    # r = 23 cuts the eigenvalue staircase unevenly, so the box is not full
    basis = build_projection(n_x, n_y, PriorConfig(alpha=0.9, ell=ell, rank=rank))
    n_a, n_b = basis.box
    if rank == n_x * n_y:
        assert (n_a, n_b) == (n_x, n_y)
    else:
        assert n_a * n_b > rank
    P, n_s = basis.P, n_x * n_y
    rng = np.random.default_rng(12)
    w = rng.uniform(0.1, 3.0, n_s)
    assert rel_err(basis.gram(w), P.T @ (w[:, None] * P)) <= 1e-12
    np.testing.assert_array_equal(basis.gram(np.full(n_s, 0.7)),
                                  np.diag(0.7 * basis.eigenvalues))
    A = rng.standard_normal((rank, rank))
    for psi in (A @ A.T, rng.standard_normal((rank, rank))):
        assert rel_err(basis.quad_diag(psi), np.diag(P @ psi @ P.T)) <= 1e-12


def test_basis_rejects_p_that_disagrees_with_factors():
    basis = build_projection(6, 5, PriorConfig(alpha=1.2, ell=1.3, rank=8))
    # a negated column keeps P^T P = diag(lambda) but is not
    # sqrt(lambda) kron(u_a, v_b)
    P = basis.P.copy()
    P[:, 3] *= -1.0
    np.testing.assert_allclose(P.T @ P, np.diag(basis.eigenvalues), rtol=0,
                               atol=1e-12 * basis.eigenvalues.max())
    with pytest.raises(ConfigError, match="factor blocks"):
        _rebuilt(basis, P=P)
    # so do swapped factor columns under the same P
    fx = basis.factor_x[:, ::-1].copy()
    with pytest.raises(ConfigError, match="factor blocks"):
        _rebuilt(basis, factor_x=fx)
    n_a, n_b = basis.box
    bad_pairs = (basis.index_pairs.copy(), basis.index_pairs.copy(),
                 basis.index_pairs[:-1], basis.index_pairs.astype(float))
    bad_pairs[0][1] = bad_pairs[0][0]       # a repeated pair
    bad_pairs[1][-1] = (n_a, 0)             # a pair outside the box
    for pairs in bad_pairs:
        with pytest.raises(ConfigError, match="index pair"):
            _rebuilt(basis, index_pairs=pairs)
    with pytest.raises(ConfigError, match="factor blocks"):
        _rebuilt(basis, factor_y=basis.factor_y[:-1])
