"""Separable squared-exponential prior and its whitening basis."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dynct import _linalg
from dynct._linalg import row_chunks
from dynct.errors import ConfigError, NumericError
from dynct.linops import SparseCSR
from dynct.motion import VelocityField, build_warp, fit_motion
from dynct.prior import (PriorConfig, ProjectionBasis, _eigh_descending,
                         build_projection, se_kernel_1d)
from dynct.radon import build_operators, make_geometry
from helpers import random_basis, rel_err
from oracles import (dense_basis, dense_covariance, dense_se_covariance,
                     se_covariance_entry)


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
    P = dense_basis(build_projection(n_x, n_y, cfg))
    np.testing.assert_allclose(P @ P.T,
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
    P = dense_basis(basis)
    err = np.trace(sig - P @ P.T)
    np.testing.assert_allclose(err, vals[r:].sum(), rtol=1e-8)


def test_eigenvalues_descending_with_lexicographic_ties():
    basis = build_projection(5, 5, PriorConfig(alpha=1.0, ell=1.2, rank=25))
    vals = basis.eigenvalues
    assert np.all(np.diff(vals) <= 1e-12 * vals[0])
    for k in range(len(vals) - 1):
        if np.isclose(vals[k], vals[k + 1], rtol=1e-12):
            assert tuple(basis.index_pairs[k]) <= tuple(basis.index_pairs[k + 1])


def test_sign_convention_first_nonzero_positive():
    P = dense_basis(build_projection(6, 5, PriorConfig(alpha=1.0, ell=1.3, rank=30)))
    for k in range(P.shape[1]):
        col = P[:, k]
        nz = np.flatnonzero(np.abs(col) > 0)
        assert col[nz[0]] > 0


def test_tiny_ell_gives_scaled_identity():
    alpha = 0.7
    basis = build_projection(4, 4, PriorConfig(alpha=alpha, ell=0.01, rank=16))
    np.testing.assert_allclose(dense_basis(basis), alpha * np.eye(16), atol=1e-12)


def test_whitening_invariant():
    n_x, n_y, alpha, ell = 6, 5, 1.2, 1.5
    sig = dense_covariance(n_x, n_y, alpha, ell)
    for r in (5, 12, 30):
        basis = build_projection(n_x, n_y,
                                 PriorConfig(alpha=alpha, ell=ell, rank=r))
        P = dense_basis(basis)
        white = P.T @ np.linalg.solve(sig, P)
        np.testing.assert_allclose(white, np.eye(r), atol=1e-8)


def test_scalar_grid():
    basis = build_projection(1, 1, PriorConfig(alpha=0.4, ell=2.0, rank=1))
    np.testing.assert_allclose(dense_basis(basis), [[0.4]], atol=1e-15)


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
    for bad in (0, 2.5, 4.0):
        with pytest.raises(ConfigError, match="rank"):
            PriorConfig(alpha=1.0, ell=1.0, rank=bad)


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
        P = dense_basis(basis)
        np.testing.assert_allclose(P.T @ P, np.diag(lam),
                                   rtol=0, atol=1e-12 * lam.max())


def _rebuilt(basis, eigenvalues=None, index_pairs=None, factor_x=None,
             factor_y=None):
    def pick(given, own):
        return own if given is None else given

    return ProjectionBasis(eigenvalues=pick(eigenvalues, basis.eigenvalues),
                           index_pairs=pick(index_pairs, basis.index_pairs),
                           factor_x=pick(factor_x, basis.factor_x),
                           factor_y=pick(factor_y, basis.factor_y),
                           n_x=basis.n_x, n_y=basis.n_y, config=basis.config)


def test_basis_rejects_columns_that_are_not_orthogonal():
    # P^T P = diag(lambda) holds exactly when the factor blocks are
    # orthonormal: a perturbed U_x gives columns that are not orthogonal or
    # whose squared norms are not their eigenvalues
    basis = build_projection(6, 5, PriorConfig(alpha=1.2, ell=1.3, rank=8))
    _rebuilt(basis)  # the basis itself passes
    fx = basis.factor_x
    # column 0 turned toward column 1: unit norm, not orthogonal
    theta = 0.3
    turned = fx.copy()
    turned[:, 0] = np.cos(theta) * fx[:, 0] + np.sin(theta) * fx[:, 1]
    np.testing.assert_allclose(np.linalg.norm(turned, axis=0), 1.0, rtol=1e-12)
    # a mis-scaled column, and a perturbation just past the tolerance
    scaled = fx.copy()
    scaled[:, 1] *= 1.01
    nudged = fx.copy()
    nudged[0, 0] += 1e-8
    for bad in (turned, scaled, nudged):
        with pytest.raises(ConfigError, match="orthonormal"):
            _rebuilt(basis, factor_x=bad)
        with pytest.raises(ConfigError, match="orthonormal"):
            ProjectionBasis(eigenvalues=basis.eigenvalues,
                            index_pairs=basis.index_pairs[:, ::-1].copy(),
                            factor_x=basis.factor_y, factor_y=bad,
                            n_x=basis.n_y, n_y=basis.n_x, config=basis.config)


def test_basis_rejects_inconsistent_shapes():
    basis = build_projection(4, 3, PriorConfig(alpha=1.0, ell=1.0, rank=5))
    with pytest.raises(ConfigError):
        _rebuilt(basis, eigenvalues=basis.eigenvalues[:4])
    with pytest.raises(ConfigError):
        _rebuilt(basis, eigenvalues=basis.eigenvalues[None])
    with pytest.raises(ConfigError):
        _rebuilt(basis, eigenvalues=-basis.eigenvalues)
    with pytest.raises(ConfigError, match="factor blocks"):
        _rebuilt(basis, factor_y=basis.factor_y[:-1])


def test_basis_gram_matches_dense():
    basis = build_projection(7, 5, PriorConfig(alpha=0.8, ell=1.4, rank=20))
    P = dense_basis(basis)
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
    # the factor blocks are the leading 1-D eigenvectors, as few as the
    # retained pairs reach
    for block, n, top in ((basis.factor_x, n_x, basis.index_pairs[:, 0].max()),
                          (basis.factor_y, n_y, basis.index_pairs[:, 1].max())):
        assert block.shape == (n, top + 1)
        _, vecs = _eigh_descending(se_kernel_1d(n, ell))
        np.testing.assert_array_equal(block, vecs[:, :top + 1])
    # rows formed on demand, chunk by chunk, are the column loop's rows
    want = dense_basis(basis)
    n_s = n_x * n_y
    for rows in row_chunks(n_s, 7 * rank):
        idx = np.arange(rows.start, rows.stop)
        np.testing.assert_array_equal(basis.rows(idx), want[rows])
    np.testing.assert_array_equal(basis.rows(np.arange(n_s)), want)
    # any index array: unsorted, repeated, empty
    rng = np.random.default_rng(n_s)
    for idx in (rng.permutation(n_s)[:n_s // 2], rng.integers(0, n_s, 3 * n_s),
                np.array([n_s - 1, 0, n_s - 1, 0]), np.empty(0, dtype=np.int64)):
        got = basis.rows(idx)
        assert got.shape == (idx.size, rank)
        np.testing.assert_array_equal(got, want[idx])


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
    P, n_s = dense_basis(basis), n_x * n_y
    rng = np.random.default_rng(12)
    w = rng.uniform(0.1, 3.0, n_s)
    assert rel_err(basis.gram(w), P.T @ (w[:, None] * P)) <= 1e-12
    np.testing.assert_array_equal(basis.gram(np.full(n_s, 0.7)),
                                  np.diag(0.7 * basis.eigenvalues))
    A = rng.standard_normal((rank, rank))
    for psi in (A @ A.T, rng.standard_normal((rank, rank))):
        assert rel_err(basis.quad_diag(psi), np.diag(P @ psi @ P.T)) <= 1e-12


@pytest.mark.parametrize("n_x, n_y", [(6, 6), (9, 2)])
def test_basis_rejects_bad_index_pairs(n_x, n_y):
    basis = build_projection(n_x, n_y, PriorConfig(alpha=1.2, ell=1.3, rank=8))
    n_a, n_b = basis.box
    pairs = basis.index_pairs
    # a swapped pair (a_k, b_k) -> (b_k, a_k): on the square grid the
    # retained set is symmetric, so it repeats another column's pair; on
    # the 9 x 2 grid the box is 4 x 2 and the swap of a pair with a_k >= 2
    # leaves it
    k = int(np.flatnonzero(pairs[:, 0] > pairs[:, 1])[-1])
    swapped = pairs.copy()
    swapped[k] = pairs[k, ::-1]
    if n_x == n_y:
        assert any((row == swapped[k]).all() for row in np.delete(pairs, k, axis=0))
    else:
        assert swapped[k, 1] >= n_b
    repeated, outside = pairs.copy(), pairs.copy()
    repeated[1] = repeated[0]
    outside[-1] = (n_a, 0)
    for bad in (swapped, repeated, outside, pairs[:-1], pairs.astype(float)):
        with pytest.raises(ConfigError, match="index pair"):
            _rebuilt(basis, index_pairs=bad)


def _tiles(n_x, n_y, z_x, z_y):
    return (n_x // z_x, z_x, n_y // z_y, z_y)


def _tile_of_pixel(tiles):
    """Row-major tile index of each image-order pixel."""
    g_x, z_x, g_y, z_y = tiles
    ix, iy = np.divmod(np.arange(g_x * z_x * g_y * z_y), g_y * z_y)
    return (ix // z_x) * g_y + iy // z_y


def _warp(n_x, n_y, rng, amp=1.5):
    field = VelocityField(s_x=rng.uniform(-amp, amp, n_x * n_y),
                          s_y=rng.uniform(-amp, amp, n_x * n_y), n_x=n_x, n_y=n_y)
    return build_warp(field).matrix


def _products_cases():
    rng = np.random.default_rng(21)
    built = [build_projection(48, 40, PriorConfig(alpha=0.7, ell=1.5, rank=150)),
             build_projection(5, 7, PriorConfig(alpha=0.7, ell=1.5, rank=35)),
             random_basis(6, 4, 4, rng, box=(1, 4)),
             random_basis(6, 4, 5, rng, box=(6, 1))]
    return built


@pytest.mark.parametrize("basis", _products_cases(),
                         ids=["48x40", "5x7-full-rank", "box-A1", "box-B1"])
def test_basis_products_match_dense_oracle(basis):
    # every product the package makes with P, against the assembled P: on
    # non-square grids, at r = n_s and with a one-column factor block
    n_x, n_y, n_s, r = basis.n_x, basis.n_y, basis.n_s, basis.rank
    if basis.rank == n_s:
        assert basis.box == (n_x, n_y)
    P = dense_basis(basis)
    rng = np.random.default_rng(5)
    z, x = rng.standard_normal(r), rng.standard_normal(n_s)
    assert rel_err(basis.apply(z), P @ z) <= 1e-13
    assert rel_err(basis.apply_t(x), P.T @ x) <= 1e-13
    np.testing.assert_array_equal(basis.rows(np.arange(2, n_s - 1)), P[2:n_s - 1])
    # the sparse left product: a Radon H, an M1 warp and a random S
    geom = make_geometry(n_x, n_y, 4, 1, angle_offset=0.3)
    lefts = [build_operators(geom)[0], SparseCSR(_warp(n_x, n_y, rng)),
             SparseCSR(sp.random(17, n_s, density=0.2, format="csc",
                                 random_state=np.random.RandomState(3)))]
    for S in lefts:
        want = S.matrix @ P
        assert rel_err(basis.premultiply(S), want) <= 1e-13
    # several chunks of rays, so the chunk loop stitches its rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_linalg, "CHUNK_ELEMS", 3 * n_x * basis.box[1])
        for S in lefts:
            assert rel_err(basis.premultiply(S), S.matrix @ P) <= 1e-13
    # per-tile sums and their adjoint, for every tiling of the grid
    for z_x in (d for d in range(1, n_x + 1) if n_x % d == 0):
        for z_y in (d for d in range(1, n_y + 1) if n_y % d == 0):
            tiles = _tiles(n_x, n_y, z_x, z_y)
            tile = _tile_of_pixel(tiles)
            sums = np.stack([x[tile == j] @ P[tile == j]
                             for j in range(tiles[0] * tiles[2])])
            assert rel_err(basis.tile_sums(x, tiles), sums) <= 1e-13
            c = rng.standard_normal(sums.shape)
            assert rel_err(basis.tile_apply(c, tiles),
                           np.einsum("ik,ik->i", P, c[tile])) <= 1e-13
    with pytest.raises(ConfigError, match="tiling"):
        basis.tile_sums(x, (1, n_x, 2, n_y // 2 + 1))
    with pytest.raises(ConfigError, match="columns"):
        basis.premultiply(SparseCSR(sp.csr_matrix((3, n_s + 1))))


def _premultiply_public(basis, S):
    """S P through SciPy's public ``csr_matrix @ dense``: S reshaped to rows
    (ray, x) and columns y, times U_y, then U_x^T, the gather at (a_k, b_k)
    and the sqrt(lambda_k) scale."""
    csr = sp.csr_matrix(S, dtype=np.float64)
    m, n_b = csr.shape[0], basis.box[1]
    k = sp.csr_matrix(csr.reshape((m * basis.n_x, basis.n_y)))
    w = (k @ basis.factor_y).reshape(m, basis.n_x, n_b)
    full = (basis.factor_x.T @ w).reshape(m, -1)
    flat = basis.index_pairs[:, 0] * n_b + basis.index_pairs[:, 1]
    return full[:, flat] * np.sqrt(basis.eigenvalues)


@pytest.mark.parametrize("n_x, n_y, r", [(8, 8, 20), (7, 5, 12), (6, 9, 30)])
def test_premultiply_pins_public_sparse_product(n_x, n_y, r):
    # premultiply calls SciPy's private CSR kernel into a reused buffer and
    # contracts only each chunk's x-span: it must give the public product
    # bitwise, at every chunking, for a Radon H whose extra detectors leave
    # rays empty, for rays at 0 and pi/2 (spanning every x-column, or one),
    # for chunks made only of empty rays and for a random matrix
    basis = build_projection(n_x, n_y, PriorConfig(alpha=1.0, ell=1.3, rank=r))
    geom = make_geometry(n_x, n_y, 3, 1, angle_offset=0.3,
                         detector_count=2 * (n_x + n_y))
    h = build_operators(geom)[0].matrix
    assert (np.diff(h.indptr) == 0).any()
    square = build_operators(make_geometry(n_x, n_y, 2, 1))[0].matrix
    spans = {(x.min(), x.max()) for x in (
        square.indices[lo:hi] // n_y
        for lo, hi in zip(square.indptr[:-1], square.indptr[1:]) if hi > lo)}
    assert (0, n_x - 1) in spans and any(lo == hi for lo, hi in spans)
    gap = sp.csr_matrix((9, basis.n_s))
    lefts = [SparseCSR(S) for S in (
        h, square, sp.vstack([h, gap, square], format="csr"), gap,
        sp.random(11, basis.n_s, density=0.3,
                  random_state=np.random.RandomState(1), format="csc"))]
    width = n_x * basis.box[1]
    for chunk in (_linalg.CHUNK_ELEMS, 1, 2 * width, 5 * width - 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_linalg, "CHUNK_ELEMS", chunk)
            for S in lefts:
                np.testing.assert_array_equal(
                    basis.premultiply(S), _premultiply_public(basis, S.matrix))


def test_basis_products_hold_no_whole_basis():
    # at 128 x 128, r = 300 a whole P is n_s r 8 = 39 MB: every product
    # with the basis, and every motion Gramian built on them, stays below a
    # quarter of that in traced allocations, output included
    n = 128
    basis = build_projection(n, n, PriorConfig(alpha=0.28, ell=1.76, rank=300))
    n_s, r = basis.n_s, basis.rank
    whole = n_s * r * 8
    assert whole >= 20e6
    rng = np.random.default_rng(2)
    x, z = rng.standard_normal(n_s), rng.standard_normal(r)
    h = build_operators(make_geometry(n, n, 5, 1, angle_offset=0.3))[0]
    warp = SparseCSR(_warp(n, n, rng))
    # displacements up to the grid size: each row chunk references rows of
    # P from all over the image
    wild = SparseCSR(_warp(n, n, rng, amp=n))
    # two far bands: each row chunk references columns half the grid away
    far = SparseCSR(sp.eye(n_s) + sp.eye(n_s, k=n_s // 2) + sp.eye(n_s, k=-n_s // 2))
    m3 = fit_motion(rng.uniform(0.5, 1.5, n_s), rng.uniform(0.5, 1.5, n_s),
                    n, n, "m3", zeta=0.1, patch=(8, 8))
    tiles = m3.tiles
    w = rng.uniform(0.5, 2.0, n_s)
    psi = np.eye(r)
    products = {
        "apply": lambda: basis.apply(z),
        "apply_t": lambda: basis.apply_t(x),
        "rows": lambda: basis.rows(np.arange(_linalg.CHUNK_ELEMS // r)),
        "premultiply": lambda: basis.premultiply(h),
        "tile_sums": lambda: basis.tile_sums(x, tiles),
        "tile_apply": lambda: basis.tile_apply(np.ones((256, r)), tiles),
        "gram": lambda: basis.gram(w),
        "quad_diag": lambda: basis.quad_diag(psi),
        "SparseCSR.gram_pair": lambda: warp.gram_pair(basis, w),
        "SparseCSR.q_terms": lambda: warp.q_terms(basis, psi, psi),
        "SparseCSR.gram_pair, far bands": lambda: far.gram_pair(basis, w),
        "SparseCSR.gram_pair, wild warp": lambda: wild.gram_pair(basis, w),
        "PatchRank1.gram_pair": lambda: m3.gram_pair(basis, w),
        "PatchRank1.q_terms": lambda: m3.q_terms(basis, psi, psi),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, product in products.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            product()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(peak < whole / 4 for peak in peaks.values()), peaks
