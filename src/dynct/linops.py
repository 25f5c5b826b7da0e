"""Matrix-free linear operators used throughout the package.

There are three kinds. ``SparseCSR`` holds one sparse matrix: the
observation operators H, the flow solver's operands and the M1 flow warp.
``Identity`` is the motion of runs without motion refits. ``PatchRank1`` is
a rank-1 map on each patch of a non-overlapping image tiling: the M3 fit,
and the M2 fit as its one-patch case (the whole image as a single patch).
Every operator keeps its vectors in image order (row-major over the
(n_x, n_y) grid); ``PatchRank1`` reaches its patches through reshaped views.

The operator protocol is the products the filter, smoother, M-step and
flow solver make; every kind implements all five, and the flow solver
needs only the first two:

- ``apply(x)``: forward product ``op @ x``.
- ``apply_transpose(y)``: exact adjoint of the same coefficients.
- ``gram_pair(basis, w)``: the weighted Gramians G_MM = (M P)^T diag(w)
  (M P) and G_MP = (M P)^T diag(w) P that the filter needs for a motion
  operator M, and ``gram_mp(basis, w)``, G_MP alone, which is all the
  smoother needs. ``Identity``, whose Gramians are the basis Gram, asks
  ``basis.gram``; ``SparseCSR`` folds row chunks of ``M P`` into them, each
  the chunk's rows of the matrix against ``basis.rows`` of the distinct
  columns they reference; ``PatchRank1`` uses closed forms in its
  per-patch coefficients, which ``basis.tile_sums`` forms.
- ``q_terms(basis, psi_prev, omega)``: the two motion terms of the
  M-step's diag(Q_i), diag(MP psi_prev (MP)^T) and diag(P omega (MP)^T), as
  n_s-vectors. ``Identity`` asks ``basis.quad_diag`` for both;
  ``SparseCSR`` folds the same row chunks of ``M P`` into them, and
  ``PatchRank1`` uses closed forms in the same coefficients as its
  ``gram_pair`` and ``basis.tile_apply``, so it never forms an n_s x r
  product.

The observations' H P is the basis' ``premultiply`` of ``SparseCSR.matrix``.
The basis is a ``prior.ProjectionBasis`` on the operator's image grid
(ConfigError otherwise). There is no column-loop fallback.

All vectors are 1-D float64 arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from ._linalg import row_chunks
from .errors import ConfigError, NumericError


def _as_vector(x, n, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != n:
        raise ConfigError(f"{name} must be a 1-D vector of length {n}, got shape {x.shape}")
    return x


def check_tiling(n_x: int, n_y: int, z_x: int, z_y: int) -> tuple:
    """The ``tiles`` view (n_x // z_x, z_x, n_y // z_y, z_y) of (z_x, z_y)
    patches on an (n_x, n_y) image; ConfigError unless they tile it
    exactly."""
    if z_x < 1 or z_y < 1 or n_x % z_x or n_y % z_y:
        raise ConfigError(f"patch (z_x, z_y) = ({z_x}, {z_y}) does not tile "
                          f"the {n_x} x {n_y} image exactly")
    return (n_x // z_x, z_x, n_y // z_y, z_y)


class LinearOperator:
    """Base class: shape (m, n) and the protocol of the module docstring."""

    shape: tuple[int, int]

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _check_basis(op: LinearOperator, basis) -> None:
    if basis.n_s != op.shape[1]:
        raise ConfigError(f"basis grid {basis.n_x} x {basis.n_y} does not match "
                          f"an operator of shape {op.shape}")


class SparseCSR(LinearOperator):
    """Sparse operator over one owned matrix.

    The matrix is copied once, into canonical CSR form (sorted indices, no
    duplicates, no stored zeros, float64 data), so a later change to the
    caller's matrix cannot reach the operator; a non-finite entry raises
    ConfigError. Both products call SciPy's CSR kernels on the owned arrays
    directly, the ones ``matrix @ x`` dispatches to: ``csr_matvec`` for the
    forward product and, reading the same arrays as the CSC form of the
    transpose, ``csc_matvec`` for the adjoint. No CSC view or second copy
    is held, and each product skips ``@``'s dispatch, which costs more than
    the product itself at 32 x 32. Every product sums the terms of each
    output entry in ascending index order and returns a new array.
    """

    def __init__(self, matrix):
        m = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        if not np.all(np.isfinite(m.data)):
            raise ConfigError("sparse operator entries must be finite")
        self.matrix = m
        self.shape = m.shape

    def apply(self, x):
        x = _as_vector(x, self.shape[1])
        m, n = self.shape
        out = np.zeros(m)
        csr_matvec(m, n, self.matrix.indptr, self.matrix.indices,
                   self.matrix.data, x, out)
        return out

    def apply_transpose(self, y):
        y = _as_vector(y, self.shape[0], "y")
        m, n = self.shape
        out = np.zeros(n)
        csc_matvec(n, m, self.matrix.indptr, self.matrix.indices,
                   self.matrix.data, y, out)
        return out

    def _chunks(self, basis):
        """Yield (rows, M P rows, P rows) over row chunks of M P, so no
        n_s x r product is formed. Each chunk forms ``basis.rows`` once,
        over the chunk's own rows and the distinct columns its rows of the
        matrix reference, in ascending order: the chunk's rows of P are a
        contiguous slice of that block, and each row of M P sums its terms
        in ascending column order, as a product with a stored P would. A
        bilinear warp (at most 4 nonzeros a row) forms at most 5 chunks of
        P rows, whatever its displacement."""
        _check_basis(self, basis)
        csr = self.matrix
        for rows in row_chunks(self.shape[0], basis.rank):
            k = rows.stop - rows.start
            p0, p1 = csr.indptr[rows.start], csr.indptr[rows.stop]
            cols, local = np.unique(np.concatenate(
                [np.arange(rows.start, rows.stop), csr.indices[p0:p1]]),
                return_inverse=True)
            p = basis.rows(cols)
            sub = sp.csr_matrix((csr.data[p0:p1], local[k:],
                                 csr.indptr[rows.start:rows.stop + 1] - p0),
                                shape=(k, cols.size))
            yield rows, sub @ p, p[local[0]:local[0] + k]

    def gram_pair(self, basis, w):
        """Row chunks of M P fold into the pair."""
        r = basis.rank
        g_mm = np.zeros((r, r))
        g_mp = np.zeros((r, r))
        for rows, mp, p_rows in self._chunks(basis):
            mpw = mp * w[rows, None]
            g_mm += mpw.T @ mp
            g_mp += mpw.T @ p_rows
        return g_mm, g_mp

    def gram_mp(self, basis, w):
        """Row chunks of M P fold into G_MP."""
        r = basis.rank
        g_mp = np.zeros((r, r))
        for rows, mp, p_rows in self._chunks(basis):
            g_mp += (mp * w[rows, None]).T @ p_rows
        return g_mp

    def q_terms(self, basis, psi_prev, omega):
        """Each diagonal is the row sums of (X Psi) o Y over the row chunks
        of M P that ``gram_pair`` forms: two n_s x r^2 products per call."""
        quad_mp = np.empty(self.shape[0])
        cross = np.empty(self.shape[0])
        for rows, mp, p_rows in self._chunks(basis):
            quad_mp[rows] = np.einsum("ij,ij->i", mp @ psi_prev, mp)
            cross[rows] = np.einsum("ij,ij->i", p_rows @ omega, mp)
        return quad_mp, cross


class Identity(LinearOperator):
    def __init__(self, n: int):
        self.shape = (n, n)

    def apply(self, x):
        return _as_vector(x, self.shape[1]).copy()

    def apply_transpose(self, y):
        return _as_vector(y, self.shape[0], "y").copy()

    def gram_pair(self, basis, w):
        """M P = P, so both Gramians are G_PP = ``basis.gram(w)``: one
        array, twice (callers must not mutate it)."""
        g = self.gram_mp(basis, w)
        return g, g

    def gram_mp(self, basis, w):
        _check_basis(self, basis)
        return basis.gram(w)

    def q_terms(self, basis, psi_prev, omega):
        """M P = P, so the terms are diag(P psi_prev P^T) and
        diag(P omega P^T), both ``basis.quad_diag``."""
        _check_basis(self, basis)
        return basis.quad_diag(psi_prev), basis.quad_diag(omega)


class PatchRank1(LinearOperator):
    """Block-diagonal rank-1 action on non-overlapping image patches: the
    M2/M3 fit u v^T / (||v||^2 + zeta) on each patch.

    The image grid (n_x, n_y) is tiled by (z_x, z_y) patches
    (``check_tiling``). The operator holds (does not copy) image-order
    vectors u, v and keeps one denominator d_j = ||v_j||^2 + zeta per patch
    on the (n_x // z_x, n_y // z_y) patch grid (``denoms``), v_j being v on
    patch j; it maps x to u_i (v_j . x_j) / d_j at each pixel i of patch j.
    With one patch it is the plain rank-1 map u v^T / d. A negative or
    non-finite zeta raises ConfigError; a d_j that is not positive and
    finite (an all-zero patch at zeta = 0, or an overflow) NumericError.
    Per-patch sums contract over the ``tiles`` view of their image-order
    operands, and per-patch values spread back by broadcasting over it;
    the per-patch sums against the basis are ``basis.tile_sums`` over the
    same tiling.
    """

    def __init__(self, n_x, n_y, z_x, z_y, u, v, zeta):
        self.tiles = check_tiling(n_x, n_y, z_x, z_y)
        n_s = n_x * n_y
        self.shape = (n_s, n_s)
        self.u = _as_vector(u, n_s, "u")
        self.v = _as_vector(v, n_s, "v")
        if not (np.isfinite(zeta) and zeta >= 0):
            raise ConfigError(f"zeta must be finite and >= 0, got {zeta}")
        self.denoms = self._dots(self.v, self.v) + zeta
        if not np.all(np.isfinite(self.denoms) & (self.denoms > 0)):
            raise NumericError("patch denominators ||v_j||^2 + zeta must "
                               "be positive and finite")

    def _dots(self, a, b):
        """The patch-grid sums sum_{i in j} a_i b_i of two image-order
        vectors."""
        return np.einsum("acbd,acbd->ab", a.reshape(self.tiles),
                         b.reshape(self.tiles))

    def _spread(self, w, vals):
        """The image-order vector w_i vals_j, j the patch of pixel i and
        vals on the patch grid."""
        return (w.reshape(self.tiles) * vals[:, None, :, None]).reshape(-1)

    def apply(self, x):
        x = _as_vector(x, self.shape[1])
        return self._spread(self.u, self._dots(self.v, x) / self.denoms)

    def apply_transpose(self, y):
        y = _as_vector(y, self.shape[0], "y")
        return self._spread(self.v, self._dots(self.u, y) / self.denoms)

    def _coef(self, basis):
        """The (n_patches, r) coefficients C, c_j = P_j^T v_j / d_j with P_j
        the rows of patch j: row i of M P is u_i c_j, j the patch of row i.
        A basis on another grid raises ConfigError (``tile_sums``)."""
        return basis.tile_sums(self.v, self.tiles) / self.denoms.reshape(-1, 1)

    def gram_pair(self, basis, w):
        """With C the coefficients, a_j = sum_{i in j} w_i u_i^2 and
        B_j = sum_{i in j} w_i u_i P_i: G_MM = C^T diag(a) C, G_MP = C^T B.
        That costs O(n_s B + n_x g_y A B + n_patches r^2)."""
        coef = self._coef(basis)
        wu = w * self.u
        a = self._dots(wu, self.u).reshape(-1)
        return (coef.T @ (a[:, None] * coef),
                coef.T @ basis.tile_sums(wu, self.tiles))

    def gram_mp(self, basis, w):
        """G_MP = C^T B alone."""
        return self._coef(basis).T @ basis.tile_sums(w * self.u, self.tiles)

    def q_terms(self, basis, psi_prev, omega):
        """With C the coefficients and j the patch of row i:
        diag(MP psi_prev (MP)^T)_i = u_i^2 (C psi_prev C^T)_jj and
        diag(P omega (MP)^T)_i = u_i P_i (C omega^T)_j, the latter
        ``basis.tile_apply`` of C omega^T. That costs
        O(n_s A + n_patches r^2) and forms no n_s x r product."""
        grid = self.denoms.shape
        coef = self._coef(basis)
        c_quad = np.einsum("jk,jk->j", coef @ psi_prev, coef)
        return (self._spread(self.u * self.u, c_quad.reshape(grid)),
                self.u * basis.tile_apply(coef @ omega.T, self.tiles))


def payload_nbytes(op: LinearOperator) -> int:
    """Bytes of array storage an operator instance owns.

    Used by run bookkeeping to charge motion operators against the working
    set. Identity owns nothing; PatchRank1 owns its denominators only, since
    it holds u and v without copying them (in a run they are rows of the
    smoothed trajectory, which is charged already).
    """
    if isinstance(op, SparseCSR):
        m = op.matrix
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
    if isinstance(op, PatchRank1):
        return int(op.denoms.nbytes)
    return 0
