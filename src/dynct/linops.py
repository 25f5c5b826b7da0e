"""Matrix-free linear operators used throughout the package.

The operator protocol is four methods. Every operator implements the first
three itself:

- ``apply(x)``: forward product ``op @ x``.
- ``apply_transpose(y)``: exact adjoint of the same coefficients.
- ``apply_block_rows(X, rows)``: rows ``rows`` of ``op @ X``, formed by the
  operator's own row kernel without the full product. The observation
  Gramians and the M-step fold these row chunks straight into r x r
  matrices.
- ``gram_triple(P, w, g_pp)``: the weighted Gramians of ``op P`` against
  itself and against ``P`` that the filter and smoother need for a motion
  operator, returned with the basis Gram ``g_pp = P^T diag(w) P``. The
  caller passes ``g_pp`` in: ``ProjectionBasis.gram`` forms it once, in
  closed form under uniform weights, and no operator forms its own. The
  base class folds row chunks of ``op P`` into the other two, which
  ``SparseCSR`` and ``Warp`` use. ``Identity`` returns ``g_pp`` three
  times; ``Rank1`` and ``PatchRank1`` use closed forms in their
  (per-patch) coefficients.

There is no column-loop fallback: an operator without a row kernel raises
``NotImplementedError``. ``to_dense`` is ``apply_block_rows`` on the
identity, for debugging and oracle tests only; it refuses to build anything
with more than ``DENSE_LIMIT`` rows or columns.

All vectors are 1-D float64 arrays; blocks are (n, k) float64 arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._linalg import row_chunks
from .errors import ConfigError

# Largest state dimension for which dense materialization is permitted.
DENSE_LIMIT = 4096


def _as_vector(x, n, name="x"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != n:
        raise ConfigError(f"{name} must be a 1-D vector of length {n}, got shape {x.shape}")
    return x


def _as_block(X, n):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise ConfigError(f"block must have shape ({n}, k), got shape {X.shape}")
    return X


def to_patches(x, n_x, n_y, z_x, z_y):
    """(n_patches, z_x * z_y) patch rows of an image vector, patches in
    row-major order over the (n_x // z_x, n_y // z_y) patch grid."""
    bx, by = n_x // z_x, n_y // z_y
    return x.reshape(bx, z_x, by, z_y).transpose(0, 2, 1, 3).reshape(
        bx * by, z_x * z_y)


class LinearOperator:
    """Base class: shape (m, n), the three methods every operator implements
    and the row-chunked Gram triple."""

    shape: tuple[int, int]

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_block_rows(self, X: np.ndarray, rows: slice) -> np.ndarray:
        """Rows ``rows`` of ``op @ X`` without holding the full product."""
        raise NotImplementedError(f"{type(self).__name__} has no row kernel")

    def gram_triple(self, P: np.ndarray, w: np.ndarray, g_pp: np.ndarray):
        """(G_MM, G_MP, G_PP) of a square operator M = op and weights w:

        G_MM = (MP)^T diag(w) (MP), G_MP = (MP)^T diag(w) P, and the given
        G_PP = P^T diag(w) P, with M P generated row-chunk by row-chunk via
        ``apply_block_rows`` so no full n_s x r product is ever held.
        """
        n_s, r = P.shape
        g_mm = np.zeros((r, r))
        g_mp = np.zeros((r, r))
        for rows in row_chunks(n_s, r):
            mp = self.apply_block_rows(P, rows)
            mpw = mp * w[rows, None]
            g_mm += mpw.T @ mp
            g_mp += mpw.T @ P[rows]
        return g_mm, g_mp, g_pp

    def to_dense(self) -> np.ndarray:
        if max(self.shape) > DENSE_LIMIT:
            raise ConfigError(
                f"refusing to densify operator of shape {self.shape} (limit {DENSE_LIMIT})"
            )
        return self.apply_block_rows(np.eye(self.shape[1]), slice(None))


class SparseCSR(LinearOperator):
    """CSR-backed sparse operator.

    Invariants enforced at construction: canonical CSR (sorted indices, no
    duplicates, no stored zeros), float64 data. The transpose is converted to
    CSR once so repeated adjoint applications reuse the same kernel.
    """

    def __init__(self, matrix):
        m = sp.csr_matrix(matrix, dtype=np.float64)
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        self.matrix = m
        self._matrix_t = m.T.tocsr()
        self.shape = m.shape

    def apply(self, x):
        x = _as_vector(x, self.shape[1])
        return self.matrix @ x

    def apply_transpose(self, y):
        y = _as_vector(y, self.shape[0], "y")
        return self._matrix_t @ y

    def apply_block_rows(self, X, rows):
        return np.asarray(self.matrix[rows] @ _as_block(X, self.shape[1]))


class Identity(LinearOperator):
    def __init__(self, n: int):
        self.shape = (n, n)

    def apply(self, x):
        return _as_vector(x, self.shape[1]).copy()

    def apply_transpose(self, y):
        return _as_vector(y, self.shape[0], "y").copy()

    def apply_block_rows(self, X, rows):
        return _as_block(X, self.shape[1])[rows].copy()

    def gram_triple(self, P, w, g_pp):
        """M P = P, so all three Gramians are G_PP: the given array, returned
        three times (callers must not mutate it)."""
        _as_block(P, self.shape[1])
        return g_pp, g_pp, g_pp


class Rank1(LinearOperator):
    """x -> u * (v @ x) / denom with denom > 0."""

    def __init__(self, u: np.ndarray, v: np.ndarray, denom: float):
        self.u = np.asarray(u, dtype=np.float64).ravel()
        self.v = np.asarray(v, dtype=np.float64).ravel()
        if not np.isfinite(denom) or denom <= 0.0:
            raise ConfigError(f"rank-1 denominator must be positive, got {denom}")
        self.denom = float(denom)
        self.shape = (self.u.size, self.v.size)

    def apply(self, x):
        x = _as_vector(x, self.shape[1])
        return self.u * (self.v @ x / self.denom)

    def apply_transpose(self, y):
        y = _as_vector(y, self.shape[0], "y")
        return self.v * (self.u @ y / self.denom)

    def apply_block_rows(self, X, rows):
        coef = (self.v @ _as_block(X, self.shape[1])) / self.denom
        return self.u[rows, None] * coef[None, :]

    def gram_triple(self, P, w, g_pp):
        """M P = u c^T with c = P^T v / denom, so
        G_MM = (sum w u^2) c c^T and G_MP = c ((w u)^T P)."""
        P = _as_block(P, self.shape[1])
        coef = (self.v @ P) / self.denom
        wu = w * self.u
        return (wu @ self.u) * np.outer(coef, coef), np.outer(coef, wu @ P), g_pp


class PatchRank1(LinearOperator):
    """Block-diagonal rank-1 action on non-overlapping image patches.

    The image grid (n_x, n_y) is tiled by (z_x, z_y) patches (z_x | n_x,
    z_y | n_y). Patch j carries vectors u_j, v_j (flattened patch contents)
    and a positive denominator d_j; the operator maps patch content p_j to
    u_j * (v_j @ p_j) / d_j. Equivalent to sum_j S_j u_j (S_j v_j)^T / d_j
    with S_j the patch scatter maps.
    """

    def __init__(self, n_x, n_y, z_x, z_y, U, V, denoms):
        if n_x % z_x or n_y % z_y:
            raise ConfigError(f"patch ({z_x},{z_y}) must tile image ({n_x},{n_y}) exactly")
        self.n_x, self.n_y = int(n_x), int(n_y)
        self.z_x, self.z_y = int(z_x), int(z_y)
        n_patches = (n_x // z_x) * (n_y // z_y)
        self.U = np.asarray(U, dtype=np.float64).reshape(n_patches, z_x * z_y)
        self.V = np.asarray(V, dtype=np.float64).reshape(n_patches, z_x * z_y)
        self.denoms = np.asarray(denoms, dtype=np.float64).ravel()
        if self.denoms.shape != (n_patches,):
            raise ConfigError("one denominator per patch required")
        if not np.all(self.denoms > 0):
            raise ConfigError("patch denominators must be positive")
        n_s = self.n_x * self.n_y
        self.shape = (n_s, n_s)

    def _to_patches(self, x):
        return to_patches(x, self.n_x, self.n_y, self.z_x, self.z_y)

    def _from_patches(self, P):
        bx, by = self.n_x // self.z_x, self.n_y // self.z_y
        img = P.reshape(bx, by, self.z_x, self.z_y).transpose(0, 2, 1, 3).reshape(
            self.n_x, self.n_y
        )
        return img.reshape(-1)

    def apply(self, x):
        x = _as_vector(x, self.shape[1])
        P = self._to_patches(x)
        coef = np.einsum("ij,ij->i", self.V, P) / self.denoms
        return self._from_patches(self.U * coef[:, None])

    def apply_transpose(self, y):
        y = _as_vector(y, self.shape[0], "y")
        P = self._to_patches(y)
        coef = np.einsum("ij,ij->i", self.U, P) / self.denoms
        return self._from_patches(self.V * coef[:, None])

    def _patch_sums(self, W, X, lo, hi):
        """Rows sum_{i in j} W[j, i] X_i for the patches j in patch-row bands
        lo:hi, W in patch-row layout; contracts over views of X (no copy)."""
        k = X.shape[1]
        bx, by = self.n_x // self.z_x, self.n_y // self.z_y
        sums = np.einsum("abcd,acbdk->abk",
                         W.reshape(bx, by, self.z_x, self.z_y)[lo:hi],
                         X.reshape(bx, self.z_x, by, self.z_y, k)[lo:hi])
        return sums.reshape((hi - lo) * by, k)

    def apply_block_rows(self, X, rows):
        """Row i of op @ X is u[i] * (v_j @ X_j) / d_j, j the patch of row i.

        The coefficients are formed only for the bands of patches that
        ``rows`` touches.
        """
        X = _as_block(X, self.shape[1])
        bx, by = self.n_x // self.z_x, self.n_y // self.z_y
        ix, iy = np.divmod(np.arange(self.shape[0])[rows], self.n_y)
        px, py = ix // self.z_x, iy // self.z_y
        lo, hi = (px.min(), px.max() + 1) if px.size else (0, 0)
        coef = self._patch_sums(self.V, X, lo, hi) / self.denoms[lo * by:hi * by, None]
        u = self.U.reshape(bx, by, self.z_x, self.z_y)[px, py, ix % self.z_x, iy % self.z_y]
        return u[:, None] * coef[(px - lo) * by + py]

    def gram_triple(self, P, w, g_pp):
        """Row i of M P is u_i c_j, j the patch of row i and C the
        (n_patches, r) coefficients, so with a_j = sum_{i in j} w_i u_i^2 and
        B_j = sum_{i in j} w_i u_i P_i: G_MM = C^T diag(a) C, G_MP = C^T B.
        That costs O(n_s r + n_patches r^2)."""
        P = _as_block(P, self.shape[1])
        bx = self.n_x // self.z_x
        coef = self._patch_sums(self.V, P, 0, bx) / self.denoms[:, None]
        wu = self.U * self._to_patches(w)
        a = np.einsum("ij,ij->i", wu, self.U)
        return (coef.T @ (a[:, None] * coef), coef.T @ self._patch_sums(wu, P, 0, bx),
                g_pp)


class Warp(SparseCSR):
    """Backward-warping interpolation operator (see motion.build_warp).

    A SparseCSR whose rows are bilinear interpolation stencils: at most four
    nonnegative entries per row summing exactly to one.
    """

    def __init__(self, matrix, n_x, n_y):
        super().__init__(matrix)
        self.n_x, self.n_y = int(n_x), int(n_y)
        if self.shape != (n_x * n_y, n_x * n_y):
            raise ConfigError("warp operator must be square over the image grid")


def payload_nbytes(op: LinearOperator) -> int:
    """Bytes of array storage an operator instance owns.

    Used by run bookkeeping to charge motion operators against the working
    set. Identity owns nothing.
    """
    if isinstance(op, SparseCSR):
        m, mt = op.matrix, op._matrix_t
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes +
                   mt.data.nbytes + mt.indices.nbytes + mt.indptr.nbytes)
    if isinstance(op, Rank1):
        return int(op.u.nbytes + op.v.nbytes)
    if isinstance(op, PatchRank1):
        return int(op.U.nbytes + op.V.nbytes + op.denoms.nbytes)
    return 0
