"""Squared-exponential image prior and its low-rank whitening basis.

The prior covariance over raveled (n_x, n_y) images is

    Sigma[p, q] = alpha^2 * exp(-d(p, q)^2 / (2 ell^2)),

with d the Euclidean distance between pixel centers (unit spacing). The
separable kernel factors exactly over the grid axes, so with row-major
raveling Sigma = kron(Sigma_x, Sigma_y) where Sigma_x, Sigma_y are 1-D
kernels (alpha^2 folded into the eigenvalue products once).

The rank-r basis P (n_s x r) has columns sqrt(lambda_a * lambda_b) *
kron(u_a, v_b) over the r largest eigenvalue products; it satisfies
P P^T ~= Sigma (best rank-r approximation) and whitens the prior norm:
||P w||_{Sigma^{-1}} = ||w||_2. The columns are orthogonal with squared
norms equal to their eigenvalues, P^T P = diag(lambda). The retained index
pairs (a_k, b_k) fall in a small A x B box (A B ~ 1.3 r), and
ProjectionBasis keeps only the two orthonormal 1-D factor blocks
U_x = [u_0 .. u_{A-1}] (n_x x A) and U_y = [v_0 .. v_{B-1}] (n_y x B), the
pairs and the eigenvalues: P is never stored, and no product below forms
an n_s x r array. The basis is the one owner of every product with P that
the filter, smoother, motion operators and M-step make:

- ``apply(z)`` = P z = vec(U_x Z U_y^T), with Z[a_k, b_k] = sqrt(lambda_k)
  z_k, and ``apply_t(x)`` = P^T x, the gather of U_x^T X U_y at (a_k, b_k);
  each two GEMMs, O(n_s B + n_x A B);
- ``tile_sums``/``tile_apply``, the same two products restricted to each
  tile of a non-overlapping image tiling (PatchRank1's per-patch sums),
  as batched GEMMs on the tiles' slices of U_x and U_y;
- ``rows(idx)``, P's rows at an integer index array, formed on demand
  (the M1 warp's row chunks);
- ``premultiply(S)``, S P for a ``SparseCSR`` S (the observations' H P),
  from a regrouping of S's nonzeros by (ray, x), one sparse product with U_y
  (into one reused buffer) and one batched GEMM with U_x per chunk of
  rays, both over only the x-span the chunk's rays cross;
- ``gram(w)``, the basis Gram P^T diag(w) P: diag(w_0 lambda) whenever w is
  uniform (every IRKFS step, and every first pass; ``gram_diagonal`` is
  that rule, and gives the diagonal alone), else a gather of
  X^T W Y scaled by sqrt(lambda_k lambda_l), with W the weights as an
  n_x x n_y image, X[i, (a, a')] = u_a(i) u_a'(i) (n_x x A^2) and Y the
  same over the y axis (n_y x B^2);
- ``quad_diag(psi)``, diag(P psi P^T) = vec(X Psi^ Y^T), with Psi^ the
  A^2 x B^2 array holding sqrt(lambda_k lambda_l) psi_kl at
  ((a_k, a_l), (b_k, b_l)).

The last two cost O(n_s B^2 + n_x A^2 B^2) in place of the dense n_s r^2
(the Kronecker-structured algebra of Saatci, PhD thesis, Cambridge, 2012,
and of Gilboa, Saatci & Cunningham, IEEE TPAMI 37(2), 2015; Van Loan, J.
Comput. Appl. Math. 123, 2000).

Determinism: each 1-D eigenvector is sign-fixed so its first nonzero entry
is positive; eigenvalue-product ties are broken lexicographically by
(axis-x index, axis-y index), each axis sorted by descending eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from ._linalg import chunk_rows, row_chunks
from .errors import ConfigError, NumericError, is_count
from .linops import SparseCSR

# Products below this are numerically meaningless for whitening.
EIG_UNDERFLOW = 1e-300
# Tolerance of the factor blocks' orthonormality check, max |U^T U - I|.
GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class PriorConfig:
    alpha: float
    ell: float
    rank: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.alpha, self.ell)):
            raise ConfigError("prior alpha and ell must be finite and positive")
        if not is_count(self.rank):
            raise ConfigError("prior rank must be an integer >= 1")


def _pair_products(U: np.ndarray) -> np.ndarray:
    """(n, A^2) array X[i, a * A + a'] = U[i, a] U[i, a']."""
    return (U[:, :, None] * U[:, None, :]).reshape(U.shape[0], -1)


@dataclass
class ProjectionBasis:
    """The rank-r basis P, held as its Kronecker factors: eigenvalues, the
    descending products (including alpha^2); index_pairs[k] = (a_k, b_k),
    the axis-x and axis-y eigenindices of column k; factor_x: (n_x, A) and
    factor_y: (n_y, B), the orthonormal 1-D eigenvectors the pairs index.
    Column k of P is sqrt(eigenvalues[k]) * kron(factor_x[:, a_k],
    factor_y[:, b_k]); P itself is never formed.

    Construction rejects a basis whose shapes disagree, whose eigenvalues
    are not positive and finite, whose index pairs repeat or leave the
    A x B box, or whose factor blocks are not orthonormal (U^T U = I within
    GRAM_RTOL), all with ConfigError. Distinct pairs of orthonormal blocks
    give P^T P = diag(eigenvalues).
    """

    eigenvalues: np.ndarray
    index_pairs: np.ndarray
    factor_x: np.ndarray
    factor_y: np.ndarray
    n_x: int
    n_y: int
    config: PriorConfig

    def __post_init__(self):
        lam = self.eigenvalues
        if lam.ndim != 1 or lam.size < 1:
            raise ConfigError(f"basis needs a 1-D array of eigenvalues, got "
                              f"shape {lam.shape}")
        r = lam.size
        if not np.all(lam > 0) or not np.all(np.isfinite(lam)):
            raise ConfigError("basis eigenvalues must be positive and finite")
        fx, fy = self.factor_x, self.factor_y
        if (fx.ndim != 2 or fy.ndim != 2 or fx.shape[0] != self.n_x
                or fy.shape[0] != self.n_y):
            raise ConfigError(f"basis factor blocks must have {self.n_x} and "
                              f"{self.n_y} rows, got shapes {fx.shape} and {fy.shape}")
        pairs = self.index_pairs
        if pairs.shape != (r, 2) or not np.issubdtype(pairs.dtype, np.integer):
            raise ConfigError(f"basis needs one integer index pair per column: "
                              f"shape {pairs.shape} for {r} columns")
        a, b = pairs[:, 0], pairs[:, 1]
        n_a, n_b = self.box
        if (a.min() < 0 or b.min() < 0 or a.max() >= n_a or b.max() >= n_b
                or np.unique(a * n_b + b).size != r):
            raise ConfigError(f"basis index pairs must be distinct and lie in "
                              f"the {n_a} x {n_b} factor box")
        for name, block in (("factor_x", fx), ("factor_y", fy)):
            err = np.abs(block.T @ block - np.eye(block.shape[1])).max()
            if not err <= GRAM_RTOL:
                raise ConfigError(f"basis factor blocks are not orthonormal "
                                  f"({name}: max |U^T U - I| = {err:.3e})")
        self._scale = np.sqrt(lam)
        # the factor columns each basis column takes, (n_x, r) and (n_y, r),
        # which ``rows`` broadcasts
        self._cols_x = np.ascontiguousarray(fx[:, a])
        self._cols_y = np.ascontiguousarray(fy[:, b])

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def n_s(self) -> int:
        return self.n_x * self.n_y

    @property
    def box(self) -> tuple[int, int]:
        """(A, B): the factor blocks' column counts. The two reductions hold
        one A^2 x B^2 intermediate."""
        return self.factor_x.shape[1], self.factor_y.shape[1]

    def _box_index(self):
        """Broadcast indices of ((a_k, a_l), (b_k, b_l)) into an
        (A, A, B, B) array, for k, l over the columns."""
        a, b = self.index_pairs[:, 0], self.index_pairs[:, 1]
        return a[:, None], a[None, :], b[:, None], b[None, :]

    def _tile_blocks(self, tiles):
        """The factor blocks cut along the tiling (g_x, z_x, g_y, z_y):
        (g_x, z_x, A) and (g_y, z_y, B)."""
        g_x, z_x, g_y, z_y = tiles
        if (g_x * z_x, g_y * z_y) != (self.n_x, self.n_y):
            raise ConfigError(f"tiling {tiles} does not cover the "
                              f"{self.n_x} x {self.n_y} basis grid")
        return (self.factor_x.reshape(g_x, z_x, -1),
                self.factor_y.reshape(g_y, z_y, -1))

    def tile_sums(self, x: np.ndarray, tiles) -> np.ndarray:
        """The (g_x g_y, r) rows sum_{i in tile j} x_i P_i of an image-order
        x over the tiling (g_x, z_x, g_y, z_y), tiles in row-major order:
        row j gathers U_x[tile]^T X_j U_y[tile] at (a_k, b_k), scaled by
        sqrt(lambda_k), with X_j the z_x x z_y tile of x. Two batched GEMMs,
        O(n_s B + n_x g_y A B); with one tile it is P^T x."""
        u_x, u_y = self._tile_blocks(tiles)
        g_x, z_x, g_y, z_y = tiles
        img = np.asarray(x, dtype=np.float64).reshape(tiles)
        # contract y inside each tile column, then x inside each tile
        xy = img.transpose(2, 0, 1, 3).reshape(g_y, self.n_x, z_y) @ u_y
        xy = xy.reshape(g_y, g_x, z_x, -1).transpose(1, 0, 2, 3)
        full = u_x.transpose(0, 2, 1)[:, None] @ xy
        a, b = self.index_pairs[:, 0], self.index_pairs[:, 1]
        return (full[:, :, a, b] * self._scale).reshape(g_x * g_y, -1)

    def tile_apply(self, c: np.ndarray, tiles) -> np.ndarray:
        """The image-order vector whose value at pixel i of tile j is
        P_i c_j, for c of shape (g_x g_y, r) over the tiling
        (g_x, z_x, g_y, z_y): U_x[tile] C_j U_y[tile]^T per tile, with C_j
        the A x B array holding sqrt(lambda_k) c_jk at (a_k, b_k). The
        adjoint of ``tile_sums``; with one tile it is P c."""
        u_x, u_y = self._tile_blocks(tiles)
        g_x, z_x, g_y, z_y = tiles
        n_a, n_b = self.box
        coef = np.zeros((g_x, g_y, n_a, n_b))
        a, b = self.index_pairs[:, 0], self.index_pairs[:, 1]
        coef[:, :, a, b] = np.reshape(c, (g_x, g_y, -1)) * self._scale
        img = u_x[:, None] @ (coef @ u_y.transpose(0, 2, 1)[None])
        return img.transpose(0, 2, 1, 3).reshape(-1)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """P z = vec(U_x Z U_y^T), Z[a_k, b_k] = sqrt(lambda_k) z_k."""
        return self.tile_apply(z, (1, self.n_x, 1, self.n_y))

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """P^T x, the gather of U_x^T X U_y at (a_k, b_k) scaled by
        sqrt(lambda_k), with X the n_x x n_y image of x."""
        return self.tile_sums(x, (1, self.n_x, 1, self.n_y))[0]

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Rows idx (an integer array, any order, repeats allowed) of P,
        (len(idx), r), formed on demand: entry k of row i of P is
        (U_y[i % n_y, b_k] U_x[i // n_y, a_k]) sqrt(lambda_k)."""
        x, y = np.divmod(idx, self.n_y)
        out = self._cols_y[y]
        out *= self._cols_x[x]
        out *= self._scale
        return out

    def premultiply(self, S: SparseCSR) -> np.ndarray:
        """S P, (m, r), for a sparse operator S with n_s columns.

        The nonzeros of S, ray-major with columns ascending (its CSR form),
        are regrouped without sorting into the CSR arrays of a matrix K with
        rows (ray, x) and columns y (row pointers by ``bincount``). Over
        chunks of rays, each a slice of K's row pointers, W = K U_y holds
        sum_y S[ray, (x, y)] U_y[y, :] as a (rays, n_x, B) block; one
        batched GEMM with U_x^T contracts x, and the A x B result is
        gathered at (a_k, b_k) and scaled by sqrt(lambda_k). That costs
        O(nnz B + m n_x A B) against the O(nnz r) of a product with P.
        Every chunk's W is written into one buffer of at most CHUNK_ELEMS
        elements, allocated once per call, by SciPy's CSR kernel
        ``csr_matvecs`` (the one ``csr_matrix @ dense`` runs), so no chunk
        builds a sparse matrix or a fresh W. A chunk zero-fills, accumulates
        and contracts only the x-span [lo, hi) its rays cross, from the
        least and greatest x of the chunk's nonzeros: every other term of
        the product is an exact zero, and the result is bitwise the
        whole-range one. A chunk of empty rays gives zero rows. The x of
        every nonzero (int32, 4 nnz bytes) lives through the loop, with y
        and the row pointers; together they stay within the regrouping
        allowance that ``run_emirkfs`` charges.
        """
        csr = S.matrix
        if csr.shape[1] != self.n_s:
            raise ConfigError(f"left factor must have {self.n_s} columns, "
                              f"got shape {csr.shape}")
        m, n_x = csr.shape[0], self.n_x
        n_b = self.box[1]
        x, y = np.divmod(csr.indices, self.n_y)
        counts = np.diff(csr.indptr)
        key = np.repeat(np.arange(m, dtype=np.int64) * n_x, counts)
        key += x
        ptr = np.zeros(m * n_x + 1, dtype=csr.indptr.dtype)
        np.cumsum(np.bincount(key, minlength=m * n_x), out=ptr[1:])
        del key
        u_xt, u_y = self.factor_x.T, self.factor_y.ravel()
        flat = self.index_pairs[:, 0] * n_b + self.index_pairs[:, 1]
        out = np.empty((m, self.rank))
        buf = np.empty(min(m, chunk_rows(n_x * n_b)) * n_x * n_b)
        for rays in row_chunks(m, n_x * n_b):
            # the chunk's x-span [lo, hi) off its own nonzeros; a chunk of
            # empty rays spans nothing and contracts to zero rows
            xs = x[csr.indptr[rays.start]:csr.indptr[rays.stop]]
            lo, hi = (xs.min(), xs.max() + 1) if xs.size else (0, 0)
            row_lo, row_hi = rays.start * n_x, rays.stop * n_x
            w = buf[:(row_hi - row_lo) * n_b].reshape(-1, n_x, n_b)
            # the kernel accumulates W += K U_y, into the span's columns
            # only: every other column of W is an exact zero of the product
            w[:, lo:hi] = 0.0
            csr_matvecs(row_hi - row_lo, self.n_y, n_b, ptr[row_lo:row_hi + 1],
                        y, csr.data, u_y, w)
            full = (u_xt[:, lo:hi] @ w[:, lo:hi]).reshape(len(w), -1)
            np.take(full, flat, axis=1, out=out[rays])
        out *= self._scale
        return out

    def gram_diagonal(self, w: np.ndarray):
        """The diagonal w_0 eigenvalues of P^T diag(w) P when w is uniform
        (P^T P = diag(lambda)), else None: the one place that decides the
        basis Gram is diagonal."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_s,):
            raise ConfigError(f"basis Gram weights must have shape "
                              f"({self.n_s},), got {w.shape}")
        return w[0] * self.eigenvalues if w.min() == w.max() else None

    def gram(self, w: np.ndarray) -> np.ndarray:
        """P^T diag(w) P: diag(``gram_diagonal``(w)) when w is uniform, else
        the gather of X^T W Y at ((a_k, a_l), (b_k, b_l)), scaled by
        sqrt(lambda_k lambda_l)."""
        diag = self.gram_diagonal(w)
        if diag is not None:
            return np.diag(diag)
        w = np.asarray(w, dtype=np.float64)
        n_a, n_b = self.box
        wy = w.reshape(self.n_x, self.n_y) @ _pair_products(self.factor_y)
        full = (_pair_products(self.factor_x).T @ wy).reshape(n_a, n_a, n_b, n_b)
        s = self._scale
        return s[:, None] * full[self._box_index()] * s[None, :]

    def quad_diag(self, psi: np.ndarray) -> np.ndarray:
        """diag(P psi P^T) for any r x r psi, as vec(X Psi^ Y^T)."""
        n_a, n_b = self.box
        s = self._scale
        hat = np.zeros((n_a, n_a, n_b, n_b))
        hat[self._box_index()] = s[:, None] * psi * s[None, :]
        xh = _pair_products(self.factor_x) @ hat.reshape(n_a * n_a, n_b * n_b)
        return (xh @ _pair_products(self.factor_y).T).reshape(-1)


def se_kernel_1d(n: int, ell: float) -> np.ndarray:
    idx = np.arange(n, dtype=np.float64)
    d2 = (idx[:, None] - idx[None, :]) ** 2
    return np.exp(-d2 / (2.0 * ell ** 2))


def _eigh_descending(K: np.ndarray):
    """Symmetric eigendecomposition, eigenvalues descending, each vector's
    first nonzero entry made positive."""
    vals, vecs = np.linalg.eigh(K)
    # stable descending sort keeps tied eigenvalues in ascending index order
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            vecs[:, k] = -col
    return vals, vecs


def build_projection(n_x: int, n_y: int, cfg: PriorConfig) -> ProjectionBasis:
    """Construct the rank-r whitening basis from the two 1-D kernels.

    Costs two n-point eigendecompositions and one sort of the n_s
    eigenvalue products; neither the n_s x n_s covariance nor the n_s x r
    basis is formed.
    """
    n_s = n_x * n_y
    if cfg.rank > n_s:
        raise ConfigError(f"rank {cfg.rank} exceeds state dimension {n_s}")
    vals_x, vecs_x = _eigh_descending(se_kernel_1d(n_x, cfg.ell))
    vals_y, vecs_y = _eigh_descending(se_kernel_1d(n_y, cfg.ell))

    products = cfg.alpha ** 2 * np.outer(vals_x, vals_y)
    flat = products.reshape(-1)
    # Sort by descending product; ties broken by (ix, iy) lexicographic.
    ix = np.repeat(np.arange(n_x), n_y)
    iy = np.tile(np.arange(n_y), n_x)
    order = np.lexsort((iy, ix, -flat))[: cfg.rank]

    top = flat[order]
    if np.any(top <= 0) or np.any(top < EIG_UNDERFLOW):
        raise NumericError(
            "prior eigenvalue products underflow; reduce rank or correlation length "
            f"(smallest retained product: {top.min():.3e})"
        )
    a, b = ix[order], iy[order]
    return ProjectionBasis(eigenvalues=top, index_pairs=np.stack([a, b], axis=1),
                           factor_x=np.ascontiguousarray(vecs_x[:, : a.max() + 1]),
                           factor_y=np.ascontiguousarray(vecs_y[:, : b.max() + 1]),
                           n_x=n_x, n_y=n_y, config=cfg)
