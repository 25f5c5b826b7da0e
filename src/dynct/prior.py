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
pairs (a_k, b_k) fall in a small A x B box (A B ~ 1.3 r), and the basis
keeps the two 1-D factor blocks U_x = [u_0 .. u_{A-1}] (n_x x A) and
U_y = [v_0 .. v_{B-1}] (n_y x B) next to P. ProjectionBasis checks both
facts on construction and is the one owner of the two P-sized reductions
the filter, smoother and M-step need:

- ``gram(w)``, the basis Gram P^T diag(w) P: diag(w_0 lambda) whenever w is
  uniform (every IRKFS step, and every first pass), else a gather of
  X^T W Y scaled by sqrt(lambda_k lambda_l), with W the weights as an
  n_x x n_y image, X[i, (a, a')] = u_a(i) u_a'(i) (n_x x A^2) and Y the
  same over the y axis (n_y x B^2);
- ``quad_diag(psi)``, diag(P psi P^T) = vec(X Psi^ Y^T), with Psi^ the
  A^2 x B^2 array holding sqrt(lambda_k lambda_l) psi_kl at
  ((a_k, a_l), (b_k, b_l)).

Both cost O(n_s B^2 + n_x A^2 B^2) in place of the dense n_s r^2 (the
Kronecker-structured algebra of Saatci, PhD thesis, Cambridge, 2012, and of
Gilboa, Saatci & Cunningham, IEEE TPAMI 37(2), 2015).

Determinism: each 1-D eigenvector is sign-fixed so its first nonzero entry
is positive; eigenvalue-product ties are broken lexicographically by
(axis-x index, axis-y index), each axis sorted by descending eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# Products below this are numerically meaningless for whitening.
EIG_UNDERFLOW = 1e-300
# Relative tolerance of the P^T P = diag(eigenvalues) and factor-block checks.
GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class PriorConfig:
    alpha: float
    ell: float
    rank: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.alpha, self.ell)):
            raise ConfigError("prior alpha and ell must be finite and positive")
        if self.rank < 1:
            raise ConfigError("prior rank must be at least 1")


def _pair_products(U: np.ndarray) -> np.ndarray:
    """(n, A^2) array X[i, a * A + a'] = U[i, a] U[i, a']."""
    return (U[:, :, None] * U[:, None, :]).reshape(U.shape[0], -1)


@dataclass
class ProjectionBasis:
    """P: (n_s, r); eigenvalues: descending products (including alpha^2);
    index_pairs[k] = (a_k, b_k), the axis-x and axis-y eigenindices of
    column k; factor_x: (n_x, A) and factor_y: (n_y, B), the 1-D
    eigenvectors the pairs index, so that column k of P is
    sqrt(eigenvalues[k]) * kron(factor_x[:, a_k], factor_y[:, b_k]).

    Construction rejects a basis whose shapes disagree, whose index pairs
    repeat or leave the A x B box, whose columns do not satisfy
    P^T P = diag(eigenvalues), or whose P disagrees with its factor blocks
    (ConfigError). The checks apply P and P^T to one fixed probe vector z:
    P^T (P z) ~= eigenvalues * z, and P z ~= vec(U_x Z U_y^T) with
    Z[a_k, b_k] = sqrt(eigenvalues[k]) z_k. That costs O(n_s r) and forms
    no Gram.
    """

    P: np.ndarray
    eigenvalues: np.ndarray
    index_pairs: np.ndarray
    factor_x: np.ndarray
    factor_y: np.ndarray
    n_x: int
    n_y: int
    config: PriorConfig

    def __post_init__(self):
        P, lam = self.P, self.eigenvalues
        if P.ndim != 2 or P.shape[0] != self.n_x * self.n_y or P.shape[1] < 1:
            raise ConfigError(f"basis P must have {self.n_x * self.n_y} rows "
                              f"({self.n_x} x {self.n_y} grid), got shape {P.shape}")
        r = P.shape[1]
        if lam.shape != (r,):
            raise ConfigError(f"basis needs one eigenvalue per column: shape "
                              f"{lam.shape} for {r} columns")
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
        z = 1.0 + np.arange(r) / r
        pz = P @ z
        err = np.linalg.norm(P.T @ pz - lam * z)
        if not err <= GRAM_RTOL * lam.max() * np.linalg.norm(z):
            raise ConfigError("basis columns are not orthogonal with squared "
                              "norms equal to the eigenvalues (P^T P != "
                              f"diag(eigenvalues); probe residual {err:.3e})")
        coef = np.zeros((n_a, n_b))
        coef[a, b] = np.sqrt(lam) * z
        err = np.linalg.norm(pz - (fx @ coef @ fy.T).reshape(-1))
        if not err <= GRAM_RTOL * np.sqrt(lam.max()) * np.linalg.norm(z):
            raise ConfigError("basis P disagrees with its factor blocks "
                              f"(probe residual {err:.3e})")

    @property
    def rank(self) -> int:
        return self.P.shape[1]

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

    def gram(self, w: np.ndarray) -> np.ndarray:
        """P^T diag(w) P: diag(w_0 eigenvalues) when w is uniform, else the
        gather of X^T W Y at ((a_k, a_l), (b_k, b_l)), scaled by
        sqrt(lambda_k lambda_l)."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.P.shape[0],):
            raise ConfigError(f"basis Gram weights must have shape "
                              f"({self.P.shape[0]},), got {w.shape}")
        if w.min() == w.max():
            return np.diag(w[0] * self.eigenvalues)
        n_a, n_b = self.box
        wy = w.reshape(self.n_x, self.n_y) @ _pair_products(self.factor_y)
        full = (_pair_products(self.factor_x).T @ wy).reshape(n_a, n_a, n_b, n_b)
        s = np.sqrt(self.eigenvalues)
        return s[:, None] * full[self._box_index()] * s[None, :]

    def quad_diag(self, psi: np.ndarray) -> np.ndarray:
        """diag(P psi P^T) for any r x r psi, as vec(X Psi^ Y^T)."""
        n_a, n_b = self.box
        s = np.sqrt(self.eigenvalues)
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

    Costs two n-point eigendecompositions plus one broadcast product of the
    factor blocks for the n_s x r assembly; the full n_s x n_s covariance is
    never formed.
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
    u_x = np.ascontiguousarray(vecs_x[:, : a.max() + 1])
    u_y = np.ascontiguousarray(vecs_y[:, : b.max() + 1])
    # row-major (n_x, n_y, r) from row-major column gathers: the product
    # runs along r, and BLAS products with P sum in the same order as over a
    # column-by-column assembly
    P = (u_x.take(a, axis=1)[:, None, :] * u_y.take(b, axis=1)[None, :, :])
    P = P.reshape(n_s, cfg.rank)
    P *= np.sqrt(top)
    return ProjectionBasis(P=P, eigenvalues=top, index_pairs=np.stack([a, b], axis=1),
                           factor_x=u_x, factor_y=u_y, n_x=n_x, n_y=n_y, config=cfg)
