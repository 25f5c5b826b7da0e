"""Squared-exponential image prior and its low-rank whitening basis.

The prior covariance over raveled (n_x, n_y) images is

    Sigma[p, q] = alpha^2 * exp(-d(p, q)^2 / (2 ell^2)),

with d the Euclidean distance between pixel centers (unit spacing). The
separable kernel factors exactly over the grid axes, so with row-major
raveling Sigma = kron(Sigma_x, Sigma_y) where Sigma_x, Sigma_y are 1-D
kernels (alpha^2 folded into the eigenvalue products once).

The rank-r basis P (n_s x r) has columns sqrt(lambda_a * lambda_b) *
kron(u_a, u_b) over the r largest eigenvalue products; it satisfies
P P^T ~= Sigma (best rank-r approximation) and whitens the prior norm:
||P w||_{Sigma^{-1}} = ||w||_2. The columns are orthogonal with squared
norms equal to their eigenvalues, P^T P = diag(lambda); ProjectionBasis
checks this on construction, so ``ProjectionBasis.gram`` can give the basis
Gram P^T diag(w) P in closed form, diag(w_0 lambda), whenever w is uniform
(every IRKFS step, and every first pass). It is the one place the filter,
smoother and static initializer get that Gram from.

Determinism: each 1-D eigenvector is sign-fixed so its first nonzero entry
is positive; eigenvalue-product ties are broken lexicographically by
(axis-x index, axis-y index), each axis sorted by descending eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import weighted_gram
from .errors import ConfigError, NumericError

# Products below this are numerically meaningless for whitening.
EIG_UNDERFLOW = 1e-300
# Relative tolerance of the P^T P = diag(eigenvalues) check.
GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class PriorConfig:
    alpha: float
    ell: float
    rank: int

    def __post_init__(self):
        if self.alpha <= 0 or self.ell <= 0:
            raise ConfigError("prior alpha and ell must be positive")
        if self.rank < 1:
            raise ConfigError("prior rank must be at least 1")


@dataclass
class ProjectionBasis:
    """P: (n_s, r); eigenvalues: descending products (including alpha^2);
    index_pairs[k] = (axis-x eigenindex, axis-y eigenindex) of column k.

    Construction rejects a basis whose shapes disagree or whose columns do
    not satisfy P^T P = diag(eigenvalues) (ConfigError). The check applies
    P and P^T to one fixed probe vector z, P^T (P z) ~= eigenvalues * z,
    which costs O(n_s r) and forms no Gram.
    """

    P: np.ndarray
    eigenvalues: np.ndarray
    index_pairs: np.ndarray
    n_x: int
    n_y: int
    config: PriorConfig

    def __post_init__(self):
        P, lam = self.P, self.eigenvalues
        if P.ndim != 2 or P.shape[0] != self.n_x * self.n_y or P.shape[1] < 1:
            raise ConfigError(f"basis P must have {self.n_x * self.n_y} rows "
                              f"({self.n_x} x {self.n_y} grid), got shape {P.shape}")
        if lam.shape != (P.shape[1],):
            raise ConfigError(f"basis needs one eigenvalue per column: shape "
                              f"{lam.shape} for {P.shape[1]} columns")
        if not np.all(lam > 0) or not np.all(np.isfinite(lam)):
            raise ConfigError("basis eigenvalues must be positive and finite")
        z = 1.0 + np.arange(lam.size) / lam.size
        err = np.linalg.norm(P.T @ (P @ z) - lam * z)
        if not err <= GRAM_RTOL * lam.max() * np.linalg.norm(z):
            raise ConfigError("basis columns are not orthogonal with squared "
                              "norms equal to the eigenvalues (P^T P != "
                              f"diag(eigenvalues); probe residual {err:.3e})")

    @property
    def rank(self) -> int:
        return self.P.shape[1]

    def gram(self, w: np.ndarray) -> np.ndarray:
        """P^T diag(w) P: diag(w_0 eigenvalues) when w is uniform, else the
        row-chunked weighted Gram."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.P.shape[0],):
            raise ConfigError(f"basis Gram weights must have shape "
                              f"({self.P.shape[0]},), got {w.shape}")
        if w.min() == w.max():
            return np.diag(w[0] * self.eigenvalues)
        return weighted_gram(self.P, w)


def se_covariance_entry(p, q, alpha, ell) -> float:
    """Covariance between pixels p = (ix, iy) and q = (jx, jy)."""
    d2 = float((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
    return alpha ** 2 * np.exp(-d2 / (2.0 * ell ** 2))


def se_kernel_1d(n: int, ell: float) -> np.ndarray:
    idx = np.arange(n, dtype=np.float64)
    d2 = (idx[:, None] - idx[None, :]) ** 2
    return np.exp(-d2 / (2.0 * ell ** 2))


def dense_covariance(n_x, n_y, alpha, ell) -> np.ndarray:
    """Full Sigma, for oracles and small problems only."""
    if n_x * n_y > 4096:
        raise ConfigError("dense covariance restricted to n_s <= 4096")
    return alpha ** 2 * np.kron(se_kernel_1d(n_x, ell), se_kernel_1d(n_y, ell))


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

    Costs two n-point eigendecompositions plus the n_s x r assembly; the
    full n_s x n_s covariance is never formed.
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
    P = np.empty((n_s, cfg.rank))
    for k, idx in enumerate(order):
        a, b = int(ix[idx]), int(iy[idx])
        P[:, k] = np.sqrt(top[k]) * np.outer(vecs_x[:, a], vecs_y[:, b]).reshape(-1)
    pairs = np.stack([ix[order], iy[order]], axis=1)
    return ProjectionBasis(P=P, eigenvalues=top, index_pairs=pairs,
                           n_x=n_x, n_y=n_y, config=cfg)
