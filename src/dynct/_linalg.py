"""Shared dense kernels: guarded Cholesky solves, inverse and capacitance
factors, the PSD guard on formed covariances, the observation Gram and the
row-chunked quadratic-form diagonal.

``quad_diag`` and the sparse operators' row-chunked loops form n-vector
diagonals and r x r projections of n x r products without holding more
than one n x r block plus O(CHUNK_ELEMS) scratch; the R update applies
``quad_diag`` to H P. ``op_gram`` forms the observation's H P whole
(m_t x r, small next to n_s x r) with one ``apply_block`` call. The two
reductions over the basis P itself, its weighted Gram and diag(P Psi P^T),
are not here: ``ProjectionBasis`` forms them from its 1-D factor blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import NumericError

# Target element count for chunked scratch buffers (doubles).
CHUNK_ELEMS = 65536
# Negative values down to this fraction of the largest positive one count
# as roundoff (covariance eigenvalues, M-step diagonals).
NEG_TOL_REL = 1e-8


def row_chunks(n_rows: int, width: int):
    """Yield row slices so each chunk holds at most CHUNK_ELEMS elements."""
    step = max(1, CHUNK_ELEMS // max(width, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def quad_diag(X: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """diag(X psi X^T), the row sums of (X psi) o X, over row chunks of X."""
    out = np.empty(X.shape[0])
    for rows in row_chunks(*X.shape):
        out[rows] = np.einsum("ij,ij->i", X[rows] @ psi, X[rows])
    return out


def op_gram(op, P: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """(op P)^T diag(w) (op P), with op P formed whole by one
    ``apply_block`` call (for SparseCSR, one column-order pass that reads
    each row of P once) and then one symmetric product."""
    hp = op.apply_block(P)
    if w is not None:
        hp *= np.sqrt(w)[:, None]
    return hp.T @ hp


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def check_psd(A: np.ndarray, what: str) -> None:
    """Raise NumericError when symmetric A has an eigenvalue below
    -NEG_TOL_REL * max(lambda_max, 1e-30); forms eigenvalues only."""
    vals = np.linalg.eigvalsh(A)
    if vals[0] < -NEG_TOL_REL * max(float(vals[-1]), 1e-30):
        raise NumericError(f"{what}: covariance not PSD "
                           f"(min eigenvalue {vals[0]:.3e})")


def _cond_estimate(A: np.ndarray) -> float:
    try:
        vals = np.abs(np.linalg.eigvalsh(symmetrize(A)))
        hi, lo = vals.max(), vals.min()
        return float(hi / lo) if lo > 0 else np.inf
    except np.linalg.LinAlgError:
        return np.inf


def _cholesky(A: np.ndarray, what: str):
    """Lower Cholesky factor of symmetric positive definite A, in
    ``cho_factor`` form (the upper triangle holds leftovers of A).

    Raises NumericError with a condition estimate when A is not PD.
    """
    try:
        return sla.cho_factor(A, lower=True, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericError(
            f"{what}: Cholesky factorization failed (condition estimate "
            f"{_cond_estimate(A):.3e})"
        ) from exc


def capacitance_factor(A: np.ndarray, g_mm: np.ndarray, what: str):
    """Lower Cholesky factor L (upper triangle: leftovers) of the Woodbury
    capacitance S = A^T G_MM A + I, formed only here; NumericError unless PD."""
    S = symmetrize(A.T @ g_mm @ A) + np.eye(A.shape[1])
    return _cholesky(S, what)[0]


def sym_solve(A: np.ndarray, B: np.ndarray, what: str = "system"):
    """Solve A X = B for symmetric positive definite A (Cholesky)."""
    return sla.cho_solve(_cholesky(A, what), B, check_finite=False)


def inverse_factor(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Upper-triangular U with U U^T = A^{-1} for symmetric positive
    definite A: with A = L L^T, U = L^{-T}, one Cholesky and one triangular
    inverse (LAPACK dtrtri). Raises NumericError when A is not PD."""
    c, _ = _cholesky(A, what)
    l_inv, info = sla.lapack.dtrtri(c, lower=1)
    if info != 0:
        raise NumericError(f"{what}: Cholesky factor is singular")
    return np.tril(l_inv).T
