"""Shared dense kernels: the guarded Cholesky factor, the inverse formed
from a factor, the symmetric part of a square matrix and the in-place
mirror of its lower triangle, the PSD guard on formed covariances (a
shifted Cholesky, with eigenvalues only when that fails) and the
row-chunked quadratic-form diagonal.

``quad_diag`` and the sparse operators' row-chunked loops form n-vector
diagonals and r x r projections of n x r products without holding more
than one n x r block plus O(CHUNK_ELEMS) scratch; the R update applies
``quad_diag`` to H P (m_t x r, small next to n_s x r). Every product with
the basis P itself, H P included, is ``ProjectionBasis``'s: it forms them
from its 1-D factor blocks.
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


def chunk_rows(width: int) -> int:
    """Rows per chunk of ``row_chunks``: at most CHUNK_ELEMS elements, at
    least one row."""
    return max(1, CHUNK_ELEMS // max(width, 1))


def row_chunks(n_rows: int, width: int):
    """Yield row slices so each chunk holds at most CHUNK_ELEMS elements."""
    step = chunk_rows(width)
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def quad_diag(X: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """diag(X psi X^T), the row sums of (X psi) o X, over row chunks of X."""
    out = np.empty(X.shape[0])
    for rows in row_chunks(*X.shape):
        out[rows] = np.einsum("ij,ij->i", X[rows] @ psi, X[rows])
    return out


def symmetrize(A: np.ndarray) -> np.ndarray:
    """0.5 (A + A^T), as one new array."""
    s = A + A.T
    s *= 0.5
    return s


def check_psd(A: np.ndarray, what: str) -> None:
    """Raise NumericError when symmetric A (its lower triangle is read) has
    a non-finite entry or an eigenvalue below
    -NEG_TOL_REL * max(lambda_max, 1e-30).

    A Cholesky factorization of A + NEG_TOL_REL * max(max diag A, 1e-30) I
    decides almost every call: max diag A <= lambda_max, so its success
    shows that no eigenvalue lies below the threshold (up to the
    factorization's O(n u ||A||) roundoff, far below NEG_TOL_REL; Higham,
    2002, ch. 10). Only when it fails are the eigenvalues formed, and they
    give the verdict.
    """
    if not np.isfinite(A).all():
        raise NumericError(f"{what}: covariance has non-finite entries")
    shifted = np.array(A, dtype=np.float64, order="C")
    shift = NEG_TOL_REL * max(float(np.diagonal(A).max()), 1e-30)
    shifted.flat[::len(A) + 1] += shift
    # the transpose is Fortran-ordered, and its upper triangle is A's lower
    _, info = sla.lapack.dpotrf(shifted.T, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        return
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


def _cholesky(A: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor L of symmetric positive definite A, in the
    lower triangle of a Fortran-ordered array whose strict upper triangle
    still holds A's entries: every consumer (``solve_triangular`` with
    lower=True, ``cho_solve``, ``cho_inverse``, packing) reads only the
    lower one.

    Raises NumericError with a condition estimate when A is not PD.
    """
    try:
        c, _ = sla.cho_factor(A, lower=True, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericError(
            f"{what}: Cholesky factorization failed (condition estimate "
            f"{_cond_estimate(A):.3e})"
        ) from exc
    return c


def mirror_lower(A: np.ndarray) -> np.ndarray:
    """Copy square A's lower triangle onto its upper one in place, making A
    exactly symmetric; returns A. Works in strips of 64 rows, so each
    transposed copy stays in cache."""
    n = len(A)
    for lo in range(0, n, 64):
        hi = min(lo + 64, n)
        diag = A[lo:hi, lo:hi]
        np.copyto(diag, diag.T, where=~np.tri(hi - lo, dtype=bool))
        A[lo:hi, hi:] = A[hi:, lo:hi].T
    return A


def cho_inverse(L: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} for a lower Cholesky factor L (only its lower triangle
    is read), with both triangles filled (exactly symmetric): LAPACK
    dpotri, which writes the lower one, mirrored into its own output."""
    inv, info = sla.lapack.dpotri(L, lower=1)
    if info != 0:
        raise NumericError("Cholesky factor is singular")
    return mirror_lower(inv)
