"""Shared dense kernels: PSD square roots, guarded symmetric solves, and
chunked weighted Gramians.

The chunked routines let the filter/smoother form r x r projections of
diagonally-weighted products without ever holding more than one n_s x r
block plus O(CHUNK_ELEMS) scratch.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import NumericError

# Target element count for chunked scratch buffers (doubles).
CHUNK_ELEMS = 65536


def row_chunks(n_rows: int, width: int):
    """Yield row slices so each chunk holds at most CHUNK_ELEMS elements."""
    step = max(1, CHUNK_ELEMS // max(width, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def weighted_gram(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X^T diag(w) X, accumulated over row chunks."""
    k = X.shape[1]
    out = np.zeros((k, k))
    for rows in row_chunks(X.shape[0], k):
        out += (X[rows] * w[rows, None]).T @ X[rows]
    return out


def motion_gram_triple(motion, P: np.ndarray, w: np.ndarray, g_pp: np.ndarray):
    """(G_MM, G_MP, G_PP) for the weighted products of M P and P:

    G_MM = (MP)^T diag(w) (MP) and G_MP = (MP)^T diag(w) P, formed by the
    motion operator's own ``gram_triple`` (row-chunked or closed form, never
    a full M P), with the caller's G_PP = P^T diag(w) P, which
    ``ProjectionBasis.gram`` forms (closed form under uniform w).
    """
    return motion.gram_triple(P, w, g_pp)


def op_gram(op, P: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """(op P)^T diag(w) (op P) accumulated over row chunks of op P."""
    r = P.shape[1]
    out = np.zeros((r, r))
    for rows in row_chunks(op.shape[0], r):
        hp = op.apply_block_rows(P, rows)
        out += (hp * w[rows, None]).T @ hp if w is not None else hp.T @ hp
    return out


def symmetrize(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)

def _cond_estimate(A: np.ndarray) -> float:
    try:
        vals = np.abs(np.linalg.eigvalsh(symmetrize(A)))
        hi, lo = vals.max(), vals.min()
        return float(hi / lo) if lo > 0 else np.inf
    except np.linalg.LinAlgError:
        return np.inf


def sym_solve(A: np.ndarray, B: np.ndarray, what: str = "system"):
    """Solve A X = B for symmetric positive definite A (Cholesky).

    Raises NumericError with a condition estimate when A is not PD.
    """
    try:
        c = sla.cho_factor(A, lower=True, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericError(
            f"{what}: symmetric solve failed (condition estimate "
            f"{_cond_estimate(A):.3e})"
        ) from exc
    return sla.cho_solve(c, B, check_finite=False)


def sym_inverse(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    return symmetrize(sym_solve(A, np.eye(A.shape[0]), what))


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Factor A with A A^T = S (eigendecomposition square root; negative
    eigenvalues from roundoff are clipped to zero)."""
    vals, vecs = np.linalg.eigh(symmetrize(S))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))
