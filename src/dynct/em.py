"""Per-timestep diagonal covariance re-estimation from smoothed moments.

The exact conditional-expectation updates are full matrices

    R_i = (y_i - H_i x_i^sm)(.)^T + H_i C_i^sm H_i^T
    Q_i = E[(x_i - M_i x_{i-1})(x_i - M_i x_{i-1})^T | y]
        = (x_i^sm - M_i x_{i-1}^sm)(.)^T + C_i^sm
          - C_{i,i-1}^sm M_i^T - M_i (C_{i,i-1}^sm)^T + M_i C_{i-1}^sm M_i^T;

only their diagonals are kept (the models are diagonal), computed without
materializing any full covariance or any full n_s x r product: smoothed
covariances enter through their reduced factors (C = (P A)(P A)^T with
A = psd_factor(Psi^sm), which the caller makes once per covariance and
hands to both updates), the cross term through Omega = Psi_i^sm K_i
Psi_{i-1}^est, and the Q update is swept in row chunks.  The R update forms
H_i P whole (m_t x r, one column-order pass over P) and folds it with A in
row chunks.  The two cross terms have identical diagonals, so the sweep
subtracts twice one of them.  A relative floor (1e-8 of the mean) keeps the
next filter pass well posed.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._linalg import row_chunks, symmetrize
from .errors import NumericError
from .linops import LinearOperator

FLOOR_REL = 1e-8
FLOOR_ABS = 1e-30
NEG_TOL_REL = 1e-8


def _apply_floor(diag: np.ndarray) -> np.ndarray:
    floor = FLOOR_REL * float(np.mean(diag))
    if not floor > 0.0:
        floor = FLOOR_ABS
    return np.maximum(diag, floor)


def psd_factor(psi: np.ndarray, what: str) -> np.ndarray:
    """A with A A^T = psi (eigendecomposition square root); rejects
    matrices negative beyond roundoff with NumericError."""
    vals, vecs = np.linalg.eigh(symmetrize(np.asarray(psi, dtype=float)))
    scale = max(float(vals.max()), 0.0)
    if vals.min() < -NEG_TOL_REL * max(scale, FLOOR_ABS):
        raise NumericError(f"{what}: covariance not PSD "
                           f"(min eigenvalue {vals.min():.3e})")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _guard_negative(diag: np.ndarray, what: str,
                    scale: float | None = None) -> np.ndarray:
    """Clamp small negative diagonal entries (roundoff); reject large ones.

    scale should be the size of the positive terms that were summed; when the
    whole diagonal cancels, the output magnitude says nothing about roundoff.
    """
    low = float(diag.min())
    if low >= 0.0:
        return diag
    if scale is None:
        scale = float(np.max(np.abs(diag)))
    if low < -NEG_TOL_REL * max(scale, FLOOR_ABS):
        raise NumericError(f"{what}: diagonal entry {low:.3e} is negative "
                           "beyond roundoff tolerance")
    warnings.warn(f"{what}: clamping roundoff-negative diagonal entries "
                  f"(min {low:.3e})", RuntimeWarning)
    return np.clip(diag, 0.0, None)


def update_r_diag(y_i, h_op: LinearOperator, x_sm_i, a_sm_i, P) -> np.ndarray:
    """diag(R_i) from the smoothed state at frame i; a_sm_i is the
    psd_factor of Psi_i^sm."""
    resid = np.asarray(y_i, dtype=float) - h_op.apply(x_sm_i)
    diag = resid ** 2
    hp = h_op.apply_block_rows(P, slice(None))
    for rows in row_chunks(hp.shape[0], hp.shape[1]):
        hpa = hp[rows] @ a_sm_i
        diag[rows] += np.einsum("ij,ij->i", hpa, hpa)
    return _apply_floor(diag)


def update_q_diag(x_sm_prev, x_sm_i, a_sm_prev, a_sm_i, omega_i,
                  motion: LinearOperator, P) -> np.ndarray:
    """diag(Q_i) from smoothed moments at frames i-1, i.

    a_sm_prev, a_sm_i are the psd_factors of Psi_{i-1}^sm and Psi_i^sm;
    omega_i = Psi_i^sm K_i Psi_{i-1}^est, with K_i the smoother's reduced
    gain P^T (C_i^p)^{-1} M_i P, gives the lag-one cross covariance
    P omega_i P^T.
    """
    resid = x_sm_i - motion.apply(x_sm_prev)
    diag = resid ** 2
    pos_scale = float(diag.max()) if diag.size else 0.0
    n_s, r = P.shape
    for rows in row_chunks(n_s, r):
        pa = P[rows] @ a_sm_i
        mp = motion.apply_block_rows(P, rows)
        mpa = mp @ a_sm_prev
        pos = np.einsum("ij,ij->i", pa, pa) + np.einsum("ij,ij->i", mpa, mpa)
        pos_scale = max(pos_scale, float((diag[rows] + pos).max()))
        cross = P[rows] @ omega_i
        diag[rows] += pos - 2.0 * np.einsum("ij,ij->i", cross, mp)
    return _apply_floor(_guard_negative(diag, "update_q_diag", pos_scale))
