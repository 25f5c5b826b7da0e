"""Per-timestep diagonal covariance re-estimation from smoothed moments.

The exact conditional-expectation updates are full matrices

    R_i = (y_i - H_i x_i^sm)(.)^T + H_i C_i^sm H_i^T
    Q_i = E[(x_i - M_i x_{i-1})(x_i - M_i x_{i-1})^T | y]
        = (x_i^sm - M_i x_{i-1}^sm)(.)^T + C_i^sm
          - C_{i,i-1}^sm M_i^T - M_i (C_{i,i-1}^sm)^T + M_i C_{i-1}^sm M_i^T;

only their diagonals are kept (the models are diagonal), computed without
materializing any full covariance or any full n_s x r product. The updates
take the smoother's reduced covariances as formed (C^sm = P Psi^sm P^T, the
cross covariance P omega_i P^T with omega_i = Psi_i^sm K_i Psi_{i-1}^est)
and factor nothing. The R update forms H_i P whole (m_t x r, the basis'
``premultiply``, again after the filter did: a cheap product from the 1-D
factor blocks beats keeping T of them) and takes
diag(H_i P Psi (H_i P)^T) as the row sums of (X Psi) o X over row chunks
of X = H_i P (``_linalg.quad_diag``). The Q update gets diag(P Psi P^T)
from the basis (``ProjectionBasis.quad_diag``, from its 1-D factor blocks
with no n_s x r^2 product). The two cross terms have identical diagonals,
so the Q update subtracts twice one of them. Its two terms in M_i,
diag(M_i P Psi_{i-1}^sm (M_i P)^T) and diag(P omega_i (M_i P)^T), come from
the motion operator's ``q_terms``: closed forms for PatchRank1 (M2 and M3;
per-patch sums and spreads through the basis' tile products, no n_s x r
product), the basis' ``quad_diag`` for Identity and row chunks
of M_i P for SparseCSR (the M1 warp). The smoother rejects covariances that
are not PSD beyond roundoff; here roundoff-negative diagonal entries are
clamped and larger ones rejected, and a relative floor (1e-8 of the mean)
keeps the next filter pass well posed.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._linalg import NEG_TOL_REL, quad_diag
from .errors import NumericError
from .linops import LinearOperator, SparseCSR
from .prior import ProjectionBasis

FLOOR_REL = 1e-8
FLOOR_ABS = 1e-30


def _apply_floor(diag: np.ndarray) -> np.ndarray:
    floor = FLOOR_REL * float(np.mean(diag))
    if not floor > 0.0:
        floor = FLOOR_ABS
    return np.maximum(diag, floor)


def _guard_negative(diag: np.ndarray, what: str, scale: float) -> np.ndarray:
    """Clamp small negative diagonal entries (roundoff); reject large ones.

    scale is the size of the positive terms that were summed; when the whole
    diagonal cancels, the output magnitude says nothing about roundoff.
    """
    low = float(diag.min())
    if low >= 0.0:
        return diag
    if low < -NEG_TOL_REL * max(scale, FLOOR_ABS):
        raise NumericError(f"{what}: diagonal entry {low:.3e} is negative "
                           "beyond roundoff tolerance")
    warnings.warn(f"{what}: clamping roundoff-negative diagonal entries "
                  f"(min {low:.3e})", RuntimeWarning)
    return np.clip(diag, 0.0, None)


def update_r_diag(y_i, h_op: SparseCSR, x_sm_i, psi_sm_i,
                  basis: ProjectionBasis) -> np.ndarray:
    """diag(R_i) from the smoothed state and reduced covariance Psi_i^sm
    at frame i."""
    resid = np.asarray(y_i, dtype=float) - h_op.apply(x_sm_i)
    diag = resid ** 2
    diag += quad_diag(basis.premultiply(h_op), psi_sm_i)
    return _apply_floor(diag)


def update_q_diag(x_sm_prev, x_sm_i, psi_sm_prev, psi_sm_i, omega_i,
                  motion: LinearOperator, basis: ProjectionBasis) -> np.ndarray:
    """diag(Q_i) from smoothed moments at frames i-1, i.

    psi_sm_prev, psi_sm_i are Psi_{i-1}^sm and Psi_i^sm; omega_i =
    Psi_i^sm K_i Psi_{i-1}^est, with K_i the smoother's reduced gain
    P^T (C_i^p)^{-1} M_i P, gives the lag-one cross covariance
    P omega_i P^T.
    """
    resid = x_sm_i - motion.apply(x_sm_prev)
    diag = resid ** 2
    pos, cross = motion.q_terms(basis, psi_sm_prev, omega_i)
    pos += basis.quad_diag(psi_sm_i)
    # the roundoff scale: the largest row of resid^2 plus both positive terms
    pos_scale = float(np.maximum(diag, diag + pos).max()) if diag.size else 0.0
    diag += pos - 2.0 * cross
    return _apply_floor(_guard_negative(diag, "update_q_diag", pos_scale))
