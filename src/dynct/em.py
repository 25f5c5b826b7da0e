"""Per-timestep diagonal covariance re-estimation from smoothed moments.

The exact conditional-expectation updates are full matrices

    R_i = (y_i - H_i x_i^sm)(.)^T + H_i C_i^sm H_i^T
    Q_i = E[(x_i - M_i x_{i-1})(x_i - M_i x_{i-1})^T | y]
        = (x_i^sm - M_i x_{i-1}^sm)(.)^T + C_i^sm
          - C_{i,i-1}^sm M_i^T - M_i (C_{i,i-1}^sm)^T + M_i C_{i-1}^sm M_i^T;

only their diagonals are kept (the models are diagonal), computed without
materializing any full covariance or any full n_s x r product: smoothed
covariances enter through their reduced factors (C = (P A)(P A)^T with
A = psd_sqrt(Psi^sm)), the cross term through Omega = Psi_i^sm K_i
Psi_{i-1}^est, and everything is swept in row chunks.  The two cross terms
have identical diagonals, so the sweep subtracts twice one of them.  A
relative floor (1e-8 of the mean) keeps the next filter pass well posed.

The dense diagonal variants and the expected complete-data log-likelihood
are small-problem diagnostics used to cross-check the chunked path and to
watch EM monotonicity.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._linalg import row_chunks, sym_solve, symmetrize
from .errors import ConfigError, NumericError
from .linops import DENSE_LIMIT, LinearOperator

FLOOR_REL = 1e-8
FLOOR_ABS = 1e-30
NEG_TOL_REL = 1e-8


def _apply_floor(diag: np.ndarray) -> np.ndarray:
    floor = FLOOR_REL * float(np.mean(diag))
    if not floor > 0.0:
        floor = FLOOR_ABS
    return np.maximum(diag, floor)


def _checked_sqrt(psi: np.ndarray, what: str) -> np.ndarray:
    """PSD square-root factor; rejects matrices negative beyond roundoff."""
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


def update_r_diag(y_i, h_op: LinearOperator, x_sm_i, psi_sm_i, P) -> np.ndarray:
    """diag(R_i) from the smoothed state at frame i."""
    resid = np.asarray(y_i, dtype=float) - h_op.apply(x_sm_i)
    diag = resid ** 2
    A = _checked_sqrt(psi_sm_i, "update_r_diag")
    r = P.shape[1]
    for rows in row_chunks(h_op.shape[0], r):
        hpa = h_op.apply_block_rows(P, rows) @ A
        diag[rows] += np.einsum("ij,ij->i", hpa, hpa)
    return _apply_floor(diag)


def update_q_diag(x_sm_prev, x_sm_i, psi_sm_prev, psi_sm_i, gain_i,
                  psi_est_prev, motion: LinearOperator, P) -> np.ndarray:
    """diag(Q_i) from smoothed moments at frames i-1, i.

    gain_i is the smoother's reduced gain K_i = P^T (C_i^p)^{-1} M_i P;
    the lag-one cross covariance is P (Psi_i^sm K_i Psi_{i-1}^est) P^T.
    """
    resid = x_sm_i - motion.apply(x_sm_prev)
    diag = resid ** 2
    pos_scale = float(diag.max()) if diag.size else 0.0
    A_i = _checked_sqrt(psi_sm_i, "update_q_diag (current)")
    A_prev = _checked_sqrt(psi_sm_prev, "update_q_diag (previous)")
    omega = psi_sm_i @ gain_i @ psi_est_prev
    n_s, r = P.shape
    for rows in row_chunks(n_s, r):
        pa = P[rows] @ A_i
        mp = motion.apply_block_rows(P, rows)
        mpa = mp @ A_prev
        pos = np.einsum("ij,ij->i", pa, pa) + np.einsum("ij,ij->i", mpa, mpa)
        pos_scale = max(pos_scale, float((diag[rows] + pos).max()))
        cross = P[rows] @ omega
        diag[rows] += pos - 2.0 * np.einsum("ij,ij->i", cross, mp)
    return _apply_floor(_guard_negative(diag, "update_q_diag", pos_scale))


# ---------------------------------------------------------------------------
# Dense reference versions (small problems only).

def _guard_dense(n: int, what: str) -> None:
    if n > DENSE_LIMIT:
        raise ConfigError(f"{what}: dense path refused for dimension {n}")


def update_r_dense(y_i, h_dense: np.ndarray, x_sm_i, cov_sm_i) -> np.ndarray:
    _guard_dense(h_dense.shape[1], "update_r_dense")
    resid = np.asarray(y_i, dtype=float) - h_dense @ x_sm_i
    full = np.outer(resid, resid) + h_dense @ cov_sm_i @ h_dense.T
    return _apply_floor(np.diag(full).copy())


def update_q_dense(x_sm_prev, x_sm_i, cov_sm_prev, cov_sm_i, cov_cross_i,
                   m_dense: np.ndarray) -> np.ndarray:
    _guard_dense(m_dense.shape[0], "update_q_dense")
    resid = x_sm_i - m_dense @ x_sm_prev
    cm = cov_cross_i @ m_dense.T
    pos = (resid ** 2 + np.diag(cov_sm_i)
           + np.einsum("ij,jk,ik->i", m_dense, cov_sm_prev, m_dense))
    full = (np.outer(resid, resid) + cov_sm_i - cm - cm.T
            + m_dense @ cov_sm_prev @ m_dense.T)
    return _apply_floor(_guard_negative(np.diag(full).copy(), "update_q_dense",
                                        float(pos.max())))


def expected_loglik(y_frames, h_ops, motions, q_covs, r_covs,
                    x_sm, cov_sm, cov_cross, x0_mean, cov0) -> float:
    """Expected complete-data log-likelihood (up to the constant term).

    Dense diagnostic; q_covs/r_covs entries may be 1-D diagonals or full
    matrices; cov_cross[i-1] is the full lag-one cross covariance
    C_{i,i-1}^sm.  The frame-0 prior uses (x0_mean, cov0).
    """
    n_s = x_sm.shape[1]
    _guard_dense(n_s, "expected_loglik")
    n_steps = len(motions)

    def _dense(op):
        return np.asarray(op, dtype=float) if isinstance(op, np.ndarray) \
            else op.to_dense()

    def _term(cov, second_moment, what):
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 1:
            if np.any(cov <= 0):
                raise NumericError(f"expected_loglik: non-positive {what}")
            return float(np.sum(np.log(cov)) + np.sum(np.diag(second_moment) / cov))
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise NumericError(f"expected_loglik: {what} not PD")
        return float(logdet + np.trace(sym_solve(cov, second_moment, what)))

    d0 = x_sm[0] - x0_mean
    total = -0.5 * _term(cov0, cov_sm[0] + np.outer(d0, d0), "prior covariance")

    for i in range(1, n_steps + 1):
        m_dense = _dense(motions[i - 1])
        h_dense = _dense(h_ops[i])

        resid_q = x_sm[i] - m_dense @ x_sm[i - 1]
        cm = cov_cross[i - 1] @ m_dense.T
        sq = (np.outer(resid_q, resid_q) + cov_sm[i] - cm - cm.T
              + m_dense @ cov_sm[i - 1] @ m_dense.T)
        total -= 0.5 * _term(q_covs[i - 1], sq, f"Q_{i}")

        resid_r = np.asarray(y_frames[i], dtype=float) - h_dense @ x_sm[i]
        sr = np.outer(resid_r, resid_r) + h_dense @ cov_sm[i] @ h_dense.T
        total -= 0.5 * _term(r_covs[i - 1], sr, f"R_{i}")
    return total
