"""Dimension-reduced Kalman filter over a fixed projection basis.

States live in the span of the basis columns P (n_s x r).  Every filter
quantity that matters is an r x r matrix or an r vector, and the full-space
products M_i P and H_i P are never materialized. The three weighted
Gramians

    G_MM = (M P)^T Q^{-1} (M P),  G_MP = (M P)^T Q^{-1} P,  G_PP = P^T Q^{-1} P

come from two places. The basis forms G_PP once per step
(``ProjectionBasis.gram``): because P^T P = diag(lambda), it is
diag(lambda)/q with no n_s x r^2 product whenever Q = q I, as in every
IRKFS step and every first pass. The motion operator forms the other two
(``gram_triple``): Identity returns G_PP for all three, Rank1 and PatchRank1
use closed forms in their (per-patch) coefficients, and sparse operators
(SparseCSR, Warp) accumulate them row-chunk by row-chunk
(``apply_block_rows``), as does G_H for the observation operator. Every
vector contraction against M P or H P goes through the operator adjoint,
e.g. (H P)^T v = P^T (H^T v).  Predicted covariances, which are
C_i^p = B_i B_i^T + Q_i with B_i = M_i P A_{i-1} (A the PSD square root of
the previous reduced covariance), thus never exist as arrays: with
S = A^T G_MM A + I the Woodbury identity gives

    P^T (C^p)^{-1} P = G_PP - (A^T G_MP)^T S^{-1} (A^T G_MP).

The measurement update is the standard information form on the reduced
coordinates: Psi_i = (G_H + P^T (C^p)^{-1} P)^{-1} with
G_H = (H P)^T R^{-1} (H P).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (motion_gram_triple, op_gram, psd_sqrt, row_chunks,
                      sym_inverse, sym_solve, symmetrize, weighted_gram)
from .errors import ConfigError
from .linops import LinearOperator
from .metrics import MemoryTracker, NullTracker
from .prior import ProjectionBasis


@dataclass
class NoiseModel:
    """Diagonal process/measurement covariances per transition.

    q_diags[i-1] is diag(Q_i) for the transition into frame i (length n_s);
    r_diags[i-1] is diag(R_i) for the measurement at frame i (length m_i),
    i = 1..T.  Frame 0 has no transition and its measurement enters only
    through the static initializer.  ``floor`` is the smallest variance the
    model guarantees (re-estimation never drops below its own floor).
    """

    q_diags: list
    r_diags: list
    floor: float = field(default=0.0)

    def __post_init__(self):
        if len(self.q_diags) != len(self.r_diags):
            raise ConfigError("NoiseModel: q/r diagonal counts differ")
        smallest = np.inf
        for d in list(self.q_diags) + list(self.r_diags):
            d = np.asarray(d)
            if d.size == 0 or np.any(d <= 0.0):
                raise ConfigError("NoiseModel: noise variances must be positive")
            smallest = min(smallest, float(d.min()))
        if self.floor <= 0.0:
            self.floor = smallest if np.isfinite(smallest) else 1e-30
        elif np.isfinite(smallest) and smallest < self.floor:
            raise ConfigError("NoiseModel: entries below the declared floor")

    @property
    def n_steps(self) -> int:
        return len(self.q_diags)

    def nbytes(self) -> int:
        return sum(np.asarray(d).nbytes for d in self.q_diags) + \
            sum(np.asarray(d).nbytes for d in self.r_diags)


def initial_noise(alpha: float, n_s: int, row_counts, q_scale: float = 1.0,
                  r_scale: float = 1.0) -> NoiseModel:
    """Flat starting covariances: Q_i = q_scale*alpha^2 I, R_i = r_scale*alpha^2 I."""
    if q_scale <= 0 or r_scale <= 0:
        raise ConfigError("initial_noise: scales must be positive")
    qv = q_scale * alpha ** 2
    rv = r_scale * alpha ** 2
    return NoiseModel(
        q_diags=[np.full(n_s, qv) for _ in row_counts],
        r_diags=[np.full(int(m), rv) for m in row_counts],
    )


def static_init(h0: LinearOperator, basis: ProjectionBasis, y0: np.ndarray):
    """Regularized least-squares fit of frame 0 in the basis span.

    Solves (G^T G + alpha^{-2} P^T P) z = G^T y0 with G = H_0 P, returns
    x0 = P z and the identity reduced covariance. The prior term is the
    basis Gram, alpha^{-2} diag(lambda).
    """
    P = basis.P
    n_s, r = P.shape
    lhs = op_gram(h0, P) + basis.gram(np.full(n_s, basis.config.alpha ** -2))
    rhs = P.T @ h0.apply_transpose(np.asarray(y0, dtype=float))
    z = sym_solve(lhs, rhs, "static init")
    return P @ z, np.eye(r)


def smw_apply(q_inv_diag: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(B B^T + Q)^{-1} X for diagonal Q, via the Woodbury identity.

    Allocates one array of X's shape; the correction term is folded in
    row-chunk by row-chunk.
    """
    q_inv_diag = np.asarray(q_inv_diag, dtype=float)
    vec = X.ndim == 1
    Xm = X[:, None] if vec else X
    out = q_inv_diag[:, None] * Xm
    S = weighted_gram(B, q_inv_diag) + np.eye(B.shape[1])
    Z = sym_solve(S, B.T @ out, "smw capacitance")
    for rows in row_chunks(B.shape[0], B.shape[1]):
        out[rows] -= q_inv_diag[rows, None] * (B[rows] @ Z)
    return out[:, 0] if vec else out


@dataclass
class FilterResult:
    x_est: np.ndarray          # (T+1, n_s) filtered means
    x_pred: np.ndarray         # (T+1, n_s); row 0 duplicates x_est[0]
    psi_est: list              # T+1 reduced covariances (r x r); [0] is psi0


def filter_step(x_prev: np.ndarray, psi_prev: np.ndarray, motion: LinearOperator,
                h_op: LinearOperator, q_diag: np.ndarray, r_diag: np.ndarray,
                y_i: np.ndarray, basis: ProjectionBasis):
    """One predict/update step; returns (x_pred, x_est, psi_est)."""
    P = basis.P
    r = P.shape[1]
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    r_inv = 1.0 / np.asarray(r_diag, dtype=float)

    x_pred = motion.apply(x_prev)
    A = psd_sqrt(psi_prev)

    g_mm, g_mp, g_pp = motion_gram_triple(motion, P, q_inv, basis.gram(q_inv))
    S = symmetrize(A.T @ g_mm @ A) + np.eye(r)
    E = A.T @ g_mp
    pcp = symmetrize(g_pp - E.T @ sym_solve(S, E, "filter capacitance"))

    g_h = op_gram(h_op, P, r_inv)
    innov = np.asarray(y_i, dtype=float) - h_op.apply(x_pred)
    proj = P.T @ h_op.apply_transpose(r_inv * innov)

    psi = sym_inverse(symmetrize(g_h) + pcp, "filter covariance")
    x_est = x_pred + P @ (psi @ proj)
    return x_pred, x_est, psi


def run_filter(y_frames, h_ops, motions, noise: NoiseModel, basis: ProjectionBasis,
               x0: np.ndarray, psi0: np.ndarray,
               tracker: MemoryTracker | None = None) -> FilterResult:
    """Forward pass over frames 1..T from the initial state (x0, psi0)."""
    tracker = tracker or NullTracker()
    n_steps = noise.n_steps
    if not (len(y_frames) == len(h_ops) == n_steps + 1 and len(motions) == n_steps):
        raise ConfigError("run_filter: frame/operator/noise counts disagree")
    n_s = basis.P.shape[0]

    # Result arrays stay charged on return; the caller releases them when
    # it drops the FilterResult. psi0 is the caller's array and charge.
    x_est = tracker.add_array(np.zeros((n_steps + 1, n_s)))
    x_pred = tracker.add_array(np.zeros((n_steps + 1, n_s)))
    x_est[0] = x0
    x_pred[0] = x0
    psi_hist = [np.asarray(psi0, dtype=float)]

    for i in range(1, n_steps + 1):
        xp, xe, psi = filter_step(
            x_est[i - 1], psi_hist[-1], motions[i - 1], h_ops[i],
            noise.q_diags[i - 1], noise.r_diags[i - 1], y_frames[i], basis)
        x_pred[i] = xp
        x_est[i] = xe
        psi_hist.append(tracker.add_reduced_array(psi))
    return FilterResult(x_est=x_est, x_pred=x_pred, psi_est=psi_hist)


def release_filter_result(filt: FilterResult, tracker: MemoryTracker) -> None:
    """Return the tracker charge taken out by run_filter."""
    tracker.release_array(filt.x_est)
    tracker.release_array(filt.x_pred)
    for psi in filt.psi_est[1:]:
        tracker.release_reduced_array(psi)
