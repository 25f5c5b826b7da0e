"""Dimension-reduced square-root Kalman filter over a fixed projection basis.

States live in the span of the basis columns P (n_s x r).  Every filter
quantity that matters is an r x r matrix or an r vector, and the full-space
products M_i P and H_i P are never materialized (H_i P, m_t x r, is formed
whole only inside ``op_gram``). The three weighted Gramians

    G_MM = (M P)^T Q^{-1} (M P),  G_MP = (M P)^T Q^{-1} P,  G_PP = P^T Q^{-1} P

come from two places. The basis forms G_PP once per step
(``ProjectionBasis.gram``): because P^T P = diag(lambda), it is
diag(lambda)/q with no n_s x r^2 product whenever Q = q I, as in every
IRKFS step and every first pass, and otherwise a gather over products of
its 1-D factor blocks. The motion operator forms the other two
(``gram_pair``): Identity returns G_PP for both, PatchRank1 (M2 is its
one-patch case) uses closed forms in its per-patch coefficients, which it
sums over a reshaped view of the image-order P with no copy, and
SparseCSR (the M1 warp) accumulates them over row chunks of M P, each
formed by the chunk's rows of the matrix. G_H = (H P)^T R^{-1} (H P) comes
from the whole H P, which ``apply_block`` forms in one column-order pass
over P (``op_gram``). Every vector contraction against M P or H P goes
through the operator adjoint, e.g. (H P)^T v = P^T (H^T v).

Reduced covariances are carried as square-root factors: the filter keeps
A_i with Psi_i = A_i A_i^T, never Psi_i itself, and applies Psi only as
A (A^T v). Predicted covariances, which are C_i^p = B_i B_i^T + Q_i with
B_i = M_i P A_{i-1}, thus never exist as arrays: with the capacitance
S = A^T G_MM A + I = L L^T (``capacitance_factor``, shared with the
smoother) and V = L^{-1} A^T G_MP, the Woodbury identity gives

    P^T (C^p)^{-1} P = G_PP - V^T V.

The measurement update is the standard information form on the reduced
coordinates: Psi_i = (G_H + P^T (C^p)^{-1} P)^{-1}. One Cholesky factor
J J^T = G_H + P^T (C^p)^{-1} P gives A_i = J^{-T} (one triangular
inverse), an upper-triangular factor of Psi_i; the Cholesky is also the
guard, raising NumericError when the information matrix is not positive
definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._linalg import (capacitance_factor, inverse_factor, op_gram, sym_solve,
                      symmetrize)
from .errors import ConfigError
from .linops import LinearOperator
from .prior import ProjectionBasis


@dataclass
class NoiseModel:
    """Diagonal process/measurement covariances per transition.

    q_diags[i-1] is diag(Q_i) for the transition into frame i (length n_s);
    r_diags[i-1] is diag(R_i) for the measurement at frame i (length m_i),
    i = 1..T.  Frame 0 has no transition and its measurement enters only
    through the static initializer.
    """

    q_diags: list
    r_diags: list

    def __post_init__(self):
        if len(self.q_diags) != len(self.r_diags):
            raise ConfigError("NoiseModel: q/r diagonal counts differ")
        for d in list(self.q_diags) + list(self.r_diags):
            d = np.asarray(d)
            if d.size == 0 or np.any(d <= 0.0):
                raise ConfigError("NoiseModel: noise variances must be positive")

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
    x0 = P z and the identity as the factor of the reduced covariance (also
    the identity). The prior term is the basis Gram, alpha^{-2} diag(lambda).
    """
    P = basis.P
    n_s, r = P.shape
    lhs = op_gram(h0, P) + basis.gram(np.full(n_s, basis.config.alpha ** -2))
    rhs = P.T @ h0.apply_transpose(np.asarray(y0, dtype=float))
    z = sym_solve(lhs, rhs, "static init")
    return P @ z, np.eye(r)


@dataclass
class FilterResult:
    x_est: np.ndarray          # (T+1, n_s) filtered means
    a_est: list                # T+1 factors A_i (r x r), Psi_i = A_i A_i^T;
                               # [0] is the caller's initial factor


def filter_step(x_prev: np.ndarray, a_prev: np.ndarray, motion: LinearOperator,
                h_op: LinearOperator, q_diag: np.ndarray, r_diag: np.ndarray,
                y_i: np.ndarray, basis: ProjectionBasis):
    """One predict/update step from the previous mean and covariance factor
    (Psi_{i-1} = a_prev a_prev^T); returns (x_est, a_est)."""
    P = basis.P
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    r_inv = 1.0 / np.asarray(r_diag, dtype=float)

    x_pred = motion.apply(x_prev)
    A = a_prev

    g_pp = basis.gram(q_inv)
    g_mm, g_mp = motion.gram_pair(P, q_inv, lambda: g_pp)
    L = capacitance_factor(A, g_mm, "filter capacitance")
    V = sla.solve_triangular(L, A.T @ g_mp, lower=True, check_finite=False)
    pcp = symmetrize(g_pp - V.T @ V)

    g_h = op_gram(h_op, P, r_inv)
    innov = np.asarray(y_i, dtype=float) - h_op.apply(x_pred)
    proj = P.T @ h_op.apply_transpose(r_inv * innov)

    a_est = inverse_factor(symmetrize(g_h) + pcp, "filter covariance")
    x_est = x_pred + P @ (a_est @ (a_est.T @ proj))
    return x_est, a_est


def run_filter(y_frames, h_ops, motions, noise: NoiseModel, basis: ProjectionBasis,
               x0: np.ndarray, a0: np.ndarray) -> FilterResult:
    """Forward pass over frames 1..T from the initial mean x0 and covariance
    factor a0 (Psi_0 = a0 a0^T; ``static_init`` gives the identity)."""
    n_steps = noise.n_steps
    if not (len(y_frames) == len(h_ops) == n_steps + 1 and len(motions) == n_steps):
        raise ConfigError("run_filter: frame/operator/noise counts disagree")
    n_s = basis.P.shape[0]

    x_est = np.zeros((n_steps + 1, n_s))
    x_est[0] = x0
    a_hist = [np.asarray(a0, dtype=float)]

    for i in range(1, n_steps + 1):
        x_est[i], a_est = filter_step(
            x_est[i - 1], a_hist[-1], motions[i - 1], h_ops[i],
            noise.q_diags[i - 1], noise.r_diags[i - 1], y_frames[i], basis)
        a_hist.append(a_est)
    return FilterResult(x_est=x_est, a_est=a_hist)
