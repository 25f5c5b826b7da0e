"""Dimension-reduced information-form Kalman filter over a projection basis.

States live in the span of the basis columns P (n_s x r), which the basis
holds as Kronecker factors and never forms. Every filter quantity that
matters is an r x r matrix or an r vector; the full-space products M_i P
are never materialized and H_i P (m_t x r) only as the basis'
``premultiply``. The three weighted Gramians

    G_MM = (M P)^T Q^{-1} (M P),  G_MP = (M P)^T Q^{-1} P,  G_PP = P^T Q^{-1} P

come from two places. The basis forms G_PP once per step
(``ProjectionBasis.gram``): because P^T P = diag(lambda), it is
diag(d), d = lambda/q, with no n_s x r^2 product whenever Q = q I, as in
every IRKFS step and every first pass (``gram_diagonal`` decides that),
and otherwise a gather over products of its 1-D factor blocks. The motion
operator forms the other two (``gram_pair``): Identity returns G_PP for
both (the filter then takes G_PP from it; under a uniform Q it forms
none, below), PatchRank1 (M2 is its one-patch case) uses closed forms in
its per-patch coefficients, which the basis sums tile by tile from its
factor blocks, and SparseCSR (the M1 warp) accumulates them over row chunks
of M P, each formed by the chunk's rows of the matrix against the basis
rows they reference. G_H = (H P)^T R^{-1} (H P) comes from the whole H P.
Every vector contraction against M P or H P goes through the operator
adjoint and the basis, e.g. (H P)^T v = P^T (H^T v) = ``apply_t(H^T v)``,
and every P z is ``apply(z)``.

Reduced covariances are carried as information matrices
Lambda_i = Psi_i^{-1}, from Lambda_0 = Psi_0 = I; neither Psi_i nor the
predicted covariance C_i^p = M_i P Psi_{i-1} P^T M_i^T + Q_i is formed.
With the prediction's one Cholesky L L^T = Lambda_{i-1} + G_MM and
V = L^{-1} G_MP (one triangular solve), Woodbury and the push-through
identity give

    P^T (C^p)^{-1} P = G_PP - V^T V.

An Identity motion under a uniform Q (``ProjectionBasis.gram_diagonal``)
has G_MM = G_MP = G_PP = diag(d), and the same quantity is

    P^T (C^p)^{-1} P = diag(d) - Phi o (d d^T),  Phi = (L L^T)^{-1},

from one ``cho_inverse`` of L (LAPACK dpotri, 2r^3/3 flops, in place of
the r^3 of the triangular solve and the r^3 of V^T V; Higham, *Accuracy
and Stability of Numerical Algorithms*, 2002, ch. 14): no Gramian, V or
solve. Phi is exactly symmetric and so is d d^T, so the result is too.

``measurement_update`` then forms Lambda_i = G_H + P^T (C^p)^{-1} P and
its Cholesky factor F_i, which is also the guard (NumericError unless
Lambda_i is positive definite), moves the mean by one ``cho_solve``
against F_i and returns F_i. The static initializer is the same update
from x = 0, R = I and the prior information alpha^{-2} diag(lambda). The
filter keeps, for the smoother, L_1..L_T and F_T (F_0 = I when T = 0), but
no earlier F_i: ``FilterResult`` holds each as a packed lower triangle,
r(r+1)/2 doubles in place of r^2, and is the one reader and writer of that
format. A step packs L_i as soon as V (or Phi) is formed, so the square
factor is gone before the measurement update, and drops each r x r input
once used; it adds d to a copy of Lambda_{i-1}, which it never changes.
G_PP - V^T V is formed in the V^T V product and symmetrized into one new
array (a non-uniform G_PP is not exactly symmetric; an in-place A += A^T
makes numpy copy the overlapping transpose, about 4x the time at r = 480).
G_H needs no symmetrization: numpy forms a product A^T A of one array with
one syrk and mirrors it, so it is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._linalg import _cholesky, cho_inverse, symmetrize
from .errors import ConfigError
from .linops import Identity, LinearOperator, SparseCSR
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
            if d.size == 0 or not np.all(np.isfinite(d) & (d > 0.0)):
                raise ConfigError("NoiseModel: noise variances must be finite "
                                  "and positive")

    @property
    def n_steps(self) -> int:
        return len(self.q_diags)

    def nbytes(self) -> int:
        return sum(np.asarray(d).nbytes for d in self.q_diags) + \
            sum(np.asarray(d).nbytes for d in self.r_diags)


def initial_noise(alpha: float, n_s: int, row_counts) -> NoiseModel:
    """Flat starting covariances: Q_i = R_i = alpha^2 I."""
    var = alpha ** 2
    return NoiseModel(
        q_diags=[np.full(n_s, var) for _ in row_counts],
        r_diags=[np.full(int(m), var) for m in row_counts],
    )


def measurement_update(x_pred, prior_info, h_op: SparseCSR, r_inv, y,
                       basis: ProjectionBasis, what: str):
    """Update of the predicted mean x_pred, with reduced prior information
    prior_info, by data y = H x + noise, diag(R^{-1}) = r_inv; returns
    (x_est, Lambda = G_H + prior_info, its Cholesky factor F). NumericError
    naming ``what`` unless Lambda is positive definite."""
    hp = basis.premultiply(h_op)
    hp *= np.sqrt(r_inv)[:, None]
    info = hp.T @ hp  # one A^T A product (syrk): exactly symmetric
    del hp
    info += prior_info
    innov = np.asarray(y, dtype=float) - h_op.apply(x_pred)
    proj = basis.apply_t(h_op.apply_transpose(r_inv * innov))
    factor = _cholesky(info, what)
    z = sla.cho_solve((factor, True), proj, check_finite=False)
    return x_pred + basis.apply(z), info, factor


def static_init(h0: SparseCSR, basis: ProjectionBasis, y0: np.ndarray):
    """Regularized least-squares fit of frame 0 in the basis span: the
    measurement update from x = 0, R = I and prior information
    alpha^{-2} P^T P = alpha^{-2} diag(lambda), i.e. x0 = P z with
    (G^T G + alpha^{-2} diag(lambda)) z = G^T y0, G = H_0 P."""
    prior_info = basis.gram(np.full(basis.n_s, basis.config.alpha ** -2))
    return measurement_update(np.zeros(basis.n_s), prior_info, h0,
                              np.ones(h0.shape[0]), y0, basis, "static init")[0]


@dataclass
class FilterResult:
    """The filter's output. Its r x r history, lower Cholesky factors only,
    is held in LAPACK packed lower storage (``dtrttp`` with uplo "L": the
    lower triangle column by column, r(r+1)/2 doubles), which only this
    class reads or writes; ``factor`` and ``info_factor`` unpack it."""

    x_est: np.ndarray  # (T+1, n_s) filtered means
    chol_packed: list  # packed L_1..L_T, L_i L_i^T = Lambda_{i-1} + G_MM
    info_chol_packed: np.ndarray  # packed F_T, F_T F_T^T = Lambda_T
    rank: int  # r

    @staticmethod
    def pack(A: np.ndarray) -> np.ndarray:
        """The lower triangle of square A in packed storage; only that
        triangle is read, and a Fortran-ordered A is not copied."""
        return sla.lapack.dtrttp(A, uplo="L")[0]

    @staticmethod
    def unpack(ap: np.ndarray, n: int) -> np.ndarray:
        """The n x n lower triangular matrix (exact zeros above the diagonal,
        Fortran-ordered) whose packed lower triangle is ap."""
        return sla.lapack.dtpttr(n, ap, uplo="L")[0]

    def factor(self, i: int) -> np.ndarray:
        """Filter step i's prediction factor L_i (i = 1..T), exactly lower
        triangular."""
        return self.unpack(self.chol_packed[i - 1], self.rank)

    def info_factor(self) -> np.ndarray:
        """F_T, the Cholesky factor of Lambda_T, exactly lower triangular."""
        return self.unpack(self.info_chol_packed, self.rank)

    @property
    def history_nbytes(self) -> int:
        """Bytes of the packed r x r history, L_1..L_T and F_T."""
        return sum(a.nbytes for a in (*self.chol_packed, self.info_chol_packed))


def filter_step(x_prev: np.ndarray, info_prev: np.ndarray, motion: LinearOperator,
                h_op: SparseCSR, q_diag: np.ndarray, r_diag: np.ndarray,
                y_i: np.ndarray, basis: ProjectionBasis):
    """One predict/update step from the previous mean and information
    matrix (Lambda_{i-1} = Psi_{i-1}^{-1}); returns (x_est, Lambda_i, L_i,
    F_i), L_i packed (``FilterResult.pack``), F_i from the update."""
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    r_inv = 1.0 / np.asarray(r_diag, dtype=float)

    d = basis.gram_diagonal(q_inv) if isinstance(motion, Identity) else None
    if d is not None:
        # G_MM = G_MP = G_PP = diag(d): pcp = diag(d) - Phi o (d d^T), with
        # Phi = (Lambda_{i-1} + diag(d))^{-1} from L
        shifted = np.array(info_prev, dtype=np.float64)
        shifted.flat[::len(d) + 1] += d
        L = _cholesky(shifted, "filter prediction")
        del shifted
        chol = FilterResult.pack(L)
        pcp = cho_inverse(L)
        del L
        pcp *= np.outer(d, d)
        np.negative(pcp, out=pcp)
        pcp.flat[::len(d) + 1] += d
    else:
        g_mm, g_mp = motion.gram_pair(basis, q_inv)
        # M P = P: an Identity's G_MP is G_PP, formed once
        g_pp = g_mp if isinstance(motion, Identity) else basis.gram(q_inv)
        L = _cholesky(info_prev + g_mm, "filter prediction")
        del g_mm
        V = sla.solve_triangular(L, g_mp, lower=True, check_finite=False)
        del g_mp
        chol = FilterResult.pack(L)
        del L
        pcp = V.T @ V
        del V
        np.subtract(g_pp, pcp, out=pcp)
        del g_pp
        pcp = symmetrize(pcp)

    x_est, info, factor = measurement_update(motion.apply(x_prev), pcp, h_op,
                                             r_inv, y_i, basis,
                                             "filter covariance")
    return x_est, info, chol, factor


def run_filter(y_frames, h_ops, motions, noise: NoiseModel, basis: ProjectionBasis,
               x0: np.ndarray) -> FilterResult:
    """Forward pass over frames 1..T from the initial mean x0 and Lambda_0 = I."""
    n_steps = noise.n_steps
    if not (len(y_frames) == len(h_ops) == n_steps + 1 and len(motions) == n_steps):
        raise ConfigError("run_filter: frame/operator/noise counts disagree")
    x_est = np.zeros((n_steps + 1, basis.n_s))
    x_est[0] = x0
    info = factor = np.eye(basis.rank)
    chol_packed = []

    for i in range(1, n_steps + 1):
        del factor  # only the last step's F_i is kept
        x_est[i], info, chol, factor = filter_step(
            x_est[i - 1], info, motions[i - 1], h_ops[i],
            noise.q_diags[i - 1], noise.r_diags[i - 1], y_frames[i], basis)
        chol_packed.append(chol)
    return FilterResult(x_est=x_est, chol_packed=chol_packed,
                        info_chol_packed=FilterResult.pack(factor),
                        rank=basis.rank)
