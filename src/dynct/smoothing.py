"""Backward (RTS-type) smoother on the reduced filter output.

The mean recursion needs only operator-vector products: with
d = x_i^sm - x_i^p and the Woodbury expansion of (C_i^p)^{-1},

    x_{i-1}^sm = x_{i-1}^est + P Psi_{i-1}^est (M P)^T (C_i^p)^{-1} d,

where (M P)^T v = P^T (M^T v) and (C_i^p)^{-1} d unrolls to diagonal scalings
plus r-vector solves.  Covariance quantities (needed by the EM updates) run
on r x r matrices with the same Gramians the filter uses (G_PP from the
basis, the motion Gramians from the operator):

    gain                 K_i = P^T (C_i^p)^{-1} (M_i P)
    Psi_{i-1}^sm = Psi_{i-1}^est
        + Psi_{i-1}^est (K_i^T Psi_i^sm K_i - N_i) Psi_{i-1}^est,
    N_i = (M_i P)^T (C_i^p)^{-1} (M_i P).

The lag-one cross covariance is C_{i,i-1}^sm = P Psi_i^sm K_i Psi_{i-1}^est P^T,
available in factored form and never assembled densely.

No covariance history is kept.  Everything that consumes the smoothed
moments of transition i (motion re-fit, M-step) needs only x_{i-1}^sm,
x_i^sm, Psi_{i-1}^sm, Psi_i^sm and K_i, so run_smoother hands them to a
per-step hook and then drops the step's two covariances and gain: the sweep
holds O(r^2) reduced memory however long the sequence is.
"""

from __future__ import annotations

import numpy as np

from ._linalg import motion_gram_triple, psd_sqrt, sym_solve, symmetrize
from .errors import ConfigError
from .filtering import FilterResult, NoiseModel
from .linops import LinearOperator
from .metrics import MemoryTracker, NullTracker
from .prior import ProjectionBasis


def smooth_step(x_est_prev, psi_est_prev, x_pred_i, x_sm_i, psi_sm_i,
                motion: LinearOperator, q_diag, basis: ProjectionBasis,
                with_covariance: bool = False):
    """One backward step; returns (x_sm_prev, psi_sm_prev, K_i).

    psi_sm_prev and K_i are None unless with_covariance is set.
    """
    P = basis.P
    r = P.shape[1]
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    A = psd_sqrt(psi_est_prev)
    d = x_sm_i - x_pred_i

    g_mm, g_mp, _ = motion_gram_triple(motion, P, q_inv, basis.gram(q_inv))
    S = symmetrize(A.T @ g_mm @ A) + np.eye(r)

    # v = (C^p)^{-1} d via the Woodbury identity, vectors only
    w = P.T @ motion.apply_transpose(q_inv * d)
    z = A @ sym_solve(S, A.T @ w, "smoother capacitance")
    v = q_inv * d - q_inv * motion.apply(P @ z)

    x_sm_prev = x_est_prev + P @ (psi_est_prev @ (P.T @ motion.apply_transpose(v)))

    psi_sm_prev = None
    K = None
    if with_covariance:
        E = A.T @ g_mp
        F = A.T @ g_mm
        S_inv_F = sym_solve(S, F, "smoother gain")
        K = g_mp.T - E.T @ S_inv_F
        N = symmetrize(g_mm - F.T @ S_inv_F)
        bracket = symmetrize(K.T @ psi_sm_i @ K) - N
        psi_sm_prev = symmetrize(
            psi_est_prev + psi_est_prev @ bracket @ psi_est_prev)
    return x_sm_prev, psi_sm_prev, K


def run_smoother(filt: FilterResult, motions, noise: NoiseModel,
                 basis: ProjectionBasis, with_covariance: bool = False,
                 tracker: MemoryTracker | None = None,
                 on_step=None) -> np.ndarray:
    """Backward pass from the last filtered state; returns the (T+1, n_s)
    smoothed means.

    on_step(i, x_sm, psi_sm_prev, psi_sm_i, K_i), when given, fires at each
    backward step i = T..1 right after x_sm[i-1] is formed.  The covariance
    arguments are None unless with_covariance is set; they are dropped once
    the hook returns, so the hook copies what it keeps.  x_sm stays charged
    on the tracker; the caller releases it when it drops the array.
    """
    tracker = tracker or NullTracker()
    n_steps = noise.n_steps
    if len(motions) != n_steps or len(filt.psi_est) != n_steps + 1:
        raise ConfigError("run_smoother: step counts disagree with filter output")

    x_sm = tracker.add_array(np.zeros_like(filt.x_est))
    x_sm[n_steps] = filt.x_est[n_steps]
    psi_i = None
    if with_covariance:
        psi_i = tracker.add_reduced_array(filt.psi_est[n_steps].copy())

    for i in range(n_steps, 0, -1):
        x_sm[i - 1], psi_prev, K = smooth_step(
            filt.x_est[i - 1], filt.psi_est[i - 1], filt.x_pred[i], x_sm[i],
            psi_i, motions[i - 1], noise.q_diags[i - 1], basis, with_covariance)
        if with_covariance:
            tracker.add_reduced(psi_prev.nbytes + K.nbytes)
        if on_step is not None:
            on_step(i, x_sm, psi_prev, psi_i, K)
        if with_covariance:
            tracker.release_reduced(psi_i.nbytes + K.nbytes)
        psi_i = psi_prev

    if with_covariance:
        tracker.release_reduced_array(psi_i)
    return x_sm
