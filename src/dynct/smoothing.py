"""Backward (RTS-type) smoother on the reduced square-root filter output.

The filter hands over means and factors A_i (Psi_i^est = A_i A_i^T); the
smoother uses A_{i-1} directly as the Woodbury factor of the predicted
covariance, as the filter did, and recomputes the prediction
x_i^p = M_i x_{i-1}^est with one operator apply.  With d = x_i^sm - x_i^p,
S = A^T G_MM A + I and the Woodbury expansion of (C_i^p)^{-1}, the mean
recursion is

    x_{i-1}^sm = x_{i-1}^est + P A A^T (M P)^T (C_i^p)^{-1} d,
    (M P)^T (C_i^p)^{-1} d = w - G_MM A S^{-1} A^T w,  w = P^T M^T Q^{-1} d,

one adjoint apply and r x r work on the Gramians the filter uses (the
motion Gramians from the operator's ``gram_pair``; G_PP from the basis only
for an Identity motion, whose Gramians it is).  Covariance quantities (needed by the EM
updates) run on r x r matrices, with the one Cholesky of S solving for
A^T w and A^T G_MM together:

    gain                 K_i = P^T (C_i^p)^{-1} (M_i P)
    cross                omega_i = Psi_i^sm K_i Psi_{i-1}^est
    Psi_{i-1}^sm = Psi_{i-1}^est + (K_i Psi_{i-1}^est)^T omega_i
        - Psi_{i-1}^est N_i Psi_{i-1}^est,
    N_i = (M_i P)^T (C_i^p)^{-1} (M_i P),

with Psi_{i-1}^est = A_{i-1} A_{i-1}^T formed once for the step.  The
lag-one cross covariance is C_{i,i-1}^sm = P omega_i P^T, never assembled
densely.  Each Psi_{i-1}^sm is checked PSD (eigenvalues only) as it is
formed; Psi_T^sm = A_T A_T^T is PSD by construction.

No covariance history is kept.  Everything that consumes the smoothed
moments of transition i (motion re-fit, M-step) needs only x_{i-1}^sm,
x_i^sm, Psi_{i-1}^sm, Psi_i^sm and omega_i, so run_smoother hands them to a
per-step hook and then drops the step's covariances: the sweep holds
O(r^2) reduced memory however long the sequence is.
"""

from __future__ import annotations

import numpy as np

from ._linalg import check_psd, sym_solve, symmetrize
from .errors import ConfigError
from .filtering import FilterResult, NoiseModel
from .linops import LinearOperator
from .prior import ProjectionBasis


def smooth_step(x_est_prev, a_est_prev, x_sm_i, psi_sm_i,
                motion: LinearOperator, q_diag, basis: ProjectionBasis,
                with_covariance: bool = False):
    """One backward step from the filtered mean and factor at frame i-1
    (Psi_{i-1}^est = a_est_prev a_est_prev^T); returns
    (x_sm_prev, psi_sm_prev, omega_i).

    psi_sm_prev and omega_i are None unless with_covariance is set.
    """
    P = basis.P
    r = P.shape[1]
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    A = a_est_prev
    d = x_sm_i - motion.apply(x_est_prev)

    g_mm, g_mp = motion.gram_pair(P, q_inv, lambda: basis.gram(q_inv))
    F = A.T @ g_mm
    S = symmetrize(F @ A) + np.eye(r)
    w = P.T @ motion.apply_transpose(q_inv * d)
    rhs = (A.T @ w)[:, None]
    if with_covariance:
        rhs = np.hstack([rhs, F])
    sol = sym_solve(S, rhs, "smoother capacitance")
    x_sm_prev = x_est_prev + P @ (A @ (A.T @ (w - F.T @ sol[:, 0])))
    if not with_covariance:
        return x_sm_prev, None, None

    S_inv_F = sol[:, 1:]
    K = g_mp.T - (A.T @ g_mp).T @ S_inv_F
    N = symmetrize(g_mm - F.T @ S_inv_F)
    psi_est_prev = A @ A.T
    k_psi = K @ psi_est_prev
    omega = psi_sm_i @ k_psi
    psi_sm_prev = symmetrize(psi_est_prev + k_psi.T @ omega
                             - psi_est_prev @ N @ psi_est_prev)
    return x_sm_prev, psi_sm_prev, omega


def run_smoother(filt: FilterResult, motions, noise: NoiseModel,
                 basis: ProjectionBasis, with_covariance: bool = False,
                 on_step=None) -> np.ndarray:
    """Backward pass from the last filtered state; returns the (T+1, n_s)
    smoothed means.

    on_step(i, x_sm, psi_sm_prev, psi_sm_i, omega_i), when given, fires at
    each backward step i = T..1 right after x_sm[i-1] is formed.  The
    covariance arguments are None unless with_covariance is set; they are
    dropped once the hook returns, so the hook copies what it keeps.  Each
    Psi_{i-1}^sm that is not PSD beyond roundoff raises NumericError naming
    its frame.
    """
    n_steps = noise.n_steps
    if len(motions) != n_steps or len(filt.a_est) != n_steps + 1:
        raise ConfigError("run_smoother: step counts disagree with filter output")

    x_sm = np.zeros_like(filt.x_est)
    x_sm[n_steps] = filt.x_est[n_steps]
    psi_i = None
    if with_covariance:
        a_T = filt.a_est[n_steps]
        psi_i = a_T @ a_T.T

    for i in range(n_steps, 0, -1):
        x_sm[i - 1], psi_prev, omega = smooth_step(
            filt.x_est[i - 1], filt.a_est[i - 1], x_sm[i], psi_i,
            motions[i - 1], noise.q_diags[i - 1], basis, with_covariance)
        if with_covariance:
            check_psd(psi_prev, f"smoothed covariance {i - 1}")
        if on_step is not None:
            on_step(i, x_sm, psi_prev, psi_i, omega)
        psi_i = psi_prev
    return x_sm
