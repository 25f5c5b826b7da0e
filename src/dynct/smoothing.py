"""Backward (RTS-type) smoother on the reduced information-form filter output.

Filter step i hands over the filtered mean and U_i = L_i^{-1}, where
L_i L_i^T = Lambda_{i-1} + G_MM is that step's prediction Cholesky and
Lambda_{i-1} = (Psi_{i-1}^est)^{-1}. With w = P^T M_i^T Q_i^{-1} d and
d = x_i^sm - M_i x_{i-1}^est, the textbook gain K_i = P^T (C_i^p)^{-1}
(M_i P), information term N_i = (M_i P)^T (C_i^p)^{-1} (M_i P) and
Psi^est = Psi_{i-1}^est cancel through three exact identities:

    Psi^est - Psi^est N_i Psi^est = (Lambda_{i-1} + G_MM)^{-1} = U_i^T U_i,
    K_i Psi^est = G_MP^T U_i^T U_i,
    x_{i-1}^sm = x_{i-1}^est + P U_i^T (U_i w).

The mean takes one apply and one adjoint apply of the motion, one
``apply_t`` and one ``apply`` of the basis and two r-vector products with
U_i: no Gramian, factorization or solve. The covariances (for EM) take the
motion's G_MP alone (``gram_mp``; G_MM is not formed): with
Phi = U_i^T U_i and K~ = G_MP^T Phi,

    omega_i = Psi_i^sm K~,    Psi_{i-1}^sm = Phi + K~^T omega_i,

two congruences, each PSD when Psi_i^sm is.  The lag-one cross covariance
is C_{i,i-1}^sm = P omega_i P^T, never assembled densely.  Each
Psi_{i-1}^sm is checked PSD (eigenvalues only) as it is formed;
Psi_T^sm = U^T U with U = ``inverse_factor``(Lambda_T), formed once per
covariance sweep, is PSD by construction.

No covariance history is kept.  Everything that consumes the smoothed
moments of transition i (motion re-fit, M-step) needs only x_{i-1}^sm,
x_i^sm, Psi_{i-1}^sm, Psi_i^sm and omega_i, so run_smoother hands them to a
per-step hook and then drops the step's covariances: the sweep holds
O(r^2) reduced memory however long the sequence is.
"""

from __future__ import annotations

import numpy as np

from ._linalg import check_psd, inverse_factor, symmetrize
from .errors import ConfigError
from .filtering import FilterResult, NoiseModel
from .linops import LinearOperator
from .prior import ProjectionBasis


def smooth_step(x_est_prev, u_i, x_sm_i, psi_sm_i, motion: LinearOperator,
                q_diag, basis: ProjectionBasis, with_covariance: bool = False):
    """One backward step from the filtered mean at frame i-1 and filter
    step i's handover u_i = L_i^{-1}; returns
    (x_sm_prev, psi_sm_prev, omega_i).

    psi_sm_prev and omega_i are None unless with_covariance is set.
    """
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    d = x_sm_i - motion.apply(x_est_prev)
    w = basis.apply_t(motion.apply_transpose(q_inv * d))
    x_sm_prev = x_est_prev + basis.apply(u_i.T @ (u_i @ w))
    if not with_covariance:
        return x_sm_prev, None, None

    g_mp = motion.gram_mp(basis, q_inv)
    phi = u_i.T @ u_i
    k_psi = g_mp.T @ phi
    omega = psi_sm_i @ k_psi
    psi_sm_prev = symmetrize(phi + k_psi.T @ omega)
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
    if len(motions) != n_steps or len(filt.u_steps) != n_steps:
        raise ConfigError("run_smoother: step counts disagree with filter output")

    x_sm = np.zeros_like(filt.x_est)
    x_sm[n_steps] = filt.x_est[n_steps]
    psi_i = None
    if with_covariance:
        u_last = inverse_factor(filt.info_last, f"filtered information {n_steps}")
        psi_i = u_last.T @ u_last

    for i in range(n_steps, 0, -1):
        x_sm[i - 1], psi_prev, omega = smooth_step(
            filt.x_est[i - 1], filt.u_steps[i - 1], x_sm[i], psi_i,
            motions[i - 1], noise.q_diags[i - 1], basis, with_covariance)
        if with_covariance:
            check_psd(psi_prev, f"smoothed covariance {i - 1}")
        if on_step is not None:
            on_step(i, x_sm, psi_prev, psi_i, omega)
        psi_i = psi_prev
    return x_sm
