"""Backward (RTS-type) smoother on the reduced information-form filter output.

Filter step i hands over the filtered mean and its prediction Cholesky
factor L_i, L_i L_i^T = Lambda_{i-1} + G_MM = Phi^{-1}, where
Lambda_{i-1} = (Psi_{i-1}^est)^{-1}. With w = P^T M_i^T Q_i^{-1} d and
d = x_i^sm - M_i x_{i-1}^est, the textbook gain K_i = P^T (C_i^p)^{-1}
(M_i P), information term N_i = (M_i P)^T (C_i^p)^{-1} (M_i P) and
Psi^est = Psi_{i-1}^est cancel through three exact identities:

    Psi^est - Psi^est N_i Psi^est = Phi,
    K_i Psi^est = G_MP^T Phi,
    x_{i-1}^sm = x_{i-1}^est + P Phi w.

The mean takes one apply and one adjoint apply of the motion, one
``apply_t`` and one ``apply`` of the basis and one ``cho_solve`` with L_i,
which ``FilterResult.factor`` unpacks from the filter's packed history
once per step: no Gramian, factorization or inverse. The covariances (for
EM) take the motion's G_MP alone (``gram_mp``; G_MM is not formed) and
Phi = ``cho_inverse``(L_i): with K~ = G_MP^T Phi,

    omega_i = Psi_i^sm K~,    Psi_{i-1}^sm = Phi + K~^T omega_i,

two congruences, each PSD when Psi_i^sm is; Psi_{i-1}^sm is summed in the
K~^T omega_i product before it is symmetrized.  The lag-one cross covariance
is C_{i,i-1}^sm = P omega_i P^T, never assembled densely.  Each
Psi_{i-1}^sm is checked PSD as it is formed (a shifted Cholesky;
eigenvalues only when that fails); Psi_T^sm, ``cho_inverse`` of the
Cholesky factor F_T of Lambda_T that the filter's last update formed
(``FilterResult.info_factor``; once per covariance sweep), is PSD by
construction, so the PSD guard makes the sweep's only factorization.
Every Psi^sm is exactly symmetric.

No covariance history is kept.  Everything that consumes the smoothed
moments of transition i (motion re-fit, M-step) needs only x_{i-1}^sm,
x_i^sm, Psi_{i-1}^sm, Psi_i^sm and omega_i, so run_smoother hands them to a
per-step hook and then drops the step's covariances: the sweep holds
O(r^2) reduced memory however long the sequence is.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ._linalg import check_psd, cho_inverse, symmetrize
from .errors import ConfigError
from .filtering import FilterResult, NoiseModel
from .linops import LinearOperator
from .prior import ProjectionBasis


def smooth_step(x_est_prev, chol_i, x_sm_i, psi_sm_i, motion: LinearOperator,
                q_diag, basis: ProjectionBasis, with_covariance: bool = False):
    """One backward step from the filtered mean at frame i-1 and filter
    step i's prediction factor chol_i = L_i; returns
    (x_sm_prev, psi_sm_prev, omega_i).

    psi_sm_prev and omega_i are None unless with_covariance is set.
    """
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    d = x_sm_i - motion.apply(x_est_prev)
    w = basis.apply_t(motion.apply_transpose(q_inv * d))
    x_sm_prev = x_est_prev + basis.apply(
        sla.cho_solve((chol_i, True), w, check_finite=False))
    if not with_covariance:
        return x_sm_prev, None, None

    g_mp = motion.gram_mp(basis, q_inv)
    phi = cho_inverse(chol_i)
    k_psi = g_mp.T @ phi
    del g_mp
    omega = psi_sm_i @ k_psi
    psi_sm_prev = k_psi.T @ omega
    del k_psi
    psi_sm_prev += phi
    del phi
    psi_sm_prev = symmetrize(psi_sm_prev)
    return x_sm_prev, psi_sm_prev, omega


def run_smoother(filt: FilterResult, motions, noise: NoiseModel,
                 basis: ProjectionBasis, with_covariance: bool = False,
                 on_step=None) -> np.ndarray:
    """Backward pass from the last filtered state; returns the (T+1, n_s)
    smoothed means as ``filt.x_est`` itself, which the sweep consumes: step
    i reads x_{i-1}^est for the last time as it writes x_{i-1}^sm over it.

    on_step(i, x_sm, psi_sm_prev, psi_sm_i, omega_i), when given, fires at
    each backward step i = T..1 right after x_sm[i-1] is formed.  The sweep
    reads motions[i-1] and noise entry i-1 only before on_step(i), so the
    hook may replace them.  The covariance arguments are None unless
    with_covariance is set; they are dropped once the hook returns, so the
    hook copies what it keeps.  Each Psi_{i-1}^sm that is not PSD beyond
    roundoff raises NumericError naming its frame.
    """
    n_steps = noise.n_steps
    if len(motions) != n_steps or len(filt.chol_packed) != n_steps:
        raise ConfigError("run_smoother: step counts disagree with filter output")

    x_sm = filt.x_est  # x_T^sm = x_T^est
    psi_i = cho_inverse(filt.info_factor()) if with_covariance else None

    for i in range(n_steps, 0, -1):
        x_sm[i - 1], psi_prev, omega = smooth_step(
            x_sm[i - 1], filt.factor(i), x_sm[i], psi_i,
            motions[i - 1], noise.q_diags[i - 1], basis, with_covariance)
        if with_covariance:
            check_psd(psi_prev, f"smoothed covariance {i - 1}")
        if on_step is not None:
            on_step(i, x_sm, psi_prev, psi_i, omega)
        psi_i = psi_prev
    return x_sm
