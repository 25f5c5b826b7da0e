"""Backward (RTS-type) smoother on the reduced square-root filter output.

The filter hands over means and factors A_i (Psi_i^est = A_i A_i^T).  With
A = A_{i-1}, the motion's Gramians G_MM and G_MP (``gram_pair``) and the
filter's own capacitance factor L L^T = S = A^T G_MM A + I
(``capacitance_factor``), the textbook gain K_i = P^T (C_i^p)^{-1} (M_i P),
information term N_i = (M_i P)^T (C_i^p)^{-1} (M_i P) and
Psi^est = Psi_{i-1}^est cancel through three exact identities:

    A^T N_i A = I - S^{-1},  so  Psi^est - Psi^est N_i Psi^est = A S^{-1} A^T,
    K_i Psi^est = (A^T G_MP)^T S^{-1} A^T,
    x_{i-1}^sm = x_{i-1}^est + P A S^{-1} A^T w,  w = P^T M_i^T Q_i^{-1} d,

with d = x_i^sm - M_i x_{i-1}^est: the mean takes one apply, one adjoint
apply and two triangular solves against L on the r-vector A^T w; with
U = L^{-1} A^T and V = L^{-1} A^T G_MP, the covariances (for EM) are

    omega_i = Psi_i^sm V^T U,    Psi_{i-1}^sm = U^T U + (V^T U)^T omega_i,

two congruences, each PSD when Psi_i^sm is.  The lag-one cross covariance
is C_{i,i-1}^sm = P omega_i P^T, never assembled densely.  Each
Psi_{i-1}^sm is checked PSD (eigenvalues only) as it is formed;
Psi_T^sm = A_T A_T^T is PSD by construction.

No covariance history is kept.  Everything that consumes the smoothed
moments of transition i (motion re-fit, M-step) needs only x_{i-1}^sm,
x_i^sm, Psi_{i-1}^sm, Psi_i^sm and omega_i, so run_smoother hands them to a
per-step hook and then drops the step's covariances: the sweep holds
O(r^2) reduced memory however long the sequence is.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ._linalg import capacitance_factor, check_psd, symmetrize
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
    q_inv = 1.0 / np.asarray(q_diag, dtype=float)
    A = a_est_prev
    d = x_sm_i - motion.apply(x_est_prev)

    g_mm, g_mp = motion.gram_pair(P, q_inv, lambda: basis.gram(q_inv))
    L = capacitance_factor(A, g_mm, "smoother capacitance")
    w = P.T @ motion.apply_transpose(q_inv * d)
    coef = sla.cho_solve((L, True), A.T @ w, check_finite=False)
    x_sm_prev = x_est_prev + P @ (A @ coef)
    if not with_covariance:
        return x_sm_prev, None, None

    U = sla.solve_triangular(L, A.T, lower=True, check_finite=False)
    V = sla.solve_triangular(L, A.T @ g_mp, lower=True, check_finite=False)
    k_psi = V.T @ U
    omega = psi_sm_i @ k_psi
    psi_sm_prev = symmetrize(U.T @ U + k_psi.T @ omega)
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
