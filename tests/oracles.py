"""Dense reference implementations the test suite checks against.

Everything above the last section is written in the most literal textbook
form possible: full covariances, explicit inverses, gain-form recursions.
Nothing there is shared with the package internals, so agreement is
meaningful. The last section holds reference routines in the package's own
conventions (an operator's dense matrix, the Woodbury apply, the diagonal
M-step with its floor and roundoff guard, the expected log-likelihood on
diagonal or full noise, the Kronecker-form prior covariance and the basis
P assembled column by column, the Radon operator traced ray by ray, the
static initializer's own normal-equations solve, the MMGKS iteration on
re-stacked column blocks); no pipeline path calls them, so they live with
the tests.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from dynct.em import _apply_floor, _guard_negative
from dynct.errors import ConfigError, NumericError
from dynct.mmgks import K_MAX, MMGKSConfig, MMGKSResult, penalty_weights
from dynct.prior import se_kernel_1d
from dynct.radon import _PARALLEL_EPS


def dense_kalman_filter(x0, c0, motions, q_covs, h_mats, r_covs, ys):
    """Gain-form Kalman filter over i = 1..T.

    motions[i-1], q_covs[i-1], h_mats[i], r_covs[i-1], ys[i] act at step i;
    h_mats[0] and ys[0] are unused (frame 0 is the initial condition).
    Returns (means, covs, pred_means, pred_covs), each a list over 0..T
    with pred entries at index 0 equal to the initial condition.
    """
    n = x0.size
    means, covs = [x0.copy()], [c0.copy()]
    pred_means, pred_covs = [x0.copy()], [c0.copy()]
    for i in range(1, len(ys)):
        m, q = motions[i - 1], q_covs[i - 1]
        h, r, y = h_mats[i], r_covs[i - 1], ys[i]
        xp = m @ means[-1]
        cp = m @ covs[-1] @ m.T + q
        s = h @ cp @ h.T + r
        k = cp @ h.T @ np.linalg.inv(s)
        means.append(xp + k @ (y - h @ xp))
        covs.append((np.eye(n) - k @ h) @ cp)
        pred_means.append(xp)
        pred_covs.append(cp)
    return means, covs, pred_means, pred_covs


def dense_rts_smoother(means, covs, pred_means, pred_covs, motions):
    """Rauch-Tung-Striebel backward pass.

    Returns (sm_means, sm_covs, gains) with gains[i-1] the smoother gain
    J_{i-1} = C_{i-1} M_i^T (C_i^p)^{-1} used between steps i-1 and i.
    """
    T = len(means) - 1
    sm_means = [None] * (T + 1)
    sm_covs = [None] * (T + 1)
    gains = [None] * T
    sm_means[T] = means[T].copy()
    sm_covs[T] = covs[T].copy()
    for i in range(T, 0, -1):
        j = covs[i - 1] @ motions[i - 1].T @ np.linalg.inv(pred_covs[i])
        gains[i - 1] = j
        sm_means[i - 1] = means[i - 1] + j @ (sm_means[i] - pred_means[i])
        sm_covs[i - 1] = covs[i - 1] + j @ (sm_covs[i] - pred_covs[i]) @ j.T
    return sm_means, sm_covs, gains


def dense_cross_covariances(sm_covs, gains):
    """Posterior Cov(x_i, x_{i-1}) = C_i^sm J_{i-1}^T for i = 1..T."""
    return [sm_covs[i] @ gains[i - 1].T for i in range(1, len(sm_covs))]


def dense_r_update(y_i, h, x_sm_i, cov_sm_i):
    """Full M-step observation covariance for one timestep."""
    resid = y_i - h @ x_sm_i
    return np.outer(resid, resid) + h @ cov_sm_i @ h.T


def dense_q_update(x_sm_prev, x_sm_i, cov_sm_prev, cov_sm_i, cov_cross_i, m):
    """Full M-step process covariance; cov_cross_i = Cov(x_i, x_{i-1})."""
    resid = x_sm_i - m @ x_sm_prev
    cross = cov_cross_i @ m.T
    return (np.outer(resid, resid) + cov_sm_i + m @ cov_sm_prev @ m.T
            - cross - cross.T)


def dense_expected_loglik(ys, h_mats, motions, q_covs, r_covs,
                          sm_means, sm_covs, cross_covs, mu0, sigma0):
    """Expected complete-data log-likelihood (up to the 2*pi constant)."""

    def term(cov, second_moment):
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        return -0.5 * (logdet + np.trace(np.linalg.inv(cov) @ second_moment))

    d0 = sm_means[0] - mu0
    total = term(sigma0, sm_covs[0] + np.outer(d0, d0))
    for i in range(1, len(ys)):
        m = motions[i - 1]
        resid = sm_means[i] - m @ sm_means[i - 1]
        cross = cross_covs[i - 1] @ m.T
        second = (np.outer(resid, resid) + sm_covs[i]
                  + m @ sm_covs[i - 1] @ m.T - cross - cross.T)
        total += term(q_covs[i - 1], second)
        h = h_mats[i]
        dy = ys[i] - h @ sm_means[i]
        total += term(r_covs[i - 1], np.outer(dy, dy) + h @ sm_covs[i] @ h.T)
    return total


def dense_irls(a, theta, b, lam, eps, n_iters=200, tol=1e-13):
    """Full-space IRLS fixed point for ||As-b||^2 + lam*sum phi_eps(Theta s).

    Same majorization convention as the package solver: weights
    (z^2+eps^2)^(-1/4) on the penalty rows, starting from the unit-weight
    solution.
    """
    ata = a.T @ a
    atb = a.T @ b
    s = np.linalg.solve(ata + lam * (theta.T @ theta), atb)
    for _ in range(n_iters):
        w2 = 1.0 / np.sqrt((theta @ s) ** 2 + eps ** 2)
        lhs = ata + lam * (theta.T @ (w2[:, None] * theta))
        s_new = np.linalg.solve(lhs, atb)
        if np.linalg.norm(s_new - s) <= tol * max(np.linalg.norm(s), 1e-30):
            return s_new
        s = s_new
    return s


def dense_se_covariance(n_x, n_y, alpha, ell):
    """Squared-exponential prior covariance over the pixel grid, built from
    explicit pairwise distances (no Kronecker shortcut)."""
    xs, ys = np.meshgrid(np.arange(n_x), np.arange(n_y), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return alpha ** 2 * np.exp(-d2 / (2.0 * ell ** 2))


def projected_posterior_cov(P, psi):
    """Full-space covariance represented by a reduced factor pair."""
    return P @ psi @ P.T


# ---------------------------------------------------------------------------
# Reference routines in the package's conventions (small problems only).

# Largest dimension a dense reference here is allowed to build.
DENSE_LIMIT = 4096


def dense(op) -> np.ndarray:
    """An operator's matrix, its products with the identity's columns;
    refuses anything with more than DENSE_LIMIT rows or columns."""
    if max(op.shape) > DENSE_LIMIT:
        raise ConfigError(
            f"refusing to densify operator of shape {op.shape} (limit {DENSE_LIMIT})")
    return np.column_stack([op.apply(e) for e in np.eye(op.shape[1])])


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
            else dense(op)

    def _term(cov, second_moment, what):
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 1:
            if np.any(cov <= 0):
                raise NumericError(f"expected_loglik: non-positive {what}")
            return float(np.sum(np.log(cov)) + np.sum(np.diag(second_moment) / cov))
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise NumericError(f"expected_loglik: {what} not PD")
        solved = sla.cho_solve(sla.cho_factor(cov), second_moment)
        return float(logdet + np.trace(solved))

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


def se_covariance_entry(p, q, alpha, ell) -> float:
    """Prior covariance between pixels p = (ix, iy) and q = (jx, jy)."""
    d2 = float((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
    return alpha ** 2 * np.exp(-d2 / (2.0 * ell ** 2))


def dense_covariance(n_x, n_y, alpha, ell) -> np.ndarray:
    """Full prior Sigma as kron(Sigma_x, Sigma_y) of the package's 1-D
    kernels, small problems only."""
    _guard_dense(n_x * n_y, "dense covariance")
    return alpha ** 2 * np.kron(se_kernel_1d(n_x, ell), se_kernel_1d(n_y, ell))


def dense_basis(basis) -> np.ndarray:
    """The basis P (n_s x r) assembled one column at a time: column k is
    sqrt(eigenvalues[k]) * kron(factor_x[:, a_k], factor_y[:, b_k]). The
    package never forms it; small problems only."""
    _guard_dense(basis.n_s, "dense basis")
    P = np.empty((basis.n_s, basis.rank))
    for k, (a, b) in enumerate(basis.index_pairs):
        P[:, k] = np.sqrt(basis.eigenvalues[k]) * np.outer(
            basis.factor_x[:, a], basis.factor_y[:, b]).reshape(-1)
    return P


def static_init_normal_equations(h0, basis, y0) -> np.ndarray:
    """Frame 0's regularized least-squares fit in the basis span, solved
    as its own normal equations (G^T G + alpha^{-2} diag(lambda)) z = G^T y0
    with G = H_0 P, by Cholesky; returns x0 = P z."""
    hp = basis.premultiply(h0)
    lhs = hp.T @ hp + basis.gram(np.full(basis.n_s, basis.config.alpha ** -2))
    rhs = basis.apply_t(h0.apply_transpose(np.asarray(y0, dtype=float)))
    z = sla.cho_solve(sla.cho_factor(lhs, lower=True), rhs)
    return basis.apply(z)


def _trace_ray(theta, t, n_x, n_y):
    """Pixel indices and intersection lengths for one ray, in order along
    it; both empty when the ray misses the grid."""
    o = np.array([t * math.sin(theta), t * math.cos(theta)])
    d = np.array([math.cos(theta), -math.sin(theta)])
    half = np.array([n_x / 2.0, n_y / 2.0])

    # Slab clipping to the bounding box.
    s_lo, s_hi = -np.inf, np.inf
    for a in range(2):
        if abs(d[a]) < _PARALLEL_EPS:
            if not (-half[a] <= o[a] <= half[a]):
                return np.empty(0, dtype=np.int64), np.empty(0)
        else:
            sa = (-half[a] - o[a]) / d[a]
            sb = (half[a] - o[a]) / d[a]
            s_lo = max(s_lo, min(sa, sb))
            s_hi = min(s_hi, max(sa, sb))
    if not (s_lo < s_hi):
        return np.empty(0, dtype=np.int64), np.empty(0)

    crossings = [np.array([s_lo, s_hi])]
    for a, n in zip(range(2), (n_x, n_y)):
        if abs(d[a]) >= _PARALLEL_EPS:
            bounds = np.arange(n + 1) - half[a]
            s = (bounds - o[a]) / d[a]
            crossings.append(s[(s > s_lo) & (s < s_hi)])
    s_all = np.unique(np.concatenate(crossings))
    lengths = np.diff(s_all)
    keep = lengths > _PARALLEL_EPS
    mids = 0.5 * (s_all[:-1] + s_all[1:])[keep]
    i = np.clip(np.floor(o[0] + mids * d[0] + half[0]).astype(np.int64), 0, n_x - 1)
    j = np.clip(np.floor(o[1] + mids * d[1] + half[1]).astype(np.int64), 0, n_y - 1)
    return i * n_y + j, lengths[keep]


def ray_by_ray_operator(geom, t) -> sp.csr_matrix:
    """Frame t's Radon matrix traced one ray at a time, entries in row
    order and along each ray."""
    D = geom.detector_count
    offsets = np.arange(D) - (D - 1) / 2.0
    rows, cols, vals = [], [], []
    for a, theta in enumerate(geom.angles_per_frame[t]):
        for k, off in enumerate(offsets):
            c, w = _trace_ray(theta, off, geom.n_x, geom.n_y)
            rows.append(np.full(c.size, a * D + k, dtype=np.int64))
            cols.append(c)
            vals.append(w)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.frame_rows(t), geom.n_x * geom.n_y))


class _ReferenceSingular(Exception):
    pass


def _reference_projected_solve(AW, TW, pdiag, lam, b):
    PT = pdiag[:, None] * TW
    lhs = AW.T @ AW + lam * (PT.T @ PT)
    try:
        c = sla.cho_factor(lhs, lower=True, check_finite=False)
        z = sla.cho_solve(c, AW.T @ b, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise _ReferenceSingular(str(exc)) from exc
    if not np.all(np.isfinite(z)):
        raise _ReferenceSingular("non-finite projected solution")
    return z


def _reference_majorant(AW, TW, pdiag, lam, b, z) -> float:
    fit = AW @ z - b
    pen = pdiag * (TW @ z)
    return float(fit @ fit + lam * (pen @ pen))


def _reference_expand(W, AW, TW, a_op, theta_op, v):
    n0 = np.linalg.norm(v)
    if n0 == 0.0 or W.shape[1] >= W.shape[0]:
        return W, AW, TW, False
    for _ in range(2):
        v = v - W @ (W.T @ v)
    nv = np.linalg.norm(v)
    if nv <= 1e-10 * n0:
        return W, AW, TW, False
    w_new = v / nv
    W = np.column_stack([W, w_new])
    AW = np.column_stack([AW, a_op.apply(w_new)])
    TW = np.column_stack([TW, theta_op.apply(w_new)])
    return W, AW, TW, True


def mmgks_reference(a_op, theta_op, b, config=None):
    """The MMGKS iteration with W, A W and Theta W as (tall) column stacks,
    re-stacked as each vector joins, and every projected normal matrix and
    majorant value formed from them afresh; same seed, pilot solve, weight
    boost, restart at K_MAX vectors and stopping rule as
    ``mmgks.mmgks_solve``."""
    cfg = config or MMGKSConfig()
    b = np.asarray(b, dtype=np.float64).ravel()
    m, n = a_op.shape
    if np.linalg.norm(b) == 0.0:
        return MMGKSResult(s=np.zeros(n), lam=cfg.lam or 0.0, eps=cfg.eps or 0.0,
                           n_iters=0, converged=True, basis_size=0)
    # Lanczos on A^T A from A^T b: each next vector is A^T applied to the
    # last column of A W
    W, AW = np.empty((n, 0)), np.empty((m, 0))
    TW = np.empty((theta_op.shape[0], 0))
    v = a_op.apply_transpose(b)
    while W.shape[1] < cfg.seed_vectors:
        W, AW, TW, grew = _reference_expand(W, AW, TW, a_op, theta_op, v)
        if not grew:
            break
        v = a_op.apply_transpose(AW[:, -1])
    if W.shape[1] == 0:
        raise NumericError("reference: A^T b is zero")

    lam = cfg.lam if cfg.lam is not None else 1.0
    z = _reference_projected_solve(AW, TW, np.ones(TW.shape[0]), lam, b)
    theta_s = TW @ z
    if cfg.eps is not None:
        eps = cfg.eps
    else:
        scale = float(np.max(np.abs(theta_s)))
        eps = 1e-2 * scale if scale > 0 else 1e-8
    if cfg.lam is None:
        wts = penalty_weights(theta_s, eps)
        fit = AW @ z - b
        den = float(np.sum((wts * theta_s) ** 2))
        lam = float(fit @ fit) / den if den > 0 else 1.0
        if lam <= 0:
            lam = 1.0

    s = W @ z
    objectives = []
    converged = False
    n_iters = 0
    boosted = False
    for k in range(1, cfg.max_iters + 1):
        n_iters = k
        s_old = s
        z_old = z
        wts = penalty_weights(TW @ z, eps)
        try:
            z = _reference_projected_solve(AW, TW, wts, lam, b)
        except _ReferenceSingular:
            if boosted:
                raise NumericError("reference: singular after weight boost")
            boosted = True
            lam *= 10.0
            z = _reference_projected_solve(AW, TW, wts, lam, b)
        s = W @ z
        objectives.append((_reference_majorant(AW, TW, wts, lam, b, z_old),
                           _reference_majorant(AW, TW, wts, lam, b, z)))
        fit = AW @ z - b
        pen = wts ** 2 * (TW @ z)
        resid = a_op.apply_transpose(fit) + lam * theta_op.apply_transpose(pen)
        if W.shape[1] >= K_MAX and K_MAX < n:
            # restart: s / ||s|| alone, then the residual as usual
            W, AW, TW, _ = _reference_expand(
                W[:, :0], AW[:, :0], TW[:, :0], a_op, theta_op, s)
            z = np.array([np.linalg.norm(s)])
        W, AW, TW, grew = _reference_expand(W, AW, TW, a_op, theta_op, resid)
        if grew:
            z = np.append(z, 0.0)
        denom = np.linalg.norm(s_old)
        rel = np.linalg.norm(s - s_old) / denom if denom > 0 else np.inf
        if k > 1 and rel <= cfg.tol:
            converged = True
            break
    return MMGKSResult(s=s, lam=lam, eps=eps, n_iters=n_iters,
                       converged=converged, objectives=objectives,
                       basis_size=W.shape[1])
