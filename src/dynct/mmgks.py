"""Edge-preserving regularized least squares by majorize-minimize iteration
on a growing Krylov-type subspace.

Solves min_s ||A s - b||_2^2 + lam * ||Theta s||_1-like, with the l1 term
smoothed as phi_eps(z) = sqrt(z^2 + eps^2).  At each outer iteration the
nonsmooth term is majorized at the current iterate by a weighted quadratic
lam * ||P Theta s||^2 with diagonal P = diag((z^2 + eps^2)^(-1/4)), and the
quadratic is minimized over span(W) through its l x l projected normal
equations, formed directly from the tall products A W and Theta W (l is the
basis size, at most seed_vectors + max_iters).  The basis W starts from a few
Golub-Kahan bidiagonalization vectors of (A, b) and is expanded each
iteration with the reorthogonalized residual of the full normal equations,
so the subspace adapts to the reweighting.

Within one weight cycle (weights held fixed) enlarging W can only decrease
the quadratic majorant; across cycles the usual MM argument applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, NumericError
from .linops import LinearOperator

_BREAKDOWN = 1e-14


@dataclass(frozen=True)
class MMGKSConfig:
    seed_vectors: int = 5       # initial bidiagonalization basis size
    max_iters: int = 30
    tol: float = 1e-4           # relative change of the iterate
    eps: float | None = None    # smoothing width; None picks 1e-2 * max|Theta s0|
    lam: float | None = None    # regularization weight; None balances the
                                # data fit against the weighted penalty at s0

    def __post_init__(self):
        if self.seed_vectors < 1 or self.max_iters < 1:
            raise ConfigError("MMGKSConfig: seed_vectors and max_iters must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("MMGKSConfig: tol must be finite and positive")
        if self.eps is not None and not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError("MMGKSConfig: eps must be finite and positive")
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("MMGKSConfig: lam must be finite and nonnegative")


@dataclass
class MMGKSResult:
    s: np.ndarray
    lam: float
    eps: float
    n_iters: int
    converged: bool
    # Per weight cycle: (majorant at the incoming iterate, at the minimizer),
    # both under that cycle's weights. The second never exceeds the first.
    objectives: list = field(default_factory=list)
    basis_size: int = 0


def gkb_seed(a_op: LinearOperator, b: np.ndarray, n_vectors: int):
    """Lower Golub-Kahan bidiagonalization of a_op started at u1 = b/||b||.

    Returns (W, U, B) with W (n, l) and U (m, l+1) orthonormal (full
    reorthogonalization) and B the (l+1, l) lower bidiagonal coupling,
    A W = U B.  Stops early on breakdown; l <= n_vectors.
    """
    b = np.asarray(b, dtype=np.float64).ravel()
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise NumericError("gkb_seed: zero right-hand side")
    m, n = a_op.shape
    n_vectors = min(int(n_vectors), n)
    U = [b / nb]
    W: list[np.ndarray] = []
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(n_vectors):
        w = a_op.apply_transpose(U[-1])
        for _ in range(2):
            for wj in W:
                w -= (wj @ w) * wj
        alpha = np.linalg.norm(w)
        if alpha < _BREAKDOWN * nb:
            break
        W.append(w / alpha)
        alphas.append(alpha)
        u = a_op.apply(W[-1])
        for _ in range(2):
            for uj in U:
                u -= (uj @ u) * uj
        beta = np.linalg.norm(u)
        if beta < _BREAKDOWN * nb:
            betas.append(0.0)
            break
        betas.append(beta)
        U.append(u / beta)
    if not W:
        raise NumericError("gkb_seed: immediate breakdown, A^T b is zero")
    ell = len(W)
    B = np.zeros((len(U), ell))
    for j in range(ell):
        B[j, j] = alphas[j]
        if j < len(betas) and betas[j] > 0.0:
            B[j + 1, j] = betas[j]
    return np.column_stack(W), np.column_stack(U), B


class _SingularProjected(Exception):
    pass


def solve_projected(AW: np.ndarray, TW: np.ndarray, pdiag: np.ndarray,
                    lam: float, b: np.ndarray) -> np.ndarray:
    """Minimize ||AW z - b||^2 + lam ||diag(pdiag) TW z||^2 over z.

    Solves the l x l normal equations
    (AW^T AW + lam (P TW)^T (P TW)) z = AW^T b, P = diag(pdiag), by
    Cholesky. An economic QR of either tall factor would give this same
    matrix, at the same conditioning, once R^T R is formed, so none is taken.
    """
    PT = pdiag[:, None] * TW
    lhs = AW.T @ AW + lam * (PT.T @ PT)
    rhs = AW.T @ b
    try:
        c = sla.cho_factor(lhs, lower=True, check_finite=False)
        z = sla.cho_solve(c, rhs, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise _SingularProjected(str(exc)) from exc
    if not np.all(np.isfinite(z)):
        raise _SingularProjected("non-finite projected solution")
    return z


def majorant_value(AW, TW, pdiag, lam, b, z) -> float:
    """Quadratic majorant at fixed weights, evaluated at s = W z."""
    fit = AW @ z - b
    pen = pdiag * (TW @ z)
    return float(fit @ fit + lam * (pen @ pen))


def expand_basis(W: np.ndarray, AW: np.ndarray, TW: np.ndarray,
                 a_op: LinearOperator, theta_op: LinearOperator,
                 v: np.ndarray):
    """Append v to the basis after two reorthogonalization sweeps.

    Returns (W, AW, TW, grew); v vanishing inside span(W) leaves the basis
    unchanged.
    """
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


def penalty_weights(theta_s: np.ndarray, eps: float) -> np.ndarray:
    """Diagonal of the majorizing reweighting matrix at Theta s."""
    return (theta_s ** 2 + eps ** 2) ** (-0.25)


def mmgks_solve(a_op: LinearOperator, theta_op: LinearOperator, b: np.ndarray,
                config: MMGKSConfig | None = None) -> MMGKSResult:
    """Run the MM iteration; see the module docstring."""
    cfg = config or MMGKSConfig()
    b = np.asarray(b, dtype=np.float64).ravel()
    m, n = a_op.shape
    if theta_op.shape[1] != n:
        raise ConfigError("mmgks_solve: operand column counts disagree")
    if b.shape[0] != m:
        raise ConfigError("mmgks_solve: right-hand side length mismatch")
    if np.linalg.norm(b) == 0.0:
        return MMGKSResult(s=np.zeros(n), lam=cfg.lam or 0.0, eps=cfg.eps or 0.0,
                           n_iters=0, converged=True, basis_size=0)

    W, _, _ = gkb_seed(a_op, b, cfg.seed_vectors)
    AW = np.column_stack([a_op.apply(w) for w in W.T])
    TW = np.column_stack([theta_op.apply(w) for w in W.T])

    # Unit-weight pilot solve fixes the smoothing width and, if requested,
    # the balance parameter.
    lam = cfg.lam if cfg.lam is not None else 1.0
    try:
        z = solve_projected(AW, TW, np.ones(TW.shape[0]), lam, b)
    except _SingularProjected as exc:
        raise NumericError(f"mmgks pilot solve singular: {exc}") from exc
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
            z = solve_projected(AW, TW, wts, lam, b)
        except _SingularProjected:
            if boosted:
                raise NumericError(
                    "mmgks: projected system singular after weight boost")
            boosted = True
            lam *= 10.0
            try:
                z = solve_projected(AW, TW, wts, lam, b)
            except _SingularProjected as exc:
                raise NumericError(
                    f"mmgks: projected system singular at lam={lam:g}") from exc
        s = W @ z
        objectives.append((majorant_value(AW, TW, wts, lam, b, z_old),
                           majorant_value(AW, TW, wts, lam, b, z)))

        # Normal-equation residual of the current majorant drives expansion.
        fit = AW @ z - b
        pen = wts ** 2 * (TW @ z)
        resid = a_op.apply_transpose(fit) + lam * theta_op.apply_transpose(pen)
        W, AW, TW, grew = expand_basis(W, AW, TW, a_op, theta_op, resid)
        if grew:
            z = np.append(z, 0.0)

        denom = np.linalg.norm(s_old)
        rel = np.linalg.norm(s - s_old) / denom if denom > 0 else np.inf
        # k=1 compares against the pilot solve in the same basis, which is
        # identical whenever the pilot weights already match; never stop there
        if k > 1 and rel <= cfg.tol:
            converged = True
            break
    return MMGKSResult(s=s, lam=lam, eps=eps, n_iters=n_iters,
                       converged=converged, objectives=objectives,
                       basis_size=W.shape[1])
