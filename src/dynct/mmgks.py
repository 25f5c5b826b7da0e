"""Edge-preserving regularized least squares by majorize-minimize iteration
on a generalized Krylov subspace, restarted at a fixed size.

Solves min_s ||A s - b||_2^2 + lam * ||Theta s||_1-like, with the l1 term
smoothed as phi_eps(z) = sqrt(z^2 + eps^2).  At each outer iteration the
nonsmooth term is majorized at the current iterate by a weighted quadratic
lam * ||P Theta s||^2 with diagonal P = diag((z^2 + eps^2)^(-1/4)), and the
quadratic is minimized over span(W) through its l x l projected normal
equations (l is the basis size, at most K_MAX).  The basis W starts from a
few Lanczos vectors of A^T A started at A^T b (in exact arithmetic the right
Golub-Kahan bidiagonalization vectors of (A, b)) and is expanded each
iteration with the reorthogonalized residual of the full normal equations,
so the subspace adapts to the reweighting.  Seed and expansion vectors join
W by the same step, KrylovBasis.expand.

Once W holds K_MAX vectors the basis restarts (Buccini & Reichel, Adv.
Comput. Math. 49, 2023): it is compressed to the normalized current iterate
s and then expanded with that iteration's residual, as any other iteration
is.  The iterate lies in the restarted span, so the next minimizer still
cannot raise the majorant; and the memory and the cost of an iteration
are bounded by K_MAX, whatever max_iters is.  A basis that spans the whole
space (n <= K_MAX) never restarts.

Each solve owns one KrylovBasis, which holds W, A W and Theta W in blocks
allocated for K_MAX vectors (``basis_nbytes``), one basis vector per row,
grown in place, and solves the projected system itself
(``KrylovBasis.solve``).  The data part of the projected normal equations,
(A W)^T A W and (A W)^T b, does not depend on the weights: it is bordered
by one row as each vector joins (a restart rebuilds it the same way from
its first vector), so an iteration forms only the reweighted
lam (P Theta W)^T (P Theta W), with P Theta W in one more preallocated
block, and factors and solves the l x l system with LAPACK's dpotrf and
dpotrs, called directly.  The products A W z and Theta W z at each
minimizer serve the next weights, the expansion residual and both
majorant values.

Within one weight cycle (weights held fixed) enlarging W can only decrease
the quadratic majorant; across cycles the usual MM argument applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigError, NumericError, is_count
from .linops import LinearOperator

# Basis size at which the solver restarts; it bounds a solve's blocks (about
# 11 n_s doubles per vector for a flow solve) and each iteration's l x l
# projected system.
K_MAX = 10


@dataclass(frozen=True)
class MMGKSConfig:
    seed_vectors: int = 5       # initial Krylov basis size (Lanczos on A^T A)
    max_iters: int = 30
    tol: float = 1e-4           # relative change of the iterate
    eps: float | None = None    # smoothing width; None picks 1e-2 * max|Theta s0|
    lam: float | None = None    # regularization weight; None balances the
                                # data fit against the weighted penalty at s0

    def __post_init__(self):
        if not (is_count(self.seed_vectors) and is_count(self.max_iters)):
            raise ConfigError(
                "MMGKSConfig: seed_vectors and max_iters must be integers >= 1")
        if self.seed_vectors >= K_MAX:
            raise ConfigError(
                f"MMGKSConfig: seed_vectors must be below the restart size "
                f"K_MAX = {K_MAX}, which they would fill")
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


def basis_nbytes(m: int, n: int, t: int) -> int:
    """Bytes of the blocks a ``KrylovBasis`` allocates for operands A
    (m x n) and Theta (t x n): W, A W, Theta W and P Theta W, one row per
    vector, the data Gram and (A W)^T b, for the K_MAX vectors (n at most)
    at which ``mmgks_solve`` restarts, so they bound any solve, whatever
    its max_iters."""
    c = min(K_MAX, n)
    return (c * (n + m + 2 * t) + c * c + c) * 8


class KrylovBasis:
    """Orthonormal basis W with its images A W and Theta W and the data part
    of the projected normal equations, grown in place, and the projected
    solve over them (``solve``).

    ``W``, ``AW`` and ``TW`` hold one basis vector (or its image) per row in
    blocks allocated for ``capacity`` = min(K_MAX, n) vectors
    (``basis_nbytes``), so the first ``size`` rows are contiguous views; the
    data Gram (A W)^T A W and (A W)^T b are bordered by one row and entry as
    each vector joins.
    """

    def __init__(self, a_op: LinearOperator, theta_op: LinearOperator,
                 b: np.ndarray):
        m, n = a_op.shape
        t = theta_op.shape[0]
        self._a_op, self._theta_op, self._b = a_op, theta_op, b
        self.capacity = c = min(K_MAX, n)
        self._w = np.empty((c, n))
        self._aw = np.empty((c, m))
        self._tw = np.empty((c, t))
        self._gram = np.empty((c, c))
        self._atb = np.empty(c)
        self._pt = np.empty((c, t))
        self.size = 0

    @property
    def W(self):
        return self._w[:self.size]

    @property
    def AW(self):
        return self._aw[:self.size]

    @property
    def TW(self):
        return self._tw[:self.size]

    def expand(self, v: np.ndarray) -> bool:
        """Append v after two reorthogonalization sweeps; False (basis
        unchanged) when it is full or v vanishes inside span(W)."""
        n0 = np.linalg.norm(v)
        if n0 == 0.0 or self.size >= self.capacity:
            return False
        W = self.W
        for _ in range(2):
            v = v - (W @ v) @ W
        nv = np.linalg.norm(v)
        if nv <= 1e-10 * n0:
            return False
        j = self.size
        w = v / nv
        self._w[j] = w
        self._aw[j] = self._a_op.apply(w)
        self._tw[j] = self._theta_op.apply(w)
        aw = self._aw[j]
        row = self._aw[:j + 1] @ aw
        self._gram[j, :j + 1] = row
        self._gram[:j, j] = row[:j]
        self._atb[j] = aw @ self._b
        self.size = j + 1
        return True

    def restart(self, s: np.ndarray) -> None:
        """Compress the basis to the one vector s / ||s|| (s nonzero), with
        its images, data Gram and A^T b rebuilt by ``expand``."""
        self.size = 0
        self.expand(s)

    def seed(self, n_vectors: int) -> None:
        """Grow to at most n_vectors Lanczos vectors of A^T A started at
        A^T b (in exact arithmetic the right Golub-Kahan bidiagonalization
        vectors of (A, b)); each next vector is A^T applied to the last row
        of A W. Stops early when the Krylov space closes; raises
        NumericError if A^T b is zero."""
        v = self._a_op.apply_transpose(self._b)
        while self.size < n_vectors and self.expand(v):
            v = self._a_op.apply_transpose(self._aw[self.size - 1])
        if self.size == 0:
            raise NumericError("mmgks: A^T b is zero, the basis cannot start")

    def solve(self, pdiag: np.ndarray, lam: float) -> np.ndarray:
        """Minimize ||A W z - b||^2 + lam ||diag(pdiag) Theta W z||^2 over z.

        Solves the l x l normal equations
        ((AW)^T AW + lam (P TW)^T (P TW)) z = (AW)^T b, P = diag(pdiag), by
        Cholesky. Only the reweighted term is formed here: P TW in its
        preallocated block, and the system in place in the one new l x l
        product, read as the Fortran-ordered array that LAPACK dpotrf
        factors where it lies (the product is symmetric, so that is the
        same matrix). Raises NumericError when the system is singular or z
        is not finite.
        """
        size = self.size
        PT = np.multiply(self.TW, pdiag, out=self._pt[:size])
        lhs = (PT @ PT.T).T
        lhs *= lam
        lhs += self._gram[:size, :size]
        c, info = sla.lapack.dpotrf(lhs, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            z, info = sla.lapack.dpotrs(c, self._atb[:size], lower=1)
        if info != 0:
            raise NumericError(
                f"mmgks: projected system singular at lam={lam:g} "
                f"(LAPACK info {info})")
        if not np.all(np.isfinite(z)):
            raise NumericError(
                f"mmgks: non-finite projected solution at lam={lam:g}")
        return z


def majorant_value(fit: np.ndarray, theta_s: np.ndarray, pdiag: np.ndarray,
                   lam: float) -> float:
    """Quadratic majorant ||fit||^2 + lam ||pdiag * theta_s||^2 at fixed
    weights, from fit = A s - b and theta_s = Theta s."""
    pen = pdiag * theta_s
    return float(fit @ fit + lam * (pen @ pen))


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

    basis = KrylovBasis(a_op, theta_op, b)
    basis.seed(cfg.seed_vectors)

    # Unit-weight pilot solve fixes the smoothing width and, if requested,
    # the balance parameter.
    lam = cfg.lam if cfg.lam is not None else 1.0
    z = basis.solve(np.ones(theta_op.shape[0]), lam)
    theta_s = z @ basis.TW
    fit = z @ basis.AW - b
    if cfg.eps is not None:
        eps = cfg.eps
    else:
        scale = float(np.max(np.abs(theta_s)))
        eps = 1e-2 * scale if scale > 0 else 1e-8
    if cfg.lam is None:
        wts = penalty_weights(theta_s, eps)
        den = float(np.sum((wts * theta_s) ** 2))
        lam = float(fit @ fit) / den if den > 0 else 1.0
        if lam <= 0:
            lam = 1.0

    s = z @ basis.W
    objectives = []
    converged = False
    n_iters = 0
    boosted = False
    for k in range(1, cfg.max_iters + 1):
        n_iters = k
        s_old, fit_old, theta_s_old = s, fit, theta_s
        wts = penalty_weights(theta_s, eps)
        try:
            z = basis.solve(wts, lam)
        except NumericError:
            if boosted:
                raise
            boosted = True
            lam *= 10.0
            z = basis.solve(wts, lam)
        s = z @ basis.W
        fit = z @ basis.AW - b
        theta_s = z @ basis.TW
        objectives.append((majorant_value(fit_old, theta_s_old, wts, lam),
                           majorant_value(fit, theta_s, wts, lam)))

        # Normal-equation residual of the current majorant drives expansion.
        resid = (a_op.apply_transpose(fit)
                 + lam * theta_op.apply_transpose(wts ** 2 * theta_s))
        if basis.size == basis.capacity < n:
            basis.restart(s)
        basis.expand(resid)

        denom = np.linalg.norm(s_old)
        rel = np.linalg.norm(s - s_old) / denom if denom > 0 else np.inf
        # k=1 compares against the pilot solve in the same basis, which is
        # identical whenever the pilot weights already match; never stop there
        if k > 1 and rel <= cfg.tol:
            converged = True
            break
    return MMGKSResult(s=s, lam=lam, eps=eps, n_iters=n_iters,
                       converged=converged, objectives=objectives,
                       basis_size=basis.size)
