"""Frame-to-frame motion operators estimated from reconstructed images.

Three estimators, all producing operators M with M x_prev ~ x_next:

* optical flow (M1): the brightness-constancy system V s = -(x_next - x_prev)
  is solved for a velocity field s with an edge-preserving smoothness
  penalty (mmgks), then turned into a backward-warping interpolation
  matrix, a ``SparseCSR``;
* patchwise rank-1 (M3): M = x_next x_prev^T / (||x_prev||^2 + zeta)
  independently on non-overlapping image patches, a ``PatchRank1`` that
  holds x_next and x_prev in image order as they come;
* rank-1 (M2): the same closed form over the whole image, which is the
  patchwise fit with one patch.

Axis convention for flow: images are (n_x, n_y) arrays flattened row-major;
s_x displaces along the second array axis (columns), s_y along the first
(rows).  A field with s_x = 1 everywhere maps x(i, j) to x(i, j - 1), i.e.
shifts content one column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError
from .linops import Identity, PatchRank1, SparseCSR
from .mmgks import MMGKSConfig, mmgks_solve


@dataclass(frozen=True)
class VelocityField:
    """Per-pixel displacements; s_x along columns, s_y along rows."""

    s_x: np.ndarray
    s_y: np.ndarray
    n_x: int
    n_y: int

    def __post_init__(self):
        n_s = self.n_x * self.n_y
        if self.s_x.shape != (n_s,) or self.s_y.shape != (n_s,):
            raise ConfigError("VelocityField: components must be flat length n_x*n_y")


def ofc_system(x_prev: np.ndarray, x_next: np.ndarray, n_x: int, n_y: int):
    """Brightness-constancy system (V, b) with V s ~ b, b = -(x_next - x_prev).

    V = [diag(d/d_col x_prev), diag(d/d_row x_prev)] (n_s x 2 n_s); central
    differences inside, one-sided at the borders.
    """
    n_s = n_x * n_y
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    if x_prev.shape != (n_s,) or x_next.shape != (n_s,):
        raise ConfigError("ofc_system: frames must have length n_x*n_y")
    img = x_prev.reshape(n_x, n_y)
    g_col = np.gradient(img, axis=1).reshape(-1)
    g_row = np.gradient(img, axis=0).reshape(-1)
    V = sp.hstack([sp.diags(g_col), sp.diags(g_row)], format="csr")
    b = -(x_next - x_prev)
    return SparseCSR(V), b


def _forward_diff(n: int) -> sp.csr_matrix:
    # last row zero keeps the matrix square
    d = sp.lil_matrix((n, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return d.tocsr()


def flow_regularizer(n_x: int, n_y: int) -> SparseCSR:
    """Discrete gradient of both velocity components (4 n_s x 2 n_s)."""
    eye_x = sp.identity(n_x, format="csr")
    eye_y = sp.identity(n_y, format="csr")
    grad = sp.vstack([
        sp.kron(eye_x, _forward_diff(n_y), format="csr"),
        sp.kron(_forward_diff(n_x), eye_y, format="csr"),
    ], format="csr")
    return SparseCSR(sp.block_diag([grad, grad], format="csr"))


def estimate_velocity(x_prev, x_next, n_x: int, n_y: int,
                      config: MMGKSConfig | None = None) -> VelocityField:
    """Edge-regularized optical flow between consecutive frames."""
    v_op, b = ofc_system(x_prev, x_next, n_x, n_y)
    theta = flow_regularizer(n_x, n_y)
    res = mmgks_solve(v_op, theta, b, config)
    n_s = n_x * n_y
    return VelocityField(s_x=res.s[:n_s], s_y=res.s[n_s:], n_x=n_x, n_y=n_y)


def build_warp(field: VelocityField) -> SparseCSR:
    """Backward-warping matrix: row (i, j) interpolates the source point
    (i - s_y, j - s_x), clamped to the image rectangle, bilinearly.

    Weights are assembled so each row sums to one exactly in floating
    point; integer displacements therefore produce pure permutation rows.
    """
    n_x, n_y = field.n_x, field.n_y
    n_s = n_x * n_y
    ii, jj = np.meshgrid(np.arange(n_x), np.arange(n_y), indexing="ij")
    src0 = np.clip(ii.reshape(-1) - field.s_y, 0.0, n_x - 1.0)
    src1 = np.clip(jj.reshape(-1) - field.s_x, 0.0, n_y - 1.0)

    i0 = np.minimum(np.floor(src0).astype(np.int64), n_x - 1)
    j0 = np.minimum(np.floor(src1).astype(np.int64), n_y - 1)
    f0 = src0 - i0
    f1 = src1 - j0
    a0 = 1.0 - f0          # weight share of row i0
    b0 = 1.0 - a0          # exact complement for row i0 + 1
    w00 = a0 * (1.0 - f1)
    w01 = a0 - w00
    w10 = b0 * (1.0 - f1)
    w11 = b0 - w10

    i1 = np.minimum(i0 + 1, n_x - 1)
    j1 = np.minimum(j0 + 1, n_y - 1)
    rows = np.repeat(np.arange(n_s), 4)
    cols = np.stack([i0 * n_y + j0, i0 * n_y + j1,
                     i1 * n_y + j0, i1 * n_y + j1], axis=1).reshape(-1)
    data = np.stack([w00, w01, w10, w11], axis=1).reshape(-1)
    keep = data != 0.0
    mat = sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n_s, n_s))
    return SparseCSR(mat)


def dmd_patchwise(x_prev, x_next, n_x: int, n_y: int, patch=(8, 8),
                  zeta: float = 0.0) -> PatchRank1:
    """Per-patch rank-1 transition fit on a non-overlapping tiling: u = x_next
    and v = x_prev in image order, d_j = ||x_prev on patch j||^2 + zeta.
    Raises NumericError when a source patch is all zero and zeta = 0."""
    z_x, z_y = int(patch[0]), int(patch[1])
    if z_x < 1 or z_y < 1 or n_x % z_x or n_y % z_y:
        raise ConfigError(f"dmd_patchwise: patch ({z_x},{z_y}) must tile ({n_x},{n_y})")
    if zeta < 0:
        raise ConfigError("dmd_patchwise: zeta must be nonnegative")
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    if x_prev.size != n_x * n_y or x_next.size != n_x * n_y:
        raise ConfigError("dmd_patchwise: frames must have length n_x*n_y")
    view = x_prev.reshape(n_x // z_x, z_x, n_y // z_y, z_y)
    denoms = np.einsum("acbd,acbd->ab", view, view) + zeta
    if np.any(denoms <= 0.0):
        raise NumericError("dmd_patchwise: empty source patch with zeta = 0")
    return PatchRank1(n_x, n_y, z_x, z_y, x_next, x_prev, denoms)


def fit_motion(prev, nxt, n_x: int, n_y: int, kind: str, zeta: float = 0.0,
               patch=(8, 8), flow_config: MMGKSConfig | None = None):
    """Motion operator for one transition, fitted so M prev ~ nxt."""
    if kind == "off":
        return Identity(n_x * n_y)
    if kind == "m1":
        return build_warp(estimate_velocity(prev, nxt, n_x, n_y, flow_config))
    if kind == "m2":
        return dmd_patchwise(prev, nxt, n_x, n_y, (n_x, n_y), zeta)
    if kind == "m3":
        return dmd_patchwise(prev, nxt, n_x, n_y, patch, zeta)
    raise ConfigError(f"fit_motion: unknown motion kind {kind!r}")
