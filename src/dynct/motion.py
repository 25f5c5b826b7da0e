"""Frame-to-frame motion operators estimated from reconstructed images.

Three estimators, all producing operators M with M x_prev ~ x_next:

* optical flow (M1): the brightness-constancy system V s = -(x_next - x_prev)
  is solved for a velocity field s with an edge-preserving smoothness
  penalty (mmgks), then turned into a backward-warping interpolation
  matrix, a ``SparseCSR``;
* patchwise rank-1 (M3): M = x_next x_prev^T / (||x_prev||^2 + zeta)
  independently on non-overlapping image patches, the ``PatchRank1`` with
  u = x_next and v = x_prev, held in image order as they come; the
  operator forms its own denominators;
* rank-1 (M2): the same ``PatchRank1`` with the whole image as its one
  patch.

Axis convention for flow: images are (n_x, n_y) arrays flattened row-major;
s_x displaces along the second array axis (columns), s_y along the first
(rows).  A field with s_x = 1 everywhere maps x(i, j) to x(i, j - 1), i.e.
shifts content one column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .linops import PatchRank1, SparseCSR
from .mmgks import basis_nbytes, mmgks_solve


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
        if not (np.all(np.isfinite(self.s_x)) and np.all(np.isfinite(self.s_y))):
            raise ConfigError("VelocityField: components must be finite")


def check_flow_grid(n_x: int, n_y: int) -> None:
    """ConfigError unless the grid has at least two pixels along each axis,
    which the flow's one-sided border differences need."""
    if n_x < 2 or n_y < 2:
        raise ConfigError(f"optical flow (M1) needs an image of at least "
                          f"2 x 2 pixels, got {n_x} x {n_y}")


def ofc_system(x_prev: np.ndarray, x_next: np.ndarray, n_x: int, n_y: int):
    """Brightness-constancy system (V, b) with V s ~ b, b = -(x_next - x_prev).

    V = [diag(d/d_col x_prev), diag(d/d_row x_prev)] (n_s x 2 n_s); central
    differences inside, one-sided at the borders (``check_flow_grid``).
    V's CSR arrays are built directly: row i holds d/d_col x_prev at column
    i and d/d_row x_prev at column n_s + i, and ``SparseCSR`` drops the
    zero gradients of flat regions.
    """
    check_flow_grid(n_x, n_y)
    n_s = n_x * n_y
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    if x_prev.shape != (n_s,) or x_next.shape != (n_s,):
        raise ConfigError("ofc_system: frames must have length n_x*n_y")
    img = x_prev.reshape(n_x, n_y)
    g_col = np.gradient(img, axis=1).reshape(-1)
    g_row = np.gradient(img, axis=0).reshape(-1)
    cols = np.arange(n_s)
    V = sp.csr_matrix((np.column_stack([g_col, g_row]).reshape(-1),
                       np.column_stack([cols, cols + n_s]).reshape(-1),
                       np.arange(0, 2 * n_s + 1, 2)), shape=(n_s, 2 * n_s))
    b = -(x_next - x_prev)
    return SparseCSR(V), b


def _forward_diff(n: int) -> sp.csr_matrix:
    # last row zero keeps the matrix square
    return sp.diags([np.append(-np.ones(n - 1), 0.0), np.ones(n - 1)], [0, 1],
                    shape=(n, n), format="csr")


@functools.lru_cache(maxsize=4)
def flow_regularizer(n_x: int, n_y: int) -> SparseCSR:
    """Discrete gradient of both velocity components (4 n_s x 2 n_s).

    Built once per grid and shared by every call on it, so its arrays are
    read-only.
    """
    eye_x = sp.identity(n_x, format="csr")
    eye_y = sp.identity(n_y, format="csr")
    grad = sp.vstack([
        sp.kron(eye_x, _forward_diff(n_y), format="csr"),
        sp.kron(_forward_diff(n_x), eye_y, format="csr"),
    ], format="csr")
    op = SparseCSR(sp.block_diag([grad, grad], format="csr"))
    for arr in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
        arr.flags.writeable = False
    return op


def flow_basis_nbytes(n_x: int, n_y: int) -> int:
    """Bytes of the Krylov blocks a flow solve on an (n_x, n_y) grid
    allocates (``basis_nbytes``): 11 n_s doubles per basis vector (W,
    V W, Theta W and P Theta W) for the K_MAX vectors at which
    ``mmgks_solve`` restarts, and the K_MAX x K_MAX data Gram."""
    n_s = n_x * n_y
    return basis_nbytes(n_s, 2 * n_s, 4 * n_s)


def estimate_velocity(x_prev, x_next, n_x: int, n_y: int) -> VelocityField:
    """Edge-regularized optical flow between consecutive frames, solved by
    ``mmgks_solve`` with its default config."""
    v_op, b = ofc_system(x_prev, x_next, n_x, n_y)
    theta = flow_regularizer(n_x, n_y)
    res = mmgks_solve(v_op, theta, b)
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


def fit_motion(prev, nxt, n_x: int, n_y: int, kind: str, zeta: float = 0.0,
               patch=(8, 8)):
    """Motion operator for one transition, fitted so M prev ~ nxt: the M1
    flow warp or the M2/M3 ``PatchRank1`` (M2 ignores ``patch``)."""
    if kind == "m1":
        return build_warp(estimate_velocity(prev, nxt, n_x, n_y))
    if kind in ("m2", "m3"):
        z_x, z_y = (n_x, n_y) if kind == "m2" else patch
        return PatchRank1(n_x, n_y, z_x, z_y, nxt, prev, zeta)
    raise ConfigError(f"fit_motion: unknown motion kind {kind!r}")
