"""Motion operator construction: optical flow, warping, rank-1 fits."""

import numpy as np
import pytest
import scipy.sparse as sp

from dynct.errors import ConfigError, NumericError
from dynct.linops import SparseCSR
from dynct.mmgks import MMGKSConfig, mmgks_solve
from dynct.motion import (VelocityField, build_warp, estimate_velocity,
                          fit_motion, flow_regularizer, ofc_system)
from dynct.phantom import default_blocks_config, generate_frames
from helpers import rel_err
from oracles import dense


def _blob(n, ci, cj, width=2.5):
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2 * width ** 2))


# -- brightness-constancy system --------------------------------------------

def test_ofc_constant_image():
    x = np.full(12, 3.0)
    V, b = ofc_system(x, x + 1.0, 3, 4)
    assert not dense(V).any()
    np.testing.assert_array_equal(b, -np.ones(12))


def test_ofc_operator_equals_stacked_diagonals():
    # V's CSR arrays, built directly, hold bitwise the operator of
    # hstack([diags(d/d_col), diags(d/d_row)]) on a frame whose flat
    # regions give zero gradients, which the operator drops
    n_x, n_y = 12, 10
    frame = generate_frames(default_blocks_config(n_x, n_y, n_steps=1))[0]
    img = frame.reshape(n_x, n_y)
    g_col = np.gradient(img, axis=1).reshape(-1)
    g_row = np.gradient(img, axis=0).reshape(-1)
    assert (g_col == 0).any() and (g_row == 0).any()
    assert ((g_col == 0) != (g_row == 0)).any()  # rows with one entry
    want = SparseCSR(sp.hstack([sp.diags(g_col), sp.diags(g_row)],
                               format="csr")).matrix
    got = ofc_system(frame, frame, n_x, n_y)[0].matrix
    assert got.shape == want.shape == (n_x * n_y, 2 * n_x * n_y)
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert not (got.data == 0).any()


@pytest.mark.parametrize("n_x, n_y", [(8, 1), (1, 8)])
def test_ofc_needs_two_pixels_per_axis(n_x, n_y):
    with pytest.raises(ConfigError, match="at least 2 x 2"):
        ofc_system(np.ones(8), np.ones(8), n_x, n_y)


def test_ofc_equal_frames_zero_rhs():
    rng = np.random.default_rng(0)
    x = rng.random(20)
    _, b = ofc_system(x, x, 4, 5)
    assert not b.any()


def test_ofc_ramp_shift_solved_by_unit_velocity():
    n = 8
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    x_prev = jj.astype(float)
    x_next = np.clip(jj - 1, 0, None).astype(float)  # shifted one column right
    V, b = ofc_system(x_prev.ravel(), x_next.ravel(), n, n)
    s = np.concatenate([np.ones(n * n), np.zeros(n * n)])
    resid = (V.apply(s) - b).reshape(n, n)
    assert np.max(np.abs(resid[:, 1:])) <= 1e-14  # column 0 is clamp fill


def test_ofc_shape_mismatch():
    with pytest.raises(ConfigError):
        ofc_system(np.zeros(6), np.zeros(6), 2, 4)


# -- velocity estimation -----------------------------------------------------

def test_velocity_equal_frames_is_zero():
    x = _blob(10, 5, 5).ravel()
    field = estimate_velocity(x, x, 10, 10)
    assert not field.s_x.any() and not field.s_y.any()


def test_velocity_recovers_integer_shift():
    n = 16
    prev = _blob(n, 8, 7)
    nxt = np.roll(prev, 1, axis=1)  # one column step: s_x = 1, s_y = 0
    v_op, b = ofc_system(prev.ravel(), nxt.ravel(), n, n)
    s = mmgks_solve(v_op, flow_regularizer(n, n), b,
                    MMGKSConfig(max_iters=80, tol=1e-8)).s
    s_x, s_y = s[:n * n], s[n * n:]
    interior = np.zeros((n, n), dtype=bool)
    interior[3:-3, 3:-3] = True
    # weight by gradient magnitude: flow is undefined on flat background
    g = np.hypot(np.gradient(prev, axis=1), np.gradient(prev, axis=0)).ravel()
    w = g * interior.ravel()
    sx = float((s_x * w).sum() / w.sum())
    sy = float((s_y * w).sum() / w.sum())
    assert abs(sx - 1.0) <= 0.25, sx
    assert abs(sy) <= 0.25, sy


def test_velocity_checkerboard_finite():
    n = 8
    board = np.indices((n, n)).sum(axis=0) % 2 * 1.0
    field = estimate_velocity(board.ravel(), np.roll(board, 1, 1).ravel(), n, n)
    assert np.isfinite(field.s_x).all() and np.isfinite(field.s_y).all()


def test_flow_regularizer_shape():
    theta = flow_regularizer(3, 5)
    assert theta.shape == (4 * 15, 2 * 15)


def test_flow_regularizer_shared_and_read_only():
    theta = flow_regularizer(4, 6)
    assert flow_regularizer(4, 6) is theta
    for arr in (theta.matrix.data, theta.matrix.indices, theta.matrix.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_velocity_same_on_regularizer_cache_miss_and_hit():
    n = 12
    prev = _blob(n, 6, 5)
    nxt = np.roll(prev, 1, axis=1).ravel()
    flow_regularizer.cache_clear()
    miss = estimate_velocity(prev.ravel(), nxt, n, n)
    assert flow_regularizer.cache_info().misses == 1
    hit = estimate_velocity(prev.ravel(), nxt, n, n)
    assert flow_regularizer.cache_info().hits == 1
    np.testing.assert_array_equal(hit.s_x, miss.s_x)
    np.testing.assert_array_equal(hit.s_y, miss.s_y)


# -- warping -----------------------------------------------------------------

def test_warp_zero_velocity_is_identity():
    z = np.zeros(20)
    w = build_warp(VelocityField(s_x=z, s_y=z, n_x=4, n_y=5))
    assert np.array_equal(dense(w), np.eye(20))


def test_warp_integer_shift_exact_on_interior():
    n = 9
    rng = np.random.default_rng(1)
    img = rng.random((n, n))
    ones = np.ones(n * n)
    w = build_warp(VelocityField(s_x=ones, s_y=np.zeros(n * n), n_x=n, n_y=n))
    got = w.apply(img.ravel()).reshape(n, n)
    assert np.array_equal(got[:, 1:], img[:, :-1])  # interior is a pure shift
    assert np.array_equal(got[:, 0], img[:, 0])     # clamped boundary


def test_warp_half_pixel_averages_neighbors():
    n = 6
    half = np.full(n * n, 0.5)
    w = build_warp(VelocityField(s_x=half, s_y=np.zeros(n * n), n_x=n, n_y=n))
    mat = dense(w)
    row = mat[2 * n + 3]  # pixel (2, 3) sources (2, 2.5)
    want = np.zeros(n * n)
    want[2 * n + 2] = 0.5
    want[2 * n + 3] = 0.5
    np.testing.assert_allclose(row, want, atol=1e-15)


def test_warp_rows_stochastic_even_with_wild_velocities():
    rng = np.random.default_rng(2)
    n = 7
    s_x = rng.uniform(-12, 12, n * n)
    s_y = rng.uniform(-12, 12, n * n)
    w = build_warp(VelocityField(s_x=s_x, s_y=s_y, n_x=n, n_y=n))
    mat = dense(w)
    assert (mat >= 0).all()
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("component", ["s_x", "s_y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_velocity_field_rejects_non_finite_components(component, bad):
    n = 4
    comps = {"s_x": np.zeros(n * n), "s_y": np.zeros(n * n)}
    comps[component][5] = bad
    with pytest.raises(ConfigError, match="finite"):
        build_warp(VelocityField(**comps, n_x=n, n_y=n))


# -- rank-1 and patchwise DMD -------------------------------------------------

def _m2(prev, nxt, zeta, n_x=5, n_y=6, **kw):
    return fit_motion(prev, nxt, n_x, n_y, "m2", zeta=zeta, **kw)


def test_dmd_rank1_exact_fit_at_zero_zeta():
    rng = np.random.default_rng(3)
    prev, nxt = rng.random(30), rng.random(30)
    # M2 fits the whole image as one patch and ignores the M3 tiling, even
    # one that does not tile the image
    m = _m2(prev, nxt, 0.0, patch=(2, 4))
    assert m.denoms.shape == (1, 1)
    np.testing.assert_allclose(m.apply(prev), nxt, rtol=1e-12, atol=0)


def test_dmd_rank1_unit_norm_shrinkage():
    prev = np.zeros(9)
    prev[4] = 1.0
    nxt = np.arange(9.0)
    m = _m2(prev, nxt, 1.0, n_x=3, n_y=3)
    np.testing.assert_allclose(m.apply(prev), nxt / 2.0, rtol=1e-15)


def test_dmd_rank1_null_space_and_transpose():
    rng = np.random.default_rng(4)
    prev = rng.random(30)
    nxt = rng.random(30)
    m = _m2(prev, nxt, 0.3)
    v = rng.random(30)
    v -= prev * (prev @ v) / (prev @ prev)  # orthogonal to prev
    assert np.max(np.abs(m.apply(v))) <= 1e-13
    y = rng.random(30)
    want = prev * (nxt @ y) / float(prev @ prev + 0.3)
    np.testing.assert_allclose(m.apply_transpose(y), want, rtol=1e-14)


def test_dmd_rank1_degenerate_input():
    with pytest.raises(NumericError):
        _m2(np.zeros(4), np.ones(4), 0.0, n_x=2, n_y=2)
    with pytest.raises(ConfigError):
        _m2(np.ones(4), np.ones(4), -1.0, n_x=2, n_y=2)


def test_patchwise_single_patch_reduces_to_rank1():
    rng = np.random.default_rng(5)
    prev, nxt = rng.random(24), rng.random(24)
    m3 = fit_motion(prev, nxt, 4, 6, "m3", zeta=0.2, patch=(4, 6))
    m2 = np.outer(nxt, prev) / (prev @ prev + 0.2)
    x = rng.random(24)
    np.testing.assert_allclose(m3.apply(x), m2 @ x, atol=1e-14)
    np.testing.assert_allclose(m3.apply_transpose(x), m2.T @ x, atol=1e-14)


def test_patchwise_zero_patch_maps_to_zero():
    prev = np.zeros((4, 4))
    prev[:2, :2] = 1.0  # only the first 2x2 patch is active
    nxt = np.ones((4, 4))
    m = fit_motion(prev.ravel(), nxt.ravel(), 4, 4, "m3", zeta=0.5, patch=(2, 2))
    out = m.apply(np.ones(16)).reshape(4, 4)
    assert out[:2, :2].any()
    assert not out[2:, :].any() and not out[:2, 2:].any()


def test_patchwise_matches_dense_summation_oracle():
    rng = np.random.default_rng(6)
    n_x = n_y = 4
    z = 2
    prev, nxt = rng.random(16), rng.random(16)
    zeta = 0.1
    m = fit_motion(prev, nxt, n_x, n_y, "m3", zeta=zeta, patch=(z, z))
    want = np.zeros((16, 16))
    for bi in range(2):
        for bj in range(2):
            idx = np.array([(bi * z + a) * n_y + (bj * z + c)
                            for a in range(z) for c in range(z)])
            u, v = nxt[idx], prev[idx]
            want[np.ix_(idx, idx)] += np.outer(u, v) / (v @ v + zeta)
    np.testing.assert_allclose(dense(m), want, atol=1e-13)


def test_patchwise_validation():
    with pytest.raises(ConfigError):
        fit_motion(np.ones(16), np.ones(16), 4, 4, "m3", patch=(3, 2))
    with pytest.raises(NumericError):
        fit_motion(np.zeros(16), np.ones(16), 4, 4, "m3", zeta=0.0, patch=(2, 2))
    # M2 with zeta = 0 has no fit from an all-zero source frame
    with pytest.raises(NumericError):
        fit_motion(np.zeros(16), np.ones(16), 4, 4, "m2", zeta=0.0)
    # a frame that is not n_x * n_y long, either one, for M2 and M3
    for kind in ("m2", "m3"):
        for prev, nxt in ((np.ones(63), np.ones(64)), (np.ones(64), np.ones(63))):
            with pytest.raises(ConfigError, match="of length 64"):
                fit_motion(prev, nxt, 8, 8, kind, patch=(4, 4))


# -- trajectory-level construction -------------------------------------------

def test_fit_motion_m2_exact_on_phantom():
    frames = generate_frames(default_blocks_config(16, 16, n_steps=3))
    flat = frames.reshape(4, -1)
    for i in range(1, 4):
        op = fit_motion(flat[i - 1], flat[i], 16, 16, "m2", zeta=0.0)
        assert rel_err(op.apply(flat[i - 1]), flat[i]) <= 1e-12


def test_fit_motion_m1_tracks_shift_phantom():
    n, T = 16, 3
    base = _blob(n, 7, 5, width=2.5)
    flat = np.stack([np.roll(base, t, axis=1).ravel() for t in range(T + 1)])
    for i in range(1, T + 1):
        op = fit_motion(flat[i - 1], flat[i], n, n, "m1")
        err = rel_err(op.apply(flat[i - 1]), flat[i])
        assert err <= 0.3, (i, err)


def test_fit_motion_unknown_kind():
    # "off" fits nothing: a run without motion keeps its Identity operators
    for kind in ("m9", "off"):
        with pytest.raises(ConfigError, match="unknown motion kind"):
            fit_motion(np.zeros(4), np.zeros(4), 2, 2, kind)
