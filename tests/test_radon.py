"""Scan geometry and ray-driven projector."""

import math

import numpy as np
import pytest

from dynct.errors import ConfigError, NumericError
from dynct.metrics import noise_level
from dynct.phantom import default_blocks_config, generate_frames
from dynct.linops import SparseCSR
from dynct.radon import (ScanGeometry, SinogramSet, build_operator,
                         build_operators, default_detector_count,
                         make_geometry, simulate_sinograms)
from oracles import ray_by_ray_operator


def test_geometry_shapes_and_rotation():
    geom = make_geometry(8, 8, 4, 3, angle_offset=0.1)
    assert geom.n_frames == 3
    assert geom.detector_count == default_detector_count(8, 8)
    base = np.array(geom.angles_per_frame[0])
    third = np.array(geom.angles_per_frame[2])
    np.testing.assert_allclose(np.mod(base + 0.2, math.pi), third, atol=1e-12)
    assert geom.frame_rows(1) == 4 * geom.detector_count


def test_axis_aligned_rays_are_column_sums():
    # theta = 0 rays run along axis 0, so each detector bin integrates one
    # image column (axis-1 index); interior bins must match exactly.
    n = 10
    geom = make_geometry(n, n, 1, 1, detector_count=n)
    op = build_operator(geom, 0)
    rng = np.random.default_rng(5)
    img = rng.random((n, n))
    sums = op.apply(img.ravel())
    col = img.sum(axis=0)
    matched = sum(
        np.isclose(sums[k], col, atol=1e-10).any() for k in range(n))
    assert matched >= n - 2  # edge bins may clip the grid


def test_mass_preserved_for_centered_disk():
    # every angle integrates the full object, so all angle blocks carry the
    # same total mass (line integrals of a compactly supported function)
    n = 16
    geom = make_geometry(n, n, 6, 1)
    op = build_operator(geom, 0)
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    disk = (((xs - n / 2 + 0.5) ** 2 + (ys - n / 2 + 0.5) ** 2) <= 16).astype(float)
    sino = op.apply(disk.ravel()).reshape(6, geom.detector_count)
    masses = sino.sum(axis=1)
    np.testing.assert_allclose(masses, masses[0], rtol=5e-2)


def test_adjoint_inner_products():
    rng = np.random.default_rng(11)
    for n_x, n_y, n_angles in ((8, 8, 3), (12, 10, 5), (7, 13, 4)):
        geom = make_geometry(n_x, n_y, n_angles, 2, angle_offset=0.3)
        for t in range(2):
            op = build_operator(geom, t)
            for _ in range(10):
                x = rng.standard_normal(op.shape[1])
                y = rng.standard_normal(op.shape[0])
                hx = op.apply(x)
                lhs, rhs = float(hx @ y), float(x @ op.apply_transpose(y))
                assert abs(lhs - rhs) <= 1e-12 * max(
                    np.linalg.norm(hx) * np.linalg.norm(y), 1e-300)


def _scan(n):
    """The 11-frame, 5-angle scan the benchmark workloads run at n x n."""
    return make_geometry(n, n, 5, 11, angle_offset=math.pi / 25)


@pytest.mark.parametrize("geom, frames", [
    (_scan(32), range(11)),
    (_scan(64), range(11)),
    (_scan(128), (0, 10)),      # frame 0 has theta = 0 with rays off the grid
    (make_geometry(48, 40, 5, 2, angle_offset=0.3), range(2)),
    (make_geometry(12, 10, 5, 2, angle_offset=0.3), range(2)),
    (make_geometry(7, 13, 4, 2, angle_offset=0.3), range(2)),
    (make_geometry(10, 10, 1, 1, detector_count=10), range(1)),
    (make_geometry(16, 16, 6, 1), range(1)),
    (make_geometry(9, 9, 4, 2, angle_offset=0.2, detector_count=30), range(2)),
], ids=["32", "64", "128", "48x40", "12x10", "7x13", "theta0", "16-6ang",
        "9x9-D30"])
def test_operator_bitwise_equals_ray_by_ray_trace(geom, frames):
    for t in frames:
        got = build_operator(geom, t).matrix
        want = SparseCSR(ray_by_ray_operator(geom, t)).matrix
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), (t, part)


def test_diagonal_ray_through_pixel_corners():
    # the theta = pi/4 ray through the centre meets the lines of both axes
    # at the same points: n segments of length sqrt(2) on the anti-diagonal
    n = 8
    op = build_operator(ScanGeometry(n, n, ((math.pi / 4,),), 1), 0)
    row = op.matrix.getrow(0)
    assert row.nnz == n
    np.testing.assert_array_equal(np.sort(row.indices),
                                  np.sort(np.arange(n) * n + n - 1 - np.arange(n)))
    assert abs(row.sum() - n * math.sqrt(2)) <= 1e-12


def test_frame_without_angles_rejected():
    with pytest.raises(ConfigError, match="frame 1 has no angles"):
        ScanGeometry(n_x=4, n_y=4, angles_per_frame=((0.0,), (), (1.0,)),
                     detector_count=6)


def test_rows_are_angle_major():
    geom = make_geometry(6, 6, 3, 1)
    op = build_operator(geom, 0)
    d = geom.detector_count
    img = np.ones(36)
    sino = op.apply(img)
    assert sino.shape == (3 * d,)
    # a single angle's projector reproduces its block of rows
    sub = ScanGeometry(n_x=6, n_y=6,
                       angles_per_frame=((geom.angles_per_frame[0][1],),),
                       detector_count=d)
    block = build_operator(sub, 0).apply(img)
    np.testing.assert_allclose(sino[d:2 * d], block, atol=1e-12)


def test_simulated_noise_level_exact():
    frames = generate_frames(default_blocks_config(16, 16, 3))
    geom = make_geometry(16, 16, 5, 4, angle_offset=0.17)
    sino = simulate_sinograms(frames, geom, 0.01, 42)
    realized = noise_level(sino.sinograms, build_operators(geom), frames)
    assert abs(realized - 0.01) <= 1e-12


def test_simulation_deterministic():
    frames = generate_frames(default_blocks_config(12, 12, 2))
    geom = make_geometry(12, 12, 4, 3)
    a = simulate_sinograms(frames, geom, 0.02, 7)
    b = simulate_sinograms(frames, geom, 0.02, 7)
    for ya, yb in zip(a.sinograms, b.sinograms):
        assert np.array_equal(ya, yb)
    c = simulate_sinograms(frames, geom, 0.02, 8)
    assert not np.array_equal(a.sinograms[1], c.sinograms[1])


def test_simulation_rejects_negative_seed():
    frames = generate_frames(default_blocks_config(12, 12, 2))
    geom = make_geometry(12, 12, 4, 3)
    with pytest.raises(ConfigError, match="seed"):
        simulate_sinograms(frames, geom, 0.02, -1)


def test_zero_noise_is_exact_projection():
    frames = generate_frames(default_blocks_config(12, 12, 2))
    geom = make_geometry(12, 12, 4, 3)
    sino = simulate_sinograms(frames, geom, 0.0, 7)
    ops = build_operators(geom)
    for t in range(3):
        np.testing.assert_allclose(sino.sinograms[t],
                                   ops[t].apply(frames[t]), atol=1e-14)


def test_geometry_validation():
    for n_angles, n_frames in ((0, 2), (3, 0), (2.5, 2), (3, 2.0)):
        with pytest.raises(ConfigError):
            make_geometry(8, 8, n_angles, n_frames)
    assert make_geometry(8, 8, np.int64(3), 2).n_frames == 2


def test_detector_count_must_be_integer():
    for bad in (2.5, 0, -3, 12.0):
        with pytest.raises(ConfigError, match="detector_count"):
            make_geometry(8, 8, 3, 2, detector_count=bad)
    assert make_geometry(8, 8, 3, 2, detector_count=np.int64(12)).detector_count == 12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sinogram_set_rejects_non_finite(bad):
    geom = make_geometry(8, 8, 3, 2)
    sino = simulate_sinograms(np.ones((2, 64)), geom, 0.01, seed=0)
    frames = [y.copy() for y in sino.sinograms]
    frames[1][3] = bad
    with pytest.raises(NumericError, match="sinogram 1"):
        SinogramSet(geometry=geom, sinograms=frames)
