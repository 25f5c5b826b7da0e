"""Parallel-beam Radon operators as sparse matrices.

Geometry conventions
--------------------
The image occupies the box [-n_x/2, n_x/2] x [-n_y/2, n_y/2] with unit
pixels; pixel (i, j) is centered at (i - (n_x-1)/2, j - (n_y-1)/2). A ray
with angle theta in [0, pi) and detector offset t is the line

    p(s) = t * (sin \theta, cos \theta) + s * (cos \theta, -sin \theta),

so theta = 0 integrates along axis 0 (one image column per detector cell)
and theta = pi/2 along axis 1. Detector cells have unit spacing and offsets
t_k = k - (D - 1)/2 for k = 0..D-1.

Each operator row holds the exact intersection lengths of one ray with the
pixel grid (Siddon, Med. Phys. 12(2), 1985): nonnegative weights, at most
n_x + n_y nonzeros per row. The rays of one angle are parallel, so they are
traced together in one array pass (``_trace_angle``): the crossing
parameters of every ray with the grid lines, clipped to the ray's slab and
sorted along it, bound its segments, and each segment's midpoint names its
pixel. Rows are ordered angle-major, row = a * D + k, with each row's
entries in order along the ray, the same order a ray-by-ray trace gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError, is_count
from .linops import SparseCSR

_PARALLEL_EPS = 1e-12


@dataclass(frozen=True)
class ScanGeometry:
    """Per-frame angle sets over a fixed image/detector grid."""

    n_x: int
    n_y: int
    angles_per_frame: tuple[tuple[float, ...], ...]
    detector_count: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigError("image dimensions must be positive")
        if self.detector_count < 1:
            raise ConfigError("detector_count must be positive")
        if not self.angles_per_frame:
            raise ConfigError("at least one frame of angles is required")
        for t, angles in enumerate(self.angles_per_frame):
            if not angles:
                raise ConfigError(f"frame {t} has no angles")
            for a in angles:
                if not (0.0 <= a < math.pi):
                    raise ConfigError(f"angles must lie in [0, pi), got {a}")

    @property
    def n_frames(self) -> int:
        return len(self.angles_per_frame)

    def frame_rows(self, t: int) -> int:
        return len(self.angles_per_frame[t]) * self.detector_count


def default_detector_count(n_x: int, n_y: int) -> int:
    return math.ceil(math.hypot(n_x, n_y))


def make_geometry(n_x, n_y, n_angles, n_frames, angle_offset=0.0,
                  detector_count=None) -> ScanGeometry:
    """Equispaced angles in [0, pi) with an optional per-frame rotation.

    Frame t uses angles (k*pi/n_angles + t*angle_offset) mod pi.
    """
    if not (is_count(n_angles) and is_count(n_frames)):
        raise ConfigError("n_angles and n_frames must be positive integers")
    if detector_count is None:
        detector_count = default_detector_count(n_x, n_y)
    elif not is_count(detector_count):
        raise ConfigError("detector_count must be a positive integer")
    base = np.arange(n_angles) * (math.pi / n_angles)
    frames = []
    for t in range(n_frames):
        ang = np.mod(base + t * angle_offset, math.pi)
        frames.append(tuple(float(a) for a in ang))
    return ScanGeometry(n_x=n_x, n_y=n_y, angles_per_frame=tuple(frames),
                        detector_count=int(detector_count))


def _trace_angle(theta, offsets, n_x, n_y):
    """(ray, flat pixel, length) of every segment of the rays at one angle.

    All rays of an angle are parallel, so they share which axes they cross;
    an axis they run along only decides which rays hit the grid. Each ray's
    crossings of the grid lines of every crossed axis, clipped to its slab
    [s_lo, s_hi] and sorted, bound its segments. Clipped and duplicate
    crossings leave zero-length segments, which are dropped; so is every
    segment of a ray that misses the box (s_lo >= s_hi), since clipping
    sets all its crossings to s_hi. Entries come ray by ray, in ascending s
    along each ray.
    """
    o = (offsets * math.sin(theta), offsets * math.cos(theta))
    d = (math.cos(theta), -math.sin(theta))
    half = (n_x / 2.0, n_y / 2.0)

    hit = np.ones(offsets.size, dtype=bool)
    s_lo, s_hi, crossings = -np.inf, np.inf, []
    for a, n in enumerate((n_x, n_y)):
        if abs(d[a]) < _PARALLEL_EPS:
            hit &= (-half[a] <= o[a]) & (o[a] <= half[a])
            continue
        s = (np.arange(n + 1) - half[a] - o[a][:, None]) / d[a]
        s_lo = np.maximum(s_lo, np.minimum(s[:, 0], s[:, -1]))
        s_hi = np.minimum(s_hi, np.maximum(s[:, 0], s[:, -1]))
        crossings.append(s)
    s = np.sort(np.clip(np.hstack(crossings), s_lo[:, None], s_hi[:, None]),
                axis=1)
    lengths = np.diff(s, axis=1)
    keep = (lengths > _PARALLEL_EPS) & hit[:, None]
    ray = np.nonzero(keep)[0]
    mids = 0.5 * (s[:, :-1] + s[:, 1:])[keep]
    i = np.clip(np.floor(o[0][ray] + mids * d[0] + half[0]).astype(np.int64), 0, n_x - 1)
    j = np.clip(np.floor(o[1][ray] + mids * d[1] + half[1]).astype(np.int64), 0, n_y - 1)
    return ray, i * n_y + j, lengths[keep]


def build_operator(geom: ScanGeometry, t: int) -> SparseCSR:
    """Sparse Radon operator for frame t: (|angles_t| * D) x (n_x * n_y)."""
    if not (0 <= t < geom.n_frames):
        raise ConfigError(f"frame index {t} out of range [0, {geom.n_frames})")
    D = geom.detector_count
    offsets = np.arange(D) - (D - 1) / 2.0
    rows, cols, vals = [], [], []
    for a, theta in enumerate(geom.angles_per_frame[t]):
        ray, c, w = _trace_angle(theta, offsets, geom.n_x, geom.n_y)
        rows.append(a * D + ray)
        cols.append(c)
        vals.append(w)
    m = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.frame_rows(t), geom.n_x * geom.n_y),
    )
    return SparseCSR(m)


def build_operators(geom: ScanGeometry) -> list[SparseCSR]:
    return [build_operator(geom, t) for t in range(geom.n_frames)]


@dataclass
class SinogramSet:
    """Stacked measurement data for one scan: sinograms[t] has length
    |angles_t| * detector_count, ordered angle-major, with finite entries."""

    geometry: ScanGeometry
    sinograms: list[np.ndarray]

    def __post_init__(self):
        if len(self.sinograms) != self.geometry.n_frames:
            raise ConfigError("one sinogram per frame required")
        for t, y in enumerate(self.sinograms):
            if y.shape != (self.geometry.frame_rows(t),):
                raise ConfigError(
                    f"sinogram {t} has shape {y.shape}, expected ({self.geometry.frame_rows(t)},)"
                )
            if not np.isfinite(y).all():
                raise NumericError(f"sinogram {t} has non-finite entries")


def simulate_sinograms(frames, geom: ScanGeometry, noise_level, seed,
                       operators=None) -> SinogramSet:
    """Forward-project frames and add white Gaussian noise.

    The noise draw is rescaled after the fact so the realized global noise
    level ||y - Hx|| / ||Hx|| equals ``noise_level`` exactly (all frames
    stacked). A zero clean signal or zero requested level yields y = Hx.
    A negative seed raises ConfigError.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] != geom.n_frames:
        raise ConfigError(
            f"frames must be ({geom.n_frames}, {geom.n_x * geom.n_y}), got {frames.shape}"
        )
    if noise_level < 0:
        raise ConfigError("noise level must be nonnegative")
    if seed is not None and seed < 0:
        raise ConfigError(f"noise seed must be nonnegative, got {seed}")
    if operators is None:
        operators = build_operators(geom)
    clean = [operators[t].apply(frames[t]) for t in range(geom.n_frames)]
    rng = np.random.default_rng(seed)
    noise = [rng.standard_normal(c.shape[0]) for c in clean]
    clean_norm = math.sqrt(sum(float(c @ c) for c in clean))
    noise_norm = math.sqrt(sum(float(e @ e) for e in noise))
    if noise_level == 0.0 or clean_norm == 0.0 or noise_norm == 0.0:
        scale = 0.0
    else:
        scale = noise_level * clean_norm / noise_norm
    y = [c + scale * e for c, e in zip(clean, noise)]
    return SinogramSet(geometry=geom, sinograms=y)
