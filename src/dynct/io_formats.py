"""File formats and run configuration.

Frames and sinograms live in flat little-endian float64 binaries with a
plain-text sidecar (`<name>.bin` + `<name>.txt`) recording dtype, ordering,
and dimensions; that round-trips bitwise and parses from anything. Configs
are INI files (configparser) with a fixed section/key schema; unknown keys
or sections are rejected before any computation. Manifests are JSON with a
content hash over the written binaries.
"""

import configparser
import hashlib
import json
import math
import os

import numpy as np

from .errors import ConfigError, DataIOError, NumericError
from .linops import check_tiling
from .motion import check_flow_grid
from .phantom import default_blocks_config
from .pipeline import MotionOptions, parse_method
from .prior import PriorConfig
from .radon import make_geometry

_SIDECAR_DTYPE = "float64-le"
_SIDECAR_ORDER = "row-major"

DEFAULT_NOISE_LEVEL = 0.01


# ---------------------------------------------------------------------------
# flat binary frames

def write_array(path_base, arr) -> None:
    """Write `<base>.bin` (flat LE float64) plus `<base>.txt` sidecar."""
    arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    try:
        with open(path_base + ".bin", "wb") as fh:
            fh.write(arr.tobytes())
        with open(path_base + ".txt", "w") as fh:
            fh.write(f"dtype: {_SIDECAR_DTYPE}\n")
            fh.write(f"order: {_SIDECAR_ORDER}\n")
            fh.write("shape: " + " ".join(str(d) for d in arr.shape) + "\n")
    except OSError as exc:
        raise DataIOError(f"cannot write {path_base}: {exc}") from exc


def read_array(path_base) -> np.ndarray:
    """Read an array written by write_array; validates the sidecar and
    rejects non-finite values (NumericError)."""
    meta = {}
    try:
        with open(path_base + ".txt") as fh:
            for line in fh:
                if line.strip():
                    key, _, val = line.partition(":")
                    meta[key.strip()] = val.strip()
        raw = np.fromfile(path_base + ".bin", dtype="<f8")
    except OSError as exc:
        raise DataIOError(f"cannot read {path_base}: {exc}") from exc
    if meta.get("dtype") != _SIDECAR_DTYPE or meta.get("order") != _SIDECAR_ORDER:
        raise DataIOError(f"{path_base}: unsupported sidecar {meta}")
    try:
        shape = tuple(int(tok) for tok in meta.get("shape", "").split())
    except ValueError as exc:
        raise DataIOError(f"{path_base}: bad shape line") from exc
    if any(d < 0 for d in shape):
        raise DataIOError(f"{path_base}: negative dimension in shape {shape}")
    if int(np.prod(shape)) != raw.size:
        raise DataIOError(f"{path_base}: sidecar shape {shape} does not match "
                          f"{raw.size} values")
    if not np.isfinite(raw).all():
        raise NumericError(f"{path_base}: holds non-finite values")
    return raw.reshape(shape)


def write_pgm(path, image_2d) -> None:
    """8-bit PGM export for eyeballing; rescales to the frame's range."""
    img = np.asarray(image_2d, dtype=float)
    if img.ndim != 2:
        raise ConfigError("write_pgm: expected a 2-D image")
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.clip((img - lo) * scale, 0, 255).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
            fh.write(pix.tobytes())
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration (INI schema)

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


def _parse_bool(raw: str) -> bool:
    val = _BOOL_VALUES.get(raw.strip().lower())
    if val is None:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return val


_SCHEMA = {
    "phantom": {"n_x": int, "n_y": int, "n_frames": int},
    "scan": {"n_angles": int, "detector_count": int, "rotate_per_frame": float},
    "prior": {"alpha": float, "ell": float, "rank": int},
    "method": {"name": str, "n_iter": int},
    "motion": {"zeta": float, "z_x": int, "z_y": int},
    "noise": {"sigma": float, "seed": int},
    "output": {"directory": str, "pgm": _parse_bool},
}

_REQUIRED = {
    "phantom": ("n_x", "n_y", "n_frames"),
    "prior": ("alpha", "ell", "rank"),
    "scan": ("n_angles",),
    "method": ("name",),
    "output": ("directory",),
}

class RunConfig:
    """Validated run parameters; the README's CLI section documents the
    config schema."""

    def __init__(self, sections: dict):
        for sect, keys in sections.items():
            if sect not in _SCHEMA:
                raise ConfigError(f"config: unknown section [{sect}]")
            for key in keys:
                if key not in _SCHEMA[sect]:
                    raise ConfigError(f"config: unknown key {sect}.{key}")
        for sect, keys in _REQUIRED.items():
            for key in keys:
                if key not in sections.get(sect, {}):
                    raise ConfigError(f"config: missing required key {sect}.{key}")

        def get(sect, key, default=None):
            raw = sections.get(sect, {}).get(key)
            if raw is None:
                return default
            conv = _SCHEMA[sect][key]
            try:
                return conv(raw)
            except ValueError as exc:
                raise ConfigError(f"config: {sect}.{key}: {exc}") from exc

        self.n_x = get("phantom", "n_x")
        self.n_y = get("phantom", "n_y")
        self.n_frames = get("phantom", "n_frames")
        if self.n_frames < 2:
            raise ConfigError("config: phantom.n_frames must be >= 2")
        self.phantom = default_blocks_config(self.n_x, self.n_y,
                                             n_steps=self.n_frames - 1)

        self.n_angles = get("scan", "n_angles")
        self.detector_count = get("scan", "detector_count")  # None: derived
        self.rotate_per_frame = get("scan", "rotate_per_frame", 0.0)

        self.prior = PriorConfig(alpha=get("prior", "alpha"),
                                 ell=get("prior", "ell"),
                                 rank=get("prior", "rank"))

        self.method = parse_method(get("method", "name"),
                                   n_iter=get("method", "n_iter", 1))
        self.motion = MotionOptions(
            zeta=get("motion", "zeta", 0.0),
            patch=(get("motion", "z_x", 8), get("motion", "z_y", 8)))

        self.sigma = get("noise", "sigma", DEFAULT_NOISE_LEVEL)
        self.noise_seed = get("noise", "seed", 1)
        self.output_dir = get("output", "directory")
        self.write_pgm = get("output", "pgm", False)

        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError("config: noise.sigma must be finite and >= 0")
        if self.noise_seed < 0:
            raise ConfigError("config: noise.seed must be >= 0")
        try:
            where = "scan.n_angles/detector_count"
            self.geometry = make_geometry(
                self.n_x, self.n_y, self.n_angles, self.n_frames,
                angle_offset=self.rotate_per_frame,
                detector_count=self.detector_count)
            if self.method.motion == "m3":
                where = "motion.z_x/z_y"
                check_tiling(self.n_x, self.n_y, *self.motion.patch)
            elif self.method.motion == "m1":
                where = "phantom.n_x/n_y"
                check_flow_grid(self.n_x, self.n_y)
        except ConfigError as exc:
            raise ConfigError(f"config: {where}: {exc}") from exc
        if self.prior.rank > self.n_x * self.n_y:
            raise ConfigError(
                f"config: prior.rank: rank {self.prior.rank} exceeds state "
                f"dimension {self.n_x * self.n_y}")

    def manifest_params(self) -> dict:
        """Every numerics-relevant parameter, for the run manifest."""
        return {
            "n_x": self.n_x, "n_y": self.n_y, "n_frames": self.n_frames,
            "n_angles": self.n_angles, "detector_count": self.detector_count,
            "rotate_per_frame": self.rotate_per_frame,
            "alpha": self.prior.alpha, "ell": self.prior.ell,
            "rank": self.prior.rank,
            "method": self.method.name, "n_iter": self.method.n_iter,
            "zeta": self.motion.zeta, "patch": list(self.motion.patch),
            "sigma": self.sigma, "noise_seed": self.noise_seed,
        }


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise DataIOError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    sections = {sect: dict(parser.items(sect)) for sect in parser.sections()}
    return RunConfig(sections)


# ---------------------------------------------------------------------------
# manifests

def content_hash(paths) -> str:
    """sha256 over the given files' bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.basename(path).encode())
        try:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
        except OSError as exc:
            raise DataIOError(f"cannot hash {path}: {exc}") from exc
    return digest.hexdigest()


def write_manifest(path, params: dict, files) -> None:
    payload = {"params": params,
               "files": sorted(os.path.basename(p) for p in files),
               "content_sha256": content_hash(files)}
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise DataIOError(f"cannot write manifest {path}: {exc}") from exc


def read_manifest(path) -> dict:
    """Read a manifest written by write_manifest: a JSON object whose
    ``params`` is an object."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataIOError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataIOError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("params"), dict)):
        raise DataIOError(
            f"manifest {path} is not an object with a 'params' object")
    return manifest
