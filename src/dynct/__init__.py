"""Dynamic CT reconstruction via reduced Kalman filtering and smoothing.

Tomographic frames are estimated in a low-rank subspace spanned by leading
prior-covariance modes; outer iterations re-fit the frame-to-frame motion
operators and the noise covariances from the smoothed trajectory.
"""

import os as _os

# Honor DYNCT_THREADS before numpy (and its BLAS) loads; explicit
# OMP/BLAS settings in the environment still win.
_threads = _os.environ.get("DYNCT_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import ConfigError, DataIOError, NumericError
from .filtering import (FilterResult, NoiseModel, initial_noise, run_filter,
                        static_init)
from .linops import Identity, LinearOperator, PatchRank1, SparseCSR
from .metrics import (MemoryTracker, PhaseTimer, memory_budget_bytes,
                      noise_level, read_metrics_csv, rre, write_metrics_csv)
from .mmgks import MMGKSConfig, MMGKSResult, mmgks_solve
from .motion import VelocityField, build_warp, estimate_velocity, fit_motion
from .phantom import BlocksConfig, default_blocks_config, generate_frames
from .pipeline import (MethodSpec, MotionOptions, RunRecord, parse_method,
                       record_rows, run_emirkfs)
from .prior import PriorConfig, ProjectionBasis, build_projection
from .radon import (ScanGeometry, SinogramSet, build_operator, build_operators,
                    make_geometry, simulate_sinograms)
from .smoothing import run_smoother

__version__ = "0.1.0"

__all__ = [
    "BlocksConfig", "ConfigError", "DataIOError",
    "FilterResult", "Identity", "LinearOperator", "MMGKSConfig",
    "MMGKSResult", "MemoryTracker", "MethodSpec", "MotionOptions",
    "NoiseModel", "NumericError", "PatchRank1", "PhaseTimer", "PriorConfig",
    "ProjectionBasis", "RunRecord", "ScanGeometry",
    "SinogramSet", "SparseCSR", "VelocityField",
    "build_operator", "build_operators", "build_projection", "build_warp",
    "default_blocks_config", "estimate_velocity", "fit_motion",
    "generate_frames", "initial_noise", "make_geometry",
    "memory_budget_bytes", "mmgks_solve", "noise_level", "parse_method",
    "read_metrics_csv", "record_rows", "rre", "run_emirkfs", "run_filter",
    "run_smoother", "simulate_sinograms", "static_init",
    "write_metrics_csv",
]
