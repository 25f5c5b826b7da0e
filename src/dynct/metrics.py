"""Error metrics, phase timing, run-level memory accounting, and the
metrics CSV format shared by the pipeline and the CLI.

Memory accounting counts full-space (n_s-sized) and data-space (m_t-sized)
arrays allocated while a reconstruction runs: motion-applied basis blocks,
projected measurement blocks, per-frame trajectories and noise diagonals,
plus a scratch allowance for chunked temporaries and one whole H P.  Small reduced-space
(r x r) bookkeeping, caller-owned inputs, and returned results are not
charged; the point of the tracker is to bound the allocations the algorithm
itself adds on top of its inputs.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataIOError

CSV_FIELDS = ["method", "iteration", "timestep", "rre", "phase", "seconds", "bytes"]


def rre(x_hat: np.ndarray, x_ref: np.ndarray) -> float:
    """Relative reconstruction error ||x_hat - x_ref|| / ||x_ref||."""
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    x_ref = np.asarray(x_ref, dtype=float).ravel()
    if x_hat.shape != x_ref.shape:
        raise ConfigError("rre: shape mismatch "
                          f"{x_hat.shape} vs {x_ref.shape}")
    denom = np.linalg.norm(x_ref)
    if denom == 0.0:
        raise ConfigError("rre: reference has zero norm")
    return float(np.linalg.norm(x_hat - x_ref) / denom)


def noise_level(y, h_op, x_true) -> float:
    """Realized noise level ||y - H x_true|| / ||H x_true||.

    Accepts a single frame (vector, operator, vector) or a whole sequence
    (list of vectors, list of operators, (T+1, n_s) truth); the sequence
    form measures the global level over all stacked frames, which is the
    quantity the simulator's rescaling pins down.
    """
    if isinstance(y, (list, tuple)):
        if not (len(y) == len(h_op) == len(x_true)):
            raise ConfigError("noise_level: sequence lengths disagree")
        clean = np.concatenate([op.apply(np.asarray(x, dtype=float).ravel())
                                for op, x in zip(h_op, x_true)])
        noisy = np.concatenate([np.asarray(v, dtype=float).ravel() for v in y])
    else:
        clean = h_op.apply(np.asarray(x_true, dtype=float).ravel())
        noisy = np.asarray(y, dtype=float).ravel()
    denom = np.linalg.norm(clean)
    if denom == 0.0:
        raise ConfigError("noise_level: clean signal has zero norm")
    return float(np.linalg.norm(noisy - clean) / denom)


class MemoryTracker:
    """Byte counter for run-allocated working arrays, in two categories.

    The budgeted category ("full") covers arrays proportional to the state
    or data dimension: trajectories, noise diagonals, motion payloads,
    residual vectors, and the chunked scratch allowance. The reduced
    category covers r x r covariance bookkeeping (the filter's history of
    covariance factors, the smoother's current covariance pair and lag-one
    cross covariance); it is reported alongside but compared to no budget,
    matching the storage analysis the budget formula comes from.
    """

    def __init__(self):
        self._current = 0
        self._peak = 0
        self._current_reduced = 0
        self._peak_reduced = 0
        self._lock = threading.Lock()

    def add(self, nbytes: int) -> None:
        with self._lock:
            self._current += int(nbytes)
            if self._current > self._peak:
                self._peak = self._current

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._current -= int(nbytes)

    def add_reduced(self, nbytes: int) -> None:
        with self._lock:
            self._current_reduced += int(nbytes)
            if self._current_reduced > self._peak_reduced:
                self._peak_reduced = self._current_reduced

    def release_reduced(self, nbytes: int) -> None:
        with self._lock:
            self._current_reduced -= int(nbytes)

    def add_array(self, arr: np.ndarray) -> np.ndarray:
        self.add(arr.nbytes)
        return arr

    def release_array(self, arr: np.ndarray) -> None:
        self.release(arr.nbytes)

    def add_reduced_array(self, arr: np.ndarray) -> np.ndarray:
        self.add_reduced(arr.nbytes)
        return arr

    def release_reduced_array(self, arr: np.ndarray) -> None:
        self.release_reduced(arr.nbytes)

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def peak_reduced_bytes(self) -> int:
        return self._peak_reduced


class NullTracker(MemoryTracker):
    """Tracker that ignores everything; lets call sites skip None checks."""

    def add(self, nbytes: int) -> None:
        pass

    def release(self, nbytes: int) -> None:
        pass

    def add_reduced(self, nbytes: int) -> None:
        pass

    def release_reduced(self, nbytes: int) -> None:
        pass


def memory_budget_bytes(n_s: int, r: int, n_steps: int, m_t: int,
                        slack: float = 0.5) -> int:
    """(1 + slack) * (n_s (r + T) + T m_t) doubles, in bytes."""
    return int((1.0 + slack) * (n_s * (r + n_steps) + n_steps * m_t) * 8)


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Phases may nest; the time spent in an inner phase counts for it alone,
    not also for the phase around it, so the recorded seconds never add up
    to more than the wall time they cover.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._open: list[str] = []

    def phase(self, name: str) -> "_TimedPhase":
        return _TimedPhase(self, name)

    def record(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)


class _TimedPhase:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name

    def __enter__(self):
        self._timer._open.append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._t0
        open_phases = self._timer._open
        open_phases.pop()
        self._timer.record(self._name, elapsed)
        if open_phases:
            self._timer.record(open_phases[-1], -elapsed)
        return False


@dataclass
class MetricsRow:
    method: str
    iteration: str = ""
    timestep: str = ""
    rre: str = ""
    phase: str = ""
    seconds: str = ""
    bytes: str = ""

    def as_list(self) -> list[str]:
        return [self.method, self.iteration, self.timestep, self.rre,
                self.phase, self.seconds, self.bytes]


def write_metrics_csv(path, rows) -> None:
    """Write metric rows (MetricsRow or 7-element sequences)."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
            for row in rows:
                writer.writerow(row.as_list() if isinstance(row, MetricsRow)
                                else list(row))
    except OSError as exc:
        raise DataIOError(f"cannot write metrics csv {path}: {exc}") from exc


def read_metrics_csv(path) -> list[dict[str, str]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_FIELDS:
                raise ConfigError(
                    f"metrics csv {path}: unexpected header {reader.fieldnames}")
            return [dict(row) for row in reader]
    except OSError as exc:
        raise DataIOError(f"cannot read metrics csv {path}: {exc}") from exc
