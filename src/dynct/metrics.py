"""Error metrics, phase timing, run-level memory accounting, and the
metrics CSV format shared by the pipeline and the CLI.

Memory accounting is a byte counter with two categories: full-space
(n_s- or m_t-sized) arrays, which the budget bounds, and reduced-space
(r x r) arrays, which are reported next to it. The tracker only counts;
``pipeline.run_emirkfs`` decides what a run charges and when (see its
module docstring). Caller-owned inputs (operators, sinograms, the basis)
are not charged: the point is to bound what the algorithm adds on top of
its inputs.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, DataIOError, NumericError

# Headroom of the run memory budget over its n_s (r + T) + T m_t doubles.
BUDGET_SLACK = 0.5

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


def noise_level(y, h_ops, x_true) -> float:
    """Realized noise level ||y - H x_true|| / ||H x_true|| of a sequence.

    y and h_ops hold one sinogram and one operator per frame, x_true one
    frame per row; the level is global over all stacked frames, which is
    the quantity the simulator's rescaling pins down.
    """
    if not (len(y) == len(h_ops) == len(x_true)):
        raise ConfigError("noise_level: sequence lengths disagree")
    clean = np.concatenate([op.apply(np.asarray(x, dtype=float).ravel())
                            for op, x in zip(h_ops, x_true)])
    noisy = np.concatenate([np.asarray(v, dtype=float).ravel() for v in y])
    denom = np.linalg.norm(clean)
    if denom == 0.0:
        raise ConfigError("noise_level: clean signal has zero norm")
    return float(np.linalg.norm(noisy - clean) / denom)


@dataclass
class MemoryTracker:
    """Current and peak bytes in two categories.

    The full category holds arrays proportional to the state or data
    dimension and is what ``memory_budget_bytes`` bounds. The reduced
    category holds r x r arrays (covariance factors and smoothed
    covariances); it is reported alongside but compared to no budget,
    matching the storage analysis the budget formula comes from.
    """

    current_bytes: int = 0
    peak_bytes: int = 0
    current_reduced_bytes: int = 0
    peak_reduced_bytes: int = 0

    def add(self, nbytes: int) -> None:
        self.current_bytes += int(nbytes)
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def release(self, nbytes: int) -> None:
        self.current_bytes -= int(nbytes)

    def add_reduced(self, nbytes: int) -> None:
        self.current_reduced_bytes += int(nbytes)
        self.peak_reduced_bytes = max(self.peak_reduced_bytes,
                                      self.current_reduced_bytes)

    def release_reduced(self, nbytes: int) -> None:
        self.current_reduced_bytes -= int(nbytes)


def memory_budget_bytes(n_s: int, r: int, n_steps: int, m_t: int) -> int:
    """(1 + BUDGET_SLACK) * (n_s (r + T) + T m_t) doubles, in bytes."""
    return int((1.0 + BUDGET_SLACK) * (n_s * (r + n_steps) + n_steps * m_t) * 8)


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Phases may nest; the time spent in an inner phase counts for it alone,
    not also for the phase around it, so the recorded seconds never add up
    to more than the wall time they cover.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._open: list[str] = []

    @contextmanager
    def phase(self, name: str):
        """Time the body as phase ``name``, also when it raises."""
        self._open.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._open.pop()
            self.record(name, elapsed)
            if self._open:
                self.record(self._open[-1], -elapsed)

    def record(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)


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
        return list(astuple(self))


CSV_FIELDS = [f.name for f in fields(MetricsRow)]


def write_metrics_csv(path, rows) -> None:
    """Write MetricsRow rows under the CSV_FIELDS header."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
            for row in rows:
                writer.writerow(row.as_list())
    except OSError as exc:
        raise DataIOError(f"cannot write metrics csv {path}: {exc}") from exc


def read_metrics_csv(path) -> list[dict[str, str]]:
    """Rows of a metrics CSV as dicts keyed by CSV_FIELDS (blank lines
    skipped). A foreign header raises ConfigError; a row of the wrong
    length, or an rre, seconds or bytes that does not parse, raises
    DataIOError, and a non-finite one NumericError, each naming the file
    and line."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            lines = [(reader.line_num, cells) for cells in reader if cells]
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataIOError(f"cannot read metrics csv {path}: {exc}") from exc
    if header != CSV_FIELDS:
        raise ConfigError(f"metrics csv {path}: unexpected header {header}")
    rows = []
    for line, cells in lines:
        where = f"metrics csv {path}, line {line}"
        if len(cells) != len(CSV_FIELDS):
            raise DataIOError(f"{where}: {len(cells)} fields, expected "
                              f"{len(CSV_FIELDS)}")
        row = dict(zip(CSV_FIELDS, cells))
        for key, parse in (("rre", float), ("seconds", float), ("bytes", int)):
            if not row[key]:
                continue
            try:
                value = parse(row[key])
            except ValueError:
                raise DataIOError(f"{where}: {key} {row[key]!r} is not "
                                  "a number") from None
            if not math.isfinite(value):
                raise NumericError(f"{where}: {key} {row[key]!r} is not "
                                   "finite")
        rows.append(row)
    return rows
