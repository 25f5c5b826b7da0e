"""Outer loop driving filter, smoother, motion re-estimation, and noise updates.

One run executes n_iter passes. Each pass filters forward with the current
transition operators and noise diagonals, then makes one backward sweep.
At backward step i, as soon as x_{i-1}^sm exists, the sweep's hook refits
the transition operator for step i from (x_{i-1}^sm, x_i^sm) and then
re-estimates diag(R_i) and diag(Q_i) from the step's smoothed moments, using
that new operator. The pseudocode ordering therefore holds: the noise update
sees the new motion operators together with the moments computed under the
previous parameters (the sweep itself runs on the previous motions at every
step). Reduced covariances are formed only when the noise update is
enabled, since nothing else consumes them.

Method taxonomy: IRKFS (no updates), IRKFS-M1/M2/M3 (motion only),
EMIRKFS (noise only), EMIRKFS-M1/M2/M3 (both). The (off, off) variant is a
fixed point: every pass reproduces the first bitwise.

Memory protocol: run_emirkfs is the one place that charges the
MemoryTracker; the filter, smoother and M-step allocate, compute and
return. What it charges:

- Full space (budgeted), for the whole run: the scratch allowance for
  chunk transients, one whole m_t x r observation product H P, the index
  arrays by which ``basis.premultiply`` regroups the largest H and, when
  the run has an M-step (the only source of non-uniform Q), the
  A^2 x B^2 intermediate of the basis' non-uniform Gram and
  diag(P Psi P^T) ((A, B) = ``basis.box``), and under M1 the Krylov
  blocks of the one flow solve alive at a time
  (``motion.flow_basis_nbytes``: 11 n_s doubles per basis vector for the
  K_MAX vectors at which the solver restarts, and the K_MAX x K_MAX data
  Gram and projection: about 11 n_s K_MAX doubles, whatever max_iters
  is); the noise diagonals, what the motion operators own (M2/M3 hold
  rows of x_sm as u and v) and the initial mean x_0. New motion
  operators and noise diagonals are charged as each backward step makes
  them, next to the previous set, which is released when the sweep ends.
- Full space, per pass: the filtered means x_est from the filter's return
  to the end of the pass, and the smoothed means x_sm (x_est's shape) from
  just before the sweep until the run returns inside the RunRecord.
- Reduced (r x r; reported, not budgeted): the filter's history, its
  prediction factors L_1..L_T and the Cholesky factor F_T of the last
  information matrix Lambda_T, each a packed triangle of r(r+1)/2 doubles
  (``FilterResult.history_nbytes``), from its return to the end of the
  pass, and, while the M-step at step i runs, the one step the smoother
  holds: Psi_{i-1}^sm, Psi_i^sm and omega_i, r^2 doubles each. The
  reduced peak is therefore (T+1) r(r+1)/2 doubles, plus 3 r^2 under EM.
  The square L_i and F_T the smoother unpacks and the r x r products a
  filter or smoother step forms and drops are transients, not charged.

Every charge is released by the time the run returns or raises: both of
the tracker's currents go back to their values at entry, and the tracker
keeps the peaks. The basis is the caller's and is not charged: it holds
its 1-D factor blocks and their columns per basis column,
(n_x + n_y)(r + 1) doubles at most, never the n_s x r matrix P.

Phase timing: the motion and em phases run inside the smoother phase;
PhaseTimer keeps nested phases exclusive, so the phases of a pass add up to
no more than its wall time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import CHUNK_ELEMS
from .em import update_q_diag, update_r_diag
from .errors import ConfigError, DataIOError, NumericError, is_count

_WRAPPED = (ConfigError, DataIOError, NumericError)
from .filtering import NoiseModel, initial_noise, run_filter, static_init
from .linops import Identity, check_tiling, payload_nbytes
from .metrics import (MemoryTracker, MetricsRow, PhaseTimer,
                      memory_budget_bytes, rre)
from .motion import check_flow_grid, fit_motion, flow_basis_nbytes
from .prior import ProjectionBasis
from .radon import SinogramSet
from .smoothing import run_smoother

MOTION_KINDS = ("off", "m1", "m2", "m3")


@dataclass(frozen=True)
class MethodSpec:
    """One cell of the ablation lattice and its number of passes."""

    motion: str = "off"
    em: bool = False
    n_iter: int = 1

    def __post_init__(self):
        if self.motion not in MOTION_KINDS:
            raise ConfigError(f"MethodSpec: motion must be one of {MOTION_KINDS}")
        if not is_count(self.n_iter):
            raise ConfigError("MethodSpec: n_iter must be an integer >= 1")

    @property
    def name(self) -> str:
        base = "EMIRKFS" if self.em else "IRKFS"
        if self.motion != "off":
            base += "-" + self.motion.upper()
        return base


def parse_method(name: str, n_iter: int = 1) -> MethodSpec:
    """MethodSpec from a variant name like 'EMIRKFS-M3' (case-insensitive)."""
    head, dash, suffix = name.strip().upper().partition("-")
    if head not in ("IRKFS", "EMIRKFS") or (dash and suffix not in ("M1", "M2", "M3")):
        raise ConfigError(f"unknown method name {name!r}")
    return MethodSpec(motion=suffix.lower() if dash else "off",
                      em=head == "EMIRKFS", n_iter=n_iter)


@dataclass(frozen=True)
class MotionOptions:
    """Knobs for the motion estimators; ignored when motion is off.

    ``zeta`` is the regularizer of the M2/M3 fit ``PatchRank1``. ``patch``
    is the M3 tiling, which ``run_emirkfs`` checks (``check_tiling``)
    before its first pass; M2 ignores it and fits the whole image as one
    patch.
    """

    zeta: float = 0.0
    patch: tuple = (8, 8)

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise ConfigError("MotionOptions: zeta must be finite and >= 0")
        if not (isinstance(self.patch, (tuple, list)) and len(self.patch) == 2
                and all(map(is_count, self.patch))):
            raise ConfigError("MotionOptions: patch must be two positive ints")


@dataclass
class RunRecord:
    """Everything a run reports: trajectories, errors, timings, memory."""

    method: MethodSpec
    trajectories: list = field(default_factory=list)  # per pass, (T+1, n_s)
    rre: list | None = None                           # per pass, (T+1,) or None
    phase_seconds: list = field(default_factory=list)  # per pass, dict
    peak_bytes: int = 0
    peak_reduced_bytes: int = 0
    budget_bytes: int = 0

    @property
    def n_iter(self) -> int:
        return len(self.trajectories)

    def mean_rre(self, iteration: int) -> float:
        """Mean per-frame RRE for a 1-based outer iteration."""
        if self.rre is None:
            raise ConfigError("run had no ground truth; no RRE recorded")
        if not 1 <= iteration <= self.n_iter:
            raise ConfigError(f"mean_rre: iteration {iteration} is not in "
                              f"1..{self.n_iter}")
        return float(np.mean(self.rre[iteration - 1]))


def record_rows(record: RunRecord) -> list:
    """Serialize a RunRecord to metrics CSV rows.

    RRE rows carry (iteration, timestep, rre); timing rows carry
    (iteration, phase, seconds); memory rows reuse the phase column for the
    counter name and put the value in bytes.
    """
    name = record.method.name
    rows = []
    for j in range(1, record.n_iter + 1):
        if record.rre is not None:
            for t, val in enumerate(record.rre[j - 1]):
                rows.append(MetricsRow(method=name, iteration=str(j),
                                       timestep=str(t), rre=repr(float(val))))
        for phase, secs in sorted(record.phase_seconds[j - 1].items()):
            rows.append(MetricsRow(method=name, iteration=str(j), phase=phase,
                                   seconds=repr(float(secs))))
    for counter, value in (("peak_bytes", record.peak_bytes),
                           ("peak_reduced_bytes", record.peak_reduced_bytes),
                           ("budget_bytes", record.budget_bytes)):
        rows.append(MetricsRow(method=name, phase=counter, bytes=str(value)))
    return rows


def run_emirkfs(data: SinogramSet, h_ops, basis: ProjectionBasis,
                method: MethodSpec, motion_opts: MotionOptions | None = None,
                truth: np.ndarray | None = None,
                tracker: MemoryTracker | None = None) -> RunRecord:
    """Run one method variant over a sinogram set.

    h_ops[i] is the forward operator for frame i (frame 0 included; it only
    feeds the static initializer). truth, when given, is the (T+1, n_s)
    ground-truth trajectory used for per-frame RRE.
    """
    motion_opts = motion_opts or MotionOptions()
    tracker = tracker or MemoryTracker()
    geom = data.geometry
    n_x, n_y = geom.n_x, geom.n_y
    n_s = n_x * n_y
    n_steps = geom.n_frames - 1
    y_frames = data.sinograms
    if len(h_ops) != n_steps + 1:
        raise ConfigError("run_emirkfs: one forward operator per frame required")
    for t, op in enumerate(h_ops):
        if op.shape != (geom.frame_rows(t), n_s):
            raise ConfigError(f"run_emirkfs: forward operator {t} has shape "
                              f"{op.shape}, the geometry gives "
                              f"{(geom.frame_rows(t), n_s)}")
    if method.motion == "m1":
        check_flow_grid(n_x, n_y)
    if method.motion == "m3":
        check_tiling(n_x, n_y, *motion_opts.patch)
    if (basis.n_x, basis.n_y) != (n_x, n_y):
        raise ConfigError(f"run_emirkfs: basis grid {basis.n_x} x {basis.n_y} "
                          f"disagrees with the {n_x} x {n_y} image grid")
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (n_steps + 1, n_s):
            raise ConfigError("run_emirkfs: truth shape disagrees with the run")
        if not np.all(np.isfinite(truth)):
            raise NumericError("run_emirkfs: truth holds non-finite values")
        zero = np.flatnonzero(np.linalg.norm(truth, axis=1) == 0.0)
        if zero.size:
            raise ConfigError(f"run_emirkfs: truth frame {zero[0]} has zero "
                              "norm, so its RRE is undefined")

    m_t = max((op.shape[0] for op in h_ops[1:]), default=0)
    record = RunRecord(
        method=method,
        rre=None if truth is None else [],
        budget_bytes=memory_budget_bytes(n_s, basis.rank, n_steps, m_t),
    )

    # Scratch allowance for untracked transients: a few chunk-sized blocks
    # inside the Gramian loops and the basis products, a handful of
    # state-length vectors, the whole H P that the filter and
    # update_r_diag form, premultiply's regrouping of the largest H (its
    # column indices split into x and y and its (ray, x) keys, 2 nnz
    # doubles, and two (ray, x) pointer arrays; it reads the operator's CSR
    # arrays without copying them) and, under EM, the basis' A^2 x B^2
    # Kronecker intermediate and, under M1, the Krylov blocks of a flow
    # solve.
    box_a, box_b = basis.box
    kron_elems = (box_a * box_b) ** 2 if method.em else 0
    flow_bytes = flow_basis_nbytes(n_x, n_y) if method.motion == "m1" else 0
    regroup = max(2 * op.matrix.nnz + 2 * op.shape[0] * n_x for op in h_ops)
    scratch = (4 * CHUNK_ELEMS + 8 * n_s + m_t * basis.rank + regroup
               + kron_elems) * 8 + flow_bytes

    alpha = basis.config.alpha
    noise = initial_noise(alpha, n_s, [h_ops[i].shape[0] for i in range(1, n_steps + 1)])
    motions = [Identity(n_s) for _ in range(n_steps)]
    motion_bytes = 0

    entry_bytes = tracker.current_bytes
    entry_reduced = tracker.current_reduced_bytes
    try:
        tracker.add(scratch)
        tracker.add(noise.nbytes())
        x0 = static_init(h_ops[0], basis, y_frames[0])
        tracker.add(x0.nbytes)

        for j in range(1, method.n_iter + 1):
            timer = PhaseTimer()
            new_motions = list(motions)
            q_new = [None] * n_steps
            r_new = [None] * n_steps

            def refit(i, x_sm, psi_sm_prev, psi_sm_i, omega_i):
                """Transition i's motion, then its noise, from the step's moments."""
                try:
                    if method.motion != "off":
                        with timer.phase("motion"):
                            new_motions[i - 1] = fit_motion(
                                x_sm[i - 1], x_sm[i], n_x, n_y, method.motion,
                                zeta=motion_opts.zeta, patch=motion_opts.patch)
                        tracker.add(payload_nbytes(new_motions[i - 1]))
                    if method.em:
                        step_bytes = (psi_sm_prev.nbytes + psi_sm_i.nbytes
                                      + omega_i.nbytes)
                        tracker.add_reduced(step_bytes)
                        with timer.phase("em"):
                            r_new[i - 1] = update_r_diag(
                                y_frames[i], h_ops[i], x_sm[i], psi_sm_i, basis)
                            q_new[i - 1] = update_q_diag(
                                x_sm[i - 1], x_sm[i], psi_sm_prev, psi_sm_i,
                                omega_i, new_motions[i - 1], basis)
                        tracker.release_reduced(step_bytes)
                        tracker.add(r_new[i - 1].nbytes + q_new[i - 1].nbytes)
                except _WRAPPED as exc:
                    raise type(exc)(f"timestep {i}: {exc}") from exc

            try:
                with timer.phase("filter"):
                    filt = run_filter(y_frames, h_ops, motions, noise, basis, x0)
                history_bytes = filt.history_nbytes
                tracker.add(filt.x_est.nbytes)
                tracker.add_reduced(history_bytes)
                tracker.add(filt.x_est.nbytes)  # x_sm, which has x_est's shape
                with timer.phase("smoother"):
                    x_sm = run_smoother(filt, motions, noise, basis,
                                        with_covariance=method.em,
                                        on_step=refit)
                if method.motion != "off":
                    tracker.release(motion_bytes)
                    motion_bytes = sum(payload_nbytes(op) for op in new_motions)
                    motions = new_motions
                if method.em:
                    tracker.release(noise.nbytes())
                    noise = NoiseModel(q_diags=q_new, r_diags=r_new)
            except _WRAPPED as exc:
                raise type(exc)(f"outer iteration {j}: {exc}") from exc

            tracker.release(filt.x_est.nbytes)
            tracker.release_reduced(history_bytes)
            del filt  # as charged: the next pass filters without it
            # x_sm stays charged; the record owns it until the run returns.
            record.trajectories.append(x_sm)
            record.phase_seconds.append(timer.seconds)
            if truth is not None:
                record.rre.append(np.array(
                    [rre(x_sm[i], truth[i]) for i in range(n_steps + 1)]))
    finally:
        tracker.release(tracker.current_bytes - entry_bytes)
        tracker.release_reduced(tracker.current_reduced_bytes - entry_reduced)
        record.peak_bytes = tracker.peak_bytes
        record.peak_reduced_bytes = tracker.peak_reduced_bytes

    return record
