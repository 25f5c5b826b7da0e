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

Memory protocol: all run-lifetime allocations are charged to a MemoryTracker.
Full-space charges (trajectories, noise diagonals, motion payloads, the
chunk scratch allowance) fall under the budgeted category; r x r charges
(the filter's covariance history, the one step the smoother holds and the
M-step's PSD factors of that step's two smoothed covariances) go to the
reduced category, which is reported but not budgeted. New motion
operators and noise diagonals are charged as each backward step makes them,
next to the previous set, which is released when the sweep ends. Charges
for arrays handed to the caller inside the RunRecord are released on
return; the tracker keeps the peak.

Phase timing: the motion and em phases run inside the smoother phase;
PhaseTimer keeps nested phases exclusive, so the phases of a pass add up to
no more than its wall time.
"""

from dataclasses import dataclass, field

import numpy as np

from ._linalg import CHUNK_ELEMS
from .em import psd_factor, update_q_diag, update_r_diag
from .errors import ConfigError, DataIOError, NumericError

_WRAPPED = (ConfigError, DataIOError, NumericError)
from .filtering import (NoiseModel, initial_noise, release_filter_result,
                        run_filter, static_init)
from .linops import Identity, payload_nbytes
from .metrics import (MemoryTracker, MetricsRow, NullTracker, PhaseTimer,
                      memory_budget_bytes, rre)
from .mmgks import MMGKSConfig
from .motion import fit_motion
from .prior import ProjectionBasis
from .radon import SinogramSet
from .smoothing import run_smoother

MOTION_KINDS = ("off", "m1", "m2", "m3")


@dataclass(frozen=True)
class MethodSpec:
    """One cell of the ablation lattice plus its initial noise scales."""

    motion: str = "off"
    em: bool = False
    n_iter: int = 1
    q_scale: float = 1.0
    r_scale: float = 1.0

    def __post_init__(self):
        if self.motion not in MOTION_KINDS:
            raise ConfigError(f"MethodSpec: motion must be one of {MOTION_KINDS}")
        if self.n_iter < 1:
            raise ConfigError("MethodSpec: n_iter must be >= 1")
        if self.q_scale <= 0 or self.r_scale <= 0:
            raise ConfigError("MethodSpec: noise scales must be positive")

    @property
    def name(self) -> str:
        base = "EMIRKFS" if self.em else "IRKFS"
        if self.motion != "off":
            base += "-" + self.motion.upper()
        return base


def parse_method(name: str, n_iter: int = 1, q_scale: float = 1.0,
                 r_scale: float = 1.0) -> MethodSpec:
    """MethodSpec from a variant name like 'EMIRKFS-M3' (case-insensitive)."""
    tag = name.strip().upper()
    head, dash, suffix = tag.partition("-")
    if head == "EMIRKFS":
        em = True
    elif head == "IRKFS":
        em = False
    else:
        raise ConfigError(f"unknown method name {name!r}")
    if suffix == "" and not dash:
        motion = "off"
    elif suffix in ("M1", "M2", "M3"):
        motion = suffix.lower()
    else:
        raise ConfigError(f"unknown method name {name!r}")
    return MethodSpec(motion=motion, em=em, n_iter=n_iter,
                      q_scale=q_scale, r_scale=r_scale)


@dataclass(frozen=True)
class MotionOptions:
    """Knobs for the motion estimators; ignored when motion is off."""

    zeta: float = 0.0
    patch: tuple = (8, 8)
    flow: MMGKSConfig | None = None

    def __post_init__(self):
        if self.zeta < 0:
            raise ConfigError("MotionOptions: zeta must be >= 0")
        if len(self.patch) != 2 or min(self.patch) < 1:
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
                tracker: MemoryTracker | None = None,
                callback=None) -> RunRecord:
    """Run one method variant over a sinogram set.

    h_ops[i] is the forward operator for frame i (frame 0 included; it only
    feeds the static initializer). truth, when given, is the (T+1, n_s)
    ground-truth trajectory used for per-frame RRE. callback(j, x_sm) fires
    after each pass with the stored smoothed trajectory (do not mutate).
    """
    motion_opts = motion_opts or MotionOptions()
    tracker = tracker or NullTracker()
    geom = data.geometry
    n_x, n_y = geom.n_x, geom.n_y
    n_s = n_x * n_y
    n_steps = geom.n_frames - 1
    y_frames = data.sinograms
    if len(h_ops) != n_steps + 1:
        raise ConfigError("run_emirkfs: one forward operator per frame required")
    if basis.P.shape[0] != n_s:
        raise ConfigError("run_emirkfs: basis rows disagree with the image grid")
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (n_steps + 1, n_s):
            raise ConfigError("run_emirkfs: truth shape disagrees with the run")
        if not np.all(np.isfinite(truth)):
            raise NumericError("run_emirkfs: truth holds non-finite values")

    m_t = max((op.shape[0] for op in h_ops[1:]), default=0)
    record = RunRecord(
        method=method,
        rre=None if truth is None else [],
        budget_bytes=memory_budget_bytes(n_s, basis.rank, n_steps, m_t),
    )

    # Scratch allowance for untracked transients: a few chunk-sized blocks
    # inside the Gramian loops plus a handful of state-length vectors.
    scratch = (4 * CHUNK_ELEMS + 8 * n_s) * 8
    tracker.add(scratch)

    alpha = basis.config.alpha
    noise = initial_noise(alpha, n_s, [h_ops[i].shape[0] for i in range(1, n_steps + 1)],
                          q_scale=method.q_scale, r_scale=method.r_scale)
    tracker.add(noise.nbytes())
    motions = [Identity(n_s) for _ in range(n_steps)]
    motion_bytes = 0

    x0, psi0 = static_init(h_ops[0], basis, y_frames[0])
    tracker.add_array(x0)
    tracker.add_reduced_array(psi0)

    P = basis.P
    try:
        for j in range(1, method.n_iter + 1):
            timer = PhaseTimer()
            new_motions = list(motions)
            q_new = [None] * n_steps
            r_new = [None] * n_steps
            # PSD factors of the smoothed covariances by frame; each is made
            # once and kept for two steps (Psi_{i-1}^sm at step i is step
            # i-1's Psi_i^sm).
            factors = {}

            def factor(k, psi_sm):
                if k not in factors:
                    factors[k] = tracker.add_reduced_array(
                        psd_factor(psi_sm, f"smoothed covariance {k}"))
                return factors[k]

            def refit(i, x_sm, psi_sm_prev, psi_sm_i, gain_i):
                """Transition i's motion, then its noise, from the step's moments."""
                try:
                    if method.motion != "off":
                        with timer.phase("motion"):
                            new_motions[i - 1] = fit_motion(
                                x_sm[i - 1], x_sm[i], n_x, n_y, method.motion,
                                zeta=motion_opts.zeta, patch=motion_opts.patch,
                                flow_config=motion_opts.flow)
                        tracker.add(payload_nbytes(new_motions[i - 1]))
                    if method.em:
                        with timer.phase("em"):
                            a_i = factor(i, psi_sm_i)
                            a_prev = factor(i - 1, psi_sm_prev)
                            r_new[i - 1] = update_r_diag(
                                y_frames[i], h_ops[i], x_sm[i], a_i, P)
                            q_new[i - 1] = update_q_diag(
                                x_sm[i - 1], x_sm[i], a_prev, a_i,
                                psi_sm_i @ gain_i @ filt.psi_est[i - 1],
                                new_motions[i - 1], P)
                        tracker.release_reduced_array(factors.pop(i))
                        if i == 1:
                            tracker.release_reduced_array(factors.pop(0))
                        tracker.add(r_new[i - 1].nbytes + q_new[i - 1].nbytes)
                except _WRAPPED as exc:
                    raise type(exc)(f"timestep {i}: {exc}") from exc

            try:
                with timer.phase("filter"):
                    filt = run_filter(y_frames, h_ops, motions, noise, basis,
                                      x0, psi0, tracker)
                with timer.phase("smoother"):
                    x_sm = run_smoother(filt, motions, noise, basis,
                                        with_covariance=method.em,
                                        tracker=tracker, on_step=refit)
                if method.motion != "off":
                    tracker.release(motion_bytes)
                    motion_bytes = sum(payload_nbytes(op) for op in new_motions)
                    motions = new_motions
                if method.em:
                    tracker.release(noise.nbytes())
                    noise = NoiseModel(q_diags=q_new, r_diags=r_new)
            except _WRAPPED as exc:
                raise type(exc)(f"outer iteration {j}: {exc}") from exc

            release_filter_result(filt, tracker)
            # x_sm stays charged; the record owns it until the run returns.
            record.trajectories.append(x_sm)
            record.phase_seconds.append(timer.seconds)
            if truth is not None:
                record.rre.append(np.array(
                    [rre(x_sm[i], truth[i]) for i in range(n_steps + 1)]))
            if callback is not None:
                callback(j, x_sm)
    finally:
        tracker.release(scratch + motion_bytes + noise.nbytes())
        tracker.release_array(x0)
        tracker.release_reduced_array(psi0)
        for traj in record.trajectories:
            tracker.release_array(traj)
        record.peak_bytes = tracker.peak_bytes
        record.peak_reduced_bytes = tracker.peak_reduced_bytes

    return record
