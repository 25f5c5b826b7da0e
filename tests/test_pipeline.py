"""Outer-loop orchestration: method parsing, iteration protocol, records."""

import time

import numpy as np
import pytest

from dynct import pipeline
from dynct._linalg import CHUNK_ELEMS, check_psd
from dynct.errors import ConfigError, NumericError
from dynct.linops import payload_nbytes
from dynct.metrics import MemoryTracker, PhaseTimer
from dynct.mmgks import K_MAX
from dynct.pipeline import (MethodSpec, MotionOptions, parse_method,
                            record_rows, run_emirkfs)
from dynct.prior import PriorConfig, ProjectionBasis, build_projection
from dynct.radon import build_operators, make_geometry
from helpers import build_problem, count_calls


def _run(method_name, n_iter=2, prob=None, tracker=None, motion_opts=None,
         with_truth=True):
    prob = prob or build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    method = parse_method(method_name, n_iter=n_iter)
    truth = prob["frames"].reshape(prob["n_steps"] + 1, -1) if with_truth else None
    record = run_emirkfs(prob["sino"], prob["h_ops"], prob["basis"], method,
                         motion_opts=motion_opts, truth=truth,
                         tracker=tracker)
    return prob, record


# -- method naming ------------------------------------------------------------

def test_parse_method_round_trips():
    cases = {
        "IRKFS": ("off", False),
        "EMIRKFS": ("off", True),
        "IRKFS-M1": ("m1", False),
        "IRKFS-M2": ("m2", False),
        "EMIRKFS-M3": ("m3", True),
    }
    for name, (motion, em) in cases.items():
        m = parse_method(name, n_iter=1)
        assert (m.motion, m.em) == (motion, em), name
        assert m.name == name
    assert parse_method("emirkfs-m2", n_iter=1).name == "EMIRKFS-M2"


def test_parse_method_rejects_unknown():
    for bad in ("FOO", "IRKFS-M4", "IRKFS-", "EMIRKFS-M0", ""):
        with pytest.raises(ConfigError):
            parse_method(bad, n_iter=1)


def test_method_spec_validation():
    with pytest.raises(ConfigError):
        MethodSpec(motion="m5", em=False, n_iter=1)
    for bad in (0, 1.5, 2.0):
        with pytest.raises(ConfigError, match="n_iter"):
            MethodSpec(motion="off", em=False, n_iter=bad)
    assert MethodSpec(n_iter=np.int64(2)).n_iter == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_settings_rejected(bad):
    with pytest.raises(ConfigError, match="finite"):
        MotionOptions(zeta=bad)


def test_motion_options_validation():
    with pytest.raises(ConfigError):
        MotionOptions(zeta=-0.5)
    for bad in ((0, 4), (2.5, 4), (4, 4.0), 8, (4,), (4, 4, 4), "44"):
        with pytest.raises(ConfigError, match="patch"):
            MotionOptions(patch=bad)
    assert MotionOptions().patch == (8, 8)
    assert MotionOptions(patch=[np.int64(4), 2]).patch == [4, 2]


# -- iteration protocol --------------------------------------------------------

def test_record_shapes_and_rre():
    prob, record = _run("EMIRKFS-M2", n_iter=2)
    T, n_s = prob["n_steps"], prob["n_s"]
    assert record.n_iter == 2
    assert len(record.trajectories) == 2
    for traj in record.trajectories:
        assert traj.shape == (T + 1, n_s)
    assert len(record.rre) == 2
    for r in record.rre:
        assert r.shape == (T + 1,)
        assert np.isfinite(r).all()
    assert record.mean_rre(1) == pytest.approx(float(np.mean(record.rre[0])))


def test_mean_rre_rejects_iterations_outside_the_passes():
    # rre[iteration - 1] would read the last pass at 0 and -1
    _, record = _run("IRKFS", n_iter=2)
    for bad in (0, -1, record.n_iter + 1):
        with pytest.raises(ConfigError, match=f"iteration {bad} is not in 1..2"):
            record.mean_rre(bad)


def test_identity_method_is_iteration_fixed_point():
    _, record = _run("IRKFS", n_iter=3)
    assert np.array_equal(record.trajectories[0], record.trajectories[1])
    assert np.array_equal(record.trajectories[1], record.trajectories[2])


def test_repeat_runs_bitwise_identical():
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    _, rec1 = _run("EMIRKFS-M3", n_iter=2, prob=prob,
                   motion_opts=MotionOptions(patch=(4, 4)))
    _, rec2 = _run("EMIRKFS-M3", n_iter=2, prob=prob,
                   motion_opts=MotionOptions(patch=(4, 4)))
    for a, b in zip(rec1.trajectories, rec2.trajectories):
        assert np.array_equal(a, b)


def test_phase_keys_follow_method():
    _, rec_off = _run("IRKFS", n_iter=1)
    assert set(rec_off.phase_seconds[0]) == {"filter", "smoother"}
    _, rec_m2 = _run("IRKFS-M2", n_iter=1)
    assert set(rec_m2.phase_seconds[0]) == {"filter", "smoother", "motion"}
    _, rec_em = _run("EMIRKFS", n_iter=1)
    assert set(rec_em.phase_seconds[0]) == {"filter", "smoother", "em"}
    _, rec_all = _run("EMIRKFS-M3", n_iter=1,
                      motion_opts=MotionOptions(patch=(4, 4)))
    assert set(rec_all.phase_seconds[0]) == {"filter", "smoother", "motion", "em"}


def test_phase_seconds_fit_in_the_pass(monkeypatch):
    # motion and em run inside the smoother sweep; counting them under
    # "smoother" too would overstate the pass in metrics.csv and evaluate
    starts = []

    def stamped_timer():
        starts.append(time.perf_counter())
        return PhaseTimer()

    monkeypatch.setattr(pipeline, "PhaseTimer", stamped_timer)
    _, record = _run("EMIRKFS-M1", n_iter=2)
    pass_wall = time.perf_counter() - starts[1]  # the second, last pass
    assert min(record.phase_seconds[1].values()) >= 0.0
    assert sum(record.phase_seconds[1].values()) <= pass_wall


@pytest.mark.parametrize("method_name", ["IRKFS", "EMIRKFS", "EMIRKFS-M1",
                                         "EMIRKFS-M2", "EMIRKFS-M3"])
def test_edge_run_shapes_stay_finite(method_name):
    # one transition (two frames), a non-square 12 x 8 grid and a full-rank
    # basis (r = n_s) at once
    prob = build_problem(n_x=12, n_y=8, n_steps=1, sigma=0.02)
    assert prob["basis"].rank == prob["n_s"] == 96
    _, record = _run(method_name, n_iter=2, prob=prob,
                     motion_opts=MotionOptions(patch=(4, 4)))
    for traj, rres in zip(record.trajectories, record.rre):
        assert traj.shape == (2, 96) and np.isfinite(traj).all()
        assert rres.shape == (2,) and np.isfinite(rres).all()


def test_tracker_balances_and_peaks():
    tracker = MemoryTracker()
    _, record = _run("EMIRKFS-M2", n_iter=2, tracker=tracker)
    assert tracker.current_bytes == tracker.current_reduced_bytes == 0
    assert record.peak_bytes == tracker.peak_bytes > 0
    assert record.peak_reduced_bytes == tracker.peak_reduced_bytes > 0
    assert record.budget_bytes > 0


@pytest.mark.parametrize("method_name, target, fail_at, where", [
    ("EMIRKFS-M3", "update_q_diag", 2, "timestep 2"),  # inside the M-step
    ("IRKFS-M3", "fit_motion", 2, "timestep 2"),       # in the motion re-fit
    ("EMIRKFS-M3", "run_filter", 2, "outer iteration 2"),
])
def test_tracker_returns_to_entry_when_a_run_raises(monkeypatch, method_name,
                                                    target, fail_at, where):
    # a caller's tracker with charges of its own: a run that raises leaves
    # both currents where they were at entry (the sweep meets timestep 2
    # second, after timestep 3)
    original = getattr(pipeline, target)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise NumericError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, target, failing)
    tracker = MemoryTracker()
    tracker.add(1000)
    tracker.add_reduced(500)
    with pytest.raises(NumericError, match=f"{where}: injected"):
        _run(method_name, n_iter=2, tracker=tracker)
    assert (tracker.current_bytes, tracker.current_reduced_bytes) == (1000, 500)
    assert tracker.peak_bytes > 1000 and tracker.peak_reduced_bytes > 500


def test_em_reduced_peak_holds_one_smoother_step(monkeypatch):
    # the filter's r x r history (T+1 packed triangles of r(r+1)/2 doubles:
    # L_1..L_T and F_T, the Cholesky factor of Lambda_T) plus one smoother
    # step (3 square r x r: Psi_i^sm, Psi_{i-1}^sm, omega_i), which the
    # M-step takes as formed; without EM only the history is held
    packed = []
    original = pipeline.run_filter

    def keep(*args, **kwargs):
        filt = original(*args, **kwargs)
        packed.extend([*filt.chol_packed, filt.info_chol_packed])
        return filt

    monkeypatch.setattr(pipeline, "run_filter", keep)
    prob, record = _run("EMIRKFS-M2", n_iter=2)
    T, r = prob["n_steps"], prob["basis"].rank
    tri = r * (r + 1) // 2
    assert len(packed) == 2 * (T + 1)
    assert all(a.shape == (tri,) and a.dtype == np.float64 for a in packed)
    assert record.peak_reduced_bytes == (T + 1) * tri * 8 + 3 * r * r * 8
    _, record = _run("IRKFS-M2", n_iter=2, prob=prob)
    assert record.peak_reduced_bytes == (T + 1) * tri * 8


def test_m3_charges_its_motion_vectors_once(monkeypatch):
    # an M3 operator holds its u and v as rows of the pass's smoothed means,
    # charged until the run returns, and owns only its denominators; the
    # full peak is reached as the last sweep ends, with both motion and
    # noise sets, x_0, x_est and both passes' x_sm charged
    original = pipeline.fit_motion
    ops = []

    def fit(*args, **kwargs):
        ops.append(original(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(pipeline, "fit_motion", fit)
    prob, record = _run("EMIRKFS-M3", n_iter=2,
                        motion_opts=MotionOptions(patch=(4, 4)))
    T, n_s, r = prob["n_steps"], prob["n_s"], prob["basis"].rank
    assert len(ops) == 2 * T
    for k, op in enumerate(ops):
        x_sm = record.trajectories[k // T]
        assert np.shares_memory(op.u, x_sm) and np.shares_memory(op.v, x_sm)
        assert payload_nbytes(op) == op.denoms.nbytes == 4 * 8  # 2 x 2 patches
    m_t = max(op.shape[0] for op in prob["h_ops"][1:])
    box_a, box_b = prob["basis"].box
    regroup = max(2 * op.matrix.nnz + 2 * op.shape[0] * prob["geom"].n_x
                  for op in prob["h_ops"])
    scratch = (4 * CHUNK_ELEMS + 8 * n_s + m_t * r + regroup
               + (box_a * box_b) ** 2)
    noise = sum(n_s + op.shape[0] for op in prob["h_ops"][1:])
    traj = (T + 1) * n_s
    want = scratch + 2 * noise + 2 * T * 4 + n_s + 3 * traj
    assert record.peak_bytes == want * 8


def test_m1_charges_the_flow_blocks_with_its_scratch(monkeypatch):
    # each flow solve allocates its own Krylov blocks (fit_motion is handed
    # no storage), charged once for the run inside the scratch allowance:
    # W (2 n_s), V W (n_s), Theta W and P Theta W (4 n_s each) per basis
    # vector, for the K_MAX vectors at which every solve restarts, the
    # K_MAX x K_MAX data Gram and V^T b's projection; the full peak is
    # reached as the last sweep ends, as for M3, with both passes' warps
    # charged
    original = pipeline.fit_motion
    ops = []

    def fit(*args, **kwargs):
        assert set(kwargs) == {"zeta", "patch"}
        ops.append(original(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(pipeline, "fit_motion", fit)
    prob, record = _run("EMIRKFS-M1", n_iter=2)
    T, n_s, r = prob["n_steps"], prob["n_s"], prob["basis"].rank
    assert len(ops) == 2 * T
    assert K_MAX < 2 * n_s
    flow = K_MAX * 11 * n_s + K_MAX * K_MAX + K_MAX
    m_t = max(op.shape[0] for op in prob["h_ops"][1:])
    box_a, box_b = prob["basis"].box
    regroup = max(2 * op.matrix.nnz + 2 * op.shape[0] * prob["geom"].n_x
                  for op in prob["h_ops"])
    scratch = (4 * CHUNK_ELEMS + 8 * n_s + m_t * r + regroup
               + (box_a * box_b) ** 2)
    noise = sum(n_s + op.shape[0] for op in prob["h_ops"][1:])
    traj = (T + 1) * n_s
    want = scratch + flow + 2 * noise + n_s + 3 * traj
    assert record.peak_bytes == want * 8 + sum(map(payload_nbytes, ops))


def _count_weighted_grams(monkeypatch, tag=lambda: None):
    """Record tag() at each basis Gram under non-uniform weights, the one
    that forms a product over the basis (uniform weights give
    diag(w_0 lambda))."""
    original = ProjectionBasis.gram
    calls = []

    def counted(self, w):
        if np.min(w) != np.max(w):
            calls.append(tag())
        return original(self, w)

    monkeypatch.setattr(ProjectionBasis, "gram", counted)
    return calls


def test_irkfs_forms_no_weighted_gram(monkeypatch):
    # under uniform Q (every IRKFS step) the basis Gram is diag(lambda)/q:
    # no n_s x r^2 weighted Gram anywhere in the run
    calls = _count_weighted_grams(monkeypatch)
    _run("IRKFS", n_iter=2)
    assert calls == []
    # the count does see the Gram: EMIRKFS's second pass has non-uniform Q
    _run("EMIRKFS", n_iter=2)
    assert calls


def test_smoother_forms_basis_gram_only_for_identity(monkeypatch):
    # pass 2 has non-uniform Q; the filter needs G_PP at every step, the
    # smoother only for an Identity motion, whose Gramians it is
    phase = ["filter"]
    calls = _count_weighted_grams(monkeypatch, lambda: phase[0])
    original = pipeline.run_smoother

    def smoother(*args, **kwargs):
        phase[0] = "smoother"
        try:
            return original(*args, **kwargs)
        finally:
            phase[0] = "filter"

    monkeypatch.setattr(pipeline, "run_smoother", smoother)
    prob, _ = _run("EMIRKFS-M3", n_iter=2)
    T = prob["n_steps"]
    assert calls == ["filter"] * T
    calls.clear()
    _run("EMIRKFS", n_iter=2, prob=prob)
    assert calls == ["filter"] * T + ["smoother"] * T


def test_truth_optional():
    _, record = _run("IRKFS", n_iter=1, with_truth=False)
    assert record.rre is None
    rows = record_rows(record)
    assert all(row.rre == "" for row in rows)


def test_record_rows_cover_everything():
    prob, record = _run("EMIRKFS-M2", n_iter=2)
    rows = record_rows(record)
    T = prob["n_steps"]
    rre_rows = [r for r in rows if r.rre != ""]
    assert len(rre_rows) == 2 * (T + 1)
    assert {r.iteration for r in rre_rows} == {"1", "2"}
    phase_rows = [r for r in rows if r.seconds != ""]
    assert {r.phase for r in phase_rows} == {"filter", "smoother", "motion", "em"}
    mem = {r.phase: r.bytes for r in rows if r.bytes != ""}
    assert set(mem) == {"peak_bytes", "peak_reduced_bytes", "budget_bytes"}
    assert all(r.method == record.method.name for r in rows)


def test_operator_count_validated_up_front():
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    method = parse_method("IRKFS", n_iter=1)
    with pytest.raises(ConfigError, match="operator per frame"):
        run_emirkfs(prob["sino"], prob["h_ops"][:-1], prob["basis"], method)


def test_basis_grid_must_match_the_geometry():
    # an 8 x 16 basis has the 16 x 8 geometry's pixel count but not its
    # grid: the basis products reshape by (n_x, n_y), so it is rejected
    prob = build_problem(n_x=16, n_y=8, n_steps=2, sigma=0.02)
    flipped = build_projection(8, 16, prob["basis"].config)
    assert flipped.n_s == prob["n_s"]
    for bad in (flipped, build_projection(16, 9, prob["basis"].config)):
        with pytest.raises(ConfigError, match="basis grid"):
            run_emirkfs(prob["sino"], prob["h_ops"], bad,
                        parse_method("IRKFS", n_iter=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_truth_raises(bad):
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    truth = prob["frames"].reshape(prob["n_steps"] + 1, -1).copy()
    truth[2, 5] = bad
    with pytest.raises(NumericError, match="non-finite"):
        run_emirkfs(prob["sino"], prob["h_ops"], prob["basis"],
                    parse_method("IRKFS", n_iter=1), truth=truth)


def test_zero_truth_frame_raises_before_any_pass(monkeypatch):
    # a zero frame has no RRE; the run names it before it filters anything
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    truth = prob["frames"].reshape(prob["n_steps"] + 1, -1).copy()
    truth[3] = 0.0
    calls = count_calls(monkeypatch, pipeline, "run_filter")
    with pytest.raises(ConfigError, match="truth frame 3 has zero norm"):
        run_emirkfs(prob["sino"], prob["h_ops"], prob["basis"],
                    parse_method("EMIRKFS-M3", n_iter=2), truth=truth)
    assert calls == []


def test_m3_patch_must_tile(monkeypatch):
    # the tiling is checked before the first pass, not by the first refit
    calls = count_calls(monkeypatch, pipeline, "run_filter")
    with pytest.raises(ConfigError,
                       match=r"patch \(z_x, z_y\) = \(3, 8\) does not tile"):
        _run("IRKFS-M3", n_iter=1, motion_opts=MotionOptions(patch=(3, 8)))
    assert calls == []


@pytest.mark.parametrize("n_x, n_y", [(8, 1), (1, 8)])
def test_m1_grid_needs_two_pixels_per_axis(monkeypatch, n_x, n_y):
    prob = build_problem(n_x=n_x, n_y=n_y, n_steps=3, sigma=0.02)
    calls = count_calls(monkeypatch, pipeline, "run_filter")
    with pytest.raises(ConfigError, match=f"at least 2 x 2 pixels, got {n_x} x {n_y}"):
        _run("EMIRKFS-M1", n_iter=1, prob=prob)
    assert calls == []
    # the same grid runs without the flow
    _run("EMIRKFS-M3", n_iter=1, prob=prob,
         motion_opts=MotionOptions(patch=(n_x, n_y)))


def test_operator_shape_must_match_geometry(monkeypatch):
    # a 3-angle H against 5-angle sinograms, at frame 0 or a later frame, is
    # named before the first pass, not left to a broadcast inside it
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    three = build_operators(make_geometry(8, 8, 3, 4, angle_offset=0.2))
    calls = count_calls(monkeypatch, pipeline, "run_filter")
    for t in (0, 2):
        h_ops = list(prob["h_ops"])
        h_ops[t] = three[t]
        with pytest.raises(ConfigError, match=f"forward operator {t} has shape"):
            run_emirkfs(prob["sino"], h_ops, prob["basis"],
                        parse_method("EMIRKFS", n_iter=1))
    assert calls == []


def test_em_variants_make_no_eigh_call(monkeypatch):
    # the M-step takes the smoothed covariances as formed and the smoother
    # guards them with a shifted Cholesky: no eigendecomposition and no
    # eigenvalues in the run
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    vals = count_calls(monkeypatch, np.linalg, "eigvalsh")
    for name in ("EMIRKFS-M3", "EMIRKFS"):
        _run(name, n_iter=2, prob=prob)
        assert calls == [], name
        assert vals == [], name
    # the counts do see both: the prior basis is built with eigh, and the
    # guard falls back to eigvalsh when its Cholesky fails
    build_projection(4, 4, PriorConfig(alpha=1.0, ell=0.7, rank=4))
    assert calls
    with pytest.raises(NumericError):
        check_psd(np.diag([1.0, -1.0]), "psi")
    assert vals
