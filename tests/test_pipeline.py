"""Outer-loop orchestration: method parsing, iteration protocol, records."""

import sys
import time

import numpy as np
import pytest

from dynct import _linalg
from dynct.errors import ConfigError, NumericError
from dynct.metrics import MemoryTracker
from dynct.pipeline import (MethodSpec, MotionOptions, parse_method,
                            record_rows, run_emirkfs)
from helpers import build_problem


def _run(method_name, n_iter=2, prob=None, tracker=None, callback=None,
         motion_opts=None, with_truth=True, q_scale=1.0, r_scale=1.0):
    prob = prob or build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    method = parse_method(method_name, n_iter=n_iter, q_scale=q_scale,
                          r_scale=r_scale)
    truth = prob["frames"].reshape(prob["n_steps"] + 1, -1) if with_truth else None
    record = run_emirkfs(prob["sino"], prob["h_ops"], prob["basis"], method,
                         motion_opts=motion_opts, truth=truth,
                         tracker=tracker, callback=callback)
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
    with pytest.raises(ConfigError):
        MethodSpec(motion="off", em=False, n_iter=0)
    with pytest.raises(ConfigError):
        MethodSpec(motion="off", em=False, n_iter=1, q_scale=0.0)
    with pytest.raises(ConfigError):
        MethodSpec(motion="off", em=False, n_iter=1, r_scale=-2.0)


def test_motion_options_validation():
    with pytest.raises(ConfigError):
        MotionOptions(zeta=-0.5)
    with pytest.raises(ConfigError):
        MotionOptions(patch=(0, 4))
    assert MotionOptions().patch == (8, 8)


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


def test_phase_seconds_fit_in_the_pass():
    # motion and em run inside the smoother sweep; counting them under
    # "smoother" too would overstate the pass in metrics.csv and evaluate
    stamps = []
    _, record = _run("EMIRKFS-M1", n_iter=2,
                     callback=lambda j, traj: stamps.append(time.perf_counter()))
    pass_wall = stamps[1] - stamps[0]
    assert min(record.phase_seconds[1].values()) >= 0.0
    assert sum(record.phase_seconds[1].values()) <= pass_wall


def test_callback_sees_each_iteration():
    seen = []
    _run("IRKFS-M2", n_iter=3, callback=lambda j, traj: seen.append((j, traj.shape)))
    assert [j for j, _ in seen] == [1, 2, 3]


def test_tracker_balances_and_peaks():
    tracker = MemoryTracker()
    _, record = _run("EMIRKFS-M2", n_iter=2, tracker=tracker)
    assert tracker.current_bytes == 0
    assert record.peak_bytes == tracker.peak_bytes > 0
    assert record.peak_reduced_bytes == tracker.peak_reduced_bytes > 0
    assert record.budget_bytes > 0


def test_em_reduced_peak_holds_one_smoother_step():
    # filter history (T+1, the initial covariance its first entry), smoother
    # step (3) and the M-step's two covariance factors (2); histories of
    # smoothed covariances, gains or factors would not fit
    prob, record = _run("EMIRKFS-M2", n_iter=2, tracker=MemoryTracker())
    T, r = prob["n_steps"], prob["basis"].rank
    assert 0 < record.peak_reduced_bytes <= (T + 6) * r * r * 8


def test_irkfs_forms_no_weighted_gram(monkeypatch):
    # under uniform Q (every IRKFS step) the basis Gram is diag(lambda)/q:
    # no n_s x r^2 weighted Gram anywhere in the run
    original = _linalg.weighted_gram
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dynct"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    _run("IRKFS", n_iter=2)
    assert calls == []
    # the count does see the Gram: EMIRKFS's second pass has non-uniform Q
    _run("EMIRKFS", n_iter=2)
    assert calls


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


def test_noise_scales_change_result():
    prob = build_problem(n_x=8, n_y=8, n_steps=2, sigma=0.02)
    _, rec_a = _run("IRKFS", n_iter=1, prob=prob)
    _, rec_b = _run("IRKFS", n_iter=1, prob=prob, q_scale=100.0)
    assert not np.array_equal(rec_a.trajectories[0], rec_b.trajectories[0])


def test_operator_count_validated_up_front():
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    method = parse_method("IRKFS", n_iter=1)
    with pytest.raises(ConfigError, match="operator per frame"):
        run_emirkfs(prob["sino"], prob["h_ops"][:-1], prob["basis"], method)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_truth_raises(bad):
    prob = build_problem(n_x=8, n_y=8, n_steps=3, sigma=0.02)
    truth = prob["frames"].reshape(prob["n_steps"] + 1, -1).copy()
    truth[2, 5] = bad
    with pytest.raises(NumericError, match="non-finite"):
        run_emirkfs(prob["sino"], prob["h_ops"], prob["basis"],
                    parse_method("IRKFS", n_iter=1), truth=truth)


def test_m3_patch_must_tile():
    with pytest.raises(ConfigError, match="outer iteration 1"):
        _run("IRKFS-M3", n_iter=1, motion_opts=MotionOptions(patch=(3, 8)))
