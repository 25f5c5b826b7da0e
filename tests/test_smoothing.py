"""Reduced smoother against the dense RTS oracle."""

import numpy as np
import pytest

from dynct.errors import ConfigError
from dynct.filtering import NoiseModel, run_filter
from dynct.linops import Identity
from dynct.metrics import MemoryTracker, rre
from dynct.smoothing import run_smoother, smooth_step
from helpers import build_problem, dense_noise, rel_err, smoothed_moments
from oracles import (cross_covariance_factors, dense_cross_covariances,
                     dense_kalman_filter, dense_rts_smoother,
                     projected_posterior_cov)


def _smoothed(prob, tracker=None):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["psi0"])
    return filt, smoothed_moments(filt, motions, prob["noise"], prob["basis"],
                                  tracker)


def _dense(prob):
    q_covs, r_covs = dense_noise(prob)
    motions = [np.eye(prob["n_s"]) for _ in range(prob["n_steps"])]
    P = prob["basis"].P
    c0 = P @ prob["psi0"] @ P.T
    kf = dense_kalman_filter(prob["x0"], c0, motions, q_covs,
                             prob["h_dense"], r_covs, prob["sino"].sinograms)
    sm_means, sm_covs, gains = dense_rts_smoother(*kf, motions)
    return sm_means, sm_covs, gains


@pytest.fixture(scope="module")
def prob():
    return build_problem()


def test_means_match_dense_rts(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["psi0"])
    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"])
    sm_means, _, _ = _dense(prob)
    for i in range(prob["n_steps"] + 1):
        assert rel_err(x_sm[i], sm_means[i]) <= 1e-8, f"step {i}"


def test_covariances_match_dense_rts(prob):
    _, sm = _smoothed(prob)
    _, sm_covs, _ = _dense(prob)
    P = prob["basis"].P
    for i in range(prob["n_steps"] + 1):
        full = projected_posterior_cov(P, sm.psi_sm[i])
        assert rel_err(full, sm_covs[i]) <= 1e-8, f"step {i}"


def test_terminal_conditions_exact(prob):
    filt, sm = _smoothed(prob)
    T = prob["n_steps"]
    assert np.array_equal(sm.x_sm[T], filt.x_est[T])
    assert np.array_equal(sm.psi_sm[T], filt.psi_est[T])


def test_cross_covariance_matches_dense_formula():
    prob = build_problem(n_x=10, n_y=10, n_steps=3, sigma=0.03)
    filt, sm = _smoothed(prob)
    _, sm_covs, gains = _dense(prob)
    want = dense_cross_covariances(sm_covs, gains)
    P = prob["basis"].P
    for i in range(1, prob["n_steps"] + 1):
        L, R = cross_covariance_factors(sm.psi_sm[i], sm.gains[i - 1],
                                        filt.psi_est[i - 1], P)
        assert rel_err(L @ R.T, want[i - 1]) <= 1e-9, f"step {i}"


def test_cross_covariance_zero_smoothed_cov(prob):
    filt, sm = _smoothed(prob)
    r = prob["basis"].rank
    L, _ = cross_covariance_factors(np.zeros((r, r)), sm.gains[0],
                                    filt.psi_est[0], prob["basis"].P)
    assert not L.any()


def test_large_q_decouples_cross_covariance():
    # needs m >= n_s so posteriors stay bounded while the prediction
    # covariance blows up; otherwise unobserved directions keep O(Q) mass
    prob = build_problem(n_x=10, n_y=10, n_steps=2, n_angles=12, sigma=0.01)
    n_s = prob["n_s"]
    noise = NoiseModel(
        q_diags=[np.full(n_s, 1e6)] * prob["n_steps"],
        r_diags=list(prob["noise"].r_diags))
    motions = [Identity(n_s) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      noise, prob["basis"], prob["x0"], prob["psi0"])
    sm = smoothed_moments(filt, motions, noise, prob["basis"])
    P = prob["basis"].P
    for i in range(1, prob["n_steps"] + 1):
        L, R = cross_covariance_factors(sm.psi_sm[i], sm.gains[i - 1],
                                        filt.psi_est[i - 1], P)
        c_sm = projected_posterior_cov(P, sm.psi_sm[i])
        assert np.linalg.norm(L @ R.T) <= 1e-4 * np.linalg.norm(c_sm), f"step {i}"


def test_on_step_fires_backward_after_each_mean(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["psi0"])
    seen = []

    def hook(i, x_sm, psi_sm_prev, psi_sm_i, gain_i):
        seen.append((i, x_sm[i - 1].copy(), psi_sm_prev, psi_sm_i, gain_i))

    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"],
                        on_step=hook)
    assert [step[0] for step in seen] == list(range(prob["n_steps"], 0, -1))
    for i, x_prev, *covariances in seen:
        np.testing.assert_array_equal(x_prev, x_sm[i - 1])
        assert covariances == [None, None, None]


def test_zero_smoothing_innovation_keeps_filter_estimate(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt, _ = _smoothed(prob)
    xs, _, _ = smooth_step(filt.x_est[0], filt.psi_est[0], filt.x_pred[1],
                           filt.x_pred[1], None, motions[0],
                           prob["noise"].q_diags[0], prob["basis"])
    np.testing.assert_array_equal(xs, filt.x_est[0])


def test_smoother_does_not_worsen_consistent_data():
    # identical frames, exact M = I, noiseless data: summed RRE of the
    # smoothed trajectory must not exceed the filtered one
    n, T = 12, 4
    prob = build_problem(n_x=n, n_y=n, n_steps=T)
    truth = prob["frames"][0].ravel()
    h_ops = prob["h_ops"]
    ys = [h.apply(truth) for h in h_ops]
    n_s = n * n
    noise = NoiseModel(q_diags=[np.full(n_s, 1e-4)] * T,
                       r_diags=[np.full(h_ops[i + 1].shape[0], 1e-6)
                                for i in range(T)])
    motions = [Identity(n_s) for _ in range(T)]
    from dynct.filtering import static_init
    x0, psi0 = static_init(h_ops[0], prob["basis"], ys[0])
    filt = run_filter(ys, h_ops, motions, noise, prob["basis"], x0, psi0)
    x_sm = run_smoother(filt, motions, noise, prob["basis"])
    rre_est = sum(rre(filt.x_est[i], truth) for i in range(T + 1))
    rre_sm = sum(rre(x_sm[i], truth) for i in range(T + 1))
    assert rre_sm <= rre_est + 1e-12


def test_psi_sm_symmetric(prob):
    _, sm = _smoothed(prob)
    for psi in sm.psi_sm:
        assert np.max(np.abs(psi - psi.T)) <= 1e-12 * max(np.abs(psi).max(), 1.0)


def test_count_validation(prob):
    filt, _ = _smoothed(prob)
    with pytest.raises(ConfigError):
        run_smoother(filt, [Identity(prob["n_s"])], prob["noise"],
                     prob["basis"])


def test_tracker_balance(prob):
    tracker = MemoryTracker()
    _, sm = _smoothed(prob, tracker=tracker)
    assert tracker.current_bytes == sm.x_sm.nbytes
    tracker.release_array(sm.x_sm)
    assert tracker.current_bytes == 0
    # one step at a time: Psi_i^sm, Psi_{i-1}^sm and K_i, never a history
    r = prob["basis"].rank
    assert tracker.peak_reduced_bytes == 3 * r * r * 8
