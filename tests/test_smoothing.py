"""Reduced smoother against the dense RTS oracle."""

import numpy as np
import pytest

from dynct import smoothing
from dynct._linalg import check_psd
from dynct.errors import ConfigError, NumericError
from dynct.filtering import NoiseModel, run_filter
from dynct.linops import Identity
from dynct.metrics import rre
from dynct.smoothing import run_smoother, smooth_step
from helpers import (build_problem, dense_noise, psi_of, rel_err,
                     smoothed_moments, transition_motions)
from oracles import (dense, dense_cross_covariances, dense_kalman_filter,
                     dense_rts_smoother, projected_posterior_cov)


def _motions(prob, kind="Identity"):
    return transition_motions(kind, prob["geom"].n_x, prob["geom"].n_y,
                              prob["n_steps"])


def _smoothed(prob, motions=None):
    motions = _motions(prob) if motions is None else motions
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])
    return filt, smoothed_moments(filt, motions, prob["noise"], prob["basis"])


def _dense(prob, motions=None):
    motions = _motions(prob) if motions is None else motions
    q_covs, r_covs = dense_noise(prob)
    mats = [dense(m) for m in motions]
    P = prob["basis"].P
    c0 = P @ psi_of(prob["a0"]) @ P.T
    kf = dense_kalman_filter(prob["x0"], c0, mats, q_covs,
                             prob["h_dense"], r_covs, prob["sino"].sinograms)
    sm_means, sm_covs, gains = dense_rts_smoother(*kf, mats)
    return sm_means, sm_covs, gains


def _assert_means_match(prob, x_sm, sm_means):
    for i in range(prob["n_steps"] + 1):
        assert rel_err(x_sm[i], sm_means[i]) <= 1e-8, f"step {i}"


def _assert_covariances_match(prob, sm, sm_covs):
    P = prob["basis"].P
    for i in range(prob["n_steps"] + 1):
        full = projected_posterior_cov(P, sm.psi_sm[i])
        assert rel_err(full, sm_covs[i]) <= 1e-8, f"step {i}"


def _assert_cross_covariances_match(prob, sm, sm_covs, gains):
    want = dense_cross_covariances(sm_covs, gains)
    P = prob["basis"].P
    for i in range(1, prob["n_steps"] + 1):
        got = P @ sm.omegas[i - 1] @ P.T
        assert rel_err(got, want[i - 1]) <= 1e-9, f"step {i}"


@pytest.fixture(scope="module")
def prob():
    return build_problem()


def test_means_match_dense_rts(prob):
    motions = _motions(prob)
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])
    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"])
    _assert_means_match(prob, x_sm, _dense(prob)[0])


def test_covariances_match_dense_rts(prob):
    _, sm = _smoothed(prob)
    _assert_covariances_match(prob, sm, _dense(prob)[1])


@pytest.mark.parametrize("kind", ["SparseCSR", "PatchRank1"])
def test_moving_motion_matches_dense_rts(prob, kind):
    # G_MM != G_MP here, unlike under an Identity motion
    motions = _motions(prob, kind)
    filt, sm = _smoothed(prob, motions)
    sm_means, sm_covs, gains = _dense(prob, motions)
    # the mean-only sweep and the covariance sweep give the same means
    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"])
    np.testing.assert_array_equal(x_sm, sm.x_sm)
    _assert_means_match(prob, x_sm, sm_means)
    _assert_covariances_match(prob, sm, sm_covs)
    _assert_cross_covariances_match(prob, sm, sm_covs, gains)


def test_terminal_conditions_exact(prob):
    filt, sm = _smoothed(prob)
    T = prob["n_steps"]
    assert np.array_equal(sm.x_sm[T], filt.x_est[T])
    assert np.array_equal(sm.psi_sm[T], psi_of(filt.a_est[T]))


def test_cross_covariance_matches_dense_formula():
    prob = build_problem(n_x=10, n_y=10, n_steps=3, sigma=0.03)
    _, sm = _smoothed(prob)
    _, sm_covs, gains = _dense(prob)
    _assert_cross_covariances_match(prob, sm, sm_covs, gains)


def test_cross_covariance_zero_smoothed_cov(prob):
    # omega_i = Psi_i^sm K_i Psi_{i-1}^est vanishes exactly with Psi_i^sm
    filt, _ = _smoothed(prob)
    r = prob["basis"].rank
    _, _, omega = smooth_step(filt.x_est[0], filt.a_est[0], filt.x_est[1],
                              np.zeros((r, r)), Identity(prob["n_s"]),
                              prob["noise"].q_diags[0], prob["basis"],
                              with_covariance=True)
    assert omega.shape == (r, r) and not omega.any()


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
                      noise, prob["basis"], prob["x0"], prob["a0"])
    sm = smoothed_moments(filt, motions, noise, prob["basis"])
    P = prob["basis"].P
    for i in range(1, prob["n_steps"] + 1):
        cross = P @ sm.omegas[i - 1] @ P.T
        c_sm = projected_posterior_cov(P, sm.psi_sm[i])
        assert np.linalg.norm(cross) <= 1e-4 * np.linalg.norm(c_sm), f"step {i}"


def test_on_step_fires_backward_after_each_mean(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])
    seen = []

    def hook(i, x_sm, psi_sm_prev, psi_sm_i, omega_i):
        seen.append((i, x_sm[i - 1].copy(), psi_sm_prev, psi_sm_i, omega_i))

    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"],
                        on_step=hook)
    assert [step[0] for step in seen] == list(range(prob["n_steps"], 0, -1))
    for i, x_prev, *covariances in seen:
        np.testing.assert_array_equal(x_prev, x_sm[i - 1])
        assert covariances == [None, None, None]


def test_zero_smoothing_innovation_keeps_filter_estimate(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt, _ = _smoothed(prob)
    x_pred = motions[0].apply(filt.x_est[0])
    xs, _, _ = smooth_step(filt.x_est[0], filt.a_est[0], x_pred, None,
                           motions[0], prob["noise"].q_diags[0], prob["basis"])
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
    x0, a0 = static_init(h_ops[0], prob["basis"], ys[0])
    filt = run_filter(ys, h_ops, motions, noise, prob["basis"], x0, a0)
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


def test_check_psd_rejects_only_beyond_roundoff():
    # the tolerance is -1e-8 of the largest eigenvalue
    check_psd(np.diag([2.0, -0.5e-8 * 2.0]), "psi")
    with pytest.raises(NumericError, match="psi: covariance not PSD"):
        check_psd(np.diag([2.0, -2e-8 * 2.0]), "psi")


def test_run_smoother_rejects_indefinite_smoothed_covariance(prob,
                                                            monkeypatch):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])
    original = smoothing.smooth_step
    calls = []

    def step(*args, **kwargs):
        # the second backward step (i = T-1) forms Psi_{T-2}^sm indefinite
        x_sm_prev, psi_sm_prev, omega = original(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            psi_sm_prev = np.diag(np.r_[1.0, -np.ones(len(psi_sm_prev) - 1)])
        return x_sm_prev, psi_sm_prev, omega

    monkeypatch.setattr(smoothing, "smooth_step", step)
    T = prob["n_steps"]
    with pytest.raises(NumericError,
                       match=f"smoothed covariance {T - 2}: covariance not PSD"):
        run_smoother(filt, motions, prob["noise"], prob["basis"],
                     with_covariance=True)
