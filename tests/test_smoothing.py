"""Reduced smoother against the dense RTS oracle."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from dynct import smoothing
from dynct._linalg import check_psd
from dynct.errors import ConfigError, NumericError
from dynct.filtering import NoiseModel, run_filter, static_init
from dynct.linops import Identity
from dynct.metrics import rre
from dynct.smoothing import run_smoother, smooth_step
from helpers import (build_problem, count_calls, dense_noise, problem_filter,
                     psi_of, rel_err, smoothed_moments, transition_motions)
from oracles import (dense, dense_basis, dense_cross_covariances,
                     dense_kalman_filter, dense_rts_smoother,
                     projected_posterior_cov)


def _motions(prob, kind="Identity"):
    return transition_motions(kind, prob["geom"].n_x, prob["geom"].n_y,
                              prob["n_steps"])


def _filtered(prob, motions=None):
    motions = _motions(prob) if motions is None else motions
    return run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"])


def _smoothed(prob, motions=None):
    """The smoothed moments; their sweep writes x_sm over the filter
    output's x_est, so only the filter's factors are returned with them."""
    motions = _motions(prob) if motions is None else motions
    filt = _filtered(prob, motions)
    return filt, smoothed_moments(filt, motions, prob["noise"], prob["basis"])


def _unconsumed(filt):
    """filt with its own copy of the filtered means, for a second sweep."""
    return dataclasses.replace(filt, x_est=filt.x_est.copy())


def _dense(prob, motions=None):
    motions = _motions(prob) if motions is None else motions
    q_covs, r_covs = dense_noise(prob)
    mats = [dense(m) for m in motions]
    P = dense_basis(prob["basis"])
    c0 = P @ P.T  # Psi_0 = I
    kf = dense_kalman_filter(prob["x0"], c0, mats, q_covs,
                             prob["h_dense"], r_covs, prob["sino"].sinograms)
    sm_means, sm_covs, gains = dense_rts_smoother(*kf, mats)
    return sm_means, sm_covs, gains


def _assert_means_match(prob, x_sm, sm_means):
    for i in range(prob["n_steps"] + 1):
        assert rel_err(x_sm[i], sm_means[i]) <= 1e-8, f"step {i}"


def _assert_covariances_match(prob, sm, sm_covs):
    P = dense_basis(prob["basis"])
    for i in range(prob["n_steps"] + 1):
        full = projected_posterior_cov(P, sm.psi_sm[i])
        assert rel_err(full, sm_covs[i]) <= 1e-8, f"step {i}"


def _assert_cross_covariances_match(prob, sm, sm_covs, gains):
    want = dense_cross_covariances(sm_covs, gains)
    P = dense_basis(prob["basis"])
    for i in range(1, prob["n_steps"] + 1):
        got = P @ sm.omegas[i - 1] @ P.T
        assert rel_err(got, want[i - 1]) <= 1e-9, f"step {i}"


@pytest.fixture(scope="module")
def prob():
    return build_problem()


def test_means_match_dense_rts(prob):
    motions = _motions(prob)
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"])
    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"])
    _assert_means_match(prob, x_sm, _dense(prob)[0])


def test_covariances_match_dense_rts(prob):
    _, sm = _smoothed(prob)
    _assert_covariances_match(prob, sm, _dense(prob)[1])


@pytest.mark.parametrize("kind", ["SparseCSR", "PatchRank1"])
def test_moving_motion_matches_dense_rts(prob, kind):
    # G_MM != G_MP here, unlike under an Identity motion
    motions = _motions(prob, kind)
    filt = _filtered(prob, motions)
    x_sm = run_smoother(_unconsumed(filt), motions, prob["noise"],
                        prob["basis"])
    sm = smoothed_moments(filt, motions, prob["noise"], prob["basis"])
    sm_means, sm_covs, gains = _dense(prob, motions)
    # the mean-only sweep and the covariance sweep give the same means
    np.testing.assert_array_equal(x_sm, sm.x_sm)
    _assert_means_match(prob, x_sm, sm_means)
    _assert_covariances_match(prob, sm, sm_covs)
    _assert_cross_covariances_match(prob, sm, sm_covs, gains)


@pytest.mark.parametrize("kind", ["Identity", "SparseCSR", "PatchRank1"])
def test_smoother_works_from_the_filter_handover(prob, monkeypatch, kind):
    # the filter hands over its prediction Cholesky L_i and the factor F_T
    # of Lambda_T; the mean-only sweep makes no factorization, inverse or
    # Gramian (one cho_solve against L_i per step); the covariance sweep
    # adds one gram_mp (G_MP alone, so no G_MM) and one dpotri (Phi) per
    # step, and one dpotri of F_T for Psi_T^sm, and no factorization (its
    # PSD guard calls dpotrf directly). An Identity under uniform Q (prob's noise) has
    # G_MM = G_MP = G_PP = diag(d), so its filter step forms no Gramian: it
    # inverts L_i (one dpotri) in place of the triangular solve for V
    motions = _motions(prob, kind)
    calls = {name: count_calls(monkeypatch, owner, attr) for name, owner, attr in (
        ("cho_factor", sla, "cho_factor"), ("cho_solve", sla, "cho_solve"),
        ("solve_triangular", sla, "solve_triangular"),
        ("dtrtri", sla.lapack, "dtrtri"), ("dpotri", sla.lapack, "dpotri"),
        ("np.inv", np.linalg, "inv"), ("sla.inv", sla, "inv"),
        ("gram_pair", type(motions[0]), "gram_pair"),
        ("gram_mp", type(motions[0]), "gram_mp"))}

    def taken():
        counts = {name: len(seen) for name, seen in calls.items() if seen}
        for seen in calls.values():
            seen.clear()
        return counts

    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"])
    # the counts do see the filter's two Choleskys per step and its mean
    # solve; then either Identity's one inverse, or the other kinds'
    # Gramian pair and triangular solve for V, and no dtrtri or other inverse
    T = prob["n_steps"]
    if kind == "Identity":
        assert taken() == {"cho_factor": 2 * T, "cho_solve": T, "dpotri": T}
    else:
        assert taken() == {"cho_factor": 2 * T, "cho_solve": T,
                           "solve_triangular": T, "gram_pair": T}
    run_smoother(_unconsumed(filt), motions, prob["noise"], prob["basis"])
    assert taken() == {"cho_solve": T}
    run_smoother(filt, motions, prob["noise"], prob["basis"],
                 with_covariance=True)
    assert taken() == {"cho_solve": T, "dpotri": T + 1, "gram_mp": T}


@pytest.mark.parametrize("kind", ["Identity", "SparseCSR"])
def test_sweep_writes_the_smoothed_means_over_the_filtered(prob, kind):
    # step i reads x_{i-1}^est before it writes x_{i-1}^sm in its row, so
    # the sweep returns filt.x_est itself, equal bitwise to a sweep that
    # reads every filtered mean from an untouched copy
    motions = _motions(prob, kind)
    filt = _filtered(prob, motions)
    x_est = filt.x_est.copy()
    want = x_est.copy()
    for i in range(prob["n_steps"], 0, -1):
        want[i - 1] = smooth_step(x_est[i - 1], filt.factor(i), want[i], None,
                                  motions[i - 1], prob["noise"].q_diags[i - 1],
                                  prob["basis"])[0]
    np.testing.assert_array_equal(
        run_smoother(_unconsumed(filt), motions, prob["noise"], prob["basis"]),
        want)
    x_sm = run_smoother(filt, motions, prob["noise"], prob["basis"])
    assert x_sm is filt.x_est and np.shares_memory(x_sm, filt.x_est)
    np.testing.assert_array_equal(x_sm, want)


def test_terminal_conditions_exact(prob):
    motions = _motions(prob)
    filt, infos = problem_filter(prob, motions)
    T = prob["n_steps"]
    x_est_T = filt.x_est[T].copy()  # the sweep writes x_sm over filt.x_est
    sm = smoothed_moments(filt, motions, prob["noise"], prob["basis"])
    assert np.array_equal(sm.x_sm[T], x_est_T)
    assert np.array_equal(sm.psi_sm[T], psi_of(infos[T]))


def test_cross_covariance_matches_dense_formula():
    prob = build_problem(n_x=10, n_y=10, n_steps=3, sigma=0.03)
    _, sm = _smoothed(prob)
    _, sm_covs, gains = _dense(prob)
    _assert_cross_covariances_match(prob, sm, sm_covs, gains)


def test_cross_covariance_zero_smoothed_cov(prob):
    # omega_i = Psi_i^sm K_i Psi_{i-1}^est vanishes exactly with Psi_i^sm
    filt = _filtered(prob)
    r = prob["basis"].rank
    _, _, omega = smooth_step(filt.x_est[0], filt.factor(1), filt.x_est[1],
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
                      noise, prob["basis"], prob["x0"])
    sm = smoothed_moments(filt, motions, noise, prob["basis"])
    P = dense_basis(prob["basis"])
    for i in range(1, prob["n_steps"] + 1):
        cross = P @ sm.omegas[i - 1] @ P.T
        c_sm = projected_posterior_cov(P, sm.psi_sm[i])
        assert np.linalg.norm(cross) <= 1e-4 * np.linalg.norm(c_sm), f"step {i}"


def test_on_step_fires_backward_after_each_mean(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"])
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
    filt = _filtered(prob, motions)
    x_pred = motions[0].apply(filt.x_est[0])
    xs, _, _ = smooth_step(filt.x_est[0], filt.factor(1), x_pred, None,
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
    x0 = static_init(h_ops[0], prob["basis"], ys[0])
    filt = run_filter(ys, h_ops, motions, noise, prob["basis"], x0)
    rre_est = sum(rre(filt.x_est[i], truth) for i in range(T + 1))
    x_sm = run_smoother(filt, motions, noise, prob["basis"])
    rre_sm = sum(rre(x_sm[i], truth) for i in range(T + 1))
    assert rre_sm <= rre_est + 1e-12


def test_psi_sm_symmetric(prob):
    # exactly: dpotri writes one triangle of Phi and Psi_T^sm, and
    # check_psd's Cholesky (and its eigenvalue fallback) reads one too,
    # while quad_diag and psi_sm_i @ k_psi read both; so every Psi^sm the
    # hook sees, Psi_T^sm included, must have both filled alike
    for kind in ("Identity", "SparseCSR", "PatchRank1"):
        _, sm = _smoothed(prob, _motions(prob, kind))
        assert len(sm.psi_sm) == prob["n_steps"] + 1
        for psi in sm.psi_sm:
            assert np.array_equal(psi, psi.T), kind


def test_count_validation(prob):
    filt = _filtered(prob)
    with pytest.raises(ConfigError):
        run_smoother(filt, [Identity(prob["n_s"])], prob["noise"],
                     prob["basis"])


def test_check_psd_rejects_only_beyond_roundoff():
    # the tolerance is -1e-8 of the largest eigenvalue
    check_psd(np.diag([2.0, -0.5e-8 * 2.0]), "psi")
    with pytest.raises(NumericError, match="psi: covariance not PSD"):
        check_psd(np.diag([2.0, -2e-8 * 2.0]), "psi")


def _rotated(lam_max, lam_min):
    """diag(lam_max, lam_min) rotated by 45 degrees: both diagonal entries
    are (lam_max + lam_min) / 2, about half of lam_max."""
    mean, half = (lam_max + lam_min) / 2, (lam_max - lam_min) / 2
    return np.array([[mean, half], [half, mean]])


def test_check_psd_falls_back_to_eigenvalues(monkeypatch):
    # the shifted Cholesky uses max diag A <= lambda_max: when the two
    # differ, it can fail on a matrix within roundoff of PSD, and the
    # eigenvalues then decide
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    check_psd(np.diag([2.0, -0.5e-8 * 2.0]), "psi")
    check_psd(_rotated(2.0, 1e-3), "psi")
    assert calls == []
    # -1.5e-8 is beyond -1e-8 * max diag (about 1) but within
    # -1e-8 * lambda_max (2): the fast path fails and the verdict accepts
    check_psd(_rotated(2.0, -1.5e-8), "psi")
    assert len(calls) == 1
    with pytest.raises(NumericError, match="psi: covariance not PSD"):
        check_psd(_rotated(2.0, -2.5e-8), "psi")
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_psd_rejects_non_finite(bad):
    with pytest.raises(NumericError, match="psi: covariance has non-finite"):
        check_psd(np.array([[1.0, bad], [bad, 1.0]]), "psi")


def test_run_smoother_rejects_indefinite_smoothed_covariance(prob,
                                                            monkeypatch):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"])
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
