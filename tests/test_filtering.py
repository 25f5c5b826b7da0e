"""Reduced filter against the dense textbook Kalman filter."""

import numpy as np
import pytest
import scipy.sparse as sp

from dynct._linalg import inverse_factor
from dynct.errors import ConfigError, NumericError
from dynct.filtering import (NoiseModel, filter_step, initial_noise,
                             run_filter, static_init)
from dynct.linops import Identity, SparseCSR
from dynct.prior import PriorConfig, ProjectionBasis, build_projection
from helpers import (build_problem, dense_noise, kron_basis, psi_of, rel_err,
                     transition_motions)
from oracles import dense, dense_kalman_filter, projected_posterior_cov


@pytest.fixture(scope="module")
def prob():
    return build_problem()


def _reduced(prob, motions):
    return run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])


def _dense(prob, motions):
    q_covs, r_covs = dense_noise(prob)
    P = prob["basis"].P
    c0 = P @ psi_of(prob["a0"]) @ P.T
    return dense_kalman_filter(prob["x0"], c0, [dense(m) for m in motions],
                               q_covs, prob["h_dense"], r_covs,
                               prob["sino"].sinograms)


@pytest.fixture(scope="module")
def identity_motions(prob):
    return transition_motions("Identity", prob["geom"].n_x, prob["geom"].n_y,
                              prob["n_steps"])


@pytest.fixture(scope="module")
def reduced(prob, identity_motions):
    return _reduced(prob, identity_motions)


@pytest.fixture(scope="module")
def dense_kf(prob, identity_motions):
    return _dense(prob, identity_motions)


def _assert_means_match(prob, filt, dense_kf, motions):
    means, _, pred_means, _ = dense_kf
    for i in range(prob["n_steps"] + 1):
        assert rel_err(filt.x_est[i], means[i]) <= 1e-8, f"step {i}"
    # the prediction M_i x_{i-1}^est, as the smoother recomputes it
    for i in range(1, prob["n_steps"] + 1):
        assert rel_err(motions[i - 1].apply(filt.x_est[i - 1]),
                       pred_means[i]) <= 1e-8, f"step {i}"


def _assert_covariances_match(prob, filt, dense_kf):
    _, covs, _, _ = dense_kf
    P = prob["basis"].P
    for i in range(prob["n_steps"] + 1):
        full = projected_posterior_cov(P, psi_of(filt.a_est[i]))
        assert rel_err(full, covs[i]) <= 1e-8, f"step {i}"


def test_means_match_dense_oracle(prob, reduced, dense_kf, identity_motions):
    _assert_means_match(prob, reduced, dense_kf, identity_motions)


def test_covariances_match_dense_oracle(prob, reduced, dense_kf):
    _assert_covariances_match(prob, reduced, dense_kf)


@pytest.mark.parametrize("kind", ["SparseCSR", "PatchRank1"])
def test_moving_motion_matches_dense_oracle(prob, kind):
    # G_MM != G_MP here, unlike under an Identity motion
    motions = transition_motions(kind, prob["geom"].n_x, prob["geom"].n_y,
                                 prob["n_steps"])
    filt, dense_kf = _reduced(prob, motions), _dense(prob, motions)
    _assert_means_match(prob, filt, dense_kf, motions)
    _assert_covariances_match(prob, filt, dense_kf)


def test_psi_symmetric_psd(reduced):
    for a in reduced.a_est:
        # the filter's factors are upper triangular (L^{-T}, identity at 0)
        np.testing.assert_array_equal(a, np.triu(a))
        psi = psi_of(a)
        assert np.max(np.abs(psi - psi.T)) <= 1e-12 * max(np.abs(psi).max(), 1.0)
        vals = np.linalg.eigvalsh(psi)
        assert vals.min() >= -1e-10 * np.linalg.norm(psi)


def test_inverse_factor_of_spd_and_indefinite():
    rng = np.random.default_rng(8)
    for n in (1, 5, 40):
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        U = inverse_factor(A)
        np.testing.assert_array_equal(U, np.triu(U))
        assert rel_err(U @ U.T, np.linalg.inv(A)) <= 1e-12
    with pytest.raises(NumericError):
        inverse_factor(np.diag([1.0, -1.0]))


def test_zero_innovation_keeps_prediction(prob):
    motion = Identity(prob["n_s"])
    h = prob["h_ops"][1]
    x_prev, a_prev = prob["x0"], prob["a0"]
    xp = motion.apply(x_prev)
    y = h.apply(xp)  # exactly consistent data
    xe, _ = filter_step(x_prev, a_prev, motion, h, prob["noise"].q_diags[0],
                        prob["noise"].r_diags[0], y, prob["basis"])
    np.testing.assert_allclose(xe, xp, atol=1e-10 * np.linalg.norm(xp))


def test_inflated_q_recovers_static_solve():
    # with Q huge and R = I the filter forgets the dynamics and solves the
    # (barely regularized) static problem; needs enough angles that H has no
    # near-null directions, otherwise the vanishing regularizers still matter
    prob = build_problem(n_x=7, n_y=7, n_steps=1, n_angles=10, ell=0.8,
                         alpha=1e6, sigma=0.02)
    n_s = prob["n_s"]
    q = np.full(n_s, 1e16)
    r = np.ones(prob["h_ops"][1].shape[0])
    xe, _ = filter_step(prob["x0"], np.eye(n_s), Identity(n_s),
                        prob["h_ops"][1], q, r, prob["sino"].sinograms[1],
                        prob["basis"])
    x_static, _ = static_init(prob["h_ops"][1], prob["basis"],
                              prob["sino"].sinograms[1])
    assert rel_err(xe, x_static) <= 1e-6


def test_static_init_zero_data(prob):
    x0, a0 = static_init(prob["h_ops"][0], prob["basis"],
                         np.zeros(prob["h_ops"][0].shape[0]))
    np.testing.assert_allclose(x0, 0.0, atol=1e-15)
    np.testing.assert_allclose(a0, np.eye(prob["basis"].rank), atol=0)


def test_static_init_identity_h_orthonormal_basis():
    rng = np.random.default_rng(3)
    n_s = 25
    # orthonormal 1-D blocks give orthonormal Kronecker columns: r = 4 * 2
    q_x, _ = np.linalg.qr(rng.standard_normal((5, 4)))
    q_y, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    basis = kron_basis(q_x, q_y, alpha=1e8)
    Q = basis.P
    y = rng.standard_normal(n_s)
    x0, _ = static_init(SparseCSR(sp.eye(n_s)), basis, y)
    want = Q @ np.linalg.solve(Q.T @ Q, Q.T @ y)  # dense normal equations
    assert rel_err(x0, want) <= 1e-10


def test_innovation_whiteness_on_true_model():
    # linear-Gaussian data generated with the filter's own parameters:
    # time-averaged normalized innovations should have variance near 1
    prob = build_problem(n_x=10, n_y=10, n_steps=30, n_angles=6, ell=1.2)
    rng = np.random.default_rng(7)
    n_s, P = prob["n_s"], prob["basis"].P
    q_sd, r_sd = 0.05, 0.1
    h = prob["h_ops"][1]
    m = h.shape[0]
    h_ops = [prob["h_ops"][0]] + [h] * 30
    hd = prob["h_dense"][1]
    x = P @ rng.standard_normal(P.shape[1])  # draw from the prior
    xs, ys = [x], [np.zeros(prob["h_ops"][0].shape[0])]
    for _ in range(30):
        x = x + q_sd * rng.standard_normal(n_s)
        xs.append(x)
        ys.append(hd @ x + r_sd * rng.standard_normal(m))
    noise = NoiseModel(q_diags=[np.full(n_s, q_sd ** 2)] * 30,
                       r_diags=[np.full(m, r_sd ** 2)] * 30)
    motions = [Identity(n_s)] * 30
    filt = run_filter(ys, h_ops, motions, noise, prob["basis"],
                      xs[0], np.eye(P.shape[1]))
    scores = []
    for i in range(1, 31):
        innov = ys[i] - hd @ motions[i - 1].apply(filt.x_est[i - 1])
        cp = hd @ (P @ psi_of(filt.a_est[i - 1]) @ P.T
                   + np.diag(noise.q_diags[i - 1])) @ hd.T
        s = cp + np.diag(noise.r_diags[i - 1])
        scores.append(innov @ np.linalg.solve(s, innov) / m)
    avg = float(np.mean(scores))
    assert 0.5 <= avg <= 2.0, avg


def test_run_filter_t0_is_initialization(prob):
    noise = NoiseModel(q_diags=[], r_diags=[])
    filt = run_filter([prob["sino"].sinograms[0]], [prob["h_ops"][0]], [],
                      noise, prob["basis"], prob["x0"], prob["a0"])
    assert filt.x_est.shape == (1, prob["n_s"])
    np.testing.assert_array_equal(filt.x_est[0], prob["x0"])


def test_run_filter_count_validation(prob):
    with pytest.raises(ConfigError):
        run_filter(prob["sino"].sinograms[:-1], prob["h_ops"],
                   [Identity(prob["n_s"])] * prob["n_steps"], prob["noise"],
                   prob["basis"], prob["x0"], prob["a0"])


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.ones(4)], r_diags=[])
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.array([1.0, 0.0])], r_diags=[np.ones(2)])
    nm = NoiseModel(q_diags=[np.full(3, 0.5)], r_diags=[np.full(2, 2.0)])
    assert nm.n_steps == 1


def test_singular_observation_system_raises():
    # a zero basis cannot carry unit eigenvalues: rejected before any solve
    with pytest.raises(ConfigError):
        ProjectionBasis(P=np.zeros((4, 2)), eigenvalues=np.ones(2),
                        index_pairs=np.array([[0, 0], [0, 1]]),
                        factor_x=np.eye(2, 1), factor_y=np.eye(2),
                        n_x=2, n_y=2,
                        config=PriorConfig(alpha=1.0, ell=1.0, rank=2))
    # a consistent basis with a zero-information observation (H = 0) and a
    # prior weight alpha^-2 that underflows to 0: the reduced system is
    # exactly singular
    basis = kron_basis(np.eye(2, 1), np.eye(2), alpha=1e200)
    np.testing.assert_array_equal(basis.P, np.eye(4, 2))
    assert basis.config.alpha ** -2 == 0.0
    with pytest.raises(NumericError):
        static_init(SparseCSR(sp.csr_matrix((3, 4))), basis, np.ones(3))
