"""Reduced filter against the dense textbook Kalman filter."""

import numpy as np
import pytest
import scipy.sparse as sp

from dynct.errors import ConfigError, NumericError
from dynct.filtering import (NoiseModel, filter_step, initial_noise,
                             release_filter_result, run_filter, smw_apply,
                             static_init)
from dynct.linops import Identity, SparseCSR
from dynct.metrics import MemoryTracker
from dynct.prior import PriorConfig, ProjectionBasis, build_projection
from helpers import build_problem, dense_noise, rel_err
from oracles import dense_kalman_filter, projected_posterior_cov


@pytest.fixture(scope="module")
def prob():
    return build_problem()


@pytest.fixture(scope="module")
def reduced(prob):
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["psi0"])
    return filt


@pytest.fixture(scope="module")
def dense(prob):
    q_covs, r_covs = dense_noise(prob)
    motions = [np.eye(prob["n_s"]) for _ in range(prob["n_steps"])]
    P = prob["basis"].P
    c0 = P @ prob["psi0"] @ P.T
    return dense_kalman_filter(prob["x0"], c0, motions, q_covs,
                               prob["h_dense"], r_covs,
                               prob["sino"].sinograms)


def test_means_match_dense_oracle(prob, reduced, dense):
    means, _, pred_means, _ = dense
    for i in range(prob["n_steps"] + 1):
        assert rel_err(reduced.x_est[i], means[i]) <= 1e-8, f"step {i}"
        assert rel_err(reduced.x_pred[i], pred_means[i]) <= 1e-8, f"step {i}"


def test_covariances_match_dense_oracle(prob, reduced, dense):
    _, covs, _, _ = dense
    P = prob["basis"].P
    for i in range(prob["n_steps"] + 1):
        full = projected_posterior_cov(P, reduced.psi_est[i])
        assert rel_err(full, covs[i]) <= 1e-8, f"step {i}"


def test_psi_symmetric_psd(reduced):
    for psi in reduced.psi_est:
        assert np.max(np.abs(psi - psi.T)) <= 1e-12 * max(np.abs(psi).max(), 1.0)
        vals = np.linalg.eigvalsh(psi)
        assert vals.min() >= -1e-10 * np.linalg.norm(psi)


def test_zero_innovation_keeps_prediction(prob):
    motion = Identity(prob["n_s"])
    h = prob["h_ops"][1]
    x_prev, psi_prev = prob["x0"], prob["psi0"]
    y = h.apply(motion.apply(x_prev))  # exactly consistent data
    xp, xe, _ = filter_step(x_prev, psi_prev, motion, h,
                            prob["noise"].q_diags[0], prob["noise"].r_diags[0],
                            y, prob["basis"])
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
    xp, xe, _ = filter_step(prob["x0"], np.eye(n_s), Identity(n_s),
                            prob["h_ops"][1], q, r,
                            prob["sino"].sinograms[1], prob["basis"])
    x_static, _ = static_init(prob["h_ops"][1], prob["basis"],
                              prob["sino"].sinograms[1])
    assert rel_err(xe, x_static) <= 1e-6


def test_smw_matches_dense_inversion():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_s = int(rng.integers(4, 65))
        r = int(rng.integers(1, 9))
        q = rng.uniform(0.5, 3.0, n_s)
        B = rng.standard_normal((n_s, r))
        P = rng.standard_normal((n_s, min(r + 2, n_s)))
        want = np.linalg.solve(B @ B.T + np.diag(q), P)
        got = smw_apply(1.0 / q, B, P)
        assert rel_err(got, want) <= 1e-10


def test_smw_zero_lowrank_part():
    rng = np.random.default_rng(1)
    q = rng.uniform(0.1, 2.0, 12)
    P = rng.standard_normal((12, 3))
    got = smw_apply(1.0 / q, np.zeros((12, 2)), P)
    np.testing.assert_allclose(got, P / q[:, None], atol=1e-14)


def test_smw_rank1_analytic():
    # Q = I, B = e1: (I + e1 e1^T)^{-1} = I - e1 e1^T / 2
    n = 6
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    P = np.eye(n)
    got = smw_apply(np.ones(n), B, P)
    want = np.eye(n)
    want[0, 0] = 0.5
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_smw_vector_input():
    rng = np.random.default_rng(2)
    q = rng.uniform(0.5, 1.5, 10)
    B = rng.standard_normal((10, 3))
    v = rng.standard_normal(10)
    got = smw_apply(1.0 / q, B, v)
    want = np.linalg.solve(B @ B.T + np.diag(q), v)
    assert got.shape == (10,)
    assert rel_err(got, want) <= 1e-10


def test_static_init_zero_data(prob):
    x0, psi0 = static_init(prob["h_ops"][0], prob["basis"],
                           np.zeros(prob["h_ops"][0].shape[0]))
    np.testing.assert_allclose(x0, 0.0, atol=1e-15)
    np.testing.assert_allclose(psi0, np.eye(prob["basis"].rank), atol=0)


def test_static_init_identity_h_orthonormal_basis():
    rng = np.random.default_rng(3)
    n_s, r = 25, 8
    Q, _ = np.linalg.qr(rng.standard_normal((n_s, r)))
    basis = ProjectionBasis(P=Q, eigenvalues=np.ones(r),
                            index_pairs=np.zeros((r, 2), dtype=int),
                            n_x=5, n_y=5,
                            config=PriorConfig(alpha=1e8, ell=1.0, rank=r))
    y = rng.standard_normal(n_s)
    x0, _ = static_init(Identity(n_s), basis, y)
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
    hd = h.to_dense()
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
        innov = ys[i] - hd @ filt.x_pred[i]
        cp = hd @ (P @ filt.psi_est[i - 1] @ P.T + np.diag(noise.q_diags[i - 1])) @ hd.T
        s = cp + np.diag(noise.r_diags[i - 1])
        scores.append(innov @ np.linalg.solve(s, innov) / m)
    avg = float(np.mean(scores))
    assert 0.5 <= avg <= 2.0, avg


def test_run_filter_t0_is_initialization(prob):
    noise = NoiseModel(q_diags=[], r_diags=[])
    filt = run_filter([prob["sino"].sinograms[0]], [prob["h_ops"][0]], [],
                      noise, prob["basis"], prob["x0"], prob["psi0"])
    assert filt.x_est.shape == (1, prob["n_s"])
    np.testing.assert_array_equal(filt.x_est[0], prob["x0"])


def test_run_filter_count_validation(prob):
    with pytest.raises(ConfigError):
        run_filter(prob["sino"].sinograms[:-1], prob["h_ops"],
                   [Identity(prob["n_s"])] * prob["n_steps"], prob["noise"],
                   prob["basis"], prob["x0"], prob["psi0"])


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.ones(4)], r_diags=[])
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.array([1.0, 0.0])], r_diags=[np.ones(2)])
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.ones(2)], r_diags=[np.ones(2)], floor=2.0)
    nm = NoiseModel(q_diags=[np.full(3, 0.5)], r_diags=[np.full(2, 2.0)])
    assert nm.floor == 0.5
    assert nm.n_steps == 1


def test_tracker_charges_released(prob):
    tracker = MemoryTracker()
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["psi0"],
                      tracker)
    assert tracker.current_bytes == filt.x_est.nbytes + filt.x_pred.nbytes
    assert tracker.peak_bytes >= tracker.current_bytes
    release_filter_result(filt, tracker)
    assert tracker.current_bytes == 0


def test_singular_observation_system_raises():
    # a zero basis cannot carry unit eigenvalues: rejected before any solve
    with pytest.raises(ConfigError):
        ProjectionBasis(P=np.zeros((4, 2)), eigenvalues=np.ones(2),
                        index_pairs=np.zeros((2, 2), dtype=int),
                        n_x=2, n_y=2,
                        config=PriorConfig(alpha=1.0, ell=1.0, rank=2))
    # a consistent basis with a zero-information observation (H = 0) and a
    # prior weight alpha^-2 that underflows to 0: the reduced system is
    # exactly singular
    basis = ProjectionBasis(P=np.eye(4, 2), eigenvalues=np.ones(2),
                            index_pairs=np.zeros((2, 2), dtype=int),
                            n_x=2, n_y=2,
                            config=PriorConfig(alpha=1e200, ell=1.0, rank=2))
    assert basis.config.alpha ** -2 == 0.0
    with pytest.raises(NumericError):
        static_init(SparseCSR(sp.csr_matrix((3, 4))), basis, np.ones(3))
