"""Diagonal covariance updates against dense formula oracles, plus the
expected complete-data log-likelihood diagnostics."""

import numpy as np
import pytest

from dynct.em import FLOOR_ABS, update_q_diag, update_r_diag
from dynct.errors import ConfigError, NumericError
from dynct.filtering import run_filter
from dynct.linops import Identity, PatchRank1, SparseCSR
from helpers import (build_problem, dense_noise, kron_basis, rel_err,
                     smoothed_moments)
from oracles import (dense, dense_basis, dense_cross_covariances,
                     dense_kalman_filter, dense_q_update, dense_r_update, dense_rts_smoother,
                     expected_loglik, projected_posterior_cov, update_q_dense,
                     update_r_dense)


def _motion(kind, n_x, n_y, rng):
    """A transition operator of the given kind. PatchRank1 uses 2 x 2
    patches, so n_x and n_y must be even for it; PatchRank1-whole is one
    patch over the whole image, the M2 rank-1 map."""
    n_s = n_x * n_y
    if kind == "Identity":
        return Identity(n_s)
    if kind == "SparseCSR":
        return SparseCSR(np.eye(n_s) * 0.9
                         + 0.05 * (rng.random((n_s, n_s)) < 0.15))
    if kind == "PatchRank1-whole":
        return PatchRank1(n_x, n_y, n_x, n_y, rng.uniform(0.5, 1.5, n_s),
                          rng.uniform(0.5, 1.5, n_s), 0.5)
    return PatchRank1(n_x, n_y, 2, 2, rng.uniform(0.5, 1.5, n_s),
                      rng.uniform(0.5, 1.5, n_s), 0.5)


def _smoothed_problem(kind="SparseCSR", **kw):
    prob = build_problem(**kw)
    rng = np.random.default_rng(11)
    geom = prob["geom"]
    motions = [_motion(kind, geom.n_x, geom.n_y, rng)
               for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"])
    sm = smoothed_moments(filt, motions, prob["noise"], prob["basis"])
    return prob, motions, sm


def _q_update(sm, i, motion, basis):
    """update_q_diag at step i from the smoothed moments."""
    return update_q_diag(sm.x_sm[i - 1], sm.x_sm[i], sm.psi_sm[i - 1],
                         sm.psi_sm[i], sm.omegas[i - 1], motion, basis)


def test_r_update_matches_dense_formula():
    prob, _, sm = _smoothed_problem(n_x=3, n_y=3, n_steps=3, n_angles=2)
    P = dense_basis(prob["basis"])
    for i in range(1, prob["n_steps"] + 1):
        got = update_r_diag(prob["sino"].sinograms[i], prob["h_ops"][i],
                            sm.x_sm[i], sm.psi_sm[i], prob["basis"])
        cov = projected_posterior_cov(P, sm.psi_sm[i])
        want = update_r_dense(prob["sino"].sinograms[i], prob["h_dense"][i],
                              sm.x_sm[i], cov)
        assert rel_err(got, want) <= 1e-12, f"step {i}"


@pytest.mark.parametrize("kind", ["SparseCSR", "Identity", "PatchRank1-whole",
                                  "PatchRank1"])
def test_q_update_matches_dense_formula(kind):
    n = 4 if kind == "PatchRank1" else 3  # a grid the 2 x 2 patches tile
    prob, motions, sm = _smoothed_problem(kind, n_x=n, n_y=n, n_steps=3,
                                          n_angles=2)
    P = dense_basis(prob["basis"])
    for i in range(1, prob["n_steps"] + 1):
        got = _q_update(sm, i, motions[i - 1], prob["basis"])
        want = update_q_dense(sm.x_sm[i - 1], sm.x_sm[i],
                              projected_posterior_cov(P, sm.psi_sm[i - 1]),
                              projected_posterior_cov(P, sm.psi_sm[i]),
                              P @ sm.omegas[i - 1] @ P.T,
                              dense(motions[i - 1]))
        assert rel_err(got, want) <= 1e-10, f"step {i}"


def test_q_update_matches_fully_dense_rts_chain():
    # same numbers all the way from a dense KF/RTS, not just dense formulas
    # fed with reduced moments
    prob = build_problem(n_x=3, n_y=3, n_steps=3, n_angles=2)
    motions_op = [Identity(prob["n_s"])] * prob["n_steps"]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions_op,
                      prob["noise"], prob["basis"], prob["x0"])
    sm = smoothed_moments(filt, motions_op, prob["noise"], prob["basis"])
    q_covs, r_covs = dense_noise(prob)
    motions = [np.eye(prob["n_s"])] * prob["n_steps"]
    P = dense_basis(prob["basis"])
    kf = dense_kalman_filter(prob["x0"], P @ P.T, motions,
                             q_covs, prob["h_dense"], r_covs,
                             prob["sino"].sinograms)
    sm_means, sm_covs, gains = dense_rts_smoother(*kf, motions)
    crosses = dense_cross_covariances(sm_covs, gains)
    for i in range(1, prob["n_steps"] + 1):
        got = _q_update(sm, i, motions_op[i - 1], prob["basis"])
        want = dense_q_update(sm_means[i - 1], sm_means[i], sm_covs[i - 1],
                              sm_covs[i], crosses[i - 1], motions[i - 1])
        assert rel_err(got, np.maximum(np.diag(want), got.min())) <= 1e-9


def test_r_trivial_perfect_fit_zero_cov():
    h = SparseCSR(np.eye(4))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    got = update_r_diag(h.apply(x), h, x, np.zeros((2, 2)),
                        kron_basis(np.eye(4, 2), np.ones((1, 1))))
    np.testing.assert_array_equal(got, np.full(4, FLOOR_ABS))


def test_r_trivial_zero_cov_is_squared_residual():
    h = SparseCSR(np.eye(3))
    x = np.zeros(3)
    y = np.array([0.5, -2.0, 1.0])
    got = update_r_diag(y, h, x, np.zeros((3, 3)),
                        kron_basis(np.eye(3), np.ones((1, 1))))
    want = np.maximum(y ** 2, 1e-8 * np.mean(y ** 2))
    np.testing.assert_allclose(got, want, rtol=1e-15)


# the cross term cancels both quadratics exactly up to roundoff, so the
# documented clamp of roundoff-negative entries may fire
@pytest.mark.filterwarnings(
    "ignore:update_q_diag. clamping roundoff-negative:RuntimeWarning")
def test_q_trivial_static_exact_dynamics():
    rng = np.random.default_rng(5)
    r = 3
    basis = kron_basis(np.eye(4, 3), np.ones((1, 1)))  # P = np.eye(4, 3)
    A = rng.standard_normal((r, r))
    psi = A @ A.T + 0.1 * np.eye(r)
    x = rng.standard_normal(4)
    # omega = psi @ inv(psi) @ psi = psi, so cross cancels both quadratics
    got = update_q_diag(x, x, psi, psi, psi @ np.linalg.inv(psi) @ psi,
                        Identity(4), basis)
    np.testing.assert_allclose(got, np.full(4, FLOOR_ABS), atol=1e-12)


def test_q_trivial_zero_covariances():
    x_prev = np.array([1.0, 0.0, 2.0])
    x_i = np.array([1.5, 0.0, 1.0])
    z = np.zeros((3, 3))
    got = update_q_diag(x_prev, x_i, z, z, z, Identity(3),
                        kron_basis(np.eye(3), np.ones((1, 1))))
    resid2 = (x_i - x_prev) ** 2
    np.testing.assert_allclose(got, np.maximum(resid2, 1e-8 * resid2.mean()),
                               rtol=1e-15)


def test_q_negative_beyond_roundoff_raises():
    # omega = I while psi_sm_prev = 0 makes the diagonal 1 - 2 = -1
    z = np.zeros((2, 2))
    x = np.zeros(2)
    with pytest.raises(NumericError):
        update_q_diag(x, x, z, np.eye(2), np.eye(2), Identity(2),
                      kron_basis(np.eye(2), np.ones((1, 1))))


def test_q_roundoff_negative_clamps_with_warning():
    x_prev = np.zeros(2)
    x_i = np.array([1.0, 0.0])
    z = np.zeros((2, 2))
    psi_sm_i = np.diag([0.0, 1e-13])  # omega = psi_sm_i (K = Psi^est = I)
    with pytest.warns(RuntimeWarning):
        got = update_q_diag(x_prev, x_i, z, psi_sm_i, psi_sm_i, Identity(2),
                            kron_basis(np.eye(2), np.ones((1, 1))))
    assert (got > 0).all()


_NAN_PSI = np.diag([np.nan, 1.0])


@pytest.mark.parametrize("y, psi", [(np.ones(2), _NAN_PSI),
                                    (np.full(2, 1e200), np.eye(2)),
                                    (np.full(2, 1.2e154), np.eye(2))])
def test_r_update_rejects_a_non_finite_diagonal(y, psi):
    # a NaN in Psi, a squared residual that overflows, or finite squares
    # whose mean (the floor's) overflows is a numerical failure: no NaN or
    # inf variance reaches the next pass, and no numpy warning escapes (the
    # suite turns RuntimeWarnings into errors)
    with pytest.raises(NumericError,
                       match="update_r_diag: diagonal has non-finite"):
        update_r_diag(y, SparseCSR(np.eye(2)), np.zeros(2), psi,
                      kron_basis(np.eye(2), np.ones((1, 1))))


@pytest.mark.parametrize("x_i, psi", [(np.ones(2), _NAN_PSI),
                                      (np.full(2, 1e200), np.eye(2))])
def test_q_update_rejects_a_non_finite_diagonal(x_i, psi):
    # checked before the roundoff clamp, which would warn "(min nan)" and
    # pass the NaN on
    z = np.zeros((2, 2))
    with pytest.raises(NumericError,
                       match="update_q_diag: diagonal has non-finite"):
        update_q_diag(np.zeros(2), x_i, z, psi, z, Identity(2),
                      kron_basis(np.eye(2), np.ones((1, 1))))


def test_loglik_prior_only_terms():
    n_s = 4
    rng = np.random.default_rng(9)
    x0_mean = rng.standard_normal(n_s)
    x_sm = np.vstack([x0_mean + 0.3, x0_mean])  # frame 0 offset, frame 1 unused
    h = np.eye(n_s)
    y1 = h @ x_sm[1]
    cov0 = np.diag([2.0, 1.0, 0.5, 1.5])
    zero = np.zeros((n_s, n_s))
    got = expected_loglik([None, y1], [None, h], [np.eye(n_s)],
                          [np.eye(n_s)], [np.eye(n_s)],
                          x_sm, [zero, zero], [zero], x0_mean, cov0)
    d0 = x_sm[0] - x0_mean
    want = -0.5 * (np.log(np.linalg.det(cov0))
                   + d0 @ np.linalg.solve(cov0, d0))
    # dynamics/data terms: resid_q = x1 - x0 contributes; make them zero
    resid_q = x_sm[1] - x_sm[0]
    want -= 0.5 * (resid_q @ resid_q)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_loglik_r_scaling_shift():
    n_s, m, T = 4, 3, 3
    rng = np.random.default_rng(13)
    h = rng.standard_normal((m, n_s))
    x_sm = np.tile(rng.standard_normal(n_s), (T + 1, 1))
    ys = [None] + [h @ x_sm[i] for i in range(1, T + 1)]  # zero residuals
    zero = np.zeros((n_s, n_s))
    covs = [zero] * (T + 1)
    crosses = [zero] * T
    motions = [np.eye(n_s)] * T
    q = [np.ones(n_s)] * T

    def g(c):
        return expected_loglik(ys, [None] + [h] * T, motions, q,
                               [c * np.ones(m)] * T, x_sm, covs, crosses,
                               x_sm[0], np.eye(n_s))

    c = 7.5
    drop = g(1.0) - g(c)
    assert abs(drop - 0.5 * m * T * np.log(c)) <= 1e-10


def test_loglik_em_mstep_monotone_dense():
    # dense LGSSM, full-matrix updates: the M-step can never lower the
    # expected complete-data log-likelihood at fixed moments
    rng = np.random.default_rng(21)
    n_s, m, T = 9, 3, 4
    h = rng.standard_normal((m, n_s))
    h_mats = [None] + [h] * T
    motions = [np.eye(n_s)] * T
    x0_mean = np.zeros(n_s)
    cov0 = np.eye(n_s)
    x = x0_mean + 0.5 * rng.standard_normal(n_s)
    ys = [None]
    for _ in range(T):
        x = x + 0.2 * rng.standard_normal(n_s)
        ys.append(h @ x + 0.1 * rng.standard_normal(m))
    q_covs = [np.eye(n_s) for _ in range(T)]
    r_covs = [np.eye(m) for _ in range(T)]
    margins = []
    for _ in range(5):
        kf = dense_kalman_filter(x0_mean, cov0, motions, q_covs,
                                 h_mats, r_covs, ys)
        sm_means, sm_covs, gains = dense_rts_smoother(*kf, motions)
        crosses = dense_cross_covariances(sm_covs, gains)
        g_old = expected_loglik(ys, h_mats, motions, q_covs, r_covs,
                                np.asarray(sm_means), sm_covs, crosses,
                                x0_mean, cov0)
        q_new = [dense_q_update(sm_means[i - 1], sm_means[i],
                                sm_covs[i - 1], sm_covs[i],
                                crosses[i - 1], motions[i - 1])
                 for i in range(1, T + 1)]
        r_new = [dense_r_update(ys[i], h, sm_means[i], sm_covs[i])
                 for i in range(1, T + 1)]
        g_new = expected_loglik(ys, h_mats, motions, q_new, r_new,
                                np.asarray(sm_means), sm_covs, crosses,
                                x0_mean, cov0)
        margins.append(g_new - g_old)
        q_covs, r_covs = q_new, r_new
    assert min(margins) >= -1e-9, margins


def test_loglik_rejects_non_pd():
    n_s = 2
    zero = np.zeros((n_s, n_s))
    x_sm = np.zeros((2, n_s))
    with pytest.raises(NumericError):
        expected_loglik([None, np.zeros(2)], [None, np.eye(2)], [np.eye(2)],
                        [np.array([1.0, -1.0])], [np.ones(2)],
                        x_sm, [zero, zero], [zero], np.zeros(2), np.eye(2))


def test_loglik_scale_guard():
    n = 5000
    x_sm = np.zeros((1, n))
    with pytest.raises(ConfigError):
        expected_loglik([None], [None], [], [], [], x_sm, [None], [],
                        np.zeros(n), None)


def test_outputs_respect_floor():
    prob, motions, sm = _smoothed_problem(n_x=3, n_y=3, n_steps=2,
                                          n_angles=2)
    r_diag = update_r_diag(prob["sino"].sinograms[1], prob["h_ops"][1],
                           sm.x_sm[1], sm.psi_sm[1], prob["basis"])
    q_diag = _q_update(sm, 1, motions[0], prob["basis"])
    assert (r_diag >= 1e-8 * r_diag.mean() - 1e-30).all()
    assert (q_diag > 0).all()
