"""Reduced filter against the dense textbook Kalman filter."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from dynct._linalg import _cholesky, cho_inverse, mirror_lower
from dynct.errors import ConfigError, NumericError
from dynct.filtering import (FilterResult, NoiseModel, filter_step,
                             initial_noise, run_filter, static_init)
from dynct.linops import Identity, SparseCSR
from dynct.prior import PriorConfig, ProjectionBasis
from helpers import (build_problem, count_calls, dense_noise, filter_factors,
                     kron_basis, problem_filter, psi_of, rel_err,
                     transition_motions)
from oracles import (dense, dense_basis, dense_kalman_filter,
                     projected_posterior_cov, static_init_normal_equations)


@pytest.fixture(scope="module")
def prob():
    return build_problem()


def _dense(prob, motions):
    q_covs, r_covs = dense_noise(prob)
    P = dense_basis(prob["basis"])
    c0 = P @ P.T  # Psi_0 = I
    return dense_kalman_filter(prob["x0"], c0, [dense(m) for m in motions],
                               q_covs, prob["h_dense"], r_covs,
                               prob["sino"].sinograms)


@pytest.fixture(scope="module")
def identity_motions(prob):
    return transition_motions("Identity", prob["geom"].n_x, prob["geom"].n_y,
                              prob["n_steps"])


@pytest.fixture(scope="module")
def reduced(prob, identity_motions):
    return problem_filter(prob, identity_motions)


@pytest.fixture(scope="module")
def dense_kf(prob, identity_motions):
    return _dense(prob, identity_motions)


def _assert_means_match(prob, reduced, dense_kf, motions):
    filt, _ = reduced
    means, _, pred_means, _ = dense_kf
    for i in range(prob["n_steps"] + 1):
        assert rel_err(filt.x_est[i], means[i]) <= 1e-8, f"step {i}"
    # the prediction M_i x_{i-1}^est, as the smoother recomputes it
    for i in range(1, prob["n_steps"] + 1):
        assert rel_err(motions[i - 1].apply(filt.x_est[i - 1]),
                       pred_means[i]) <= 1e-8, f"step {i}"


def _assert_covariances_match(prob, reduced, dense_kf):
    _, infos = reduced
    _, covs, _, _ = dense_kf
    P = dense_basis(prob["basis"])
    for i in range(prob["n_steps"] + 1):
        full = projected_posterior_cov(P, psi_of(infos[i]))
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
    reduced, dense_kf = problem_filter(prob, motions), _dense(prob, motions)
    _assert_means_match(prob, reduced, dense_kf, motions)
    _assert_covariances_match(prob, reduced, dense_kf)


@pytest.mark.parametrize("kind", ["Identity", "SparseCSR", "PatchRank1"])
def test_filter_step_carries_the_information_matrix(prob, kind):
    # Lambda_i is the inverse of the dense filter's reduced posterior
    # covariance P^{-1} C_i P^{-T} (r = n_s: P is invertible), and the
    # handover is the prediction factor, L_i L_i^T = Lambda_{i-1} + G_MM,
    # G_MM from the dense M P
    motions = transition_motions(kind, prob["geom"].n_x, prob["geom"].n_y,
                                 prob["n_steps"])
    _, covs, _, _ = _dense(prob, motions)
    P = dense_basis(prob["basis"])
    p_inv = np.linalg.inv(P)
    noise = prob["noise"]
    x, info = prob["x0"], np.eye(prob["basis"].rank)
    for i in range(1, prob["n_steps"] + 1):
        x, info_next, chol, _ = filter_step(
            x, info, motions[i - 1], prob["h_ops"][i], noise.q_diags[i - 1],
            noise.r_diags[i - 1], prob["sino"].sinograms[i], prob["basis"])
        chol = FilterResult.unpack(chol, len(info))
        psi = p_inv @ covs[i] @ p_inv.T
        assert rel_err(info_next @ psi, np.eye(len(psi))) <= 1e-8, f"step {i}"
        mp = dense(motions[i - 1]) @ P
        g_mm = mp.T @ (mp / noise.q_diags[i - 1][:, None])
        assert rel_err(chol @ chol.T, info + g_mm) <= 1e-12, f"step {i}"
        info = info_next


@pytest.mark.parametrize("kind", ["Identity", "SparseCSR"])
def test_filter_hands_over_the_cholesky_of_its_information_matrix(prob, kind):
    # each step's F_i is bitwise the Cholesky factor of the Lambda_i it
    # returns; run_filter over the first t steps keeps F_t, and
    # F_t F_t^T is the step chain's Lambda_t (t = 0: F_0 = Lambda_0 = I)
    motions = transition_motions(kind, prob["geom"].n_x, prob["geom"].n_y,
                                 prob["n_steps"])
    noise, basis = prob["noise"], prob["basis"]
    ys, h_ops = prob["sino"].sinograms, prob["h_ops"]
    x, info = prob["x0"], np.eye(basis.rank)
    for t in range(prob["n_steps"] + 1):
        if t:
            x, info, _, factor = filter_step(
                x, info, motions[t - 1], h_ops[t], noise.q_diags[t - 1],
                noise.r_diags[t - 1], ys[t], basis)
            np.testing.assert_array_equal(factor, _cholesky(info, "Lambda"))
        filt = run_filter(ys[:t + 1], h_ops[:t + 1], motions[:t],
                          NoiseModel(noise.q_diags[:t], noise.r_diags[:t]),
                          basis, prob["x0"])
        f_t = filt.info_factor()
        if t == 0:
            np.testing.assert_array_equal(f_t, np.eye(basis.rank))
        assert rel_err(f_t @ f_t.T, info) <= 1e-12, f"step {t}"


def test_uniform_q_identity_step_matches_the_general_path(prob):
    # Identity under uniform Q predicts from one inverse of
    # Lambda_{i-1} + diag(d); SparseCSR(I) is the same transition through
    # gram_pair and the triangular solve. They agree to roundoff, the
    # diagonal path's Lambda_i is exactly symmetric, and Lambda_{i-1} is
    # left as it was
    n_s, noise, basis = prob["n_s"], prob["noise"], prob["basis"]
    assert all(q.min() == q.max() for q in noise.q_diags)
    ident, general = Identity(n_s), SparseCSR(sp.identity(n_s, format="csr"))
    x, info = prob["x0"], np.eye(basis.rank)
    for i in range(1, prob["n_steps"] + 1):
        rest = (prob["h_ops"][i], noise.q_diags[i - 1], noise.r_diags[i - 1],
                prob["sino"].sinograms[i], basis)
        kept = info.copy()
        x_d, info_d, chol_d, _ = filter_step(x, info, ident, *rest)
        np.testing.assert_array_equal(info, kept)
        x_g, info_g, chol_g, _ = filter_step(x, info, general, *rest)
        assert rel_err(x_d, x_g) <= 1e-12, f"step {i}"
        assert rel_err(info_d, info_g) <= 1e-12, f"step {i}"
        assert rel_err(chol_d, chol_g) <= 1e-12, f"step {i}"
        np.testing.assert_array_equal(info_d, info_d.T)
        x, info = x_d, info_d


def test_non_uniform_q_identity_step_takes_the_general_path(prob, monkeypatch):
    # a non-uniform Q makes G_PP non-diagonal: one triangular solve per step
    # and no inverse, as for any other motion
    calls = {name: count_calls(monkeypatch, owner, attr) for name, owner, attr in (
        ("solve_triangular", sla, "solve_triangular"),
        ("dpotri", sla.lapack, "dpotri"))}
    n_s, noise = prob["n_s"], prob["noise"]
    q = np.linspace(0.5, 2.0, n_s) * noise.q_diags[0]
    x, info = prob["x0"], np.eye(prob["basis"].rank)
    for i in range(1, prob["n_steps"] + 1):
        x, info, _, _ = filter_step(x, info, Identity(n_s), prob["h_ops"][i],
                                    q, noise.r_diags[i - 1],
                                    prob["sino"].sinograms[i], prob["basis"])
        assert len(calls["solve_triangular"]) == i, f"step {i}"
    assert calls["dpotri"] == []


def test_psi_symmetric_psd(reduced):
    filt, infos = reduced
    # each handover L_i is stored as r(r+1)/2 doubles and given back
    # exactly lower triangular
    r = filt.rank
    assert len(filt.chol_packed) == len(infos) - 1
    assert all(a.shape == (r * (r + 1) // 2,) for a in filt.chol_packed)
    for i in range(1, len(infos)):
        chol = filt.factor(i)
        assert chol.shape == (r, r)
        np.testing.assert_array_equal(chol, np.tril(chol))
    for info in infos:
        # the information matrices are exactly symmetric and PD
        np.testing.assert_array_equal(info, info.T)
        assert np.linalg.eigvalsh(info)[0] > 0.0
        psi = psi_of(info)
        assert np.max(np.abs(psi - psi.T)) <= 1e-12 * max(np.abs(psi).max(), 1.0)
        vals = np.linalg.eigvalsh(psi)
        assert vals.min() >= -1e-10 * np.linalg.norm(psi)


def test_cho_inverse_of_spd_and_indefinite():
    # the guarded factor's lower triangle is the Cholesky factor, the
    # inverse from it reads only that triangle and fills both (exactly
    # symmetric)
    rng = np.random.default_rng(8)
    for n in (1, 5, 40):
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        L = _cholesky(A, "test")
        assert rel_err(np.tril(L) @ np.tril(L).T, A) <= 1e-14
        inv = cho_inverse(L)
        np.testing.assert_array_equal(inv, cho_inverse(np.tril(L)))
        np.testing.assert_array_equal(inv, inv.T)
        assert rel_err(inv, np.linalg.inv(A)) <= 1e-12
    with pytest.raises(NumericError):
        cho_inverse(_cholesky(np.diag([1.0, -1.0]), "test"))


def test_mirror_lower_fills_upper_triangle_in_place():
    # in strips of 64 rows: sizes inside one strip, at its edge and across
    # several, in both memory orders
    rng = np.random.default_rng(4)
    for n in (1, 5, 63, 64, 65, 150):
        for order in ("C", "F"):
            A = np.array(rng.standard_normal((n, n)), order=order)
            want = np.where(np.tri(n, dtype=bool), A, A.T)
            assert mirror_lower(A) is A
            np.testing.assert_array_equal(A, want)


def test_zero_innovation_keeps_prediction(prob):
    motion = Identity(prob["n_s"])
    h = prob["h_ops"][1]
    x_prev, info_prev = prob["x0"], np.eye(prob["basis"].rank)
    xp = motion.apply(x_prev)
    y = h.apply(xp)  # exactly consistent data
    xe, _, _, _ = filter_step(x_prev, info_prev, motion, h,
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
    xe, _, _, _ = filter_step(prob["x0"], np.eye(n_s), Identity(n_s),
                              prob["h_ops"][1], q, r, prob["sino"].sinograms[1],
                              prob["basis"])
    x_static = static_init(prob["h_ops"][1], prob["basis"],
                           prob["sino"].sinograms[1])
    assert rel_err(xe, x_static) <= 1e-6


def test_static_init_equals_its_normal_equations_bitwise():
    # the shared measurement update from x = 0, R = I and the prior
    # information is the normal-equations solve, bit for bit
    prob = build_problem(n_x=16, n_y=12, n_angles=7, rank=60)
    args = (prob["h_ops"][0], prob["basis"], prob["sino"].sinograms[0])
    np.testing.assert_array_equal(static_init(*args),
                                  static_init_normal_equations(*args))


def test_static_init_zero_data(prob):
    x0 = static_init(prob["h_ops"][0], prob["basis"],
                     np.zeros(prob["h_ops"][0].shape[0]))
    np.testing.assert_allclose(x0, 0.0, atol=1e-15)


def test_static_init_identity_h_orthonormal_basis():
    rng = np.random.default_rng(3)
    n_s = 25
    # orthonormal 1-D blocks give orthonormal Kronecker columns: r = 4 * 2
    q_x, _ = np.linalg.qr(rng.standard_normal((5, 4)))
    q_y, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    basis = kron_basis(q_x, q_y, alpha=1e8)
    Q = dense_basis(basis)
    y = rng.standard_normal(n_s)
    x0 = static_init(SparseCSR(sp.eye(n_s)), basis, y)
    want = Q @ np.linalg.solve(Q.T @ Q, Q.T @ y)  # dense normal equations
    assert rel_err(x0, want) <= 1e-10


def test_innovation_whiteness_on_true_model():
    # linear-Gaussian data generated with the filter's own parameters:
    # time-averaged normalized innovations should have variance near 1
    prob = build_problem(n_x=10, n_y=10, n_steps=30, n_angles=6, ell=1.2)
    rng = np.random.default_rng(7)
    n_s, P = prob["n_s"], dense_basis(prob["basis"])
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
    filt, infos = filter_factors(ys, h_ops, motions, noise, prob["basis"],
                                 xs[0])
    scores = []
    for i in range(1, 31):
        innov = ys[i] - hd @ motions[i - 1].apply(filt.x_est[i - 1])
        cp = hd @ (P @ psi_of(infos[i - 1]) @ P.T
                   + np.diag(noise.q_diags[i - 1])) @ hd.T
        s = cp + np.diag(noise.r_diags[i - 1])
        scores.append(innov @ np.linalg.solve(s, innov) / m)
    avg = float(np.mean(scores))
    assert 0.5 <= avg <= 2.0, avg


def test_run_filter_t0_is_initialization(prob):
    noise = NoiseModel(q_diags=[], r_diags=[])
    filt = run_filter([prob["sino"].sinograms[0]], [prob["h_ops"][0]], [],
                      noise, prob["basis"], prob["x0"])
    assert filt.x_est.shape == (1, prob["n_s"])
    np.testing.assert_array_equal(filt.x_est[0], prob["x0"])
    r = prob["basis"].rank
    assert filt.chol_packed == []
    np.testing.assert_array_equal(filt.info_factor(), np.eye(r))
    assert filt.history_nbytes == r * (r + 1) // 2 * 8


def test_packing_round_trips_bitwise():
    # pack reads the lower triangle only (whatever lies above it), and
    # unpack, factor and info_factor give it back with exact zeros above
    # the diagonal
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 40):
        A = np.asfortranarray(rng.standard_normal((n, n)))
        ap = FilterResult.pack(A)
        assert ap.shape == (n * (n + 1) // 2,)
        low = FilterResult.unpack(ap, n)
        assert low.flags.f_contiguous
        np.testing.assert_array_equal(low, np.tril(A))
        np.testing.assert_array_equal(FilterResult.pack(low), ap)
        filt = FilterResult(x_est=np.zeros((1, 1)), chol_packed=[ap],
                            info_chol_packed=ap, rank=n)
        np.testing.assert_array_equal(filt.factor(1), np.tril(A))
        np.testing.assert_array_equal(filt.info_factor(), np.tril(A))


def test_run_filter_count_validation(prob):
    with pytest.raises(ConfigError):
        run_filter(prob["sino"].sinograms[:-1], prob["h_ops"],
                   [Identity(prob["n_s"])] * prob["n_steps"], prob["noise"],
                   prob["basis"], prob["x0"])


def test_initial_noise_is_flat_alpha_squared():
    noise = initial_noise(0.5, 4, [3, 2])
    assert noise.n_steps == 2
    for q, r, m in zip(noise.q_diags, noise.r_diags, (3, 2)):
        np.testing.assert_array_equal(q, np.full(4, 0.25))
        np.testing.assert_array_equal(r, np.full(m, 0.25))


def test_initial_noise_shares_one_array_per_length():
    # every transition holds the same flat array of its length (q and r
    # too, when a frame has n_s rows), and nbytes() counts it once
    noise = initial_noise(0.5, 4, [3, 2, 3, 4])
    assert all(q is noise.q_diags[0] for q in noise.q_diags)
    assert noise.r_diags[0] is noise.r_diags[2]
    assert noise.r_diags[3] is noise.q_diags[0]
    assert noise.r_diags[0] is not noise.r_diags[1]
    assert noise.nbytes() == (4 + 3 + 2) * 8
    # a replaced entry counts on its own; the shared array still counts once
    noise.q_diags[1] = np.full(4, 0.3)
    assert noise.nbytes() == (4 + 4 + 3 + 2) * 8


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.ones(4)], r_diags=[])
    with pytest.raises(ConfigError):
        NoiseModel(q_diags=[np.array([1.0, 0.0])], r_diags=[np.ones(2)])
    nm = NoiseModel(q_diags=[np.full(3, 0.5)], r_diags=[np.full(2, 2.0)])
    assert nm.n_steps == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["q_diags", "r_diags"])
def test_noise_model_rejects_non_finite_variances(field, bad):
    diags = {"q_diags": [np.full(3, 0.5)], "r_diags": [np.full(2, 2.0)]}
    diags[field][0][1] = bad
    with pytest.raises(ConfigError, match="finite"):
        NoiseModel(**diags)


def test_singular_observation_system_raises():
    # a zero factor block is not orthonormal: rejected before any solve
    with pytest.raises(ConfigError):
        ProjectionBasis(eigenvalues=np.ones(2),
                        index_pairs=np.array([[0, 0], [0, 1]]),
                        factor_x=np.zeros((2, 1)), factor_y=np.eye(2),
                        n_x=2, n_y=2,
                        config=PriorConfig(alpha=1.0, ell=1.0, rank=2))
    # a consistent basis with a zero-information observation (H = 0) and a
    # prior information alpha^-2 lambda that underflows to 0 (PriorConfig
    # keeps alpha^-2 itself nonzero): the reduced system is exactly singular
    basis = kron_basis(np.eye(2, 1), np.eye(2), eigenvalues=np.full(2, 1e-100),
                       alpha=1e150)
    np.testing.assert_array_equal(dense_basis(basis), 1e-50 * np.eye(4, 2))
    assert basis.config.alpha ** -2 * 1e-100 == 0.0
    with pytest.raises(NumericError, match="static init"):
        static_init(SparseCSR(sp.csr_matrix((3, 4))), basis, np.ones(3))
