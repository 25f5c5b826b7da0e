"""Acceptance checklist. One test per numbered criterion; run with -v -s so
each criterion reports a single pass/fail line. Every test asserts both the
numerical tolerance and the stated runtime bound."""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from dynct._linalg import capacitance_factor
from dynct.em import update_q_diag, update_r_diag
from dynct.filtering import run_filter
from dynct.linops import Identity, SparseCSR
from dynct.metrics import MemoryTracker, memory_budget_bytes, noise_level
from dynct.mmgks import MMGKSConfig, mmgks_solve
from dynct.motion import build_warp, fit_motion, VelocityField
from dynct.phantom import default_blocks_config, generate_frames
from dynct.pipeline import MotionOptions, parse_method, run_emirkfs
from dynct.prior import PriorConfig, build_projection
from dynct.radon import build_operators, make_geometry, simulate_sinograms

from helpers import (build_problem, dense_noise, psi_of, rel_err,
                     smoothed_moments)
from oracles import (dense_expected_loglik, dense_irls, dense_kalman_filter, dense_q_update,
                     dense_r_update, dense_rts_smoother,
                     dense_cross_covariances)


def _ok(n: int, label: str) -> None:
    # reached only after every assert in the criterion has held
    print(f"criterion {n:02d} PASS  {label}")


@pytest.fixture(scope="module")
def small():
    """Criteria 1-2 setup: 12x12, T=4, r = n_s = 144, 5 angles."""
    t0 = time.perf_counter()
    prob = build_problem(n_x=12, n_y=12, n_steps=4, n_angles=5)
    motions = [Identity(prob["n_s"]) for _ in range(prob["n_steps"])]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])
    sm = smoothed_moments(filt, motions, prob["noise"], prob["basis"])
    P = prob["basis"].P
    q_covs, r_covs = dense_noise(prob)
    c0 = P @ psi_of(prob["a0"]) @ P.T
    dm = [np.eye(prob["n_s"])] * prob["n_steps"]
    means, covs, pmeans, pcovs = dense_kalman_filter(
        prob["x0"], c0, dm, q_covs, prob["h_dense"], r_covs,
        list(prob["sino"].sinograms))
    sm_means, sm_covs, gains = dense_rts_smoother(means, covs, pmeans, pcovs,
                                                  dm)
    return {"prob": prob, "filt": filt, "sm": sm, "means": means,
            "covs": covs, "sm_means": sm_means, "sm_covs": sm_covs,
            "built": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def desk():
    """Criteria 9 and 11 share one instrumented 64x64 run pair."""
    t0 = time.perf_counter()
    frames = generate_frames(default_blocks_config(64, 64, n_steps=10,
                                                   seed=0))
    geom = make_geometry(64, 64, 5, n_frames=11, angle_offset=math.pi / 25)
    h_ops = build_operators(geom)
    sino = simulate_sinograms(frames, geom, 0.01, seed=1)
    basis = build_projection(64, 64, PriorConfig(alpha=0.28, ell=1.76,
                                                 rank=300))
    opts = MotionOptions(zeta=5.0, patch=(8, 8))
    records = {}
    for name in ("IRKFS", "EMIRKFS-M3"):
        tracker = MemoryTracker()
        records[name] = run_emirkfs(sino, h_ops, basis,
                                    parse_method(name, n_iter=2), opts,
                                    truth=frames, tracker=tracker)
    return {"records": records, "h_ops": h_ops,
            "elapsed": time.perf_counter() - t0}


def test_criterion_01_reduced_filter_matches_dense_kalman(small):
    t0 = time.perf_counter()
    P = small["prob"]["basis"].P
    for i in range(small["prob"]["n_steps"] + 1):
        assert rel_err(small["filt"].x_est[i], small["means"][i]) <= 1e-8
        cov = P @ psi_of(small["filt"].a_est[i]) @ P.T
        assert rel_err(cov, small["covs"][i]) <= 1e-8
    assert small["built"] + time.perf_counter() - t0 < 10.0
    _ok(1, "reduced filter == dense Kalman filter to 1e-8")


def test_criterion_02_reduced_smoother_matches_dense_rts(small):
    t0 = time.perf_counter()
    P = small["prob"]["basis"].P
    for i in range(small["prob"]["n_steps"] + 1):
        assert rel_err(small["sm"].x_sm[i], small["sm_means"][i]) <= 1e-8
        cov = P @ small["sm"].psi_sm[i] @ P.T
        assert rel_err(cov, small["sm_covs"][i]) <= 1e-8
    assert small["built"] + time.perf_counter() - t0 < 10.0
    _ok(2, "reduced smoother == dense RTS smoother to 1e-8")


def test_criterion_03_smw_matches_dense_inversion():
    # the filter's Woodbury form P^T (C^p)^{-1} P = G_PP - V^T V, with
    # C^p = M P A A^T P^T M^T + Q and V = L^{-1} A^T G_MP from the shared
    # capacitance factor L, against a dense solve
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n_s = int(rng.integers(2, 65))
        r = int(rng.integers(1, 9))
        q = rng.uniform(0.2, 4.0, n_s)
        M = rng.standard_normal((n_s, n_s))
        P = rng.standard_normal((n_s, r))
        A = rng.standard_normal((r, r))
        MP = M @ P
        L = capacitance_factor(A, MP.T @ (MP / q[:, None]), "criterion 3")
        V = sla.solve_triangular(L, A.T @ (MP.T @ (P / q[:, None])),
                                 lower=True)
        got = P.T @ (P / q[:, None]) - V.T @ V
        B = MP @ A
        want = P.T @ np.linalg.solve(B @ B.T + np.diag(q), P)
        worst = max(worst, rel_err(got, want))
    assert worst <= 1e-10, worst
    assert time.perf_counter() - t0 < 5.0
    _ok(3, "filter Woodbury form == dense inversion over 200 trials to 1e-10")


def test_criterion_04_em_mstep_oracle_and_monotone_objective():
    t0 = time.perf_counter()
    # diagonal updates vs the dense closed forms, on real smoothed moments
    prob = build_problem(n_x=3, n_y=3, n_steps=4, n_angles=1, sigma=0.02,
                         detector_count=3)
    assert prob["h_ops"][1].shape[0] == 3  # m_t = 3 measurement rows
    motions = [Identity(9) for _ in range(4)]
    filt = run_filter(prob["sino"].sinograms, prob["h_ops"], motions,
                      prob["noise"], prob["basis"], prob["x0"], prob["a0"])
    sm = smoothed_moments(filt, motions, prob["noise"], prob["basis"])
    P = prob["basis"].P
    for i in range(1, 5):
        cov_sm_i = P @ sm.psi_sm[i] @ P.T
        cov_sm_prev = P @ sm.psi_sm[i - 1] @ P.T
        h = prob["h_dense"][i]
        y = prob["sino"].sinograms[i]
        r_want = np.diag(dense_r_update(y, h, sm.x_sm[i], cov_sm_i))
        r_got = update_r_diag(y, prob["h_ops"][i], sm.x_sm[i], sm.psi_sm[i],
                              P)
        assert rel_err(r_got, r_want) <= 1e-10
        q_want = np.diag(dense_q_update(sm.x_sm[i - 1], sm.x_sm[i],
                                        cov_sm_prev, cov_sm_i,
                                        P @ sm.omegas[i - 1] @ P.T,
                                        np.eye(9)))
        q_got = update_q_diag(sm.x_sm[i - 1], sm.x_sm[i], sm.psi_sm[i - 1],
                              sm.psi_sm[i], sm.omegas[i - 1], Identity(9),
                              prob["basis"])
        assert rel_err(q_got, q_want) <= 1e-10

    # full-covariance EM on a dense toy: objective never decreases
    rng = np.random.default_rng(7)
    n, m, T = 9, 3, 4
    m_op = 0.9 * np.eye(n) + 0.05 * rng.standard_normal((n, n))
    h = rng.standard_normal((m, n))
    mu0 = rng.standard_normal(n)
    sigma0 = np.eye(n)
    xs = [mu0 + rng.standard_normal(n)]
    ys = [np.zeros(m)]
    for _ in range(T):
        xs.append(m_op @ xs[-1] + 0.1 * rng.standard_normal(n))
        ys.append(h @ xs[-1] + 0.05 * rng.standard_normal(m))
    q_covs = [np.eye(n) * 0.5 for _ in range(T)]
    r_covs = [np.eye(m) * 0.5 for _ in range(T)]
    motions = [m_op] * T
    h_mats = [h] * (T + 1)
    g_prev = None
    for _ in range(5):
        means, covs, pmeans, pcovs = dense_kalman_filter(
            mu0, sigma0, motions, q_covs, h_mats, r_covs, ys)
        sm_means, sm_covs, gains = dense_rts_smoother(means, covs, pmeans,
                                                      pcovs, motions)
        cross = dense_cross_covariances(sm_covs, gains)
        g_now = dense_expected_loglik(ys, h_mats, motions, q_covs, r_covs,
                                      sm_means, sm_covs, cross, mu0, sigma0)
        if g_prev is not None:
            assert g_now - g_prev >= -1e-9
        # M-step with the same moments; G evaluated at the new (Q, R) must
        # also not drop below the old value
        q_covs = [dense_q_update(sm_means[i - 1], sm_means[i],
                                 sm_covs[i - 1], sm_covs[i], cross[i - 1],
                                 m_op)
                  for i in range(1, T + 1)]
        r_covs = [dense_r_update(ys[i], h, sm_means[i], sm_covs[i])
                  for i in range(1, T + 1)]
        g_prev = dense_expected_loglik(ys, h_mats, motions, q_covs, r_covs,
                                       sm_means, sm_covs, cross, mu0, sigma0)
        assert g_prev - g_now >= -1e-9
    assert time.perf_counter() - t0 < 10.0
    _ok(4, "EM M-step matches dense closed forms; objective monotone")


def test_criterion_05_radon_adjoint_identity():
    t0 = time.perf_counter()
    geometries = [
        make_geometry(12, 12, 5, 5, angle_offset=0.2),
        make_geometry(16, 16, 5, 4, angle_offset=0.1),
        make_geometry(10, 10, 12, 3, angle_offset=0.15),
        make_geometry(7, 7, 10, 2),
        make_geometry(64, 64, 5, 2, angle_offset=math.pi / 25),
        make_geometry(9, 5, 3, 2, detector_count=4),
    ]
    rng = np.random.default_rng(11)
    for geom in geometries:
        for op in build_operators(geom):
            for _ in range(50):
                x = rng.standard_normal(op.shape[1])
                y = rng.standard_normal(op.shape[0])
                hx = op.apply(x)
                hty = op.apply_transpose(y)
                gap = abs(hx @ y - x @ hty)
                assert gap <= 1e-12 * max(np.linalg.norm(hx)
                                          * np.linalg.norm(y), 1e-300)
    assert time.perf_counter() - t0 < 5.0
    _ok(5, "radon adjoint identity to 1e-12 on all geometries")


def test_criterion_06_noise_level_exact():
    t0 = time.perf_counter()
    frames = generate_frames(default_blocks_config(16, 16, n_steps=3, seed=2))
    geom = make_geometry(16, 16, 5, 4, angle_offset=0.1)
    h_ops = build_operators(geom)
    sino = simulate_sinograms(frames, geom, 0.01, seed=3)
    realized = noise_level(list(sino.sinograms), h_ops, list(frames))
    assert abs(realized - 0.01) <= 1e-12
    assert time.perf_counter() - t0 < 2.0
    _ok(6, "realized noise level 0.01 within 1e-12")


def test_criterion_07_motion_model_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    x_prev = rng.uniform(0.5, 2.0, 64)
    x_next = rng.uniform(0.5, 2.0, 64)
    m2 = fit_motion(x_prev, x_next, 8, 8, "m2", zeta=0.0)
    assert rel_err(m2.apply(x_prev), x_next) <= 1e-12

    m2z = fit_motion(x_prev, x_next, 8, 8, "m2", zeta=0.3)
    dense = np.outer(x_next, x_prev) / (x_prev @ x_prev + 0.3)
    probe = rng.standard_normal(64)
    assert rel_err(m2z.apply(probe), dense @ probe) <= 1e-14

    img = rng.uniform(0.0, 1.0, (10, 10))
    field = VelocityField(s_x=np.full(100, 2.0), s_y=np.full(100, -1.0),
                          n_x=10, n_y=10)
    warped = build_warp(field).apply(img.ravel()).reshape(10, 10)
    # pixel (i, j) sources from (i - s_y, j - s_x) = (i + 1, j - 2)
    err = np.abs(warped[:9, 2:] - img[1:, :8]).max()
    assert err <= 1e-14
    assert time.perf_counter() - t0 < 5.0
    _ok(7, "M2 closed form and warp algebraic identities hold")


def test_criterion_08_mmgks_matches_dense_irls():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 30))
    rows = np.arange(29)
    theta = np.zeros((29, 30))
    theta[rows, rows] = -1.0
    theta[rows, rows + 1] = 1.0
    b = a @ rng.standard_normal(30) + 0.1 * rng.standard_normal(40)
    lam, eps = 0.7, 1e-2
    res = mmgks_solve(SparseCSR(a), SparseCSR(theta), b,
                      MMGKSConfig(lam=lam, eps=eps, max_iters=150,
                                  tol=1e-12, seed_vectors=5))
    want = dense_irls(a, theta, b, lam, eps)
    assert rel_err(res.s, want) <= 1e-5
    for incoming, minimized in res.objectives:
        assert minimized <= incoming * (1 + 1e-10) + 1e-15
    assert time.perf_counter() - t0 < 10.0
    _ok(8, "MMGKS == dense IRLS fixed point to 1e-5; majorant monotone")


def test_criterion_09_end_to_end_ordering(desk):
    ir = desk["records"]["IRKFS"]
    em = desk["records"]["EMIRKFS-M3"]
    assert em.mean_rre(2) < ir.mean_rre(2)
    assert em.mean_rre(2) < em.mean_rre(1)
    assert desk["elapsed"] < 300.0
    _ok(9, "EMIRKFS-M3 beats IRKFS and improves across iterations")


def test_criterion_10_irkfs_outer_iterations_are_a_fixed_point():
    t0 = time.perf_counter()
    prob = build_problem(n_x=16, n_y=16, n_steps=3, n_angles=5, sigma=0.01,
                         rank=60)
    rec = run_emirkfs(prob["sino"], prob["h_ops"], prob["basis"],
                      parse_method("IRKFS", n_iter=3), truth=prob["frames"])
    assert np.array_equal(rec.trajectories[0], rec.trajectories[1])
    assert np.array_equal(rec.trajectories[0], rec.trajectories[2])
    assert time.perf_counter() - t0 < 60.0
    _ok(10, "IRKFS outer iterations bitwise identical")


def test_criterion_11_memory_within_reduced_order_budget(desk):
    m_t = max(op.shape[0] for op in desk["h_ops"][1:])
    want_budget = memory_budget_bytes(64 * 64, 300, 10, m_t)
    for record in desk["records"].values():
        assert record.budget_bytes == want_budget
        assert 0 < record.peak_bytes <= record.budget_bytes
    _ok(11, "tracked peak within 1.5x reduced-order budget")
