"""Shared builders for the test suite."""

import sys
from types import SimpleNamespace

import numpy as np

from dynct._linalg import _cholesky, cho_inverse
from dynct.filtering import (FilterResult, filter_step, initial_noise,
                             run_filter, static_init)
from dynct.linops import Identity, SparseCSR
from dynct.motion import fit_motion
from dynct.phantom import default_blocks_config, generate_frames
from dynct.prior import PriorConfig, ProjectionBasis, build_projection
from dynct.radon import build_operators, make_geometry, simulate_sinograms
from dynct.smoothing import run_smoother
from oracles import dense


def build_problem(n_x=12, n_y=12, n_steps=4, n_angles=5, sigma=0.05,
                  alpha=1.0, ell=0.7, rank=None, seed=0, angle_offset=0.2,
                  detector_count=None):
    """Small end-to-end problem with everything the oracles need.

    rank=None keeps every mode (r = n_s), which makes the reduced
    recursions algebraically exact against dense references.
    """
    n_s = n_x * n_y
    rank = n_s if rank is None else rank
    frames = generate_frames(default_blocks_config(n_x, n_y, n_steps))
    geom = make_geometry(n_x, n_y, n_angles, n_steps + 1,
                         angle_offset=angle_offset,
                         detector_count=detector_count)
    h_ops = build_operators(geom)
    sino = simulate_sinograms(frames, geom, sigma, seed + 1)
    basis = build_projection(n_x, n_y, PriorConfig(alpha=alpha, ell=ell,
                                                   rank=rank))
    noise = initial_noise(alpha, n_s, [op.shape[0] for op in h_ops[1:]])
    x0 = static_init(h_ops[0], basis, sino.sinograms[0])
    return {
        "frames": frames, "geom": geom, "h_ops": h_ops, "sino": sino,
        "basis": basis, "noise": noise, "x0": x0,
        "h_dense": [dense(op) for op in h_ops],
        "n_s": n_s, "n_steps": n_steps,
    }


def transition_motions(kind, n_x, n_y, n_steps, seed=0):
    """One transition operator of the given kind per step: Identity, a
    SparseCSR 0.9 I + 0.05 superdiagonal, or a PatchRank1 on 2 x 2 patches
    fitted by ``fit_motion`` (M3) to seeded positive frames (n_x, n_y even).
    Only the last two have G_MM != G_MP."""
    n_s = n_x * n_y
    if kind == "Identity":
        return [Identity(n_s) for _ in range(n_steps)]
    if kind == "SparseCSR":
        mat = 0.9 * np.eye(n_s) + 0.05 * np.eye(n_s, k=1)
        return [SparseCSR(mat) for _ in range(n_steps)]
    rng = np.random.default_rng(seed)
    return [fit_motion(rng.uniform(0.5, 1.5, n_s), rng.uniform(0.5, 1.5, n_s),
                       n_x, n_y, "m3", zeta=0.1, patch=(2, 2))
            for _ in range(n_steps)]


def kron_basis(factor_x, factor_y, eigenvalues=None, alpha=1.0):
    """A ProjectionBasis built by hand from orthonormal 1-D factor blocks,
    one column per (a, b) of the factor box in row-major order; unit
    eigenvalues unless given. With a one-column factor_y of [1] the basis
    is factor_x itself on an (n, 1) grid."""
    factor_x = np.asarray(factor_x, dtype=float)
    factor_y = np.asarray(factor_y, dtype=float)
    n_a, n_b = factor_x.shape[1], factor_y.shape[1]
    pairs = np.stack(np.divmod(np.arange(n_a * n_b), n_b), axis=1)
    lam = np.ones(n_a * n_b) if eigenvalues is None else eigenvalues
    return ProjectionBasis(
        eigenvalues=lam, index_pairs=pairs, factor_x=factor_x,
        factor_y=factor_y, n_x=factor_x.shape[0], n_y=factor_y.shape[0],
        config=PriorConfig(alpha=alpha, ell=1.0, rank=n_a * n_b))


def random_basis(n_x, n_y, rank, rng, box=None):
    """A ProjectionBasis on an n_x x n_y grid with random orthonormal factor
    blocks (box = (A, B) columns, the whole grid unless given), rank
    distinct random index pairs in the box and random eigenvalues in
    [0.5, 2]."""
    n_a, n_b = (n_x, n_y) if box is None else box
    factor_x = np.linalg.qr(rng.standard_normal((n_x, n_a)))[0]
    factor_y = np.linalg.qr(rng.standard_normal((n_y, n_b)))[0]
    flat = rng.choice(n_a * n_b, size=rank, replace=False)
    return ProjectionBasis(
        eigenvalues=rng.uniform(0.5, 2.0, rank),
        index_pairs=np.stack(np.divmod(flat, n_b), axis=1),
        factor_x=factor_x, factor_y=factor_y, n_x=n_x, n_y=n_y,
        config=PriorConfig(alpha=1.0, ell=1.0, rank=rank))


def filter_factors(y_frames, h_ops, motions, noise, basis, x0):
    """run_filter's result and every filter information matrix
    Lambda_0..Lambda_T (Lambda_0 = I, the whitened prior), from stepping
    ``filter_step`` as run_filter does; the filter itself keeps only the
    Cholesky factor F_T of Lambda_T. Asserts that the stepped means,
    packed handovers and last factor equal run_filter's bitwise."""
    filt = run_filter(y_frames, h_ops, motions, noise, basis, x0)
    x = np.asarray(x0, dtype=float)
    info = factor = np.eye(basis.rank)
    infos = [info]
    for i in range(1, noise.n_steps + 1):
        x, info, chol, factor = filter_step(
            x, info, motions[i - 1], h_ops[i], noise.q_diags[i - 1],
            noise.r_diags[i - 1], y_frames[i], basis)
        np.testing.assert_array_equal(x, filt.x_est[i])
        np.testing.assert_array_equal(chol, filt.chol_packed[i - 1])
        infos.append(info)
    np.testing.assert_array_equal(FilterResult.pack(factor),
                                  filt.info_chol_packed)
    return filt, infos


def problem_filter(prob, motions):
    """``filter_factors`` on a ``build_problem`` problem."""
    return filter_factors(prob["sino"].sinograms, prob["h_ops"], motions,
                          prob["noise"], prob["basis"], prob["x0"])


def smoothed_moments(filt, motions, noise, basis):
    """run_smoother with covariances, keeping what its per-step hook sees.

    Returns a namespace with x_sm, psi_sm (the T+1 smoothed reduced
    covariances) and omegas (omegas[i-1] = omega_i, the reduced lag-one
    cross covariance: C_{i,i-1}^sm = P omega_i P^T), for checks against the
    dense oracles; the smoother itself keeps none of these histories.
    """
    psi_sm = [None] * (noise.n_steps + 1)
    omegas = [None] * noise.n_steps

    def keep(i, x_sm, psi_sm_prev, psi_sm_i, omega_i):
        psi_sm[i - 1] = psi_sm_prev.copy()
        psi_sm[i] = psi_sm_i.copy()
        omegas[i - 1] = omega_i.copy()

    x_sm = run_smoother(filt, motions, noise, basis, with_covariance=True,
                        on_step=keep)
    return SimpleNamespace(x_sm=x_sm, psi_sm=psi_sm, omegas=omegas)


def psi_of(info):
    """Reduced covariance Psi = Lambda^{-1} from a filter information
    matrix Lambda, by ``cho_inverse`` of its Cholesky factor, as the
    smoother forms Psi_T^sm."""
    return cho_inverse(_cholesky(info, "information matrix"))


def dense_noise(problem):
    """Dense covariance lists matching the problem's diagonal NoiseModel."""
    q_covs = [np.diag(d) for d in problem["noise"].q_diags]
    r_covs = [np.diag(d) for d in problem["noise"].r_diags]
    return q_covs, r_covs


def rel_err(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(np.linalg.norm(np.asarray(b)), 1e-300))


def count_calls(monkeypatch, owner, attr, tag=lambda: None):
    """Record tag() at each call of owner.attr, under that name and every
    dynct-module name bound to the function."""
    original = getattr(owner, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(tag())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    for name, mod in list(sys.modules.items()):
        if name.startswith("dynct"):
            for bound, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, bound, counted)
    return calls
