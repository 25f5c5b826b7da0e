"""Shared builders for the test suite."""

import sys
from types import SimpleNamespace

import numpy as np

from dynct.filtering import initial_noise, static_init
from dynct.linops import Identity, SparseCSR
from dynct.motion import dmd_patchwise
from dynct.phantom import default_blocks_config, generate_frames
from dynct.prior import PriorConfig, ProjectionBasis, build_projection
from dynct.radon import build_operators, make_geometry, simulate_sinograms
from dynct.smoothing import run_smoother
from oracles import column_loop_projection, dense


def build_problem(n_x=12, n_y=12, n_steps=4, n_angles=5, sigma=0.05,
                  alpha=1.0, ell=0.7, rank=None, seed=0, angle_offset=0.2,
                  q_scale=1.0, r_scale=1.0, detector_count=None):
    """Small end-to-end problem with everything the oracles need.

    rank=None keeps every mode (r = n_s), which makes the reduced
    recursions algebraically exact against dense references.
    """
    n_s = n_x * n_y
    rank = n_s if rank is None else rank
    frames = generate_frames(default_blocks_config(n_x, n_y, n_steps, seed))
    geom = make_geometry(n_x, n_y, n_angles, n_steps + 1,
                         angle_offset=angle_offset,
                         detector_count=detector_count)
    h_ops = build_operators(geom)
    sino = simulate_sinograms(frames, geom, sigma, seed + 1)
    basis = build_projection(n_x, n_y, PriorConfig(alpha=alpha, ell=ell,
                                                   rank=rank))
    noise = initial_noise(alpha, n_s, [op.shape[0] for op in h_ops[1:]],
                          q_scale=q_scale, r_scale=r_scale)
    x0, a0 = static_init(h_ops[0], basis, sino.sinograms[0])
    return {
        "frames": frames, "geom": geom, "h_ops": h_ops, "sino": sino,
        "basis": basis, "noise": noise, "x0": x0, "a0": a0,
        "h_dense": [dense(op) for op in h_ops],
        "n_s": n_s, "n_steps": n_steps,
    }


def transition_motions(kind, n_x, n_y, n_steps, seed=0):
    """One transition operator of the given kind per step: Identity, a
    SparseCSR 0.9 I + 0.05 superdiagonal, or a PatchRank1 on 2 x 2 patches
    fitted by ``dmd_patchwise`` to seeded positive frames (n_x, n_y even).
    Only the last two have G_MM != G_MP."""
    n_s = n_x * n_y
    if kind == "Identity":
        return [Identity(n_s) for _ in range(n_steps)]
    if kind == "SparseCSR":
        mat = 0.9 * np.eye(n_s) + 0.05 * np.eye(n_s, k=1)
        return [SparseCSR(mat) for _ in range(n_steps)]
    rng = np.random.default_rng(seed)
    return [dmd_patchwise(rng.uniform(0.5, 1.5, n_s), rng.uniform(0.5, 1.5, n_s),
                          n_x, n_y, patch=(2, 2), zeta=0.1)
            for _ in range(n_steps)]


def kron_basis(factor_x, factor_y, eigenvalues=None, alpha=1.0):
    """A ProjectionBasis built by hand from 1-D factor blocks, one column per
    (a, b) of the factor box in row-major order; unit eigenvalues unless
    given. With a one-column factor_y of [1] the basis is factor_x itself
    on an (n, 1) grid."""
    factor_x = np.asarray(factor_x, dtype=float)
    factor_y = np.asarray(factor_y, dtype=float)
    n_a, n_b = factor_x.shape[1], factor_y.shape[1]
    pairs = np.stack(np.divmod(np.arange(n_a * n_b), n_b), axis=1)
    lam = np.ones(n_a * n_b) if eigenvalues is None else eigenvalues
    return ProjectionBasis(
        P=column_loop_projection(factor_x, factor_y, pairs, lam),
        eigenvalues=lam, index_pairs=pairs, factor_x=factor_x,
        factor_y=factor_y, n_x=factor_x.shape[0], n_y=factor_y.shape[0],
        config=PriorConfig(alpha=alpha, ell=1.0, rank=n_a * n_b))


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


def psi_of(a):
    """Reduced covariance Psi = A A^T from a filter factor A."""
    return a @ a.T


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
