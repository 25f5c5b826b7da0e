#!/usr/bin/env python3
"""Measure the MMGKS flow solver's restart size on flow-m1's flow problems.

Run from the repository root:

    python3 scripts/flow_restart.py            # flow-m1's 32 x 32 grid
    python3 scripts/flow_restart.py --n 16     # a quick run at 16 x 16

The problems are the (V, b) pairs of every flow solve in one flow-m1
reconstruction (perfbench's inputs and settings, seed 0, one BLAS thread):
10 transitions in each of 2 passes. Each problem is solved with the basis
restarted at k_max = 10, 15 and 20 vectors and unrestarted (k_max =
seed_vectors + max_iters), first with the default ``MMGKSConfig`` and then
with max_iters=300, tol=1e-4. Per setting one line gives:

- ms per solve (wall time, including the allocation of the solve's own
  Krylov blocks, which each solve of an M1 run pays too);
- the objective J = ||V s - b||^2 + 2 lam sum phi_eps(Theta s) over the
  unrestarted solver's J at the same iteration count (median and max; lam
  and eps are the unrestarted solve's). J is what the iteration descends:
  its majorant ||V s - b||^2 + lam ||P Theta s||^2 + const touches it at
  the iterate;
- how many solves met tol;
- the distance ||s - s*|| / ||s*|| to the converged solve s*, the fixed
  point of sparse-direct IRLS on the full space at the same lam and eps
  (median and max);
- the bytes of a solve's Krylov blocks (``mmgks.basis_nbytes`` while
  ``mmgks.K_MAX`` is patched to k_max).
"""

import argparse
import dataclasses
import sys
import time

from run_digest import SEED, _load_perfbench

# numpy, scipy and dynct are imported inside the functions: main loads
# perfbench/run.py first, which pins one BLAS thread before numpy loads.

K_MAX_VALUES = (10, 15, 20)
LONG = {"max_iters": 300, "tol": 1e-4}


def flow_problems(bench, n: int) -> list:
    """(V, Theta, b) of every flow solve in one flow-m1 reconstruction on an
    n x n grid."""
    from dynct import motion
    w = dataclasses.replace(bench.WORKLOADS["flow-m1"], n=n)
    inputs = bench.make_inputs(w, SEED)
    ops, basis, _, _ = bench.set_up(w, inputs, 1)
    problems = []
    solve = motion.mmgks_solve

    def record(a_op, theta_op, b, *args, **kwargs):
        problems.append((a_op, theta_op, b))
        return solve(a_op, theta_op, b, *args, **kwargs)

    motion.mmgks_solve = record
    try:
        bench.reconstruct(w, bench.sinograms(inputs, ops), ops, basis,
                          inputs.frames)
    finally:
        motion.mmgks_solve = solve
    return problems


def objective(a_op, theta_op, b, s, lam, eps) -> float:
    fit = a_op.apply(s) - b
    phi = (theta_op.apply(s) ** 2 + eps ** 2) ** 0.5
    return float(fit @ fit + 2 * lam * phi.sum())


def converged_solve(a_op, theta_op, b, lam, eps, tol=1e-10, max_iters=2000):
    """Full-space IRLS fixed point, each step a sparse-direct solve of the
    normal equations at weights (z^2 + eps^2)^(-1/2), from unit weights."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve
    a, theta = a_op.matrix, theta_op.matrix
    ata, atb = (a.T @ a).tocsc(), a.T @ b
    weights = np.ones(theta.shape[0])
    s = None
    for _ in range(max_iters):
        s_new = spsolve(ata + lam * (theta.T @ sp.diags(weights) @ theta), atb)
        if s is not None and (np.linalg.norm(s_new - s)
                              <= tol * np.linalg.norm(s)):
            return s_new
        s = s_new
        weights = 1.0 / np.sqrt((theta @ s) ** 2 + eps ** 2)
    raise SystemExit("flow_restart: IRLS did not converge")


def run_setting(mmgks, problems, k_max: int, cfg) -> dict:
    """Every problem solved with the basis restarted at k_max vectors."""
    m, n = problems[0][0].shape
    t = problems[0][1].shape[0]
    saved = mmgks.K_MAX
    mmgks.K_MAX = k_max
    try:
        results, seconds = [], 0.0
        for a_op, theta_op, b in problems:
            t0 = time.perf_counter()
            results.append(mmgks.mmgks_solve(a_op, theta_op, b, cfg))
            seconds += time.perf_counter() - t0
        nbytes = mmgks.basis_nbytes(m, n, t)
    finally:
        mmgks.K_MAX = saved
    return {"results": results, "ms": 1e3 * seconds / len(problems),
            "nbytes": nbytes}


def main(argv=None) -> int:
    bench = _load_perfbench()
    import numpy as np
    from dynct import mmgks
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=bench.WORKLOADS["flow-m1"].n,
                    help="grid side (default: flow-m1's)")
    args = ap.parse_args(argv)
    problems = flow_problems(bench, args.n)
    print(f"flow-m1 problems: {len(problems)} on {args.n}x{args.n}, "
          f"seed={SEED}", flush=True)
    stars = None
    for cfg in (mmgks.MMGKSConfig(), mmgks.MMGKSConfig(**LONG)):
        full = run_setting(mmgks, problems,
                           cfg.seed_vectors + cfg.max_iters, cfg)
        if stars is None:
            stars = [converged_solve(a_op, theta_op, b, res.lam, res.eps)
                     for (a_op, theta_op, b), res in zip(problems,
                                                         full["results"])]
        settings = [(str(k), run_setting(mmgks, problems, k, cfg))
                    for k in K_MAX_VALUES] + [("unrestarted", full)]
        for label, out in settings:
            ratio, dist = [], []
            for (a_op, theta_op, b), res, ref, star in zip(
                    problems, out["results"], full["results"], stars):
                j = objective(a_op, theta_op, b, res.s, ref.lam, ref.eps)
                ratio.append(j / objective(a_op, theta_op, b, ref.s,
                                           ref.lam, ref.eps))
                dist.append(np.linalg.norm(res.s - star)
                            / np.linalg.norm(star))
            done = sum(res.converged for res in out["results"])
            print(f"max_iters={cfg.max_iters} tol={cfg.tol:g} "
                  f"k_max={label}: {out['ms']:.2f} ms/solve, "
                  f"J/J_unrestarted median {np.median(ratio):.6f} "
                  f"max {np.max(ratio):.6f}, "
                  f"converged {done}/{len(problems)}, "
                  f"distance to converged median {np.median(dist):.3g} "
                  f"max {np.max(dist):.3g}, "
                  f"blocks {out['nbytes']} B", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
