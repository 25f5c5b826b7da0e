#!/usr/bin/env python3
"""Desk-scale method comparison on the moving-blocks phantom.

Runs the requested method variants on one simulated scan and writes a
per-iteration summary CSV (mean RRE, phase timings and, on each method's
last row, its wall time, tracked full and reduced peaks and measured peak:
the most tracemalloc saw allocated during the run above what was
allocated when it started). tracemalloc runs throughout, so wall times
include its bookkeeping.
Defaults reproduce the 64x64 ordering experiment; --quick drops to 32x32
for a fast smoke run. M1 is excluded by default because the per-frame
flow solves dominate the runtime at 64x64.
"""

import argparse
import csv
import math
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynct.phantom import default_blocks_config, generate_frames
from dynct.pipeline import MotionOptions, parse_method, run_emirkfs
from dynct.prior import PriorConfig, build_projection
from dynct.radon import build_operators, make_geometry, simulate_sinograms

DEFAULT_METHODS = ["IRKFS", "EMIRKFS", "EMIRKFS-M2", "EMIRKFS-M3"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--methods", nargs="+", default=DEFAULT_METHODS)
    ap.add_argument("--n", type=int, default=64, help="grid side")
    ap.add_argument("--frames", type=int, default=11)
    ap.add_argument("--angles", type=int, default=5)
    ap.add_argument("--sigma", type=float, default=0.01)
    ap.add_argument("--rank", type=int, default=300)
    ap.add_argument("--alpha", type=float, default=0.28)
    ap.add_argument("--ell", type=float, default=1.76)
    ap.add_argument("--zeta", type=float, default=5.0)
    ap.add_argument("--n-iter", type=int, default=2)
    ap.add_argument("--rotate", type=float, default=math.pi / 25,
                    help="per-frame angle rotation (radians)")
    ap.add_argument("--quick", action="store_true",
                    help="32x32, rank 120 smoke run")
    ap.add_argument("--out", default="desk_comparison.csv")
    args = ap.parse_args()
    if args.quick:
        args.n, args.rank = 32, 120

    n = args.n
    frames = generate_frames(default_blocks_config(n, n,
                                                   n_steps=args.frames - 1))
    geom = make_geometry(n, n, args.angles, args.frames,
                         angle_offset=args.rotate)
    h_ops = build_operators(geom)
    sino = simulate_sinograms(frames, geom, args.sigma, seed=1,
                              operators=h_ops)
    basis = build_projection(n, n, PriorConfig(alpha=args.alpha, ell=args.ell,
                                               rank=args.rank))
    patch = (8, 8) if n % 8 == 0 else (n, n)
    opts = MotionOptions(zeta=args.zeta, patch=patch)

    rows = []
    tracemalloc.start()
    for name in args.methods:
        method = parse_method(name, n_iter=args.n_iter)
        rec = None  # the previous method's record is not this run's memory
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        rec = run_emirkfs(sino, h_ops, basis, method, opts, truth=frames)
        wall = time.perf_counter() - t0
        measured = tracemalloc.get_traced_memory()[1] - entry
        for j in range(1, rec.n_iter + 1):
            rows.append({
                "method": name, "iteration": j,
                "mean_rre": rec.mean_rre(j),
                **{f"{k}_s": round(v, 3)
                   for k, v in rec.phase_seconds[j - 1].items()},
            })
        rows[-1]["wall_s"] = round(wall, 3)
        rows[-1]["peak_bytes"] = rec.peak_bytes
        rows[-1]["peak_reduced_bytes"] = rec.peak_reduced_bytes
        rows[-1]["tracemalloc_peak_bytes"] = measured
        print(f"{name:12s} " + "  ".join(
            f"it{j}={rec.mean_rre(j):.4f}" for j in range(1, rec.n_iter + 1))
            + f"  ({wall:.1f}s, peak {rec.peak_bytes / 1e6:.1f} MB, "
            f"reduced {rec.peak_reduced_bytes / 1e6:.1f} MB, "
            f"measured {measured / 1e6:.1f} MB)")
    tracemalloc.stop()

    fields = sorted({k for r in rows for k in r},
                    key=lambda k: (k not in ("method", "iteration",
                                             "mean_rre"), k))
    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
