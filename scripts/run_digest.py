#!/usr/bin/env python3
"""Print a one-line digest of each benchmark workload's reconstruction.

Run from the repository root:

    python3 scripts/run_digest.py                       # every workload
    python3 scripts/run_digest.py desk-m3 flow-m1       # named ones
    python3 scripts/run_digest.py --method EMIRKFS-M2 desk-m3

Each workload runs once, on the inputs and settings perfbench/run.py
gives it (one BLAS thread, seed 0's phantom and noise), through
perfbench's own ``make_inputs``, ``set_up`` and ``reconstruct``;
``--method`` swaps in another method variant at the workload's size and
pass count. The line holds the sha256 of every pass's smoothed
trajectory (float64 bytes, pass order), the last pass's mean RRE (repr)
and the run's tracked full and reduced peaks. Two checkouts whose lines
agree reconstruct bitwise alike.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SEED = 0


def _load_perfbench():
    """perfbench/run.py as a module; importing it pins one BLAS thread
    before numpy loads and puts the checkout's src first on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", _RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(bench, w) -> str:
    inputs = bench.make_inputs(w, SEED)
    ops, basis, _, _ = bench.set_up(w, inputs, 1)
    record, _, _ = bench.reconstruct(w, bench.sinograms(inputs, ops), ops,
                                     basis, inputs.frames)
    sha = hashlib.sha256()
    for x_sm in record.trajectories:
        sha.update(x_sm.tobytes())
    return (f"{w.name} {w.method} seed={SEED} sha256={sha.hexdigest()} "
            f"final_rre={record.mean_rre(record.n_iter)!r} "
            f"peak_bytes={record.peak_bytes} "
            f"peak_reduced_bytes={record.peak_reduced_bytes}")


def main(argv=None) -> int:
    bench = _load_perfbench()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"any of {', '.join(sorted(bench.WORKLOADS))} "
                         "(default: all)")
    ap.add_argument("--method", help="method variant to run in place of each "
                                     "workload's own, e.g. EMIRKFS-M2")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(bench.WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s): {', '.join(unknown)}")
    for name in args.workloads or sorted(bench.WORKLOADS):
        w = bench.WORKLOADS[name]
        if args.method:
            w = dataclasses.replace(w, method=args.method)
        print(digest(bench, w), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
