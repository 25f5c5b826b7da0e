#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/ab_pairs.py PARENT CHILD grid128-irkfs --pairs 10 --seed 7

Each pair runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
once in each checkout, from the checkout's own directory; odd pairs run the
parent first, even pairs the child. Each run's metrics go to stderr as it
ends. Then, for each end-to-end metric of the parent's BENCHMARK.json, one
line gives each side's median and quartiles, the pairs the child wins
(strictly better in the metric's direction) and the gap between the two
medians, positive when the child is better, next to the parent's quartile
distance. A gain is told apart from run-to-run spread when the child wins
nearly every pair and the median gap exceeds that distance.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def quartiles(samples) -> tuple:
    """(q1, median, q3) of the samples, linearly interpolated."""
    q1, med, q3 = np.percentile(np.asarray(samples, dtype=float), [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(parent, child, better: str) -> dict:
    """Paired samples of one metric, parent[k] and child[k] from pair k,
    where ``better`` ("lower" or "higher") is the metric's good direction."""
    if len(parent) != len(child) or not parent:
        raise ValueError("summarize needs equally many parent and child samples")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(child)
    return {
        "parent": p,
        "child": c,
        "wins": sum(sign * (a - b) > 0 for a, b in zip(parent, child)),
        "pairs": len(parent),
        "gap": sign * (p[1] - c[1]),
        "parent_iqr": p[2] - p[0],
    }


def format_summary(name: str, unit: str, s: dict) -> str:
    p, c = s["parent"], s["child"]
    cleared = "exceeds" if s["gap"] > s["parent_iqr"] else "within"
    return (f"{name} [{unit}]: parent {p[1]:.6g} ({p[0]:.6g}-{p[2]:.6g}) "
            f"child {c[1]:.6g} ({c[0]:.6g}-{c[2]:.6g}) "
            f"wins {s['wins']}/{s['pairs']} "
            f"gap {s['gap']:+.6g} {cleared} parent IQR {s['parent_iqr']:.6g}")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in the checkout; its metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{checkout}: {result['failed']} failed reconstruction(s)",
              file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("child", type=Path)
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "child": args.child}
    samples = {side: {m["name"]: [] for m in metrics} for side in sides}
    for k in range(args.pairs):
        order = ("parent", "child") if k % 2 == 0 else ("child", "parent")
        for side in order:
            values = run_once(sides[side], args.workload, args.seed)
            for m in metrics:
                samples[side][m["name"]].append(values[m["name"]])
            print(f"pair {k + 1} {side}: " + " ".join(
                f"{m['name']}={values[m['name']]}" for m in metrics),
                file=sys.stderr, flush=True)
    print(f"{args.workload} seed={args.seed} pairs={args.pairs}")
    for m in metrics:
        s = summarize(samples["parent"][m["name"]], samples["child"][m["name"]],
                      m["better"])
        print(format_summary(m["name"], m["unit"], s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
