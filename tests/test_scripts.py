"""Smoke test of the scripts the README points users to."""

import csv
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_desk_comparison_quick_run(tmp_path):
    methods = ["IRKFS", "EMIRKFS", "EMIRKFS-M1", "EMIRKFS-M2", "EMIRKFS-M3"]
    out = tmp_path / "comparison.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "desk_comparison.py"), "--quick",
         "--frames", "4", "--methods", *methods, "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one row per method and pass (two passes by default)
    assert [(row["method"], row["iteration"]) for row in rows] == [
        (m, str(j)) for m in methods for j in (1, 2)]
    assert all(math.isfinite(float(row["mean_rre"])) for row in rows)
    # each method's last row carries its tracked full and reduced peaks and
    # its measured (tracemalloc) peak, and the printed summary names all three
    for row in rows[1::2]:
        assert int(row["peak_bytes"]) > 0
        assert int(row["peak_reduced_bytes"]) > 0
        assert int(row["tracemalloc_peak_bytes"]) > 0
    assert proc.stdout.count("reduced") == len(methods)
    assert proc.stdout.count("measured") == len(methods)


def test_run_digest_repeats_bitwise(tmp_path):
    # two runs of one workload print the same line: the same trajectories
    # hash, final RRE repr and tracked peaks
    lines = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_digest.py"), "flow-m1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout)
    fields = lines[0].split()
    assert fields[:3] == ["flow-m1", "EMIRKFS-M1", "seed=0"]
    assert [f.split("=")[0] for f in fields[3:]] == [
        "sha256", "final_rre", "peak_bytes", "peak_reduced_bytes"]
    assert lines[0].count("\n") == 1
    assert lines[1] == lines[0]


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs",
                                                  SCRIPTS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_summary_on_fixed_samples():
    ab = _ab_pairs()
    parent = [0.160, 0.157, 0.168, 0.158, 0.163]
    child = [0.132, 0.127, 0.138, 0.161, 0.130]
    s = ab.summarize(parent, child, "lower")
    # quartiles interpolate linearly; the child wins the pairs it is
    # strictly better in; the gap is positive when the child is better
    assert s["parent"] == pytest.approx((0.158, 0.160, 0.163))
    assert s["child"] == pytest.approx((0.130, 0.132, 0.138))
    assert (s["wins"], s["pairs"]) == (4, 5)
    assert s["gap"] == pytest.approx(0.028)
    assert s["parent_iqr"] == pytest.approx(0.005)
    line = ab.format_summary("recon_s", "s", s)
    assert line.startswith("recon_s [s]: parent 0.16 (0.158-0.163) child 0.132")
    assert "wins 4/5" in line and "exceeds parent IQR" in line
    # a higher-is-better metric counts the other way; a tie is no win
    up = ab.summarize([1.0, 1.0, 0.9], [1.0, 0.9, 1.0], "higher")
    assert (up["wins"], up["gap"]) == (1, 0.0)
    assert "within parent IQR" in ab.format_summary("success_frac", "", up)
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0], "sideways")


def test_flow_restart_quick_run(tmp_path):
    # 16 x 16: flow-m1's 20 flow problems at each restart size and
    # unrestarted, at two iteration counts; a restarted solve's blocks do
    # not depend on max_iters, the unrestarted one's grow with it
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "flow_restart.py"), "--n", "16"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    assert head == "flow-m1 problems: 20 on 16x16, seed=0"
    labels = ["10", "15", "20", "unrestarted"]
    assert [line.split(":")[0] for line in lines] == [
        f"max_iters={m} tol=0.0001 k_max={k}" for m in (30, 300)
        for k in labels]
    n_s = 16 * 16

    def blocks(k):
        return (11 * n_s * k + k * k + k) * 8

    for line, k in zip(lines, [10, 15, 20, 35, 10, 15, 20, 305]):
        assert line.endswith(f", blocks {blocks(k)} B")
        assert "converged" in line and "ms/solve" in line
    for line in (lines[3], lines[7]):
        assert "J/J_unrestarted median 1.000000 max 1.000000" in line
