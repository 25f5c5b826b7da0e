"""Smoke test of the scripts the README points users to."""

import csv
import math
import subprocess
import sys
from pathlib import Path

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
