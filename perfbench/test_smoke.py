"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench

Runs every workload shrunk to a 16x16 grid in both modes and checks that
each metric BENCHMARK.json names is emitted with its unit, and that the
seed changes the inputs but not the metric names.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY = [dataclasses.replace(w, n=16, rank=24, ref_rre=None)
        for w in bench.WORKLOADS.values()]


def _declared(kind):
    spec = json.loads(bench.SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_the_code():
    assert json.loads(bench.SPEC_PATH.read_text()) == bench.spec()


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(w, trace):
    result, details = bench.measure(w, seed=0, seconds=0.01, trace=trace)
    json.loads(json.dumps(result, allow_nan=False))
    json.loads(json.dumps(details, allow_nan=False))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert details["environment"]["DYNCT_THREADS"] == "1"


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_seed_changes_inputs_not_metric_names(w):
    ops = bench.build_operators(bench.make_inputs(w, 0).geometry)
    y0 = bench.sinograms(bench.make_inputs(w, 0), ops).sinograms
    y1 = bench.sinograms(bench.make_inputs(w, 1), ops).sinograms
    again = bench.sinograms(bench.make_inputs(w, 0), ops).sinograms
    assert all(a.tobytes() == b.tobytes() for a, b in zip(y0, again))
    assert any(a.tobytes() != b.tobytes() for a, b in zip(y0, y1))
    names = [set(bench.measure(w, seed, 0.01, False)[0]["metrics"]) for seed in (0, 1)]
    assert names[0] == names[1]
