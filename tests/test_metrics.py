"""Error metrics, tracker arithmetic, and the metrics CSV round-trip."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynct.errors import ConfigError, DataIOError
from dynct.linops import Identity
from dynct.metrics import (CSV_FIELDS, MemoryTracker, MetricsRow, PhaseTimer,
                           memory_budget_bytes, noise_level,
                           read_metrics_csv, rre, write_metrics_csv)
from dynct.phantom import default_blocks_config, generate_frames
from dynct.radon import build_operators, make_geometry, simulate_sinograms


def test_rre_trivial_values():
    t = np.array([3.0, 4.0])
    assert rre(t, t) == 0.0
    assert rre(np.zeros(2), t) == 1.0
    assert abs(rre(2.0 * t, t) - 1.0) <= 1e-15


def test_rre_scale_covariant():
    rng = np.random.default_rng(0)
    e, t = rng.random(40), rng.random(40) + 0.1
    base = rre(e, t)
    for c in (1e-6, 0.3, 7.0, -2.0, 1e6):
        assert abs(rre(c * e, c * t) - base) <= 1e-15 * max(base, 1.0)


def test_rre_domain_errors():
    with pytest.raises(ConfigError):
        rre(np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigError):
        rre(np.zeros(3), np.zeros(4))


def test_noise_level_trivials():
    x = np.array([1.0, 2.0, 2.0])
    h = Identity(3)
    assert noise_level([h.apply(x)], [h], [x]) == 0.0
    assert noise_level([np.zeros(3)], [h], [x]) == 1.0
    with pytest.raises(ConfigError):
        noise_level([np.ones(3)], [h], [np.zeros(3)])


def test_noise_level_matches_requested_sigma():
    frames = generate_frames(default_blocks_config(16, 16, n_steps=3))
    geom = make_geometry(16, 16, 5, n_frames=4, angle_offset=0.1)
    ops = build_operators(geom)
    sino = simulate_sinograms(frames, geom, 0.01, seed=3)
    flat = frames.reshape(4, -1)
    got = noise_level(sino.sinograms, ops, list(flat))
    assert abs(got - 0.01) <= 1e-12


def test_noise_level_sequence_validation():
    with pytest.raises(ConfigError):
        noise_level([np.ones(2)], [Identity(2), Identity(2)], [np.ones(2)])


def test_tracker_two_categories():
    tr = MemoryTracker()
    a, b = np.zeros(10), np.zeros(5)
    tr.add(a.nbytes)                        # 80 bytes full
    tr.add_reduced(48)
    assert tr.current_bytes == 80
    assert tr.peak_bytes == 80
    assert tr.peak_reduced_bytes == 48
    tr.add(b.nbytes)                        # peak 120
    tr.release(a.nbytes)
    assert tr.current_bytes == 40
    assert tr.peak_bytes == 120
    tr.release(b.nbytes)
    tr.release_reduced(48)
    assert tr.current_bytes == 0


def test_memory_budget_formula():
    # 1.5 * (n_s (r + T) + T m_t) doubles
    assert memory_budget_bytes(100, 30, 4, 70) == int(1.5 * (100 * 34 + 280) * 8)
    # criterion scale: 64x64, r=300, T=10, m_t per 5-angle scan
    n_s, r, T = 4096, 300, 10
    m_t = 5 * 91
    assert memory_budget_bytes(n_s, r, T, m_t) == int(
        1.5 * (n_s * (r + T) + T * m_t) * 8)


def test_phase_timer_accumulates():
    timer = PhaseTimer()
    with timer.phase("a"):
        pass
    timer.record("a", 1.5)
    timer.record("b", 0.25)
    assert timer.seconds["a"] >= 1.5
    assert timer.seconds["b"] == 0.25


def test_phase_timer_nested_phases_are_exclusive():
    timer = PhaseTimer()
    t0 = time.perf_counter()
    with timer.phase("outer"):
        for _ in range(2):
            with timer.phase("inner"):
                time.sleep(0.02)
    wall = time.perf_counter() - t0
    assert timer.seconds["inner"] >= 0.04
    assert 0.0 <= timer.seconds["outer"] < timer.seconds["inner"]
    assert sum(timer.seconds.values()) <= wall


def test_phase_timer_raising_phase_is_recorded_and_closed():
    # a phase left by an exception keeps its seconds and leaves the stack,
    # so the sibling after it is charged to itself alone
    timer = PhaseTimer()
    with timer.phase("outer"):
        with pytest.raises(RuntimeError):
            with timer.phase("failing"):
                time.sleep(0.02)
                raise RuntimeError("boom")
        with timer.phase("sibling"):
            time.sleep(0.02)
    assert timer.seconds["failing"] >= 0.02
    assert timer.seconds["sibling"] >= 0.02
    assert 0.0 <= timer.seconds["outer"] < 0.02
    assert timer._open == []


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        MetricsRow(method="IRKFS", iteration="1", timestep="0", rre="0.5",
                   phase="", seconds="", bytes=""),
        MetricsRow(method="IRKFS", iteration="1", timestep="", rre="",
                   phase="filter", seconds="0.125", bytes=""),
        MetricsRow(method="IRKFS", iteration="", timestep="", rre="",
                   phase="peak_bytes", seconds="", bytes="123456"),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    back = read_metrics_csv(path)
    assert len(back) == 3
    assert back[0]["rre"] == "0.5"
    assert back[1]["phase"] == "filter"
    assert back[2]["bytes"] == "123456"
    assert list(back[0].keys()) == CSV_FIELDS


def test_metrics_csv_missing_file(tmp_path):
    with pytest.raises(DataIOError):
        read_metrics_csv(tmp_path / "absent.csv")


def test_metrics_csv_undecodable_bytes_are_io_error(tmp_path):
    p = tmp_path / "binary.csv"
    p.write_bytes(b"method,iteration\n\xff\xfe\n")
    with pytest.raises(DataIOError, match="cannot read metrics csv"):
        read_metrics_csv(p)


def test_metrics_csv_header_check(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_metrics_csv(p)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20),
       st.floats(min_value=1e-3, max_value=1e3))
def test_rre_hypothesis_triangle(vals, c):
    t = np.asarray(vals) + 2e6  # bounded away from zero norm
    e = t * (1.0 + c * 1e-9)
    assert rre(e, t) <= c * 1e-9 * (1 + 1e-9) + 1e-15
