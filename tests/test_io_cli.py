"""Persistence formats, config validation, and the three CLI workflows."""

import configparser
import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynct import cli, radon
from dynct.cli import main
from dynct.errors import ConfigError, DataIOError, NumericError
from dynct.io_formats import (_REQUIRED, _SCHEMA, DEFAULT_NOISE_LEVEL,
                              content_hash, load_config, read_array,
                              read_manifest, write_array, write_manifest,
                              write_pgm)
from dynct.metrics import read_metrics_csv
from helpers import count_calls


def _write_config(path, out_dir, **overrides):
    sections = {
        "phantom": {"n_x": 16, "n_y": 16, "n_frames": 4},
        "scan": {"n_angles": 5},
        "prior": {"alpha": 1.0, "ell": 2.0, "rank": 40},
        "method": {"name": "IRKFS", "n_iter": 2},
        "noise": {"sigma": 0.02, "seed": 7},
        "output": {"directory": str(out_dir)},
    }
    for dotted, value in overrides.items():
        sect, key = dotted.split(".")
        if value is None:
            sections.setdefault(sect, {}).pop(key, None)
        else:
            sections.setdefault(sect, {})[key] = value
    parser = configparser.ConfigParser()
    for sect, keys in sections.items():
        if keys:
            parser[sect] = {k: str(v) for k, v in keys.items()}
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


@pytest.fixture
def sim_run(tmp_path):
    """A simulated 16x16 data set plus its config path."""
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "run.cfg", data)
    assert main(["simulate", cfg]) == 0
    return cfg, str(data)


# -- array and image containers ------------------------------------------------

def test_array_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 5, 4))
    base = str(tmp_path / "frames")
    write_array(base, arr)
    back = read_array(base)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    vec = rng.standard_normal(17)
    write_array(str(tmp_path / "v"), vec)
    assert np.array_equal(read_array(str(tmp_path / "v")), vec)


def test_read_array_rejects_tampered_sidecar(tmp_path):
    base = str(tmp_path / "a")
    write_array(base, np.zeros(4))
    text = open(base + ".txt").read().replace("float64-le", "float32-le")
    open(base + ".txt", "w").write(text)
    with pytest.raises(DataIOError):
        read_array(base)


def test_read_array_rejects_size_mismatch(tmp_path):
    base = str(tmp_path / "a")
    write_array(base, np.zeros((2, 3)))
    with open(base + ".bin", "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(DataIOError):
        read_array(base)


def test_read_array_rejects_negative_dimension(tmp_path):
    # (-2) * (-2) matches the 4 values, but no array has that shape
    base = str(tmp_path / "a")
    write_array(base, np.zeros(4))
    text = open(base + ".txt").read().replace("shape: 4", "shape: -2 -2")
    open(base + ".txt", "w").write(text)
    with pytest.raises(DataIOError, match="negative dimension"):
        read_array(base)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_array_rejects_non_finite(tmp_path, bad):
    base = str(tmp_path / "a")
    write_array(base, np.array([[0.0, 1.0], [bad, 2.0]]))
    with pytest.raises(NumericError, match="non-finite"):
        read_array(base)


def test_pgm_header_and_range(tmp_path):
    img = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
    path = str(tmp_path / "img.pgm")
    write_pgm(path, img)
    raw = open(path, "rb").read()
    assert raw.startswith(b"P5")
    header = raw.split(b"\n")
    assert header[1] == b"4 3"
    assert header[2] == b"255"
    pixels = np.frombuffer(raw[len(b"\n".join(header[:3])) + 1:], dtype=np.uint8)
    assert pixels.min() == 0 and pixels.max() == 255


# -- config schema ---------------------------------------------------------------

def test_config_minimal_loads(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.cfg", tmp_path / "o"))
    assert cfg.n_x == cfg.n_y == 16
    assert cfg.method.name == "IRKFS"
    assert cfg.method.n_iter == 2
    assert cfg.sigma == 0.02


def test_config_sigma_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.cfg", tmp_path / "o",
                                    **{"noise.sigma": None}))
    assert cfg.sigma == DEFAULT_NOISE_LEVEL == 0.01


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_config_non_finite_sigma_rejected(tmp_path, bad):
    path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                         **{"noise.sigma": bad})
    with pytest.raises(ConfigError, match="noise.sigma"):
        load_config(path)


def test_config_negative_noise_seed_rejected(tmp_path):
    path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                         **{"noise.seed": -1})
    with pytest.raises(ConfigError, match="noise.seed"):
        load_config(path)
    assert load_config(_write_config(tmp_path / "z.cfg", tmp_path / "o",
                                     **{"noise.seed": 0})).noise_seed == 0


# keys a config once took; each now names itself as unknown
_REMOVED_KEYS = {"phantom.seed": 1, "method.q_scale": 2.0,
                 "method.r_scale": 0.5, "motion.flow_seed_vectors": 6,
                 "motion.flow_max_iters": 40, "motion.flow_tol": 1e-5}


def test_config_unknown_key_rejected(tmp_path):
    for dotted, value in {"phantom.n_z": 4, **_REMOVED_KEYS}.items():
        path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                             **{dotted: value})
        with pytest.raises(ConfigError, match=f"unknown key {dotted}$"):
            load_config(path)


def test_config_unknown_section_rejected(tmp_path):
    path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                         **{"teleport.speed": 3})
    with pytest.raises(ConfigError, match="teleport"):
        load_config(path)


def test_config_missing_required(tmp_path):
    path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                         **{"prior.rank": None})
    with pytest.raises(ConfigError, match="prior.rank"):
        load_config(path)


def test_config_single_frame_rejected(tmp_path):
    path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                         **{"phantom.n_frames": 1})
    with pytest.raises(ConfigError, match="n_frames"):
        load_config(path)


def test_config_patch_divisibility_named(tmp_path):
    path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                         **{"method.name": "IRKFS-M3", "motion.z_x": 3})
    with pytest.raises(ConfigError, match="z_x"):
        load_config(path)


def test_config_motion_errors_name_their_keys(tmp_path):
    m3 = _write_config(tmp_path / "m3.cfg", tmp_path / "o",
                       **{"method.name": "IRKFS-M3", "motion.z_y": 3})
    with pytest.raises(ConfigError, match=r"^config: motion\.z_x/z_y: patch"):
        load_config(m3)
    m1 = _write_config(tmp_path / "m1.cfg", tmp_path / "o",
                       **{"method.name": "IRKFS-M1", "phantom.n_y": 1})
    with pytest.raises(ConfigError, match=r"^config: phantom\.n_x/n_y: optical"):
        load_config(m1)


def test_config_bad_boolean_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                        **{"output.pgm": "maybe"})
    assert main(["simulate", cfg]) == 2
    assert "output.pgm" in capsys.readouterr().err
    for raw, want in (("yes", True), ("0", False)):
        path = _write_config(tmp_path / "c.cfg", tmp_path / "o",
                             **{"output.pgm": raw})
        assert load_config(path).write_pgm is want


def test_config_missing_file_is_io_error(tmp_path):
    with pytest.raises(DataIOError):
        load_config(str(tmp_path / "absent.cfg"))


# -- the README's config section -------------------------------------------------

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_loads(tmp_path):
    text = _README.read_text()
    example = text.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.cfg").write_text(example)
    cfg = load_config(str(tmp_path / "run.cfg"))
    assert cfg.method.name == "EMIRKFS-M3"


def test_readme_names_exactly_the_optional_keys():
    # the sentence names each key in backticks, as `[section] key` or, for
    # a further key of the same section, as `key`
    text = " ".join(_README.read_text().split())
    sentence = text.split("Optional sections/keys:", 1)[1].split(
        "Unknown sections", 1)[0]
    named, section = set(), None
    for token in re.findall(r"`([^`]*)`", sentence):
        head = re.fullmatch(r"\[(\w+)\] (\w+)", token)
        if head:
            section, token = head.groups()
        named.add((section, token))
    optional = {(sect, key) for sect, keys in _SCHEMA.items() for key in keys
                if key not in _REQUIRED.get(sect, ())}
    assert named == optional


# -- manifests -------------------------------------------------------------------

def test_manifest_round_trip_and_hash(tmp_path):
    f1 = tmp_path / "x.bin"
    f1.write_bytes(b"12345")
    path = str(tmp_path / "manifest.json")
    write_manifest(path, {"alpha": 0.5}, [str(f1)])
    back = read_manifest(path)
    assert back["params"]["alpha"] == 0.5
    assert back["content_sha256"] == content_hash([str(f1)])
    f1.write_bytes(b"12346")
    assert back["content_sha256"] != content_hash([str(f1)])


# -- simulate --------------------------------------------------------------------

def test_simulate_outputs_and_determinism(tmp_path):
    data1 = tmp_path / "d1"
    data2 = tmp_path / "d2"
    cfg1 = _write_config(tmp_path / "c1.cfg", data1)
    cfg2 = _write_config(tmp_path / "c2.cfg", data2)
    assert main(["simulate", cfg1]) == 0
    assert main(["simulate", cfg2]) == 0
    for name in ("truth.bin", "truth.txt", "sinograms.bin", "manifest.json"):
        assert (data1 / name).exists(), name
    m1 = read_manifest(str(data1 / "manifest.json"))
    m2 = read_manifest(str(data2 / "manifest.json"))
    assert m1["content_sha256"] == m2["content_sha256"]
    assert abs(m1["params"]["realized_noise_level"] - 0.02) <= 1e-12


def test_simulate_builds_operators_once(tmp_path, monkeypatch):
    # the sinograms and the realized noise level share one operator set
    calls = count_calls(monkeypatch, radon, "build_operators")
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "d")
    assert main(["simulate", cfg]) == 0
    assert len(calls) == 1


def test_simulate_records_default_sigma(tmp_path):
    data = tmp_path / "d"
    cfg = _write_config(tmp_path / "c.cfg", data, **{"noise.sigma": None})
    assert main(["simulate", cfg]) == 0
    params = read_manifest(str(data / "manifest.json"))["params"]
    assert params["sigma"] == 0.01


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "d",
                        **{"method.name": "IRKFS-M3", "motion.z_x": 3})
    assert main(["simulate", cfg]) == 2
    assert "z_x" in capsys.readouterr().err


@pytest.mark.parametrize("dotted, value, named", [
    ("prior.rank", 257, "prior.rank"),
    ("scan.n_angles", 0, "n_angles"),
    ("scan.detector_count", 0, "detector_count"),
])
def test_simulate_rejects_what_reconstruct_rejects(tmp_path, capsys, dotted,
                                                   value, named):
    # a rank above n_x * n_y = 256 or an empty scan is rejected when the
    # config loads, before simulate creates its output directory
    data = tmp_path / "d"
    cfg = _write_config(tmp_path / "c.cfg", data, **{dotted: value})
    assert main(["simulate", cfg]) == 2
    assert named in capsys.readouterr().err
    assert not data.exists()


def test_removed_key_exits_2(tmp_path, capsys):
    for dotted, value in _REMOVED_KEYS.items():
        cfg = _write_config(tmp_path / "c.cfg", tmp_path / "d",
                            **{dotted: value})
        assert main(["simulate", cfg]) == 2
        assert f"unknown key {dotted}" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_simulate_pgm_export(tmp_path):
    data = tmp_path / "d"
    cfg = _write_config(tmp_path / "c.cfg", data, **{"output.pgm": "true"})
    assert main(["simulate", cfg]) == 0
    assert (data / "truth_t000.pgm").exists()
    assert (data / "truth_t003.pgm").exists()


# -- reconstruct -----------------------------------------------------------------

def test_reconstruct_irkfs_iterations_identical(sim_run):
    cfg, data = sim_run
    assert main(["reconstruct", cfg, data]) == 0
    out = os.path.join(data, "IRKFS")
    for t in range(4):
        b1 = open(os.path.join(out, f"recon_i1_t{t:03d}.bin"), "rb").read()
        b2 = open(os.path.join(out, f"recon_i2_t{t:03d}.bin"), "rb").read()
        assert b1 == b2, t
    rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
    rre_rows = [r for r in rows if r["rre"]]
    assert len(rre_rows) == 2 * 4  # n_iter * (T+1)
    for it in ("1", "2"):
        assert sum(r["iteration"] == it for r in rre_rows) == 4


def test_reconstruct_missing_data_dir(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "never")
    assert main(["reconstruct", cfg, str(tmp_path / "never")]) == 3


def test_reconstruct_mismatched_config(sim_run, tmp_path, capsys):
    _, data = sim_run
    other = _write_config(tmp_path / "other.cfg", data,
                          **{"phantom.n_frames": 5})
    assert main(["reconstruct", other, data]) == 2
    assert "does not match config" in capsys.readouterr().err


def test_reconstruct_basis_grid_mismatch_exits_2(tmp_path, monkeypatch,
                                                 capsys):
    # a basis on the transposed grid has the 16 x 8 image's pixel count but
    # not its grid: a config error, not a run on the wrong algebra
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "run.cfg", data, **{"phantom.n_y": 8})
    assert main(["simulate", cfg]) == 0
    original = cli.build_projection

    def transposed(n_x, n_y, prior_cfg):
        return original(n_y, n_x, prior_cfg)

    monkeypatch.setattr(cli, "build_projection", transposed)
    assert main(["reconstruct", cfg, str(data)]) == 2
    assert "basis grid 8 x 16" in capsys.readouterr().err


@pytest.mark.parametrize("n_x, n_y", [(8, 1), (1, 8)])
def test_m1_config_on_a_thin_grid_exits_2(tmp_path, capsys, n_x, n_y):
    # the optical flow needs two pixels along each axis: the config is
    # rejected when it loads, before simulate writes a data set, and
    # reconstruct never reaches numpy's gradient error
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "run.cfg", data,
                        **{"phantom.n_x": n_x, "phantom.n_y": n_y,
                           "prior.rank": 4, "method.name": "EMIRKFS-M1"})
    for argv in (["simulate", cfg], ["reconstruct", cfg, str(data)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config: phantom.n_x/n_y" in err
        assert f"at least 2 x 2 pixels, got {n_x} x {n_y}" in err
    assert not data.exists()


def test_reconstruct_non_finite_sinogram_exits_4(sim_run, capsys):
    cfg, data = sim_run
    base = os.path.join(data, "sinograms")
    sino = read_array(base)
    sino[2, 5] = np.nan
    write_array(base, sino)
    assert main(["reconstruct", cfg, data]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(data, "IRKFS"))


def test_reconstruct_non_finite_truth_exits_4(sim_run, capsys):
    cfg, data = sim_run
    base = os.path.join(data, "truth")
    truth = read_array(base)
    truth[1, 3] = np.nan
    write_array(base, truth)
    assert main(["reconstruct", cfg, data]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(data, "IRKFS"))


def test_reconstruct_overflowing_m_step_exits_4(tmp_path, capsys):
    # sigma = 1e155 makes the R update's squared residuals overflow at the
    # first backward step: a numerical failure naming the step, not a
    # config error from the noise model, and no warning from the M-step
    data = tmp_path / "d"
    cfg = _write_config(tmp_path / "c.cfg", data,
                        **{"noise.sigma": 1e155, "scan.n_angles": 3,
                           "method.name": "EMIRKFS"})
    with warnings.catch_warnings():
        # simulate's realized noise level overflows in its norm
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["simulate", cfg]) == 0
    capsys.readouterr()
    assert main(["reconstruct", cfg, str(data)]) == 4
    err = capsys.readouterr().err
    assert "outer iteration 1: timestep 3: update_r_diag" in err
    assert "non-finite" in err


@pytest.mark.parametrize("dotted, value, named", [
    ("prior.alpha", 1e160, "prior alpha"),
    ("prior.ell", 1e200, "prior ell"),
    ("prior.ell", 1e-200, "prior ell"),
])
def test_prior_whose_square_overflows_exits_2(tmp_path, capsys, dotted, value,
                                              named):
    # alpha^2, alpha^-2 and ell^2 must be finite and nonzero in float64;
    # both commands reject the config as it loads
    data = tmp_path / "d"
    cfg = _write_config(tmp_path / "c.cfg", data, **{dotted: value})
    for argv in (["simulate", cfg], ["reconstruct", cfg, str(data)]):
        assert main(argv) == 2
        assert named in capsys.readouterr().err
    assert not data.exists()


def test_failed_simulate_leaves_no_directory(tmp_path, capsys):
    data = tmp_path / "d"
    cfg = _write_config(tmp_path / "c.cfg", data, **{"noise.sigma": 1e308})
    assert main(["simulate", cfg]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not data.exists()


def test_failed_reconstruct_leaves_no_directory(tmp_path, capsys):
    # alpha = 1e-152 loads (alpha^2 = 1e-304), but the prior's eigenvalue
    # products underflow as the basis is built
    data, out = tmp_path / "d", tmp_path / "out"
    cfg = _write_config(tmp_path / "c.cfg", data, **{"prior.alpha": 1e-152})
    assert main(["simulate", cfg]) == 0
    assert main(["reconstruct", cfg, str(data), "--out", str(out)]) == 4
    assert "eigenvalue" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_custom_out_dir(sim_run, tmp_path):
    cfg, data = sim_run
    out = str(tmp_path / "elsewhere")
    assert main(["reconstruct", cfg, data, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "metrics.csv"))


# -- evaluate --------------------------------------------------------------------

def test_evaluate_single_and_sorted(sim_run, tmp_path, capsys):
    cfg, data = sim_run
    assert main(["reconstruct", cfg, data]) == 0
    run1 = os.path.join(data, "IRKFS")
    out_csv = str(tmp_path / "table.csv")
    assert main(["evaluate", run1, "--out", out_csv]) == 0
    rows = read_metrics_csv(out_csv)
    assert len(rows) == 2  # one per iteration
    assert {r["method"] for r in rows} == {"IRKFS"}
    # add a second method and aggregate both
    cfg2 = _write_config(tmp_path / "c2.cfg", data,
                         **{"method.name": "EMIRKFS", "method.n_iter": 1})
    assert main(["reconstruct", cfg2, data]) == 0
    run2 = os.path.join(data, "EMIRKFS")
    assert main(["evaluate", run1, run2, "--out", out_csv]) == 0
    rows = read_metrics_csv(out_csv)
    rres = [float(r["rre"]) for r in rows]
    assert rres == sorted(rres)
    assert len(rres) == 3
    assert all(r["phase"] == "total" for r in rows)


def test_evaluate_differing_frames_exits_2(tmp_path, capsys):
    runs = []
    for i, n_frames in enumerate((4, 3)):
        data = tmp_path / f"d{i}"
        cfg = _write_config(tmp_path / f"c{i}.cfg", data,
                            **{"phantom.n_frames": n_frames,
                               "method.n_iter": 1})
        assert main(["simulate", cfg]) == 0
        assert main(["reconstruct", cfg, str(data)]) == 0
        runs.append(os.path.join(str(data), "IRKFS"))
    assert main(["evaluate", *runs]) == 2
    assert "differs" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{}", "[]", '{"params": []}'])
def test_evaluate_malformed_manifest_exits_3(tmp_path, capsys, text):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(text)
    assert main(["evaluate", str(run)]) == 3
    assert "params" in capsys.readouterr().err


@pytest.mark.parametrize("row, code, message", [
    ("IRKFS,1,0,abc,,,", 3, "rre 'abc' is not a number"),
    ("IRKFS,1,,,filter,2s,", 3, "seconds '2s' is not a number"),
    ("IRKFS,,,,peak_bytes,,1.5", 3, "bytes '1.5' is not a number"),
    ("IRKFS,1", 3, "2 fields, expected 7"),
    ("IRKFS,1,0,0.5,,,,", 3, "8 fields, expected 7"),
    ("IRKFS,1,0,nan,,,", 4, "rre 'nan' is not finite"),
    ("IRKFS,1,,,filter,-inf,", 4, "seconds '-inf' is not finite"),
])
def test_evaluate_malformed_metrics_exits_3_or_4(tmp_path, capsys, row, code,
                                                 message):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text('{"params": {}}')
    (run / "metrics.csv").write_text(
        "method,iteration,timestep,rre,phase,seconds,bytes\n"
        f"IRKFS,1,0,0.5,,,\n{row}\n")
    assert main(["evaluate", str(run)]) == code
    assert f"metrics.csv, line 3: {message}" in capsys.readouterr().err


# -- environment -----------------------------------------------------------------

def test_thread_env_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DYNCT_THREADS", "abc")
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "d")
    assert main(["simulate", cfg]) == 2
    assert "DYNCT_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("DYNCT_THREADS", "0")
    assert main(["simulate", cfg]) == 2


# -- the CLI as a process ------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _dynct(*args, cwd):
    """Run ``python -m dynct.cli`` with one BLAS thread."""
    env = dict(os.environ, DYNCT_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dynct.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_cli_workflow_as_a_process(tmp_path):
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "run.cfg", data,
                        **{"phantom.n_x": 8, "phantom.n_y": 8,
                           "phantom.n_frames": 3, "prior.rank": 20,
                           "method.name": "EMIRKFS-M3"})
    for args in (("simulate", cfg), ("reconstruct", cfg, str(data))):
        proc = _dynct(*args, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    proc = _dynct("evaluate", str(data / "EMIRKFS-M3"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    # one row per pass (two), sorted by mean RRE
    assert sorted((row["method"], row["iteration"]) for row in rows) == [
        ("EMIRKFS-M3", "1"), ("EMIRKFS-M3", "2")]
    assert all(np.isfinite(float(row["rre"])) for row in rows)


def test_cli_process_negative_seed_exits_2(tmp_path):
    cfg = _write_config(tmp_path / "run.cfg", tmp_path / "data",
                        **{"noise.seed": -1})
    proc = _dynct("simulate", cfg, cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "data").exists()
