"""Command-line entry points: simulate, reconstruct, evaluate.

    dynct simulate CONFIG
    dynct reconstruct CONFIG DATA_DIR [--out DIR]
    dynct evaluate RUN_DIR [RUN_DIR ...] [--out CSV]

simulate renders the moving-blocks sequence, projects it through the scan
geometry with the requested noise level, and writes frames, sinograms, and
a parameter manifest with a content hash. reconstruct replays a simulate
directory through one method variant, writing one image per (iteration,
timestep) plus a metrics CSV. evaluate aggregates one or more reconstruct
directories into a comparison table sorted by mean RRE.

Exit codes: 0 ok, 2 configuration/validation, 3 file IO, 4 numerical
failure. DYNCT_THREADS caps the BLAS/OpenMP thread count when set before
launch.
"""

import argparse
import os
import sys
from collections import defaultdict

import numpy as np

from .errors import ConfigError, DataIOError, NumericError
from .io_formats import (load_config, read_array, read_manifest, write_array,
                         write_manifest, write_pgm)
from .metrics import (CSV_FIELDS, MetricsRow, noise_level, read_metrics_csv,
                      write_metrics_csv)
from .phantom import generate_frames
from .pipeline import record_rows, run_emirkfs
from .prior import build_projection
from .radon import SinogramSet, build_operators, simulate_sinograms

_TRUTH = "truth"
_SINO = "sinograms"
_MANIFEST = "manifest.json"
_METRICS = "metrics.csv"


def _ensure_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create directory {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    frames = generate_frames(cfg.phantom)
    h_ops = build_operators(cfg.geometry)
    sino = simulate_sinograms(frames, cfg.geometry, cfg.sigma, cfg.noise_seed,
                              operators=h_ops)
    params = cfg.manifest_params()
    params["realized_noise_level"] = noise_level(sino.sinograms, h_ops, frames)

    out = cfg.output_dir  # created once the data are formed
    _ensure_dir(out)
    files = []
    for name, arr in ((_TRUTH, frames), (_SINO, np.stack(sino.sinograms))):
        base = os.path.join(out, name)
        write_array(base, arr)
        files += [base + ".bin", base + ".txt"]
    if cfg.write_pgm:
        for t in range(frames.shape[0]):
            path = os.path.join(out, f"truth_t{t:03d}.pgm")
            write_pgm(path, frames[t].reshape(cfg.n_x, cfg.n_y))
            files.append(path)

    write_manifest(os.path.join(out, _MANIFEST), params, files)
    print(f"simulate: wrote {len(files) + 1} files to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    data_dir = args.data_dir
    if not os.path.isdir(data_dir):
        raise DataIOError(f"data directory {data_dir} does not exist")
    truth = read_array(os.path.join(data_dir, _TRUTH))
    sino_stack = read_array(os.path.join(data_dir, _SINO))
    data_manifest = read_manifest(os.path.join(data_dir, _MANIFEST))

    geom = cfg.geometry
    n_s = cfg.n_x * cfg.n_y
    if truth.shape != (cfg.n_frames, n_s):
        raise ConfigError(
            f"truth shape {truth.shape} does not match config "
            f"({cfg.n_frames}, {n_s}); was the data simulated with this config?")
    expected_rows = geom.frame_rows(0)
    if sino_stack.shape != (cfg.n_frames, expected_rows):
        raise ConfigError(
            f"sinogram shape {sino_stack.shape} does not match config "
            f"({cfg.n_frames}, {expected_rows})")

    sino = SinogramSet(geometry=geom, sinograms=list(sino_stack))

    h_ops = build_operators(geom)
    basis = build_projection(cfg.n_x, cfg.n_y, cfg.prior)
    out = args.out or os.path.join(data_dir, cfg.method.name)
    _ensure_dir(out)  # created once the operators and basis are built
    record = run_emirkfs(sino, h_ops, basis, cfg.method,
                         motion_opts=cfg.motion, truth=truth)

    files = []
    for j, x_sm in enumerate(record.trajectories, start=1):
        for t in range(x_sm.shape[0]):
            base = os.path.join(out, f"recon_i{j}_t{t:03d}")
            write_array(base, x_sm[t])
            files.extend([base + ".bin", base + ".txt"])
            if cfg.write_pgm:
                path = base + ".pgm"
                write_pgm(path, x_sm[t].reshape(cfg.n_x, cfg.n_y))
                files.append(path)

    csv_path = os.path.join(out, _METRICS)
    write_metrics_csv(csv_path, record_rows(record))
    files.append(csv_path)
    params = cfg.manifest_params()
    params["data_manifest_sha256"] = data_manifest.get("content_sha256")
    write_manifest(os.path.join(out, _MANIFEST), params, files)
    for j in range(1, record.n_iter + 1):
        print(f"reconstruct: {cfg.method.name} iteration {j} "
              f"mean RRE {record.mean_rre(j):.6f}")
    print(f"reconstruct: wrote outputs to {out}")
    return 0


def _aggregate(run_dirs):
    """Rows (method, iteration, mean_rre, seconds, peak_bytes), RRE-sorted."""
    shape_keys = ("n_x", "n_y", "n_frames")
    reference = None
    rre_cells = defaultdict(list)
    time_cells = defaultdict(float)
    mem_cells = {}
    for run in run_dirs:
        manifest = read_manifest(os.path.join(run, _MANIFEST))
        shape = tuple(manifest["params"].get(k) for k in shape_keys)
        if reference is None:
            reference = shape
        elif shape != reference:
            raise ConfigError(
                f"run {run} geometry {shape} differs from {reference}; "
                "refusing to aggregate")
        for row in read_metrics_csv(os.path.join(run, _METRICS)):
            method, iteration = row["method"], row["iteration"]
            if row["rre"]:
                rre_cells[(method, iteration)].append(float(row["rre"]))
            if row["seconds"]:
                time_cells[(method, iteration)] += float(row["seconds"])
            if row["bytes"] and row["phase"] == "peak_bytes":
                mem_cells[method] = max(mem_cells.get(method, 0),
                                        int(row["bytes"]))
    table = []
    for (method, iteration), values in rre_cells.items():
        table.append((float(np.mean(values)), method, iteration,
                      time_cells.get((method, iteration), 0.0),
                      mem_cells.get(method, 0)))
    table.sort(key=lambda row: row[0])
    return table


def cmd_evaluate(args) -> int:
    table = _aggregate(args.runs)
    rows = [MetricsRow(method=method, iteration=iteration,
                       rre=repr(mean_rre), phase="total",
                       seconds=repr(seconds), bytes=str(peak))
            for mean_rre, method, iteration, seconds, peak in table]
    if args.out:
        write_metrics_csv(args.out, rows)
        print(f"evaluate: wrote {len(rows)} rows to {args.out}")
    else:
        print(",".join(CSV_FIELDS))
        for row in rows:
            print(",".join(row.as_list()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynct", description="dynamic CT reconstruction workflows")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render phantom and sinograms")
    p_sim.add_argument("config")
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="run a method on simulated data")
    p_rec.add_argument("config")
    p_rec.add_argument("data_dir")
    p_rec.add_argument("--out", default=None,
                       help="output directory (default: DATA_DIR/<method>)")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_eval = sub.add_parser("evaluate", help="aggregate reconstruction runs")
    p_eval.add_argument("runs", nargs="+")
    p_eval.add_argument("--out", default=None, help="write CSV here")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("DYNCT_THREADS", "").strip()
    if threads and (not threads.isdigit() or int(threads) < 1):
        print(f"dynct: DYNCT_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"dynct: config error: {exc}", file=sys.stderr)
        return 2
    except DataIOError as exc:
        print(f"dynct: io error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"dynct: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
