#!/usr/bin/env python3
"""dynct benchmark: seeded moving-blocks reconstructions through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload desk-m3 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec    # rewrite BENCHMARK.json

Every run builds the Radon operators and the prior basis a few times
(``setup_s`` is the median), simulates the sinograms from the seed, and
reconstructs with ``pipeline.run_emirkfs``.

--trace 0 repeats the reconstruction untraced for --seconds (at least once,
never starting one that would end past the deadline) and reports the
end-to-end metrics.

--trace 1 runs three reconstructions: untraced, traced and under
tracemalloc, and reports the per-layer metrics. Phase seconds and tracked
memory come from the untraced RunRecord; call counts and self seconds from
spans around calls into each module's public functions (tracer.py); the
traced-minus-untraced wall time is ``trace.overhead_s``.

Every reconstruction is checked: trajectories and RRE finite, the last
pass's mean RRE within the final_rre bound of the workload's reference.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give the environment and each
metric with its unit; the same, plus per-reconstruction samples and (traced)
the spans, go to .perfbench_out/ in the checkout.
"""

import os

# BLAS reads its thread count when numpy loads, so pin it before anything
# imports numpy. On a 2-core box two threads run the desk problem about
# 2.5x slower than one, with a wider spread.
THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
os.environ["DYNCT_THREADS"] = THREADS
for _var in BLAS_VARS:
    os.environ[_var] = THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

if not (SRC / "dynct" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dynct sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
import scipy
import scipy.linalg

import dynct
from dynct import _linalg, em, filtering, linops, mmgks, motion, pipeline, smoothing
from dynct.metrics import MemoryTracker
from dynct.phantom import default_blocks_config, generate_frames
from dynct.pipeline import MotionOptions, parse_method
from dynct.prior import PriorConfig, build_projection
from dynct.radon import (ScanGeometry, build_operators, make_geometry,
                         simulate_sinograms)
from tracer import Tracer

if Path(dynct.__file__).resolve().parent != SRC / "dynct":
    sys.exit(f"perfbench: imported dynct from {dynct.__file__}, not {SRC}")

# Shared by every workload: the desk scan of the paper.
N_FRAMES = 11
N_ANGLES = 5
ROTATE = math.pi / 25
NOISE = 0.01
ALPHA = 0.28
ELL = 1.76
ZETA = 5.0
PATCH = (8, 8)
SETUP_REPS = 5
RUN_SECONDS = 25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int                  # grid side
    rank: int
    method: str
    passes: int
    ref_rre: float | None   # final_rre at seed 0, one BLAS thread


WORKLOADS = {w.name: w for w in (
    Workload("desk-m3",
             "paper's headline problem and best method (64x64, r=300, 2 passes): "
             "EM M-step, PatchRank1's apply_block_rows fallback, r x r histories",
             64, 300, "EMIRKFS-M3", 2, 0.5170),
    Workload("grid128-irkfs",
             "larger grid (128x128, r=480, 1 pass): identity motion, fixed noise, "
             "Gram GEMMs over a 63 MB basis past L2; largest set-up; no EM or motion",
             128, 480, "IRKFS", 1, 0.6477),
    Workload("flow-m1",
             "small grid (32x32, r=120, 2 passes), the only workload running the mmgks "
             "flow solver and Warp/SparseCSR motion operators; tiny Gramians",
             32, 120, "EMIRKFS-M1", 2, 0.6023),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None   # end-to-end only: allowed relative worsening


END_TO_END = (
    Metric("recon_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("final_rre", "ratio", "lower", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("success_frac", "fraction", "higher", 0.05),
)
RRE_BOUND = next(m.bound for m in END_TO_END if m.name == "final_rre")

PHASES = ("filter", "smoother", "motion", "em")
OP_CLASSES = ("Identity", "SparseCSR", "Warp", "Rank1", "PatchRank1")
GRAM_FUNCS = ("motion_gram_triple", "weighted_gram", "op_gram")
LINALG_FUNCS = GRAM_FUNCS + ("psd_sqrt", "sym_solve")


def _counted(prefix):
    return (Metric(f"{prefix}_calls", "count", "lower"),
            Metric(f"{prefix}_s", "s", "lower"))


PER_LAYER = (
    Metric("radon.build_operators_s", "s", "lower"),
    Metric("radon.nnz", "count", "lower"),
    Metric("prior.build_projection_s", "s", "lower"),
    *(Metric(f"pipeline.{p}_s", "s", "lower") for p in PHASES),
    Metric("pipeline.run_emirkfs_s", "s", "lower"),
    Metric("filtering.run_filter_s", "s", "lower"),
    Metric("smoothing.run_smoother_s", "s", "lower"),
    *(m for f in LINALG_FUNCS for m in _counted(f"linalg.{f}")),
    Metric("linalg.gram_gflop", "GFLOP-computed", "lower"),
    Metric("linalg.gram_gflop_per_s", "GFLOP/s-computed", "higher"),
    *_counted("lapack.eigh"),
    *_counted("lapack.cholesky"),
    *(Metric(f"linops.apply_block_rows_calls.{c}", "count", "lower") for c in OP_CLASSES),
    *(Metric(f"linops.apply_block_rows_s.{c}", "s", "lower") for c in OP_CLASSES),
    Metric("linops.fallback_columns", "count", "lower"),
    *_counted("em.update_q_diag"),
    *_counted("em.update_r_diag"),
    Metric("motion.update_motions_s", "s", "lower"),
    Metric("mmgks.solves", "count", "lower"),
    Metric("mmgks.iters", "count", "lower"),
    Metric("mmgks.converged_frac", "fraction", "higher"),
    Metric("mmgks.solve_s", "s", "lower"),
    Metric("metrics.tracked_peak_bytes", "B", "lower"),
    Metric("metrics.tracked_reduced_peak_bytes", "B", "lower"),
    Metric("metrics.budget_bytes", "B", "lower"),
    Metric("mem.tracemalloc_peak_bytes", "B", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
)


def spec() -> dict:
    """The BENCHMARK.json contents."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Inputs, set-up, one reconstruction and its checks.

@dataclass
class Inputs:
    frames: np.ndarray
    geometry: ScanGeometry
    phantom_seed: int
    noise_seed: int


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Phantom and scan for a seed; seed 0 is the README's desk scan.

    The moving-blocks layout does not depend on its seed, so the seed
    reaches the data through the noise draw (noise seed = seed + 1).
    """
    frames = generate_frames(default_blocks_config(w.n, w.n, n_steps=N_FRAMES - 1,
                                                   seed=seed))
    geom = make_geometry(w.n, w.n, n_angles=N_ANGLES, n_frames=N_FRAMES,
                         angle_offset=ROTATE)
    return Inputs(frames=frames, geometry=geom, phantom_seed=seed, noise_seed=seed + 1)


def sinograms(inputs: Inputs, ops):
    """Noisy sinograms of the phantom (input generation, not set-up)."""
    return simulate_sinograms(inputs.frames, inputs.geometry, NOISE,
                              seed=inputs.noise_seed, operators=ops)


def set_up(w: Workload, inputs: Inputs, reps: int):
    """Build operators and basis reps times; (ops, basis, radon_s, prior_s)."""
    radon_s, prior_s = [], []
    ops = basis = None
    for _ in range(reps):
        ops = basis = None  # keep one copy alive, so peak RSS counts one
        t0 = time.perf_counter()
        ops = build_operators(inputs.geometry)
        t1 = time.perf_counter()
        basis = build_projection(w.n, w.n, PriorConfig(alpha=ALPHA, ell=ELL, rank=w.rank))
        t2 = time.perf_counter()
        radon_s.append(t1 - t0)
        prior_s.append(t2 - t1)
    return ops, basis, radon_s, prior_s


def reconstruct(w: Workload, sino, ops, basis, frames):
    """One timed run_emirkfs call; (record, wall seconds, cpu seconds)."""
    method = parse_method(w.method, n_iter=w.passes)
    opts = MotionOptions(zeta=ZETA, patch=PATCH)
    c0 = time.process_time()
    t0 = time.perf_counter()
    # looked up on the module, so the traced run sees its span wrapper
    record = pipeline.run_emirkfs(sino, ops, basis, method, opts, truth=frames,
                                  tracker=MemoryTracker())
    return record, time.perf_counter() - t0, time.process_time() - c0


def check(w: Workload, record) -> list[str]:
    """Problems with a reconstruction's outputs; empty when it is correct."""
    problems = []
    if record.n_iter != w.passes:
        problems.append(f"{record.n_iter} passes recorded, {w.passes} requested")
    if not all(np.all(np.isfinite(x)) for x in record.trajectories):
        problems.append("non-finite trajectory")
    if not all(np.all(np.isfinite(r)) for r in record.rre):
        problems.append("non-finite RRE")
    elif w.ref_rre is not None and record.n_iter:
        final = record.mean_rre(record.n_iter)
        if abs(final - w.ref_rre) > RRE_BOUND * w.ref_rre:
            problems.append(f"final_rre {final:.6f} is off the reference "
                            f"{w.ref_rre} by more than {RRE_BOUND:.0%}")
    return problems


class Attempts:
    """Reconstruction attempts of one run, with their failures."""

    def __init__(self, w: Workload):
        self.w = w
        self.samples: list[dict] = []
        self.failures: list[str] = []

    def run(self, sino, ops, basis, frames):
        t0 = time.perf_counter()
        try:
            record, wall, cpu = reconstruct(self.w, sino, ops, basis, frames)
        except Exception:  # a failed reconstruction is data, not the end of the run
            self.failures.append(traceback.format_exc())
            print(self.failures[-1], file=sys.stderr)
            self.samples.append({"wall_s": time.perf_counter() - t0, "ok": False})
            return None
        final = record.mean_rre(record.n_iter) if record.n_iter else math.nan
        self.samples.append({"wall_s": wall, "cpu_s": cpu, "final_rre": final,
                             "ok": True})
        for problem in check(self.w, record):
            self.fail(len(self.samples) - 1, problem)
        return record

    def fail(self, index: int, problem: str) -> None:
        """Mark attempt index as failed."""
        self.samples[index]["ok"] = False
        self.failures.append(problem)
        print(f"perfbench: {self.w.name}: attempt {index}: {problem}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s["ok"] for s in self.samples)


# ---------------------------------------------------------------------------
# The two kinds of run.

def end_to_end(w: Workload, inputs: Inputs, seconds: float):
    """Untraced reconstructions for `seconds`; end-to-end metrics."""
    ops, basis, radon_s, prior_s = set_up(w, inputs, SETUP_REPS)
    sino = sinograms(inputs, ops)
    attempts = Attempts(w)
    start = time.perf_counter()
    while True:
        attempts.run(sino, ops, basis, inputs.frames)
        walls = [s["wall_s"] for s in attempts.samples]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break

    ok_walls = [s["wall_s"] for s in attempts.samples if s["ok"]] or walls
    finals = [s["final_rre"] for s in attempts.samples if s["ok"]]
    metrics = {
        "recon_s": statistics.median(ok_walls),
        "setup_s": statistics.median([r + p for r, p in zip(radon_s, prior_s)]),
        "final_rre": finals[-1] if finals else -1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - attempts.failed / attempts.attempted,
    }
    notes = {
        "recon_s_samples": len(ok_walls),
        "recon_s_percentile": _tail_percentile(ok_walls),
        "failed_frac": attempts.failed / attempts.attempted,
        "setup_radon_s": radon_s,
        "setup_prior_s": prior_s,
    }
    return metrics, attempts, notes, None


def _tail_percentile(values):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(values, p)))
    return best


def _gram_flops(name):
    """on_call hook adding the r x r GEMM flops of one Gram call."""
    def hook(tracer, args, kwargs, result):
        if name == "motion_gram_triple":
            n_s, r = args[1].shape
            flops = 3 * 2 * n_s * r * r          # G_MM, G_MP, G_PP
        elif name == "op_gram":
            r = args[1].shape[1]
            flops = 2 * args[0].shape[0] * r * r
        else:                                    # weighted_gram(X, w, Y=None)
            X = args[0]
            Y = args[2] if len(args) > 2 else kwargs.get("Y")
            flops = 2 * X.shape[0] * X.shape[1] * (X if Y is None else Y).shape[1]
        tracer.count("gram_flops", flops)
    return hook


def _fallback_columns(tracer, args, kwargs, result):
    tracer.count("fallback_columns", result.shape[1])


def _mmgks_result(tracer, args, kwargs, result):
    tracer.count("mmgks_iters", result.n_iters)
    tracer.count("mmgks_converged", 1 if result.converged else 0)


def install_spans(tracer: Tracer) -> None:
    """Spans around the public functions of each layer the pipeline calls."""
    tracer.patch_function(pipeline, "run_emirkfs", "pipeline.run_emirkfs")
    tracer.patch_function(filtering, "run_filter", "filtering.run_filter")
    tracer.patch_function(smoothing, "run_smoother", "smoothing.run_smoother")
    for name in LINALG_FUNCS:
        hook = _gram_flops(name) if name in GRAM_FUNCS else None
        tracer.patch_function(_linalg, name, f"linalg.{name}", hook)
    tracer.patch_function(np.linalg, "eigh", "lapack.eigh")
    tracer.patch_function(scipy.linalg, "cho_factor", "lapack.cholesky")
    tracer.patch_function(em, "update_q_diag", "em.update_q_diag")
    tracer.patch_function(em, "update_r_diag", "em.update_r_diag")
    tracer.patch_function(motion, "update_motions", "motion.update_motions")
    tracer.patch_function(mmgks, "mmgks_solve", "mmgks.solve", _mmgks_result)

    def op_span(args):
        return f"linops.apply_block_rows.{type(args[0]).__name__}"

    for cls in vars(linops).values():
        if (isinstance(cls, type) and issubclass(cls, linops.LinearOperator)
                and "apply_block_rows" in cls.__dict__):
            hook = _fallback_columns if cls is linops.LinearOperator else None
            tracer.patch_method(cls, "apply_block_rows", op_span, hook)


def expected_calls(w: Workload) -> dict[str, int]:
    """Call counts fixed by the workload's shape; a wrapper that misses
    calls shows up here instead of quietly under-reporting its layer."""
    steps = N_FRAMES - 1
    method = parse_method(w.method, n_iter=w.passes)
    return {
        "pipeline.run_emirkfs": 1,
        "filtering.run_filter": w.passes,
        "smoothing.run_smoother": w.passes,
        "linalg.motion_gram_triple": 2 * steps * w.passes,
        "em.update_q_diag": steps * w.passes if method.em else 0,
        "em.update_r_diag": steps * w.passes if method.em else 0,
        "motion.update_motions": w.passes if method.motion != "off" else 0,
        "mmgks.solve": steps * w.passes if method.motion == "m1" else 0,
    }


def traced(w: Workload, inputs: Inputs, seconds: float):
    """Untraced, traced and tracemalloc reconstructions; per-layer metrics.

    The amount of work is fixed, so `seconds` is not used.
    """
    ops, basis, radon_s, prior_s = set_up(w, inputs, SETUP_REPS)
    sino = sinograms(inputs, ops)
    attempts = Attempts(w)
    plain = attempts.run(sino, ops, basis, inputs.frames)
    if plain is None:
        raise RuntimeError(f"{w.name}: the reconstruction failed; no layer data")

    tracer = Tracer()
    install_spans(tracer)
    try:
        spanned = attempts.run(sino, ops, basis, inputs.frames)
    finally:
        tracer.restore()
    # tracemalloc slows every allocation, so it gets a run of its own and
    # does not skew the span self times.
    tracemalloc.start()
    try:
        allocs = attempts.run(sino, ops, basis, inputs.frames)
        tracemalloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    if spanned is None or allocs is None:
        raise RuntimeError(f"{w.name}: a reconstruction failed; no layer data")
    for index, other in ((1, spanned), (2, allocs)):
        if not all(np.array_equal(a, b) for a, b in zip(plain.trajectories,
                                                        other.trajectories)):
            attempts.fail(index, "tracing changed the reconstruction")
    calls, self_s = tracer.self_times()
    for name, want in expected_calls(w).items():
        got = calls.get(name, 0)
        if got != want and name not in tracer.missing:
            raise RuntimeError(f"{w.name}: traced {got} calls of {name}, expected "
                               f"{want}; a span wrapper is missing calls")

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    gram_s = sum(s(f"linalg.{f}") for f in GRAM_FUNCS)
    gflop = tracer.counters.get("gram_flops", 0.0) / 1e9
    solves = c("mmgks.solve")
    phases = {p: sum(ps.get(p, 0.0) for ps in plain.phase_seconds) for p in PHASES}
    metrics = {
        "radon.build_operators_s": statistics.median(radon_s),
        "radon.nnz": sum(op.matrix.nnz for op in ops),
        "prior.build_projection_s": statistics.median(prior_s),
        **{f"pipeline.{p}_s": v for p, v in phases.items()},
        "pipeline.run_emirkfs_s": s("pipeline.run_emirkfs"),
        "filtering.run_filter_s": s("filtering.run_filter"),
        "smoothing.run_smoother_s": s("smoothing.run_smoother"),
    }
    for f in LINALG_FUNCS:
        metrics[f"linalg.{f}_calls"] = c(f"linalg.{f}")
        metrics[f"linalg.{f}_s"] = s(f"linalg.{f}")
    metrics["linalg.gram_gflop"] = gflop
    metrics["linalg.gram_gflop_per_s"] = gflop / gram_s if gram_s > 0 else 0.0
    for f in ("eigh", "cholesky"):
        metrics[f"lapack.{f}_calls"] = c(f"lapack.{f}")
        metrics[f"lapack.{f}_s"] = s(f"lapack.{f}")
    for cls in OP_CLASSES:
        metrics[f"linops.apply_block_rows_calls.{cls}"] = c(f"linops.apply_block_rows.{cls}")
    for cls in OP_CLASSES:
        metrics[f"linops.apply_block_rows_s.{cls}"] = s(f"linops.apply_block_rows.{cls}")
    metrics["linops.fallback_columns"] = int(tracer.counters.get("fallback_columns", 0))
    for f in ("update_q_diag", "update_r_diag"):
        metrics[f"em.{f}_calls"] = c(f"em.{f}")
        metrics[f"em.{f}_s"] = s(f"em.{f}")
    metrics.update({
        "motion.update_motions_s": s("motion.update_motions"),
        "mmgks.solves": solves,
        "mmgks.iters": int(tracer.counters.get("mmgks_iters", 0)),
        # 0 when the workload runs no flow solve
        "mmgks.converged_frac": (tracer.counters.get("mmgks_converged", 0) / solves
                                 if solves else 0.0),
        "mmgks.solve_s": s("mmgks.solve"),
        "metrics.tracked_peak_bytes": plain.peak_bytes,
        "metrics.tracked_reduced_peak_bytes": plain.peak_reduced_bytes,
        "metrics.budget_bytes": plain.budget_bytes,
        "mem.tracemalloc_peak_bytes": tracemalloc_peak,
        "trace.overhead_s": (attempts.samples[1]["wall_s"]
                             - attempts.samples[0]["wall_s"]),
    })
    notes = {
        "untraced_recon_s": attempts.samples[0]["wall_s"],
        "traced_recon_s": attempts.samples[1]["wall_s"],
        "tracemalloc_recon_s": attempts.samples[2]["wall_s"],
        # reported, not failed: the tracked peak overruns its budget at 32x32
        "tracked_over_budget": plain.peak_bytes > plain.budget_bytes,
        "traced_total_self_s": sum(self_s.values()),
        "calls": calls,
        "self_s": self_s,
        "missing_wrap_targets": tracer.missing,
    }
    return metrics, attempts, notes, tracer.span_records()


# ---------------------------------------------------------------------------

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(inputs: Inputs, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "DYNCT_THREADS": os.environ.get("DYNCT_THREADS"),
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": seed,
        "phantom_seed": inputs.phantom_seed,
        "noise_seed": inputs.noise_seed,
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool):
    """One benchmark run; (result line dict, details dict)."""
    inputs = make_inputs(w, seed)
    run = traced if trace else end_to_end
    metrics, attempts, notes, spans = run(w, inputs, seconds)
    table = PER_LAYER if trace else END_TO_END
    result = {
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in table},
    }
    details = {
        "workload": w.name,
        "args": {"seed": seed, "seconds": seconds, "trace": int(trace)},
        "environment": environment(inputs, seed),
        "result": result,
        "notes": notes,
        "samples": attempts.samples,
        "failures": attempts.failures,
    }
    if spans is not None:
        details["spans"] = spans
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help=f"write {SPEC_PATH.name} and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        SPEC_PATH.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed nonnegative")

    result, details = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, allow_nan=False) + "\n")

    print("env " + json.dumps(details["environment"]))
    for key, value in details["notes"].items():
        if not isinstance(value, dict):
            print(f"note {key} = {value}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
