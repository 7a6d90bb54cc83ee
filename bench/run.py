"""Benchmark of the mflo pipeline: fit, CP-decompose and report, end to end.

Run from the root of a source checkout:

    python3 bench/run.py --workload fit-box --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and bench/README.md): ``fit-box``,
``fit-finegrid`` and ``decompose-sweep``.  Each run generates its inputs
from ``--seed``, drives ``mflo.cli.main`` with plain argv (default knobs
only), repeats a pass over the workload's operations until ``--seconds``
have passed (at least three times), checks every report, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans recorded around the calls into each module.

Everything the run writes goes under ``.bench_work/`` (removed at exit) and
``.bench_out/`` (span traces) in the current directory.
"""

from __future__ import annotations

import os

#: BLAS threads per process; at most nproc.  The hot loops are small
#: GIL-bound numpy calls, and one thread keeps timings steady.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracing import SpanSummary, Tracer  # noqa: E402

#: wall_s is a median over passes; three is the fewest that outvote one
#: pass slowed by a neighbour on a shared host
MIN_PASSES = 3
SETUP_REPS = 3
#: fresh interpreters whose ``import mflo.cli`` time is the import share of
#: setup_s; one import per process would be a single, noisy sample
IMPORT_REPS = 5
IMPORT_TIMEOUT_S = 60
IDENTITY_TOL = 1e-10
DEVIATION_SLACK = 1e-12
#: deviations below this are ALS stopping noise, far under any fit's own
#: infidelity; flooring them keeps the geometric mean about CP quality
DEVIATION_FLOOR = 1e-6


class Failure(Exception):
    """An op's output failed a check."""


class Bench:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload_name = workload
        self.seed = seed
        self.root = root
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.cli = None
        self.inputs: dict[str, Path] = {}
        self.workload = None
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.first_reports: dict[str, dict] = {}

    # -- set-up ---------------------------------------------------------

    def setup(self, tracer: Tracer | None = None) -> float:
        """Import, generate, validate and prepare; returns setup seconds.

        ``import mflo.cli`` is timed in IMPORT_REPS fresh interpreters; the
        rest is repeated SETUP_REPS times in this process.  setup_s is the
        sum of the two medians.
        """
        import mflo.cli as cli
        self.cli = cli
        import_s = import_seconds(self.root)
        if tracer is not None:
            tracer.install()
        prep = []
        prepared = None
        for rep in range(SETUP_REPS):
            if tracer is not None:
                tracer.op = f"setup{rep}"
            t = time.perf_counter()
            inputs = self._prepare(self.work / f"setup{rep}")
            prep.append(time.perf_counter() - t)
            blobs = {name: p.read_bytes() for name, p in inputs.items()}
            if prepared is not None and blobs != prepared:
                raise RuntimeError("set-up produced different inputs on repetition")
            prepared = blobs
            self.inputs = inputs
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
        return import_s + statistics.median(prep)

    def _prepare(self, directory: Path) -> dict[str, Path]:
        self.workload = wl.WORKLOADS[self.workload_name](self.seed)
        jobs = wl.write_jobs(self.workload, directory)
        for path in jobs.values():
            self.cli.load_job(path)
        if self.workload.decompose_ranks is None:
            return jobs
        reports = {}
        for name, path in jobs.items():
            out = directory / f"{name}.report.json"
            rc = self._call(["fit", "--job", str(path), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"set-up fit of {name} exited with {rc}")
            reports[name] = out
        return reports

    def _call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    # -- timed passes ---------------------------------------------------

    def run_pass(self, index: int, tracer: Tracer | None = None) -> tuple[float, dict]:
        """One pass over the workload's ops; returns (op seconds, reports)."""
        directory = self.work / f"pass{index}"
        directory.mkdir(parents=True, exist_ok=True)
        wall = 0.0
        reports = {}
        for name, source in self.inputs.items():
            out = directory / f"{name}.report.json"
            if self.workload.decompose_ranks is None:
                argv = ["fit", "--job", str(source), "--out", str(out)]
            else:
                shutil.copyfile(source, out)
                argv = ["decompose", "--report", str(out),
                        "--ranks", ",".join(map(str, self.workload.decompose_ranks))]
            if tracer is not None:
                tracer.op = f"pass{index}/{name}"
            self.attempted += 1
            t = time.perf_counter()
            try:
                rc = self._call(argv)
            except Exception:  # an op that raises counts as failed; keep going
                traceback.print_exc()
                rc = -1
            wall += time.perf_counter() - t
            try:
                if rc != 0:
                    raise Failure(f"mflo {argv[0]} exited with {rc}")
                blob = out.read_bytes()
                reports[name] = json.loads(blob)
                self._check(name, reports[name], blob)
            except (Failure, OSError, ValueError, KeyError) as exc:
                self.failed += 1
                print(f"op {name} pass {index} failed: {exc}", file=sys.stderr)
        if tracer is not None:
            tracer.op = None
        if not self.first_reports:
            self.first_reports = reports
        return wall, reports

    def _check(self, name: str, report: dict, blob: bytes) -> None:
        ranks = (self.workload.decompose_ranks
                 or report["job"].get("cpd", {}).get("ranks", []))
        for mo, entry in report["mos"].items():
            worst = max(entry["identity_residuals"].values())
            if not worst <= IDENTITY_TOL:
                raise Failure(f"{mo}: identity residual {worst:.3e}")
            p = entry["success_probability_tucker"]
            if not 0.0 < p <= 1.0:
                raise Failure(f"{mo}: Tucker success probability {p}")
            for rank in ranks:
                canon = entry["canonical"][str(rank)]
                p = canon["success_probability"]
                if not 0.0 < p <= 1.0:
                    raise Failure(f"{mo} R={rank}: canonical success probability {p}")
                dev = canon["deviation"]
                if not -DEVIATION_SLACK <= dev <= 1.0:
                    raise Failure(f"{mo} R={rank}: deviation {dev}")
        if self.reference.setdefault(name, blob) != blob:
            raise Failure("report bytes differ from the first pass")


def import_seconds(root: Path) -> float:
    """Median time of ``import mflo.cli`` over IMPORT_REPS fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import mflo.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, check=True,
                              capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


# -- metrics ------------------------------------------------------------

def quality_metrics(reports: dict) -> dict:
    if not reports:
        raise RuntimeError("no op of the first pass wrote a readable report")
    infid, devs = [], []
    unconverged = 0
    for report in reports.values():
        for entry in report["mos"].values():
            infid.append(1.0 - entry["fidelity"])
            unconverged += "unconverged" in entry["diagnostics"]["flags"]
            devs += [c["deviation"] for c in entry["canonical"].values()]
    n_fits = len(infid)
    return {
        "infidelity_mean": sum(infid) / n_fits,
        # no unconverged fit reads as half of one, so the share is never 0
        "unconverged_share": max(unconverged, 0.5) / n_fits,
        "cp_dev_gmean": math.exp(sum(math.log(max(d, DEVIATION_FLOOR)) for d in devs) / len(devs)),
        "unconverged_fits": unconverged,
    }


def defect_counts(reports: dict) -> dict:
    """Known defects, counted and reported, not failed on."""
    negative = nonmonotone = iterations = 0
    for report in reports.values():
        for entry in report["mos"].values():
            iterations += entry["diagnostics"]["iterations"]
            best = math.inf
            for key in sorted(entry["canonical"], key=int):
                dev = entry["canonical"][key]["deviation"]
                negative += dev < 0.0
                nonmonotone += dev > best
                best = min(best, dev)
    return {"negative_deviations": negative, "nonmonotone_ranks": nonmonotone,
            "iterations": iterations}


def layer_metrics(s: SpanSummary, reports: dict, report_bytes: int) -> dict:
    defects = defect_counts(reports)
    quality = quality_metrics(reports)
    busy, calls = s.busy.get, s.calls.get
    lf_builds = (s.calls_under("lorentzian.state_matrix", "fitting.optimize_widths")
                 + s.calls_under("lorentzian.state_da_matrix", "fitting.optimize_widths"))
    restarts = s.attrs.get("restarts", 0)
    cli_self = s.self_time.get("cli.main", 0.0)
    return {
        "lorentzian.state_matrix.calls": (calls("lorentzian.state_matrix", 0), "count"),
        "lorentzian.state_matrix.busy_s": (busy("lorentzian.state_matrix", 0.0), "s"),
        "lorentzian.state_da_matrix.calls": (calls("lorentzian.state_da_matrix", 0), "count"),
        "lorentzian.state_da_matrix.busy_s": (busy("lorentzian.state_da_matrix", 0.0), "s"),
        "lorentzian.overlap_1d.calls": (calls("lorentzian.overlap_1d", 0), "count"),
        "lorentzian.overlap_1d.busy_s": (busy("lorentzian.overlap_1d", 0.0), "s"),
        "basis.build_ideal_state.calls": (calls("basis.build_ideal_state", 0), "count"),
        "basis.build_ideal_state.busy_s": (busy("basis.build_ideal_state", 0.0), "s"),
        "basis.grid_bytes_computed": (s.attrs.get("grid_bytes", 0), "B"),
        "fitting.optimize_widths.calls": (calls("fitting.optimize_widths", 0), "count"),
        "fitting.optimize_widths.busy_s": (busy("fitting.optimize_widths", 0.0), "s"),
        "fitting.optimize_widths.self_s": (s.self_time.get("fitting.optimize_widths", 0.0), "s"),
        "fitting.iterations": (defects["iterations"], "count"),
        "fitting.unconverged_fits": (quality["unconverged_fits"], "count"),
        "fitting.lf_builds_per_iteration": (
            lf_builds / defects["iterations"] if defects["iterations"] else 0.0, "count"),
        "fitting.identity_check.busy_s": (
            busy("fitting.overlap_3d", 0.0) + busy("fitting.t_tensor", 0.0), "s"),
        "cpd.decompose_core.calls": (calls("cpd.decompose_core", 0), "count"),
        "cpd.decompose_core.busy_s": (busy("cpd.decompose_core", 0.0), "s"),
        "cpd.cp_decompose.busy_s": (busy("cpd.cp_decompose", 0.0), "s"),
        "cpd.normalize_factors.busy_s": (busy("cpd.normalize_factors", 0.0), "s"),
        "cpd.restarts_attempted": (restarts, "count"),
        "cpd.restart_best_share": (
            s.attrs.get("best_restarts", 0) / restarts if restarts else 0.0, "ratio"),
        "cpd.negative_deviations": (defects["negative_deviations"], "count"),
        "cpd.nonmonotone_ranks": (defects["nonmonotone_ranks"], "count"),
        "encoding.success_prob_tucker.busy_s": (busy("encoding.success_prob_tucker", 0.0), "s"),
        "encoding.success_prob_canonical.busy_s": (
            busy("encoding.success_prob_canonical", 0.0), "s"),
        "encoding.calls": (calls("encoding.success_prob_tucker", 0)
                           + calls("encoding.success_prob_canonical", 0), "count"),
        "cli.load_job.busy_s": (busy("cli.load_job", 0.0), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.report_bytes": (report_bytes, "B"),
    }


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


# -- entry point --------------------------------------------------------

def run(args, root: Path) -> dict:
    bench = Bench(args.workload, args.seed, root)
    tracer = Tracer() if args.trace else None
    try:
        setup_s = bench.setup(tracer)
        print("# env " + json.dumps(environment(), sort_keys=True))
        walls, traced = [], []
        start = time.perf_counter()
        index = 0
        while True:
            trace_this = tracer is not None and index % 2 == 1
            if trace_this:
                tracer.install()
                first = len(tracer.spans)
            wall, reports = bench.run_pass(index, tracer if trace_this else None)
            if trace_this:
                tracer.uninstall()
                traced.append((wall, SpanSummary(tracer.spans, first, len(tracer.spans)),
                               reports))
            else:
                walls.append(wall)
            index += 1
            if index >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
                break
        print(f"# passes {index} untraced wall_s {[round(w, 4) for w in walls]}")
        if tracer is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": (statistics.median(walls), "s"), "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (rss_mb, "MB")}
            quality = quality_metrics(bench.first_reports)
            metrics["infidelity_mean"] = (quality["infidelity_mean"], "1")
            metrics["unconverged_share"] = (quality["unconverged_share"], "1")
            metrics["cp_dev_gmean"] = (quality["cp_dev_gmean"], "1")
        else:
            metrics = traced_metrics(bench, tracer, walls, traced, root)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_metrics(bench: Bench, tracer: Tracer, walls, traced, root: Path) -> dict:
    # counts repeat exactly across traced passes; times are medians
    per_pass = []
    for _, summary, reports in traced:
        blob_bytes = sum(len(bench.reference[name]) for name in reports)
        per_pass.append(layer_metrics(summary, reports, blob_bytes))
    metrics = {}
    for key, (_, unit) in per_pass[0].items():
        metrics[key] = (statistics.median([m[key][0] for m in per_pass]), unit)
    setup_busy = sum(s["end"] - s["start"] for s in tracer.spans
                     if s["name"] == "basis.build_ideal_state"
                     and (s["op"] or "").startswith("setup"))
    metrics["basis.build_ideal_state.setup_busy_s"] = (setup_busy / SETUP_REPS, "s")
    traced_wall = statistics.median([t[0] for t in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead"] = (traced_wall / statistics.median(walls) - 1.0, "ratio")
    path = root / ".bench_out" / f"trace-{bench.workload_name}-{bench.seed}.jsonl"
    tracer.write_jsonl(path)
    print(f"# spans {len(tracer.spans)} written to {path.relative_to(root)}; "
          f"absent: {', '.join(tracer.absent) or 'none'}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mflo" / "__init__.py").is_file():
        print("bench: run from the root of an mflo checkout (no src/mflo here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args, root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
