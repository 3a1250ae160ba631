"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload closed-loop:
set-up, then the job list back to back until about S seconds are spent, on
one thread with BLAS pinned to one thread.  The last line of standard output
is the result as JSON: end-to-end metrics with ``--trace 0``, per-layer
metrics from a separately traced pass with ``--trace 1``.  The line before it
holds the details: machine block, per-job times and failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPS = 5
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def machine_block(numpy, mpmath, dunkldyn) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "precision_bits": dunkldyn.DEFAULT_PRECISION_BITS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def import_seconds() -> float:
    """Import time of numpy, mpmath and dunkldyn in a fresh interpreter."""
    probe = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
             "import mpmath, numpy, dunkldyn; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dunkldyn" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'dunkldyn'}", file=sys.stderr)
        return 2
    # before numpy is imported: one BLAS thread, default package precision
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("DUNKLDYN_PRECISION_BITS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import mpmath
    import numpy
    import dunkldyn
    import measure
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[workload.name]
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = measure.Tally()
    times: dict[str, list] = {}
    traced_times: dict[str, list] = {}
    try:
        imports, setups = [], []
        for _ in range(SETUP_REPS):
            seconds, error, sample, _ = measure.timed(import_seconds)
            if error is not None:
                raise error
            imports.append(sample._replace(wall=seconds))  # the child's own timer
        for _ in range(SETUP_REPS):
            ctx, error, sample, _ = measure.timed(lambda: workload.setup(str(workdir), args.seed))
            if error is not None:
                raise error
            setups.append(sample)
        import_s = statistics.median(s.normalised()[0] for s in imports)
        setup_s = import_s + statistics.median(s.normalised()[0] for s in setups)

        def untraced_pass():
            measure.run_pass(workload.jobs(ctx), reference, tally, times)

        if not args.trace:
            measure.repeat_for(args.seconds, untraced_pass)
            wall_s, cpu_s = measure.job_list_seconds(times)
            values = {"wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s,
                      "peak_rss_mb": peak_rss_mb()}
            result_metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        else:
            spans = tracing.Spans()
            undo = tracing.install(dunkldyn, spans)
            try:
                ctx, error, sample, _ = measure.timed(
                    lambda: workload.setup(str(workdir), args.seed))
            finally:
                tracing.uninstall(undo)
            if error is not None:
                raise error
            traced_setup_s = import_s + sample.normalised()[0]
            traced_setup = tracing.profile(spans)
            traced_passes = []

            def pass_pair():
                untraced_pass()
                spans = tracing.Spans()
                undo = tracing.install(dunkldyn, spans)
                try:
                    measure.run_pass(workload.jobs(ctx), reference, tally, traced_times)
                finally:
                    tracing.uninstall(undo)
                traced_passes.append(tracing.profile(spans))

            measure.repeat_for(args.seconds, pass_pair)
            wall_s, _ = measure.job_list_seconds(times)
            traced_wall_s, traced_cpu_s = measure.job_list_seconds(traced_times)
            values = tracing.layer_values(tracing.combine(traced_setup, traced_passes))
            values.update({
                "traced.wall_s": traced_wall_s,
                "traced.cpu_s": traced_cpu_s,
                "traced.setup_s": traced_setup_s,
                "traced.peak_rss_mb": peak_rss_mb(),
                "traced.error_rate": tally.error_rate,
                "trace.overhead_s": traced_wall_s - wall_s,
            })
            result_metrics = {name: metric(values[name], unit)
                              for name, unit in tracing.per_layer_metrics()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(numpy, mpmath, dunkldyn),
        "load_model": "closed loop, 1 client, 1 process, 1 BLAS thread",
        "import_raw": [s._asdict() for s in imports],
        "setup_raw": [s._asdict() for s in setups],
        "passes": len(next(iter(times.values()), [])),
        "calibration_ref_s": measure.CAL_REF_S,
        "job_raw": {name: [s._asdict() for s in runs] for name, runs in times.items()},
        "traced_job_raw": {name: [s._asdict() for s in runs]
                           for name, runs in traced_times.items()},
        "attempted": tally.attempted,
        "failed": len(tally.reasons),
        "error_rate": tally.error_rate,
        "failures": sorted(set(tally.reasons))[:20],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not tally.reasons,
        "attempted": tally.attempted,
        "failed": len(tally.reasons),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
