#!/usr/bin/env python3
"""The end-to-end benchmark: six workloads, one command.

One workload, as the driver runs it (last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/e2e/run.py --workload sampled_train --seed 3 \\
        --seconds 10 --trace 0

All six, each in a fresh process, optionally several seeds, written to
a file that ``compare.py`` reads::

    python3 benchmarks/e2e/run.py [--seed S] [--runs N] [--trace 0|1] \\
        [--out FILE]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced pass that gives the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``; a
workload that returns any other set of names is a failed run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict[str, str]:
    """One BLAS/OpenMP thread and no ``REPRO_*`` override, before NumPy loads.

    A threaded BLAS turns the tall-skinny products of the sampled step
    from 0.1 ms into tens of ms on a small box, and a stray ``REPRO_*``
    switch would silently measure another code path.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("threads must be pinned before NumPy is imported")
    cleared = {k: os.environ.pop(k) for k in list(os.environ)
               if k.startswith("REPRO_")}
    for name in THREAD_PINS:
        os.environ[name] = "1"
    return cleared


def pin_to_one_cpu(calib) -> int:
    """Confine the run, threads and calibration kernel alike, to one CPU.

    Left to roam over both CPUs, a two-thread workload (generator and
    worker, or four ranks) feels a neighbour on either of them while the
    single-threaded calibration kernel samples only the one it happens to
    run on; sharing one CPU, the kernel sees exactly what the workload
    sees. The CPU on which the kernel runs fastest right now is chosen.
    """
    allowed = sorted(os.sched_getaffinity(0))
    times = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = calib.sample(fresh=True)
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return best


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"  # the driver's checkout is not a git repository


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment_meta(
    seed: int, cleared: dict[str, str], allowed_cpus: list[int]
) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity_allowed": allowed_cpus,
        "affinity_pinned": sorted(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "commit": git_commit(),
        "seed": seed,
        "thread_pins": {name: os.environ[name] for name in THREAD_PINS},
        "cleared_env": sorted(cleared),
    }


def run_workload(args, spec: dict, t_start: float) -> int:
    """Run one workload in this process; print the contract's JSON line."""
    cleared = pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import probes
    from spans import SpanLog
    from workloads import FULL, SMOKE, Calibrator, build_workloads

    raw_import_s = time.perf_counter() - t_start
    calib = Calibrator()
    allowed_cpus = sorted(os.sched_getaffinity(0))
    pin_to_one_cpu(calib)
    import_s = raw_import_s * Calibrator.REFERENCE_S / calib.sample()
    sizes = SMOKE if args.smoke else FULL
    workload = build_workloads(sizes)[args.workload]
    calib_first = probes.calibrate()

    # Set-up runs several times (fresh graph, model, engine, cold unit,
    # warm-up each time); the run keeps the last one to measure on.
    setup_times, raw_setups, log, st = [], [], None, None
    for _ in range(1 if args.trace else sizes.setups):
        if st is not None:
            workload.close(st)
            st = None
            gc.collect()
        log = SpanLog()
        before = calib.sample()
        t0 = time.perf_counter()
        st = workload.setup(args.seed, sizes, log)
        raw = time.perf_counter() - t0
        raw_setups.append(raw)
        setup_times.append(raw * calib.scale_since(before))

    detail: dict = {"setup_s_each": setup_times,
                    "raw_setup_s_each": raw_setups, "import_s": import_s,
                    "raw_import_s": raw_import_s}
    checks: dict[str, bool] = {}
    try:
        if args.trace:
            declared = spec["per_layer"]
            metrics = probes.budget(workload, st, args.seconds, log)
            workload.close(st)  # the probes start servers of their own
            metrics.update(probes.run_probes(
                st.problem, sizes, args.seconds, log))
            metrics["graphs.generate_s"] = log.median_s("graphs.generate")
            metrics["graphs.prepare_s"] = log.median_s("graphs.prepare")
            metrics["cold.first_unit_s"] = log.median_s("setup.cold_unit")
            attempted, failed = len(log.spans), 0
        else:
            declared = spec["end_to_end"]
            measured = workload.measure(st, args.seconds, calib)
            checks = workload.check(st, measured)
            metrics = dict(measured.metrics)
            metrics["setup_s"] = import_s + median(setup_times)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            attempted, failed = measured.attempted, measured.failed
            detail.update(measured.detail)
            detail["calib_kernel_s"] = median(calib.samples)
            detail["calib_scale"] = (
                Calibrator.REFERENCE_S / detail["calib_kernel_s"])
    finally:
        workload.close(st)

    calib_last = probes.calibrate()
    drift = probes.calibration_drift(calib_first, calib_last)
    if args.trace:
        metrics.update(calib_first)
        metrics["calib.drift_share"] = drift
        out_dir = HERE / "out"
        log.write(out_dir / f"spans-{args.workload}.json")
    detail["calib"] = {"first": calib_first, "last": calib_last,
                       "drift_share": drift}

    names = [m["name"] for m in declared]
    checks["metric_names_match_BENCHMARK.json"] = sorted(metrics) == sorted(names)
    checks["metrics_finite"] = all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for v in metrics.values())
    failed_checks = sorted(k for k, ok in checks.items() if not ok)
    attempted += len(checks)
    failed += len(failed_checks)
    detail.update({
        "meta": environment_meta(args.seed, cleared, allowed_cpus),
        "checks": checks,
        "fail_share": failed / attempted,
    })

    units = {m["name"]: m["unit"] for m in declared}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:>16.6g} {units.get(name, '?')}")
    print(f"  attempted {attempted}  failed {failed}"
          + (f"  FAILED CHECKS {failed_checks}" if failed_checks else ""))
    print("detail " + json.dumps(detail, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in names if name in metrics
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args, names: list[str]) -> int:
    """Every workload in a fresh process each; optional results file."""
    runs, status = [], 0
    for run_index in range(args.runs):
        seed = args.seed + run_index  # another seed each run, as the driver does
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            record = {"workload": name, "seed": seed, "trace": args.trace,
                      "exit_code": child.returncode}
            if lines and lines[-1].startswith("{"):
                record["result"] = json.loads(lines[-1])
                record["detail"] = next(
                    (json.loads(line[7:]) for line in lines
                     if line.startswith("detail ")), {})
            if child.returncode != 0:
                status = 1
            runs.append(record)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"claim": None, "runs": runs}, indent=1))
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="run this workload here; default: all six, "
                        "each in a process of its own")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the schema self-test")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload, "
                        "seeds seed, seed+1, ...")
    parser.add_argument("--out", type=Path, default=None,
                        help="without --workload: write every run's record")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload:
        return run_workload(args, spec, t_start)
    return run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
