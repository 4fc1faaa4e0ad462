"""One round of a workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --round K [--trace]

Run from the root of a checkout.  The worker imports colourgl from the
checkout's ``src``, generates the seeded inputs and builds the spaces (the
set-up), then runs the jobs back to back, one client in a closed loop, and
checks every output after the loop.  Before the set-up, before the first
job and after each job it times one calibration slice (``calibration.py``),
so that the runner can tell how fast the shared machine was around each.
Its last stdout line is one JSON object with the set-up time, per-job
times, calibration times, failures and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

from calibration import calibrate

SETUP_SLICE_S = calibrate()
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def setup(args, space_dir):
    """Import colourgl, generate the inputs and build the spaces."""
    cli = importlib.import_module("colourgl.cli")
    src = (ROOT / "src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        raise RuntimeError(f"colourgl imported from {cli.__file__}, "
                           f"not from {src}")
    if args.workload == "qfield":
        return workloads.qfield_jobs(args.seed, args.round)
    pool = workloads.load_pool()
    jobs = workloads.cli_jobs(pool, args.workload, args.seed, args.round)
    workloads.write_spaces(workloads.used_spaces(pool, jobs), space_dir)
    for job in jobs:
        job["run_argv"] = workloads.space_argv(job["argv"], space_dir)
    for spec in workloads.space_args(j["run_argv"] for j in jobs):
        cli.load_space(spec)
    return jobs


def run_jobs(workload, jobs, tracer):
    """Closed loop: each job starts when the previous one has ended, with
    one calibration slice before the first job and after each job."""
    times, outcomes, slices = [], [], [calibrate()]
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        t0 = time.perf_counter()
        if workload == "qfield":
            try:
                outcome = (workloads.run_qfield_job(job), None)
            except Exception as exc:  # a job boundary: record and go on
                outcome = (False, f"{type(exc).__name__}: {exc}")
        else:
            main = importlib.import_module("colourgl.cli").main
            outcome = workloads.run_cli(main, job["run_argv"])
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        slices.append(calibrate())
    return times, slices, outcomes


def check(workload, jobs, outcomes, space_dir):
    """Indices of failed jobs, each with a one-line reason."""
    failures = []
    for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
        if workload == "qfield":
            ok, err = outcome
            if not ok:
                failures.append((i, err or f"{job['slot']}: identity broken"))
            continue
        code, out, err = outcome
        if err:
            failures.append((i, f"{' '.join(job['argv'])}: {err}"))
        elif code != job["rc"]:
            failures.append((i, f"{' '.join(job['argv'])}: exit {code}, "
                                f"expected {job['rc']}"))
        elif workloads.report_digest(out, space_dir) != job["sha"]:
            failures.append((i, f"{' '.join(job['argv'])}: report differs "
                                f"from the reference"))
    return failures


def main(argv=None):
    args = parse_args(argv)
    space_dir = str(ROOT / ".bench_build" / f"perfbench-{os.getpid()}")
    try:
        jobs = setup(args, space_dir)
        setup_s = time.perf_counter() - T_START
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        times, slices, outcomes = run_jobs(args.workload, jobs, tracer)
        failures = check(args.workload, jobs, outcomes, space_dir)
        for i, reason in failures:
            print(f"FAILED round {args.round} job {i}: {reason}",
                  file=sys.stderr)
        result = {
            "setup_s": setup_s,
            "setup_calibration_s": SETUP_SLICE_S,
            "job_s": times,
            "calibration_s": slices,
            "failed": len(failures),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "jobs": [{k: job[k] for k in ("keys", "props") if k in job}
                     for job in jobs],
        }
        if tracer is not None:
            result["layers"] = tracer.totals()
    finally:
        shutil.rmtree(space_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
