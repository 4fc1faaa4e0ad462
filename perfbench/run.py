"""The colourgl benchmark: one workload per call.

    python3 perfbench/run.py --workload {tensor,weyl,hook,qfield} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run is S / 2.5 rounds (see
``workloads.py``); each round runs in a fresh, single-threaded Python
process (``worker.py``) as one client in a closed loop: a job starts when
the previous one has ended.  Rounds have the same make-up and the jobs come
from the seed, so a faster program finishes the same work sooner.

A shared machine changes speed by up to 2x within seconds.  So every time
is reported in reference seconds: the measured seconds times CAL_REF_S over
the time of a calibration slice (``calibration.py``, plain Python with the
standard library only) taken next to it.  A job or a set-up is scaled by
the mean of the slices just before and just after it.  On a quiet machine
whose slice takes CAL_REF_S, a reference second is a second; a change to
colourgl moves the job times and not the slices.  The measured seconds are
printed in the summary line.

``--trace 0`` reports the end-to-end metrics, each over the rounds, whose
median damps the bursts of a shared machine: ``setup_s`` (median set-up
time of a round's process: import, inputs, spaces), ``wall_s`` (median
round time, the sum of its job times, times the number of rounds),
``job_p50_s`` and ``job_tail_s`` (median job time, and the job time at the
highest percentile with at least ten jobs beyond it, over all jobs of the
run) and ``peak_rss_mb`` (median peak resident memory of a round's
process).  ``--trace 1`` runs every round untraced and then traced, and
reports the per-layer metrics of ``tracing.py`` summed over the traced
rounds, and ``trace.overhead``, the traced over the untraced time of all
rounds.  Every job's output is checked; ``failed_frac`` is printed with the
summary, and a wrong output makes ``correct`` false and the exit code 1.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170
# Seconds of one calibration slice on the quiet 2-vCPU machine the
# benchmark was defined on; a fixed constant, never re-measured.
CAL_REF_S = 0.010


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, deadline, round_index, trace=False):
    """Run one round in a fresh worker process; its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--round", str(round_index)] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(times):
    """(time, percentile) at the highest percentile with at least ten jobs
    beyond it; the slowest job when there are fewer than eleven."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def known_exclusion():
    with open(HERE / "design.json") as fh:
        return json.load(fh)["known_exclusion"]


def environment():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def scaled(run):
    """A round's set-up, job and round times in reference seconds."""
    cal = run["calibration_s"]
    jobs = [t * 2 * CAL_REF_S / (before + after)
            for t, before, after in zip(run["job_s"], cal, cal[1:])]
    setup = run["setup_s"] * 2 * CAL_REF_S / (run["setup_calibration_s"]
                                              + cal[0])
    return {"setup_s": setup,
            "job_s": jobs, "wall_s": sum(jobs)}


def end_to_end(runs):
    measured = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": len(runs) * statistics.median(sum(r["job_s"])
                                                for r in runs),
        "calibration_s": statistics.median(c for r in runs
                                           for c in r["calibration_s"]),
    }
    timed = [scaled(r) for r in runs]
    times = [t for r in timed for t in r["job_s"]]
    tail_s, tail_pct = tail(times)
    values = {
        "setup_s": (statistics.median(r["setup_s"] for r in timed), "s"),
        "wall_s": (len(timed) * statistics.median(r["wall_s"]
                                                  for r in timed), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, {"jobs": len(times),
                     "job_tail_percentile": round(tail_pct, 2),
                     "measured": measured}


def per_layer(runs, traced):
    values = tracing.layer_metrics([r["layers"] for r in traced])
    values["trace.overhead"] = sum(scaled(r)["wall_s"] for r in traced) / \
        sum(scaled(r)["wall_s"] for r in runs)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER.items()}
    return metrics, {"spans": sum(r["layers"]["spans"] for r in traced),
                     "untraced_wall_s": sum(scaled(r)["wall_s"]
                                            for r in runs)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "colourgl" / "__init__.py").is_file():
        print(f"no colourgl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env_before = environment()
    runs, traced = [], []
    try:
        for k in range(workloads.rounds(args.seconds)):
            runs.append(run_worker(args, deadline, k))
            if args.trace:
                traced.append(run_worker(args, deadline, k, trace=True))
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    everything = runs + traced
    attempted = sum(len(r["job_s"]) for r in everything)
    failed = sum(r["failed"] for r in everything)
    metrics, extra = end_to_end(runs)
    if args.trace:
        metrics, layer_extra = per_layer(runs, traced)
        extra.update(layer_extra)
    job_lists = [r["jobs"] for r in runs]
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": len(runs),
        "failed_frac": failed / attempted,
        "inputs": workloads.input_properties(
            [j for jobs in job_lists for j in jobs]),
        "repeat_shares": workloads.repeat_shares(job_lists),
        "env": {"before": env_before, "after": environment()},
        "known_exclusion": known_exclusion(), **extra,
    }
    print(json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:7s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:7s} {'failed_frac':40s} {failed / attempted:.6g} "
          f"ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
