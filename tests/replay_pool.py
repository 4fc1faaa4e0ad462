"""Replay every CLI job of the benchmark pool (perfbench/pool.json) in
process and compare its exit code and report SHA-256 with the values
stored beside it when the pool was built, then run one round of the
qfield library jobs, each checking the identities and ranks built into
its inputs.  A change that alters any report of a pool job, by a byte,
fails here.

It needs only the standard library and the package's source, so it runs
under every Python the package supports, without pytest:

    python tests/replay_pool.py

prints what it checked and exits 0, or names each mismatch and exits 1.
tests/test_pool_replay.py runs the same checks in the tier-1 suite."""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
POOL_JOBS = 265
QFIELD_JOBS = 18


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pool_mismatches(space_dir):
    """(number of pool jobs, [(argv, exit code, error)] of each job whose
    exit code or report digest differs from the stored one), the jobs'
    space files written under space_dir."""
    from colourgl.cli import main

    workloads = load_workloads()
    pool = json.loads((BENCH / "pool.json").read_text())
    workloads.write_spaces(pool["spaces"], space_dir)
    jobs = [job for slots in pool["workloads"].values()
            for slot in slots for job in slot["jobs"]]
    mismatches = []
    for job in jobs:
        argv = workloads.space_argv(job["argv"], space_dir)
        code, out, err = workloads.run_cli(main, argv)
        digest = workloads.report_digest(out, space_dir)
        if (code, digest) != (job["rc"], job["sha"]):
            mismatches.append((job["argv"], code, err))
    return len(jobs), mismatches


def qfield_failures():
    """(number of qfield jobs, the slots of those that fail) for round 0
    of seed 0."""
    workloads = load_workloads()
    jobs = workloads.qfield_jobs(0, 0)
    return len(jobs), [job["slot"] for job in jobs
                       if not workloads.run_qfield_job(job)]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        count, mismatches = pool_mismatches(str(Path(tmp) / "spaces"))
    qcount, failed = qfield_failures()
    problems = [f"pool job {argv}: exit {code}, {err}"
                for argv, code, err in mismatches]
    if count != POOL_JOBS:
        problems.append(f"the pool holds {count} jobs, not {POOL_JOBS}")
    if qcount != QFIELD_JOBS:
        problems.append(f"the qfield round has {qcount} jobs, "
                        f"not {QFIELD_JOBS}")
    problems += [f"qfield job failed: {slot}" for slot in failed]
    for line in problems:
        print(line, file=sys.stderr)
    print(f"Python {sys.version.split()[0]}: {count} pool jobs, "
          f"{len(mismatches)} mismatched; {qcount} qfield jobs, "
          f"{len(failed)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
