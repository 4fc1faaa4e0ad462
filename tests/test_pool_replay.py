"""Replay every CLI job of the benchmark pool (perfbench/pool.json) in
process and compare its exit code and report SHA-256 with the values
stored beside it when the pool was built.  A change that alters any
report of a pool job, by a byte, fails here.  One round of the qfield
library jobs runs too, each checking the identities and ranks built into
its inputs."""

import importlib.util
import json
from pathlib import Path

from colourgl.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pool_jobs_replay_byte_identical(tmp_path):
    workloads = _load_workloads()
    pool = json.loads((BENCH / "pool.json").read_text())
    space_dir = str(tmp_path / "spaces")
    workloads.write_spaces(pool["spaces"], space_dir)
    jobs = [job for slots in pool["workloads"].values()
            for slot in slots for job in slot["jobs"]]
    assert len(jobs) == 265
    mismatches = []
    for job in jobs:
        argv = workloads.space_argv(job["argv"], space_dir)
        code, out, err = workloads.run_cli(main, argv)
        digest = workloads.report_digest(out, space_dir)
        if (code, digest) != (job["rc"], job["sha"]):
            mismatches.append((job["argv"], code, err))
    assert not mismatches, mismatches


def test_qfield_round_checks_its_identities_and_ranks():
    workloads = _load_workloads()
    jobs = workloads.qfield_jobs(0, 0)
    assert len(jobs) == 18
    failed = [job["slot"] for job in jobs if not workloads.run_qfield_job(job)]
    assert not failed, failed
