"""Replay every CLI job of the benchmark pool (perfbench/pool.json) in
process and compare its exit code and report SHA-256 with the values
stored beside it when the pool was built.  A change that alters any
report of a pool job, by a byte, fails here.  One round of the qfield
library jobs runs too, each checking the identities and ranks built into
its inputs.  The replay itself lives in tests/replay_pool.py, which runs
alone under any supported Python."""

import replay_pool


def test_pool_jobs_replay_byte_identical(tmp_path):
    count, mismatches = replay_pool.pool_mismatches(str(tmp_path / "spaces"))
    assert count == replay_pool.POOL_JOBS == 265
    assert not mismatches, mismatches


def test_qfield_round_checks_its_identities_and_ranks():
    count, failed = replay_pool.qfield_failures()
    assert count == replay_pool.QFIELD_JOBS == 18
    assert not failed, failed
