"""Every rank over Q(q) that fft-check takes has unit pivots.

Every row that fft-check passes to rank_of_rows has its entries in
Z[q, q^-1].  When every pivot that weyl._reduce inverts is a unit c q^e,
c a nonzero rational, each elimination step stays valid at any q0 != 0
and each dependent row still reduces to zero there, so the rank at q0 is
the rank over Q(q): fft-check's verdicts then hold at every q != 0, roots
of unity included.  These tests record each Scalar inverted while
weyl.fft_check runs, by patching Scalar.inverse, and each rank that
rank_of_rows returns: the inverses number the summed ranks, so each is a
pivot, and each is a unit, one numerator coefficient over a constant
denominator.  Rows scaled by (1 + q) keep every rank over Q(q), and so
fft-check's verdict, but not their pivots' shape."""

import json
import random
from pathlib import Path

import pytest

from colourgl import weyl
from colourgl.gl import GradedSpace
from colourgl.presets import preset_space, super_space
from colourgl.scalars import Scalar
from test_random_spaces import random_space

POOL = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                   / "pool.json").read_text())
FFT_JOBS = [dict(zip(job["argv"][1::2], job["argv"][2::2]))
            for slots in POOL["workloads"].values() for slot in slots
            for job in slot["jobs"] if job["argv"][0] == "fft-check"]
SPACE_TAG = "@space:"


def job_space(spec):
    if spec.startswith(SPACE_TAG):
        return GradedSpace.from_json(POOL["spaces"][spec[len(SPACE_TAG):]])
    return preset_space(spec)


def is_unit(x):
    return len(x.num) == 1 and len(x.den) == 1


@pytest.fixture
def pivots(monkeypatch):
    """([each Scalar inverted], [each rank rank_of_rows returned]) while
    the test runs."""
    inverted, ranks = [], []
    inverse, rank_of_rows = Scalar.inverse, weyl.rank_of_rows

    def recorded(self):
        inverted.append(self)
        return inverse(self)

    def counted(rows):
        ranks.append(rank_of_rows(rows))
        return ranks[-1]

    monkeypatch.setattr(Scalar, "inverse", recorded)
    monkeypatch.setattr(weyl, "rank_of_rows", counted)
    return inverted, ranks


def test_every_fft_check_pool_job_has_unit_pivots(pivots):
    inverted, ranks = pivots
    assert len(FFT_JOBS) == 17
    for job in FFT_JOBS:
        got = weyl.fft_check(job_space(job["--space"]), int(job["--copies"]),
                             int(job["--dual-copies"]),
                             int(job["--max-degree"]))
        assert got["dual_pair_ok"] and got["filtration_level_1_ok"], job
    assert len(inverted) == sum(ranks) == 519
    assert all(map(is_unit, inverted))


def test_random_colour_spaces_have_unit_pivots(pivots):
    inverted, ranks = pivots
    rng = random.Random(3030)
    for _ in range(16):
        weyl.fft_check(random_space(rng), 2, 1, 2)
    assert len(inverted) == sum(ranks) == 664
    assert all(map(is_unit, inverted))


def test_rows_scaled_by_one_plus_q_keep_the_verdict_not_the_units(
        pivots, monkeypatch):
    inverted, ranks = pivots
    one_plus_q = Scalar.from_laurent({0: 1, 1: 1})
    counted = weyl.rank_of_rows

    def scaled(rows):
        return counted([{c: v * one_plus_q for c, v in row.items()}
                        for row in rows])

    monkeypatch.setattr(weyl, "rank_of_rows", scaled)
    got = weyl.fft_check(super_space(1, 1), 2, 1, 2)
    assert got["invariant_dimensions"] == {"0": 1, "1": 2, "2": 3}
    assert len(inverted) == sum(ranks)
    assert sum(not is_unit(x) for x in inverted) == 28
