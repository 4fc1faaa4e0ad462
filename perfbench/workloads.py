"""Seeded inputs for the four workloads and the checks on their outputs.

A run is a number of rounds, each run in a fresh process, and every round
has the same make-up: a fixed number of jobs from each slot, a slot being
a group of jobs of similar cost.  The jobs of round k are drawn, with
replacement, from the seed and k, and shuffled.

The CLI workloads (tensor, weyl, hook) draw their jobs from the committed
pool in ``pool.json``.  Every pool job carries the exit code and the
SHA-256 of the canonical report it gave when the pool was built
(``make_pool.py``): the reference a run is checked against.  The qfield
workload builds its inputs from the seed directly and checks identities and
ranks that hold by construction.

The number of rounds is ``--seconds`` / ROUND_SECONDS, so two commits
always run the same work for one seed, and a round takes at most about
ROUND_SECONDS, in the reference seconds of ``run.py``, at the commit that
defined the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool.json"
ROUND_SECONDS = 2.5
WORKLOADS = ("tensor", "weyl", "hook", "qfield")
SPACE_TAG = "@space:"
SPACE_DIR_TAG = "@spaces/"


# -- running and checking one CLI job -----------------------------------------

def space_argv(argv, space_dir):
    """Replace @space:NAME placeholders by the path of the written file."""
    return [f"{space_dir}/{a[len(SPACE_TAG):]}.json"
            if a.startswith(SPACE_TAG) else a for a in argv]


def run_cli(main, argv):
    """(exit code, stdout text, error text or None) of one in-process job."""
    buf = io.StringIO()
    err = None
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code, err = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a job boundary: record and go on
        code, err = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), err


def report_digest(text, space_dir):
    """SHA-256 of the report with its timing field removed and the space
    file directory replaced by a fixed tag."""
    text = text.replace(f"{space_dir}/", SPACE_DIR_TAG)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        canon = text  # TSV tables are compared as text
    else:
        if isinstance(doc, dict):
            doc.pop("timing", None)
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_spaces(spaces, space_dir):
    os.makedirs(space_dir, exist_ok=True)
    for name, doc in spaces.items():
        with open(f"{space_dir}/{name}.json", "w") as fh:
            json.dump(doc, fh, sort_keys=True)


# -- the CLI workloads --------------------------------------------------------

def load_pool():
    with open(POOL_FILE) as fh:
        return json.load(fh)


def rounds(seconds):
    return max(1, round(seconds / ROUND_SECONDS))


def cli_jobs(pool, workload, seed, round_index):
    """The jobs of one round: dicts with slot, argv, rc and sha."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    jobs = []
    for slot in pool["workloads"][workload]:
        for _ in range(slot["count"]):
            job = dict(rng.choice(slot["jobs"]))
            job["slot"] = slot["name"]
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def used_spaces(pool, jobs):
    names = {a[len(SPACE_TAG):] for job in jobs for a in job["argv"]
             if a.startswith(SPACE_TAG)}
    return {n: pool["spaces"][n] for n in sorted(names)}


def space_args(argvs):
    """Every distinct --space/--other-space value, in first-use order."""
    out = []
    for argv in argvs:
        for i, a in enumerate(argv[:-1]):
            if a in ("--space", "--other-space") and argv[i + 1] not in out:
                out.append(argv[i + 1])
    return out


# -- the qfield workload ------------------------------------------------------
#
# Inputs are Laurent polynomials as (shift, integer coefficients) pairs,
# made with plain integer arithmetic, so set-up does no Scalar work; each
# job builds its Scalars and does all of its field arithmetic itself.

QFIELD_SLOTS = (("roundtrip", 6), ("identity", 6), ("rank", 6))
ROUNDTRIP_VALUES = 150
IDENTITY_TRIPLES = 30
RANK_SHAPE = (18, 9)         # rows = columns, rank by construction
RANK_DENSITY = 0.5


def _laurent(rng, terms):
    """A random Laurent polynomial as {exponent: nonzero integer}."""
    return {e: rng.choice((-3, -2, -1, 1, 2, 3))
            for e in rng.sample(range(-2, 3), terms)}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _wire(poly):
    """{exponent: coefficient} as (shift, coefficient tuple)."""
    lo = min(poly)
    return lo, tuple(poly.get(e, 0) for e in range(lo, max(poly) + 1))


def _fraction_input(rng):
    """Numerator and denominator of a ratio of 2-term Laurent polynomials."""
    return _wire(_laurent(rng, 2)), _wire(_laurent(rng, 2))


def ranked_matrix(rng, n, r, density):
    """Sparse rows of M = L D U (n x n, rank exactly r) over Laurent
    polynomials: L is n x r with a unit lower triangular top block, U is
    r x n unit upper triangular and D is diagonal with 2-term entries.  The
    top r x r block has determinant prod(D) != 0, so rank(M) = r."""
    one = {0: 1}

    def entry():
        return _laurent(rng, rng.randint(1, 2)) \
            if rng.random() < density else None

    L = [[one if i == k else (entry() if k < i else None) for k in range(r)]
         for i in range(n)]
    U = [[one if j == k else (entry() if j > k else None) for j in range(n)]
         for k in range(r)]
    D = [_laurent(rng, 2) for _ in range(r)]
    rows = []
    for i in range(n):
        row = {}
        for j in range(n):
            total = {}
            for k in range(r):
                if L[i][k] is not None and U[k][j] is not None:
                    total = _padd(total, _pmul(_pmul(L[i][k], D[k]), U[k][j]))
            if total:
                row[j] = _wire(total)
        rows.append(row)
    return rows


def qfield_jobs(seed, round_index):
    """One round of library jobs on true rational functions."""
    rng = random.Random(f"qfield:{seed}:{round_index}")
    jobs = []
    for slot, count in QFIELD_SLOTS:
        for _ in range(count):
            if slot == "roundtrip":
                inputs = [_fraction_input(rng)
                          for _ in range(ROUNDTRIP_VALUES)]
            elif slot == "identity":
                inputs = [[_fraction_input(rng) for _ in range(3)]
                          for _ in range(IDENTITY_TRIPLES)]
            else:
                n, r = RANK_SHAPE
                inputs = (ranked_matrix(rng, n, r, RANK_DENSITY), r)
            jobs.append({"slot": slot, "inputs": inputs})
    rng.shuffle(jobs)
    return jobs


def run_qfield_job(job):
    """True iff every identity or rank built into the inputs holds."""
    from colourgl import weyl
    from colourgl.scalars import Scalar

    def fraction(pair):
        (s1, num), (s2, den) = pair
        return Scalar(s1, num) / Scalar(s2, den)

    slot, inputs = job["slot"], job["inputs"]
    if slot == "roundtrip":
        for pair in inputs:
            x = fraction(pair)
            text = str(x)
            if Scalar.parse(text) != x or str(Scalar.parse(text)) != text:
                return False
        return True
    if slot == "identity":
        for triple in inputs:
            x, y, z = (fraction(p) for p in triple)
            if not (x * x.inverse()).is_one():
                return False
            if (x + y) - y != x:
                return False
            if x * (y + z) != x * y + x * z:
                return False
            if not ((x / y) * (y / x)).is_one():
                return False
        return True
    rows, rank = inputs
    matrix = [{c: Scalar(shift, coeffs) for c, (shift, coeffs) in row.items()}
              for row in rows]
    return weyl.rank_of_rows(matrix) == rank


# -- input properties ---------------------------------------------------------

def repeat_shares(rounds):
    """Per sub-input kind: the share of jobs that repeat a sub-input of that
    kind seen in an earlier job of the same round (so of the same process,
    where a cache could serve it).  A key reads "kind|value": the Young
    symmetriser of a partition (independent of the space), the hook count
    of (partition, M+, M-), the space, or a weight on a space."""
    hits, kinds, n = {}, set(), 0
    for jobs in rounds:
        seen = set()
        for job in jobs:
            n += 1
            keys = job.get("keys", ())
            for kind in {k.split("|", 1)[0] for k in keys}:
                kinds.add(kind)
                if any(k in seen for k in keys if k.startswith(kind + "|")):
                    hits[kind] = hits.get(kind, 0) + 1
            seen.update(keys)
    return {kind: round(hits.get(kind, 0) / (n or 1), 4)
            for kind in sorted(kinds)}


def input_properties(jobs):
    """Share of jobs on a q-valued factor and the ranges of dim V, power r,
    copies N and degree d over the job list."""
    props = [job["props"] for job in jobs if "props" in job]
    out = {"jobs": len(jobs)}
    if props:
        out["q_valued_share"] = round(
            sum(1 for p in props if p["q_valued"]) / len(props), 4)
    for key in ("dim", "power", "copies", "degree"):
        vals = [p[key] for p in props if key in p]
        if vals:
            out[key] = [min(vals), max(vals)]
    return out
