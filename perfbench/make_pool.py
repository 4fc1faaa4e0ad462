"""Build ``pool.json``: the job pool of the CLI workloads and its reference.

    python3 perfbench/make_pool.py

Run from the root of a checkout.  Candidate jobs come from fixed seeds;
each is run in this process, and a candidate is kept when it exits 0.
The kept job stores that exit code and the SHA-256 of its canonical report
as the reference every benchmark run compares against, so rebuild the pool
only at a commit whose reports are trusted, and never in a change that
claims a gain.  A slot keeps the candidates whose time lies within SPREAD
of the slot's median (or below TINY seconds), so that the jobs a seed
draws for one slot cost about the same and run-to-run totals stay steady.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from colourgl.cli import main  # noqa: E402
from colourgl.gl import GradedSpace  # noqa: E402
from colourgl.grading import CommutativeFactor, GradingGroup  # noqa: E402
from colourgl.partitions import (count_hook_tableaux, in_hook,  # noqa: E402
                                 partitions_of)
from colourgl.presets import preset_space  # noqa: E402

POOL_SEED = 20251017
SPREAD = 0.2
TINY = 0.02
SPACES = {}


# -- spaces -------------------------------------------------------------------

def random_space(rng, m, n, q_valued):
    """A random colour space with m even and n odd basis vectors (one per
    degree).  q-valued spaces have a skew exponent form that reaches at
    least one pair of their degrees."""
    while True:
        free = rng.randint(1, 2) if q_valued else rng.randint(0, 1)
        tors = rng.randint(1, 2) if free == 0 else rng.randint(0, 2)
        r = free + tors
        sign = [[0] * r for _ in range(r)]
        exp = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                sign[i][j] = sign[j][i] = rng.randint(0, 1)
        if q_valued:
            for i in range(free):
                for j in range(i + 1, free):
                    exp[i][j] = rng.choice((-1, 1))
                    exp[j][i] = -exp[i][j]
            if free == 1:
                continue  # a skew form on Z^1 vanishes
        group = GradingGroup(free, tors)
        factor = CommutativeFactor(group, sign, exp)
        even, odd = [], []
        for _ in range(200):
            coords = [rng.randint(-2, 2) for _ in range(free)] + \
                [rng.randint(0, 1) for _ in range(tors)]
            d = group.degree(*coords)
            if d in even or d in odd:
                continue
            bucket = even if factor.parity(d) == 1 else odd
            if len(bucket) < (m if bucket is even else n):
                bucket.append(d)
            if len(even) == m and len(odd) == n:
                break
        if len(even) != m or len(odd) != n:
            continue
        degs = even + odd
        if q_valued and all(factor.omega(a, b).is_sign()
                            for a in degs for b in degs):
            continue
        return GradedSpace(factor, [(d, 1) for d in degs])


def add_random(rng, m, n, q_valued, tag):
    name = f"{'q' if q_valued else 's'}{m}{n}_{tag}"
    SPACES[name] = random_space(rng, m, n, q_valued).to_json()
    return workloads.SPACE_TAG + name


def space_info(spec):
    if spec.startswith(workloads.SPACE_TAG):
        space = GradedSpace.from_json(SPACES[spec[len(workloads.SPACE_TAG):]])
    else:
        space = preset_space(spec)
    return space, not space.factor.is_sign_valued()


def realisations(rng, m, n, q_valued, presets, randoms=3):
    """Spaces of one (m|n) pattern and one kind of factor: the given
    presets plus `randoms` random colour spaces."""
    out = list(presets)
    out += [add_random(rng, m, n, q_valued, i) for i in range(randoms)]
    return out


# -- job keys and properties --------------------------------------------------

def hook_keys(sizes, mp, mm):
    return [f"hook|{','.join(map(str, lam))}|{mp}|{mm}"
            for d in sizes for lam in partitions_of(d)
            if in_hook(lam, mp, mm)]


def job(argv, keys=(), **props):
    return {"argv": list(argv), "keys": sorted(set(keys)), "props": props}


def spaced(cmd, spec, *rest, keys=(), **props):
    space, q = space_info(spec)
    props.setdefault("dim", space.dim)
    return job([cmd, "--space", spec, *map(str, rest)],
               keys=[f"space|{spec}", *keys], q_valued=q, **props)


def schur_weyl(spec, r):
    space, _ = space_info(spec)
    mp, mm = space.m_plus, space.m_minus
    lams = [lam for lam in partitions_of(r) if in_hook(lam, mp, mm)]
    keys = [f"young|{','.join(map(str, lam))}" for lam in lams]
    keys += hook_keys([r], mp, mm)
    return spaced("schur-weyl", spec, "--power", r, keys=keys, power=r)


def casimir(spec, lam):
    text = ",".join(map(str, lam))
    return spaced("casimir", spec, "--partition", text,
                  keys=[f"young|{text}"], power=sum(lam))


# -- slots --------------------------------------------------------------------

def tensor_slots(rng):
    s11 = realisations(rng, 1, 1, False, ["super(1|1)"])
    q11 = realisations(rng, 1, 1, True, ["glq(1|1)"])
    s3 = realisations(rng, 2, 1, False, ["super(2|1)", "super(1|2)"], 2) + \
        [add_random(rng, 1, 2, False, "t")]
    q3 = realisations(rng, 2, 1, True, ["glq(2|1)", "glq(1|2)"], 2) + \
        [add_random(rng, 1, 2, True, "t")]
    # one (1|1) pattern: the (2|0) and (0|2) spaces cost about half as much
    d2 = s11 + q11
    d34 = ["super(2|2)", "z2z2(1,1,1,1)", "green(3)", "z2z2(1,1,1,0)",
           "super(3|1)"] + s3[:2] + q3[:2]
    small = s11 + q11 + s3 + q3
    lams = [(3, 1), (2, 2), (2, 1, 1), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]
    cas = []
    for spec in small:
        space, _ = space_info(spec)
        cas += [casimir(spec, lam) for lam in lams
                if in_hook(lam, space.m_plus, space.m_minus)]
    return [
        # sign-valued only: the q-valued (1|1) spaces run r = 6 about 20%
        # faster.  Three a round put job_tail_s (the eleventh slowest job)
        # near the middle of this slot rather than on its fastest jobs
        ("sw-d2-r6", 3, [schur_weyl(s, 6) for s in s11]),
        ("sw-d3-r5", 2, [schur_weyl(s, 5) for s in s3 + q3]),
        ("sw-d2-r5", 4, [schur_weyl(s, 5) for s in d2]),
        ("sw-d34-r4", 2, [schur_weyl(s, 4) for s in d34]),
        ("casimir", 4, cas),
    ]


def weyl_slots(rng):
    s11 = realisations(rng, 1, 1, False, ["super(1|1)"], 2)
    q11 = realisations(rng, 1, 1, True, ["glq(1|1)"], 2)
    d3 = realisations(rng, 2, 1, False, ["super(2|1)", "super(1|2)"], 2) + \
        realisations(rng, 2, 1, True, ["glq(2|1)", "glq(1|2)"], 1)
    d2 = s11 + q11

    def verify(spec, level, seed):
        return spaced("verify", spec, "--level", level, "--seed", seed,
                      copies=2 if level == "full" else 1)

    def fft(spec, copies, dual, degree):
        return spaced("fft-check", spec, "--copies", copies, "--dual-copies",
                      dual, "--max-degree", degree,
                      keys=[f"fft|{spec}|{copies}|{dual}"],
                      copies=copies, degree=degree)

    def glq(m, n, copies, degree):
        return job(["glq-check", "--m", str(m), "--n", str(n), "--copies",
                    str(copies), "--max-degree", str(degree)],
                   keys=[f"space|glq({m}|{n})"], q_valued=True, dim=m + n,
                   copies=copies, degree=degree)

    # job_tail_s falls near the middle of verify-quick-d3 and job_p50_s
    # inside fft-d3-c1 and verify-quick-d2, not on the edge of a slot
    return [
        ("verify-full-d2", 1, [verify(s, "full", k) for s in d2
                               for k in range(2)]),
        ("verify-quick-d3", 2, [verify(s, "quick", k) for s in d3
                                for k in range(2)]),
        ("verify-quick-d2", 1, [verify(s, "quick", k) for s in d2
                                for k in range(2)]),
        ("fft-d2-c2", 1, [fft(s, 2, dual, 2) for s in d2 for dual in (1, 2)]),
        ("fft-d3-c1", 2, [fft(s, 1, 1, 2) for s in d3]),
        ("glq-check", 3, [glq(m, n, c, d) for m, n in
                           ((1, 1), (2, 1), (1, 2), (2, 0), (0, 2))
                           for c in (1, 2) for d in (3, 4)]),
    ]


def dominant(rng, mp, mm, lo=-3, hi=4):
    plus = sorted((rng.randint(lo, hi) for _ in range(mp)), reverse=True)
    minus = sorted((rng.randint(lo, hi) for _ in range(mm)), reverse=True)
    return plus + minus


def weight_job(cmd, spec, weight, *rest):
    text = ",".join(map(str, weight))
    return spaced(cmd, spec, f"--weight={text}", *rest,
                  keys=[f"weight|{spec}|{text}"])


def hook_slots(rng):
    small = ["super(1|1)", "super(2|1)", "super(1|2)"] + \
        realisations(rng, 2, 1, False, [], 2)
    big = ["super(2|2)"] + realisations(rng, 2, 2, False, [], 3)

    def tableaux(spec, size, *rest):
        space, _ = space_info(spec)
        return spaced("tableaux", spec, "--size", size, *rest,
                      keys=hook_keys([size], space.m_plus, space.m_minus),
                      degree=size)

    def howe(spec, copies, degree):
        space, _ = space_info(spec)
        return spaced("howe-sweep", spec, "--copies", copies, "--max-degree",
                      degree, keys=hook_keys(range(degree + 1), space.m_plus,
                                             space.m_minus),
                      copies=copies, degree=degree)

    def glvv(v, w, degree):
        sv, _ = space_info(v)
        sw, _ = space_info(w)
        keys = hook_keys(range(degree + 1), sv.m_plus, sv.m_minus) + \
            hook_keys(range(degree + 1), sw.m_plus, sw.m_minus)
        return spaced("glvv", v, "--other-space", w, "--max-degree", degree,
                      keys=keys + [f"space|{w}"], degree=degree)

    def weights(cmd, count, specs, *rest):
        out = []
        for _ in range(count):
            spec = rng.choice(specs)
            space, _ = space_info(spec)
            out.append(weight_job(cmd, spec, dominant(
                rng, space.m_plus, space.m_minus), *rest))
        return out

    # one (M+|M-) pattern per big tableaux slot: the hook counts are cached
    # across jobs, so each run pays exactly one cold count per slot
    variants = ((), ("--copies", 2), ("--copies", 3), ("--format", "tsv"))
    s33 = ["super(3|3)"] + realisations(rng, 3, 3, False, [], 2)
    s32 = ["super(3|2)"] + realisations(rng, 3, 2, False, [], 2)
    both = small + big
    # typicality, kac-dim and unitarisable all cost about the same, and
    # twice as many of them as of all other jobs put job_p50_s well inside
    # that cluster, not on the edge of a slot whose jobs differ in cost
    # 2.5x (gram-small, tableaux-small); job_tail_s falls inside howe-big
    # and tableaux-32
    return [
        ("tableaux-33", 1, [tableaux(s, 11, *v) for s in s33
                            for v in variants]),
        ("tableaux-32", 1, [tableaux(s, 12, *v) for s in s32
                            for v in variants]),
        ("tableaux-small", 1, [tableaux(s, size, *v) for s in both[:5]
                               for size, v in ((8, ()), (9, variants[1]),
                                               (10, variants[2]))]),
        ("howe-big", 2, [howe(s, 3, 8) for s in big]),
        ("howe-small", 1, [howe(s, c, d) for s in small + ["glq(1|1)"]
                           for c, d in ((3, 8), (2, 9))]),
        ("glvv", 1, [glvv(v, w, d) for v, w in
                     (("super(1|1)", "super(2|1)"),
                      ("super(2|1)", "super(1|2)"),
                      ("super(2|2)", "super(2|1)"),
                      ("z2z2(1,1,0,0)", "z2z2(1,0,1,1)"))
                     for d in (6, 8)]),
        ("gram-d4", 1, weights("gram", 40, big)),
        ("gram-small", 1, weights("gram", 24, small)),
        ("typicality", 6, weights("typicality", 24, both)),
        ("kac-dim", 6, weights("kac-dim", 24, both)),
        ("unitarisable", 6, weights("unitarisable", 12, both, "--type", "I")
         + weights("unitarisable", 12, both, "--type", "II")),
    ]


def measure(candidates, space_dir):
    kept = []
    for cand in candidates:
        argv = workloads.space_argv(cand["argv"], space_dir)
        dt = float("inf")
        for _ in range(3):  # the fastest of three cold runs
            count_hook_tableaux.cache_clear()
            t0 = time.perf_counter()
            code, out, err = workloads.run_cli(main, argv)
            dt = min(dt, time.perf_counter() - t0)
        if code != 0 or err:
            print(f"  drop (exit {code}): {' '.join(cand['argv'])}",
                  file=sys.stderr)
            continue
        cand = dict(cand, rc=code, sha=workloads.report_digest(out, space_dir))
        kept.append((dt, cand))
    return kept


def main_build():
    rng = random.Random(POOL_SEED)
    builders = {"tensor": tensor_slots, "weyl": weyl_slots,
                "hook": hook_slots}
    slots = {name: build(rng) for name, build in builders.items()}
    space_dir = str(ROOT / ".bench_build" / "make_pool")
    workloads.write_spaces(SPACES, space_dir)
    pool = {"spaces": {}, "workloads": {}}
    try:
        for name, entries in slots.items():
            pool["workloads"][name] = []
            for slot, count, candidates in entries:
                unique = {json.dumps(c["argv"]): c for c in candidates}
                kept = measure(list(unique.values()), space_dir)
                mid = statistics.median(dt for dt, _ in kept)
                lo = 0 if mid < TINY else mid * (1 - SPREAD)
                hi = max(mid * (1 + SPREAD), TINY)
                jobs = [c for dt, c in kept if lo <= dt <= hi]
                print(f"{name}/{slot}: {len(jobs)} of {len(candidates)} "
                      f"jobs, median {mid:.3f} s:",
                      " ".join(f"{dt:.3f}" for dt, _ in kept),
                      file=sys.stderr)
                pool["workloads"][name].append(
                    {"name": slot, "count": count, "jobs": jobs})
    finally:
        shutil.rmtree(space_dir, ignore_errors=True)
    used = {a[len(workloads.SPACE_TAG):]
            for slots_ in pool["workloads"].values() for s in slots_
            for j in s["jobs"] for a in j["argv"]
            if a.startswith(workloads.SPACE_TAG)}
    pool["spaces"] = {n: SPACES[n] for n in sorted(used)}
    with open(workloads.POOL_FILE, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main_build()
