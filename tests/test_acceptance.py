"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with -s to see the per-criterion pass lines."""

import itertools
import random
import time
from fractions import Fraction

from colourgl.gl import GlElement, jacobi_defect, skew_defect
from colourgl.partitions import (count_hook_tableaux, count_standard_tableaux,
                                 in_hook, lambda_sharp, partitions_of)
from colourgl.presets import (glq_space, green_space, super_space,
                              z2z2_space)
from colourgl.reps import (casimir_defect, classify_unitarisable, gram_report,
                           is_finite_dimensional, kac_dimension, typicality)
from colourgl.tensor import TensorVector, braiding_apply, schur_weyl_table
from colourgl.weyl import (howe_dimension_sweep, invariant_dimension,
                           glq_relations_check, verify_dual_pair)
from test_weyl import dual_space

F = Fraction


def preset_instances_dim_le(limit):
    spaces = [("super(1|1)", super_space(1, 1)),
              ("super(2|1)", super_space(2, 1)),
              ("super(1|2)", super_space(1, 2)),
              ("super(2|2)", super_space(2, 2)),
              ("z2z2(1,1,1,1)", z2z2_space((1, 1, 1, 1))),
              ("glq(1|1)", glq_space(1, 1)),
              ("glq(2|1)", glq_space(2, 1)),
              ("green(2)", green_space(2))]
    return [(n, s) for n, s in spaces if s.dim <= limit]


def sw_spaces():
    return [("super(1|1)", super_space(1, 1)),
            ("super(2|1)", super_space(2, 1)),
            ("z2z2(1,1,1,1)", z2z2_space((1, 1, 1, 1)))]


def _report(num, label, t0, limit):
    elapsed = time.time() - t0
    print(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s)")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_criterion_1_axiom_suite():
    t0 = time.time()
    rng = random.Random(0)
    for name, space in preset_instances_dim_le(4):
        factor, group = space.factor, space.factor.group
        for _ in range(60):
            coords = lambda: group.degree(*(
                [rng.randint(-5, 5) for _ in range(group.free_rank)]
                + [rng.randint(0, 1) for _ in range(group.torsion2_rank)]))
            a, b, c = coords(), coords(), coords()
            assert factor.omega(a, b + c) == \
                factor.omega(a, b) * factor.omega(a, c), name
            assert factor.omega(a + b, c) == \
                factor.omega(a, c) * factor.omega(b, c), name
            assert (factor.omega(a, b) * factor.omega(b, a)).is_one(), name
        units = [GlElement.matrix_unit(space, a, b)
                 for a in range(space.dim) for b in range(space.dim)]
        for x, y in itertools.product(units, repeat=2):
            assert skew_defect(x, y).is_zero(), name
        for x, y, z in itertools.product(units, repeat=3):
            assert jacobi_defect(x, y, z).is_zero(), name
    for name, space in preset_instances_dim_le(4):
        for r in range(2, 6):
            words = itertools.product(range(space.dim), repeat=r)
            for word in words:
                v = TensorVector.basis_word(space, word)
                for i in range(r - 1):
                    assert braiding_apply(i, braiding_apply(i, v)) == v
                for i in range(r - 2):
                    lhs = braiding_apply(
                        i, braiding_apply(i + 1, braiding_apply(i, v)))
                    rhs = braiding_apply(
                        i + 1, braiding_apply(i, braiding_apply(i + 1, v)))
                    assert lhs == rhs, (name, word, i)
                for i in range(r - 1):
                    for j in range(i + 2, r - 1):
                        assert braiding_apply(i, braiding_apply(j, v)) == \
                            braiding_apply(j, braiding_apply(i, v))
    _report(1, "bicharacter + Jacobi/skew exhaustive + Coxeter r<=5", t0, 10)


def test_criterion_2_schur_weyl():
    t0 = time.time()
    for name, space in sw_spaces():
        for r in range(1, 5):
            rows = schur_weyl_table(space, r)
            total = sum(row["k"] * row["f"] for row in rows)
            assert total == space.dim ** r, (name, r)
    _report(2, "Schur-Weyl tables with verified highest weight vectors "
               "for r<=4", t0, 60)


def test_criterion_3_howe_duality():
    t0 = time.time()
    spaces = sw_spaces() + [("glq(1|1)", glq_space(1, 1)),
                            ("glq(2|1)", glq_space(2, 1))]
    for name, space in spaces:
        for copies in (1, 2, 3):
            for rows in (howe_dimension_sweep(space, copies, 5),
                         howe_dimension_sweep(dual_space(space), copies, 5)):
                assert all(row["equal"] for row in rows), (name, copies)
    # the glq relation families hold identically in Q(q), hence at every
    # q != 0 including roots of unity
    for m, n in ((1, 1), (2, 1)):
        report = glq_relations_check(m, n, 2, max_degree=4)
        assert report["relations_hold"] and report["sweep_ok"], (m, n)
    _report(3, "Howe sweeps N<=3, d<=5 incl. glq over Q(q)", t0, 60)


def test_criterion_4_fft_sft():
    t0 = time.time()
    spaces = [("super(1|1)", super_space(1, 1)),
              ("super(2|1)", super_space(2, 1)),
              ("super(1|2)", super_space(1, 2)),
              ("glq(1|1)", glq_space(1, 1)),
              ("z2z2(1,1,1)", z2z2_space((1, 1, 1, 0)))]
    for name, space in spaces:
        for copies, dual_copies in ((1, 1), (2, 1), (2, 2)):
            for d in range(4):
                # raises if the count disagrees with the SFT sum or the
                # z-monomials fail to span
                invariant_dimension(space, copies, dual_copies, d)
    _report(4, "FFT/SFT invariant dimensions + z-span, d<=3, dimV<=3",
            t0, 120)


def test_criterion_5_typicality_kac():
    t0 = time.time()
    for name, space in [("super(1|1)", super_space(1, 1)),
                        ("super(2|1)", super_space(2, 1)),
                        ("super(1|2)", super_space(1, 2))]:
        mp, mm = space.m_plus, space.m_minus
        for size in range(5):
            for lam in partitions_of(size):
                if not in_hook(lam, mp, mm):
                    continue
                sharp = tuple(F(c) for c in lambda_sharp(lam, mp, mm))
                typical, _ = typicality(space, sharp)
                k = count_hook_tableaux(lam, mp, mm)
                kac = kac_dimension(space, sharp)
                if typical:
                    assert k == kac, (name, lam)
                else:
                    assert k < kac, (name, lam)
    space = super_space(1, 1)
    for a in (F(-2), F(0), F(1, 3), F(7, 2), F(5)):
        for b in (F(-1, 2), F(0), F(2), F(-4)):
            _, chi = typicality(space, (a, b))
            assert chi == a + b
    _report(5, "typical iff k = 2^(M+M-) dim L0; gl(1|1) chi symbolic",
            t0, 60)


def test_criterion_6_casimir():
    t0 = time.time()
    for name, space in sw_spaces():
        for r in range(1, 5):
            for lam in partitions_of(r):
                if in_hook(lam, space.m_plus, space.m_minus):
                    assert casimir_defect(space, lam).is_zero(), (name, lam)
    _report(6, "Casimir defect zero on every criterion-2 weight", t0, 120)


def _random_dominant_weights(space, rng, count):
    out = []
    while len(out) < count:
        coords = [F(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
                  for _ in range(space.dim)]
        if space.m_plus == 2:
            coords[1] = coords[0] - rng.randint(0, 4)
        if space.m_minus == 2:
            coords[-1] = coords[-2] - rng.randint(0, 4)
        lam = tuple(coords)
        if is_finite_dimensional(space, lam):
            out.append(lam)
    return out


def test_criterion_7_unitarisability():
    t0 = time.time()
    rng = random.Random(2024)
    for name, space in [("super(1|1)", super_space(1, 1)),
                        ("super(2|1)", super_space(2, 1))]:
        for lam in _random_dominant_weights(space, rng, 55):
            rep = gram_report(space, lam)
            verdict = classify_unitarisable(space, lam, "I")
            assert rep.unitarisable == verdict.unitarisable, (name, lam)
    for name, space in sw_spaces():
        for r in range(1, 5):
            for lam in partitions_of(r):
                if not in_hook(lam, space.m_plus, space.m_minus):
                    continue
                sharp = tuple(F(c) for c in lambda_sharp(
                    lam, space.m_plus, space.m_minus))
                assert classify_unitarisable(
                    space, sharp, "I").unitarisable, (name, lam)
    _report(7, "gram vs classification on 55-weight grids; tensor weights "
               "unitarisable", t0, 60)


def test_criterion_8_dual_pair():
    t0 = time.time()
    spaces = [("super(1|1)", super_space(1, 1)),
              ("super(2|1)", super_space(2, 1)),
              ("super(1|2)", super_space(1, 2)),
              ("glq(1|1)", glq_space(1, 1)),
              ("z2z2(1,1,1)", z2z2_space((1, 1, 1, 0))),
              ("green(2)", green_space(2))]
    for name, space in spaces:
        for copies in (1, 2):
            assert verify_dual_pair(space, copies), (name, copies)
    _report(8, "dual pair brackets + [E, Ecal] = 0 exhaustive, dimV<=3, "
               "N<=2", t0, 120)
