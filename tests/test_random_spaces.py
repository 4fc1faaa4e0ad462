"""Seeded random factors and spaces: the structural identities must hold
for every member of the (sign form, skew exponent form) family, not just
the shipped presets."""

import itertools
import random
from fractions import Fraction

from colourgl.gl import (GlElement, GradedSpace, bilinear_form, bracket,
                         jacobi_defect, positive_roots, rho, skew_defect,
                         supertrace, weight_inner)
from colourgl.grading import CommutativeFactor, GradingGroup, _merge
from colourgl.presets import glq_space, green_space
from colourgl.scalars import ONE
from colourgl.tensor import TensorVector, braiding_apply, gl_act_tensor
from colourgl.weyl import (FockVector, WeylElement, fock_algebra, fock_apply,
                           howe_dimension_sweep, invariant_dimension,
                           verify_dual_pair, weyl_multiply)
from test_laurent_kernels import small_presets
from test_weyl import (COEFS, as_coefficient, degree_row,
                       oracle_derivation_apply, oracle_fock_apply,
                       oracle_merge_gen_left, oracle_merge_words,
                       oracle_multiply, oracle_weyl_multiply, recode)


def random_factor(rng, free_rank, torsion_rank):
    r = free_rank + torsion_rank
    sign = [[0] * r for _ in range(r)]
    exp = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            sign[i][j] = sign[j][i] = rng.randint(0, 1)
    for i in range(free_rank):
        for j in range(i + 1, free_rank):
            exp[i][j] = rng.randint(-2, 2)
            exp[j][i] = -exp[i][j]
    group = GradingGroup(free_rank, torsion_rank)
    return CommutativeFactor(group, tuple(map(tuple, sign)),
                             tuple(map(tuple, exp)))


def random_space(rng, max_dim=3):
    factor = random_factor(rng, rng.randint(0, 2), rng.randint(0, 2))
    if factor.group.rank == 0:
        factor = random_factor(rng, 1, 1)
    group = factor.group
    degrees = set()
    while len(degrees) < rng.randint(2, max_dim):
        coords = tuple(rng.randint(-2, 2) for _ in range(group.free_rank)) \
            + tuple(rng.randint(0, 1) for _ in range(group.torsion2_rank))
        degrees.add(group.degree(*coords))
    comps = [(d, 1) for d in sorted(degrees, key=lambda d: d.coords)]
    return GradedSpace(factor, comps)


def test_random_spaces_satisfy_gl_axioms():
    rng = random.Random(2718)
    for trial in range(12):
        space = random_space(rng)
        units = [GlElement.matrix_unit(space, a, b)
                 for a in range(space.dim) for b in range(space.dim)]
        for x, y in itertools.product(units, repeat=2):
            assert skew_defect(x, y).is_zero(), (trial, space)
        for _ in range(40):
            x, y, z = (rng.choice(units) for _ in range(3))
            assert jacobi_defect(x, y, z).is_zero(), (trial, space)
            assert bilinear_form(bracket(x, y), z) == \
                bilinear_form(x, bracket(y, z))
            assert supertrace(bracket(x, y)).is_zero()


def test_random_spaces_braiding_and_equivariance():
    rng = random.Random(577)
    for trial in range(10):
        space = random_space(rng)
        for _ in range(15):
            word = tuple(rng.randrange(space.dim) for _ in range(3))
            v = TensorVector.basis_word(space, word)
            assert braiding_apply(0, braiding_apply(0, v)) == v
            lhs = braiding_apply(0, braiding_apply(1, braiding_apply(0, v)))
            rhs = braiding_apply(1, braiding_apply(0, braiding_apply(1, v)))
            assert lhs == rhs, (trial, word)
            a, b = rng.randrange(space.dim), rng.randrange(space.dim)
            x = GlElement.matrix_unit(space, a, b)
            for i in (0, 1):
                assert braiding_apply(i, gl_act_tensor(x, v)) == \
                    gl_act_tensor(x, braiding_apply(i, v))


def test_random_spaces_weyl_module_axiom():
    rng = random.Random(31415)
    for trial in range(6):
        space = random_space(rng)
        copies = rng.randint(1, 2)
        gens = [WeylElement.x_gen(space, copies, a, r)
                for a in range(space.dim) for r in range(copies)]
        gens += [WeylElement.d_gen(space, copies, a, r)
                 for a in range(space.dim) for r in range(copies)]
        x_ids = [(a, r) for a in range(space.dim) for r in range(copies)]
        monos = [(), (x_ids[0],)]
        monos += [m for m in itertools.combinations_with_replacement(
            x_ids, 2) if all(space.parities[g[0]] == 1 or m.count(g) <= 1
                             for g in m)]
        monos = [recode(m, copies, True) for m in monos]
        for _ in range(60):
            u, v = rng.choice(gens), rng.choice(gens)
            f = FockVector(space, copies, {rng.choice(monos): ONE})
            assert fock_apply(weyl_multiply(u, v), f) == \
                fock_apply(u, fock_apply(v, f)), (trial, u, v, f)
        assert weyl_multiply(weyl_multiply(gens[0], gens[-1]), gens[1]) == \
            weyl_multiply(gens[0], weyl_multiply(gens[-1], gens[1]))


def test_dual_degrees_keep_their_parity():
    # omega(-g, -g) = omega(g, g): V* has the parities of V, so the Howe
    # sweep of V* is that of V (howe-sweep reports it as its dual_rows).
    # Basis vector a is odd exactly when a >= M+: the Young tables take
    # their parity bits from that order, the diagonal of the omega table
    rng = random.Random(4242)
    spaces = list(small_presets().values()) + [
        glq_space(m, n) for m in range(5) for n in range(5) if m + n] + [
        green_space(n) for n in range(1, 7)] + [
        random_space(rng, max_dim=4) for _ in range(60)]
    for space in spaces:
        for a, (g, parity) in enumerate(zip(space.degrees, space.parities)):
            assert space.factor.parity(-g) == parity, (space, g)
            assert space.factor.parity(g) == parity == (
                -1 if a >= space.m_plus else 1), (space, g)
            assert space._omega_pairs[a][a][0] == (a >= space.m_plus)


def test_difference_degrees_multiply_parities():
    # omega(g - h, g - h) = omega(g, g) omega(h, h): the generator E_vw of
    # S_omega(V* x W), of degree g_w - g_v, is odd exactly when one of v
    # and w is, so glvv counts its parities from (M+, M-) of V and W
    rng = random.Random(3939)
    spaces = list(small_presets().values())
    pairs = [(v, w) for v in spaces for w in spaces if v.factor == w.factor]
    pairs += [(space, space) for space in (
        random_space(rng, max_dim=4) for _ in range(60))]
    assert len(pairs) > 60
    for v, w in pairs:
        parity = v.factor.parity
        for dv in v.degrees:
            for dw in w.degrees:
                assert parity(dw - dv) == parity(dv) * parity(dw), (v, w)


def test_random_spaces_dual_pair_and_howe():
    rng = random.Random(8128)
    for trial in range(5):
        space = random_space(rng)
        assert verify_dual_pair(space, 1), (trial, space)
        rows = howe_dimension_sweep(space, 2, 3)
        assert all(r["equal"] for r in rows), (trial, space)


def test_random_spaces_invariant_dimensions():
    rng = random.Random(99991)
    for trial in range(6):
        space = random_space(rng)
        for d in range(3):
            # raises internally on any mismatch with the structure sum or
            # a z-span failure
            invariant_dimension(space, 1, 1, d)


def random_word(rng, space, copies, max_len=4):
    word = sorted((rng.randrange(space.dim), rng.randrange(copies))
                  for _ in range(rng.randint(0, max_len)))
    return tuple(g for k, g in enumerate(word)
                 if space.parities[g[0]] == 1 or g not in word[:k])


def test_random_spaces_straightening_matches_oracles():
    # the table-driven _merge and _derive against the old omega_flat and
    # factor.omega walks, on sign-valued and q-valued factors alike
    rng = random.Random(4242)
    q_valued = 0
    for trial in range(12):
        space = random_space(rng)
        q_valued += not space.factor.is_sign_valued()
        copies = rng.randint(1, 2)
        odd, om = fock_algebra(space, copies)._tables

        def flat(x):
            return recode(x, copies, True)

        def pairs(x):
            return recode(x, copies, False)
        for _ in range(20):
            w1, w2 = (random_word(rng, space, copies) for _ in range(2))
            g = (rng.randrange(space.dim), rng.randrange(copies))
            merged = _merge(flat(w1), flat(w2), odd, om)
            assert pairs(as_coefficient(merged)) == \
                oracle_merge_words(space, w1, w2), (trial, w1, w2)
            merged = _merge(flat((g,)), flat(w2), odd, om)
            assert pairs(as_coefficient(merged)) == \
                oracle_merge_gen_left(space, w2, g), (trial, g, w2)

            def element():
                return WeylElement(space, copies, {
                    (random_word(rng, space, copies),
                     random_word(rng, space, copies)): rng.choice(COEFS)
                    for _ in range(rng.randint(1, 3))})
            u, v = element(), element()
            assert pairs(weyl_multiply(flat(u), flat(v))) == \
                oracle_weyl_multiply(u, v), trial
            f = FockVector(space, copies, {w1: ONE, w2: rng.choice(COEFS)})
            assert pairs(fock_apply(flat(u), flat(f))) == \
                oracle_fock_apply(u, f), trial
        alg = fock_algebra(space, copies, rng.randint(0, 2))
        n = len(alg.degrees)
        monos = [m for d in range(4) for m in alg.monomials(d)]
        for _ in range(20):
            m1, m2 = rng.choice(monos), rng.choice(monos)
            assert alg.multiply(m1, m2) == oracle_multiply(alg, m1, m2)
            action = {g: [(rng.randrange(n), rng.choice(COEFS))]
                      for g in range(n) if rng.random() < 0.5}
            x_degree = rng.choice(alg.degrees)
            assert alg.derivation_apply(
                action, degree_row(alg, x_degree), m1) == \
                oracle_derivation_apply(alg, action, x_degree, m1), trial
    assert q_valued >= 3


def test_random_spaces_rho_contract():
    rng = random.Random(161803)
    for _ in range(10):
        space = random_space(rng)
        r = rho(space)
        mp, mm = space.m_plus, space.m_minus
        for i in range(1, mp + 1):
            for s in range(1, mm + 1):
                root = tuple(
                    Fraction(int(a == i - 1)) - Fraction(int(a == mp + s - 1))
                    for a in range(space.dim))
                assert weight_inner(space, r, root) == mp - s - i + 1
        even, odd = positive_roots(space)
        assert len(odd) == mp * mm