import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colourgl.presets import glq_space, super_space, z2z2_space
from colourgl.scalars import MINUS_ONE, ONE, Q, Scalar
from colourgl.weyl import (FockVector, OmegaPolyAlgebra, ResourceBoundExceeded,
                           WeylElement, dual_pair_generators, fock_apply,
                           glq_relations_check, glvv_decomposition,
                           howe_dimension_sweep, howe_dual_sweep,
                           invariant_dimension, invariant_generators_check,
                           rank_of_rows, verify_dual_pair, weyl_bracket,
                           weyl_multiply)


def test_ccr_contraction(super11):
    space = super11
    for a in range(2):
        d = WeylElement.d_gen(space, 1, a, 0)
        x = WeylElement.x_gen(space, 1, a, 0)
        prod = weyl_multiply(d, x)
        om = space.omega(-space.degrees[a], space.degrees[a])
        expected = WeylElement(space, 1, {
            ((((a, 0),)), (((a, 0),))): om, ((), ()): ONE})
        assert prod == expected


def test_odd_square_vanishes(super11):
    x_odd = WeylElement.x_gen(super11, 2, 1, 0)
    assert weyl_multiply(x_odd, x_odd).is_zero()
    d_odd = WeylElement.d_gen(super11, 2, 1, 1)
    assert weyl_multiply(d_odd, d_odd).is_zero()


def test_glq_x_relation_pattern(glq11):
    x0 = WeylElement.x_gen(glq11, 2, 0, 0)
    x1 = WeylElement.x_gen(glq11, 2, 1, 1)
    lhs = weyl_multiply(x0, x1)
    rhs = weyl_multiply(x1, x0).scale(Q)
    assert lhs == rhs


def test_associativity_random(glq21):
    rng = random.Random(2)
    space = glq21
    gens = [WeylElement.x_gen(space, 2, a, r) for a in range(3)
            for r in range(2)]
    gens += [WeylElement.d_gen(space, 2, a, r) for a in range(3)
             for r in range(2)]
    for _ in range(60):
        u, v, w = (rng.choice(gens) for _ in range(3))
        assert weyl_multiply(weyl_multiply(u, v), w) == \
            weyl_multiply(u, weyl_multiply(v, w))


def test_fock_basics(super11):
    space = super11
    vac = FockVector.vacuum(space, 1)
    d = WeylElement.d_gen(space, 1, 0, 0)
    x = WeylElement.x_gen(space, 1, 0, 0)
    assert fock_apply(d, vac).is_zero()
    assert fock_apply(d, fock_apply(x, vac)) == vac
    one = WeylElement.one(space, 1)
    f = fock_apply(x, fock_apply(x, vac))
    assert fock_apply(one, f) == f


def test_fock_leibniz_twist(glq11):
    # d_a(x_b x_c) = d(x_b) x_c + omega(-g_a, g_b) x_b d(x_c)
    space = glq11
    d0 = WeylElement.d_gen(space, 1, 0, 0)
    f = FockVector(space, 1, {((0, 0), (1, 0)): ONE})
    image = fock_apply(d0, f)
    assert image == FockVector(space, 1, {((1, 0),): ONE})
    d1 = WeylElement.d_gen(space, 1, 1, 0)
    image = fock_apply(d1, f)
    om = space.omega(-space.degrees[1], space.degrees[0])
    assert image == FockVector(space, 1, {((0, 0),): om})


def test_fock_module_axiom(super21):
    rng = random.Random(13)
    space = super21
    gens = [WeylElement.x_gen(space, 2, a, r) for a in range(3)
            for r in range(2)]
    gens += [WeylElement.d_gen(space, 2, a, r) for a in range(3)
             for r in range(2)]
    monos = [(), ((0, 0),), ((0, 0), (1, 1)), ((2, 0), (2, 1)),
             ((0, 0), (0, 0), (2, 1))]
    for _ in range(80):
        u, v = rng.choice(gens), rng.choice(gens)
        f = FockVector(space, 2, {rng.choice(monos): ONE})
        assert fock_apply(weyl_multiply(u, v), f) == \
            fock_apply(u, fock_apply(v, f))


def test_dual_pair_relations(super11, super21, glq11):
    for space in (super11, super21, glq11):
        assert verify_dual_pair(space, 2)


def test_ecal_degree(super21):
    _, ecal = dual_pair_generators(super21, 2)
    e = ecal[(0, 2)]
    assert e.degree() == super21.degrees[0] - super21.degrees[2]


def test_howe_sweep_gl11(super11):
    rows = howe_dimension_sweep(super11, 1, 3)
    assert [r["fock_dimension"] for r in rows] == [1, 2, 2, 2]
    assert all(r["equal"] for r in rows)
    rows = howe_dual_sweep(super11, 1, 3)
    assert [r["fock_dimension"] for r in rows] == [1, 2, 2, 2]


def test_howe_sweep_d1_is_dim_times_copies(super21, glq11):
    for space, copies in [(super21, 2), (glq11, 3)]:
        rows = howe_dimension_sweep(space, copies, 1)
        assert rows[1]["fock_dimension"] == space.dim * copies
        assert rows[0]["fock_dimension"] == 1


def test_howe_sweep_gl21(super21):
    rows = howe_dimension_sweep(super21, 2, 4)
    assert all(r["equal"] for r in rows)


def test_howe_sweep_all_odd_space(green2):
    # M+ = 0: the even-generator count degenerates; dim S^d = C(M- N, d)
    rows = howe_dimension_sweep(green2, 2, 5)
    assert [r["fock_dimension"] for r in rows] == [1, 4, 6, 4, 1, 0]
    assert all(r["equal"] for r in rows)


def test_invariant_dimension_basics(super11, super21):
    assert invariant_dimension(super11, 1, 1, 0) == 1
    assert invariant_dimension(super11, 1, 1, 2) == 1
    assert invariant_dimension(super11, 2, 1, 1) == 2
    assert invariant_dimension(super21, 2, 2, 1) == 4
    assert invariant_dimension(super21, 2, 1, 2) == 3


def test_invariant_dimension_resource_guard(super21):
    with pytest.raises(ResourceBoundExceeded):
        invariant_dimension(super21, 3, 3, 4, basis_bound=10)


def test_invariant_generators_filtration(super11, super21):
    assert invariant_generators_check(super11, 2)
    assert invariant_generators_check(super21, 1)


def test_glq_relations(glq11):
    report = glq_relations_check(1, 1, 1, max_degree=3)
    assert report["relations_hold"] and report["sweep_ok"]
    # J is skew: omega(eps_i, eps_j) = q for i < j
    assert glq11.factor.omega(glq11.degrees[0], glq11.degrees[1]) == Q
    assert glq11.factor.omega(glq11.degrees[1], glq11.degrees[0]) == \
        Q.inverse()


def test_glvv_consistency(super11):
    rows, pairs = glvv_decomposition(super11, super11, 2)
    assert rows[1]["algebra_dimension"] == 4  # dim V * dim V'
    assert rows[2]["algebra_dimension"] == 8  # 2*2 + 2*2
    assert all(r["equal"] for r in rows)
    parts = {p["partition"] for p in pairs}
    assert (2,) in parts and (1, 1) in parts


def test_glvv_reduces_to_howe(super21):
    # V' = C^2 all even reproduces the N = 2 sweep dimensions
    even2 = super_space(2, 0)
    rows, _ = glvv_decomposition(super21, even2, 3)
    sweep = howe_dimension_sweep(super21, 2, 3)
    assert [r["algebra_dimension"] for r in rows] == \
        [r["fock_dimension"] for r in sweep]


def test_rank_of_rows():
    one = ONE
    rows = [{0: one, 1: one}, {1: one}, {0: one, 1: one + one}]
    assert rank_of_rows(rows) == 2
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{0: Q}]) == 1


def test_normal_order_confluence(z2z2_all):
    rng = random.Random(31)
    space = z2z2_all
    gens = [WeylElement.x_gen(space, 1, a, 0) for a in range(space.dim)]
    gens += [WeylElement.d_gen(space, 1, a, 0) for a in range(space.dim)]
    for _ in range(50):
        u, v, w = (rng.choice(gens) for _ in range(3))
        assert weyl_multiply(weyl_multiply(u, v), w) == \
            weyl_multiply(u, weyl_multiply(v, w))


def test_weyl_bracket_requires_homogeneous(glq11):
    x = WeylElement.x_gen(glq11, 1, 0, 0)
    d = WeylElement.d_gen(glq11, 1, 1, 0)
    mixed = x + d
    assert mixed.degree() is None
    with pytest.raises(ValueError):
        weyl_bracket(mixed, x)


def filtered_monomials(parities, total):
    """Reference enumeration: every sorted multiset of generators, minus
    those that repeat an odd generator."""
    return [combo for combo in itertools.combinations_with_replacement(
                range(len(parities)), total)
            if all(parities[g] == 1 or len(list(run)) == 1
                   for g, run in itertools.groupby(combo))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from((1, -1)), max_size=7), st.integers(0, 6))
def test_monomials_match_filtered_enumeration(parities, total):
    space = super_space(1, 1)
    even, odd = space.degrees
    alg = OmegaPolyAlgebra(space.factor,
                           [even if p == 1 else odd for p in parities])
    monos = alg.monomials(total)
    assert monos == filtered_monomials(parities, total)
    assert len(monos) == alg.count_monomials(total)


def test_sweeps_refuse_over_cap_before_enumerating():
    big = super_space(3, 3)
    with pytest.raises(ResourceBoundExceeded):
        howe_dimension_sweep(big, 4, 16)
    with pytest.raises(ResourceBoundExceeded):
        glvv_decomposition(big, big, 12)
