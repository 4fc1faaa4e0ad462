import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colourgl import verify, weyl
from colourgl.gl import GradedSpace, _add_into
from colourgl.grading import CommutativeFactor, _merge, omega_scalar
from colourgl.partitions import _series
from colourgl.presets import glq_space, green_space, super_space, z2z2_space
from colourgl.scalars import MINUS_ONE, ONE, Q, Scalar
from colourgl.weyl import (FockVector, OmegaPolyAlgebra, ResourceBoundExceeded,
                           WeylElement, _count_monomials, _reduce,
                           dual_pair_generators, fock_algebra, fock_apply,
                           glq_relations_check, glvv_decomposition,
                           howe_dimension_sweep, invariant_dimension, invariant_generators_check,
                           rank_of_rows, verify_dual_pair, weyl_bracket,
                           weyl_multiply)


def recode(x, copies, flat):
    """x with its generators renumbered: each pair (a, r) becomes the flat
    id a * copies + r of fock_algebra when flat is true, and each flat id g
    becomes the pair divmod(g, copies) otherwise.  x is a word, a
    (coefficient, word) result of _merge or None, a WeylElement or a
    FockVector.  The oracles below read (a, r) pairs; the package reads
    flat ids."""
    def word(w):
        return tuple(g[0] * copies + g[1] if flat else divmod(g, copies)
                     for g in w)

    if isinstance(x, WeylElement):
        return WeylElement(x.space, x.copies, {
            (word(xs), word(ds)): c for (xs, ds), c in x.terms.items()})
    if isinstance(x, FockVector):
        return FockVector(x.space, x.copies,
                          {word(m): c for m, c in x.terms.items()})
    if x and isinstance(x[0], Scalar):
        return x[0], word(x[1])
    return x if x is None else word(x)


def as_coefficient(merged):
    """A _merge result (s, e, word) as (omega_scalar(s, e), word), the
    format of the oracles below; None stays None."""
    return None if merged is None else (omega_scalar(*merged[:2]),
                                        merged[2])


def degree_row(alg, degree):
    """What derivation_apply takes for an action of the given degree: the
    pair of omega(degree, deg g) for each generator g of alg."""
    return tuple(alg.factor._pairings(degree, d) for d in alg.degrees)


def test_ccr_contraction(super11):
    space = super11
    for a in range(2):
        d = WeylElement.d_gen(space, 1, a, 0)
        x = WeylElement.x_gen(space, 1, a, 0)
        prod = weyl_multiply(d, x)
        om = space.omega(-space.degrees[a], space.degrees[a])
        expected = recode(WeylElement(space, 1, {
            ((((a, 0),)), (((a, 0),))): om, ((), ()): ONE}), 1, True)
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
    f = recode(FockVector(space, 1, {((0, 0), (1, 0)): ONE}), 1, True)
    image = fock_apply(d0, f)
    assert image == recode(FockVector(space, 1, {((1, 0),): ONE}), 1, True)
    d1 = WeylElement.d_gen(space, 1, 1, 0)
    image = fock_apply(d1, f)
    om = space.omega(-space.degrees[1], space.degrees[0])
    assert image == recode(FockVector(space, 1, {((0, 0),): om}), 1, True)


def test_fock_module_axiom(super21):
    rng = random.Random(13)
    space = super21
    gens = [WeylElement.x_gen(space, 2, a, r) for a in range(3)
            for r in range(2)]
    gens += [WeylElement.d_gen(space, 2, a, r) for a in range(3)
             for r in range(2)]
    monos = [recode(m, 2, True)
             for m in [(), ((0, 0),), ((0, 0), (1, 1)), ((2, 0), (2, 1)),
                       ((0, 0), (0, 0), (2, 1))]]
    for _ in range(80):
        u, v = rng.choice(gens), rng.choice(gens)
        f = FockVector(space, 2, {rng.choice(monos): ONE})
        assert fock_apply(weyl_multiply(u, v), f) == \
            fock_apply(u, fock_apply(v, f))


def test_fock_suite_catches_an_action_wrong_on_one_monomial(super11,
                                                             monkeypatch):
    # the last monomial the suite visits, x_0^2 x_1 (copies = 1)
    target = recode(((0, 0), (0, 0), (1, 0)), 1, True)
    assert verify.suite_fock(super11, random.Random(0), 1)[0] is True
    right = verify._word_on_monomial

    def wrong(alg, xs, ds, mono):
        out = right(alg, xs, ds, mono)
        if mono == target:
            out[((), 0)] = out.get(((), 0), 0) + 1
        return out

    monkeypatch.setattr(verify, "_word_on_monomial", wrong)
    assert verify.suite_fock(super11, random.Random(0), 1) == \
        (False, "module axiom failed")


def test_dual_pair_catches_an_omega_pair_wrong_for_one_quadruple(
        super11, glq11, monkeypatch):
    # Ecal[0,1] Ecal[1,0] != 0, so a wrong sign or exponent of omega for
    # one ordered pair breaks that bracket
    right = weyl._bracket_pair
    cases = itertools.product((super11, glq11), ((0, 1, 1, 0), (1, 0, 0, 1)),
                              ((1, 0), (0, 1)))
    for space, bad, (ds, de) in cases:
        def wrong(pairs, a, b, c, d, space=space, bad=bad, ds=ds, de=de):
            s, e = right(pairs, a, b, c, d)
            if pairs is space._omega_pairs and (a, b, c, d) == bad:
                return s ^ ds, e + de
            return s, e

        monkeypatch.setattr(weyl, "_bracket_pair", wrong)
        assert verify_dual_pair(space, 2) is False, (space, bad, ds, de)
    monkeypatch.undo()
    assert verify_dual_pair(super11, 2) and verify_dual_pair(glq11, 2)


def test_dual_pair_catches_an_e_and_an_ecal_that_do_not_commute(
        super11, monkeypatch):
    # x(0,0) d(0,1) is a word of E[0][1] only and x(0,0) d(1,0) one of
    # Ecal[0,1] only, so a product of the two in this order enters only
    # [E, Ecal] = 0
    e_word, ecal_word = ((0,), (1,)), ((0,), (2,))
    right = weyl._word_product

    def wrong(alg, xs1, ds1, xs2, ds2):
        out = right(alg, xs1, ds1, xs2, ds2)
        if ((xs1, ds1), (xs2, ds2)) == (e_word, ecal_word):
            out[(((), ()), 0)] = out.get((((), ()), 0), 0) + 1
        return out

    monkeypatch.setattr(weyl, "_word_product", wrong)
    assert verify_dual_pair(super11, 2) is False


def test_dual_pair_relations(super11, super21, glq11):
    for space in (super11, super21, glq11):
        assert verify_dual_pair(space, 2)


def test_ecal_degree(super21):
    _, ecal = dual_pair_generators(super21, 2)
    e = ecal[(0, 2)]
    assert e.degree() == super21.degrees[0] - super21.degrees[2]


def dual_space(space):
    """V*, the space of the degrees -gamma_a: its Howe sweep is that of V,
    as omega(-g, -g) = omega(g, g)."""
    return GradedSpace(space.factor,
                       [(-d, m) for d, m in space.components])


def test_howe_sweep_gl11(super11):
    rows = howe_dimension_sweep(super11, 1, 3)
    assert [r["fock_dimension"] for r in rows] == [1, 2, 2, 2]
    assert all(r["equal"] for r in rows)
    assert howe_dimension_sweep(dual_space(super11), 1, 3) == rows


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
    # 363 x- and 363 xbar-monomials of degree 4: 363 ** 2 is over the cap
    with pytest.raises(ResourceBoundExceeded) as exc:
        invariant_dimension(super21, 3, 3, 4)
    assert exc.value.size == 363 ** 2 > exc.value.bound
    # x- times xbar-monomials of degree 2, 20000 * 2 either way: refused
    # before either side is listed
    for copies, dual_copies in ((100, 1), (1, 100)):
        start = time.perf_counter()
        with pytest.raises(ResourceBoundExceeded) as exc:
            invariant_dimension(super_space(1, 1), copies, dual_copies, 2)
        assert exc.value.size == 40000 > exc.value.bound
        assert time.perf_counter() - start < 2


def test_fock_tables_take_one_pairing_per_pair_of_degrees(monkeypatch):
    space = super_space(1, 1)
    alg = fock_algebra(space, 20, 20)
    calls = []
    right = CommutativeFactor._pairings

    def counted(self, a, b):
        calls.append((a, b))
        return right(self, a, b)

    monkeypatch.setattr(CommutativeFactor, "_pairings", counted)
    odd, om = alg._tables
    distinct = len(set(alg.degrees))
    assert len(calls) <= distinct ** 2
    monkeypatch.undo()
    assert len(om) == len(alg.degrees) == 80
    assert om == tuple(tuple(space.factor._pairings(g, h)
                             for h in alg.degrees) for g in alg.degrees)
    assert odd == {g for g, p in enumerate(alg.parities) if p == -1}


def test_fock_degrees_negate_each_basis_degree_once():
    # the dual copies repeat dim V negated degrees, not dim V * N' new ones
    space = glq_space(3, 3)
    alg = fock_algebra(space, 5, 5)
    assert len(alg.degrees) == 2 * 5 * space.dim
    assert len({id(g) for g in alg.degrees}) <= 2 * space.dim
    assert alg.degrees[5 * space.dim:] == [
        -g for g in space.degrees for _ in range(5)]


@pytest.mark.parametrize("space", [super_space(2, 1), glq_space(2, 1)],
                         ids=["super21", "glq21"])
def test_x_generators_act_as_the_fock_algebra_product(space):
    # one numbering across layers: x_g on the Fock vector m is the
    # OmegaPolyAlgebra product g * m of fock_algebra
    copies = 2
    alg = fock_algebra(space, copies)
    monos = [m for d in range(3) for m in alg.monomials(d)]
    for a in range(space.dim):
        for r in range(copies):
            x = WeylElement.x_gen(space, copies, a, r)
            (g,), _ = next(iter(x.terms))
            for m in monos:
                merged = alg.multiply((g,), m)
                expected = FockVector(space, copies, {} if merged is None
                                      else {merged[1]: merged[0]})
                image = fock_apply(x, FockVector(space, copies, {m: ONE}))
                assert image == expected, (a, r, m)


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


@pytest.mark.parametrize("space", [super_space(1, 1), glq_space(1, 1)],
                         ids=["super11", "glq11"])
def test_weyl_bracket_is_the_graded_ccr(space):
    # [d(a,r), x(b,s)] = delta_ab delta_rs, and [x, x'] = [d, d'] = 0
    copies = 2
    one = WeylElement.one(space, copies)
    zero = WeylElement(space, copies)
    gens = [(a, r) for a in range(space.dim) for r in range(copies)]
    for (a, r), (b, s) in itertools.product(gens, repeat=2):
        x = WeylElement.x_gen(space, copies, b, s)
        d = WeylElement.d_gen(space, copies, a, r)
        assert weyl_bracket(d, x) == (one if (a, r) == (b, s) else zero)
        assert weyl_bracket(WeylElement.x_gen(space, copies, a, r),
                            x) == zero
        assert weyl_bracket(d, WeylElement.d_gen(space, copies, b, s)) \
            == zero


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
    counts = parities.count(1), parities.count(-1)
    assert len(monos) == _count_monomials(*counts, total)
    assert _series(*counts, total)[total] == len(monos)


def test_sweeps_refuse_over_cap_before_enumerating():
    big = super_space(3, 3)
    with pytest.raises(ResourceBoundExceeded):
        howe_dimension_sweep(big, 4, 16)
    with pytest.raises(ResourceBoundExceeded):
        glvv_decomposition(big, big, 12)


def test_long_all_odd_sweep_is_fast():
    # only the hook partitions of each degree are visited, not all p(d)
    start = time.perf_counter()
    rows = howe_dimension_sweep(green_space(2), 1, 40)
    assert time.perf_counter() - start < 2
    assert [r["fock_dimension"] for r in rows] == [1, 2, 1] + [0] * 38
    assert all(r["equal"] for r in rows)


# -- the straightening routines the single _merge and _derive replaced -------
# They are kept verbatim as oracles: word insertion from the right and from
# the left over space.omega_flat, the contraction walk over space.omega, and
# the OmegaPolyAlgebra product and Leibniz rule over factor.omega.

def oracle_merge_gen(space, word, g):
    a = g[0]
    if space.parities[a] == -1 and g in word:
        return None
    coef = ONE
    pos = len(word)
    while pos > 0 and word[pos - 1] > g:
        coef = coef * space.omega_flat(word[pos - 1][0], a)
        pos -= 1
    return coef, word[:pos] + (g,) + word[pos:]


def oracle_merge_gen_left(space, word, g):
    a = g[0]
    if space.parities[a] == -1 and g in word:
        return None
    coef = ONE
    pos = 0
    while pos < len(word) and word[pos] < g:
        coef = coef * space.omega_flat(a, word[pos][0])
        pos += 1
    return coef, word[:pos] + (g,) + word[pos:]


def oracle_merge_words(space, w1, w2):
    coef, word = ONE, w1
    for g in w2:
        step = oracle_merge_gen(space, word, g)
        if step is None:
            return None
        c, word = step
        coef = coef * c
    return coef, word


def oracle_derive(space, g, mono):
    neg = -space.degrees[g[0]]
    out = []
    passing = ONE
    for j, h in enumerate(mono):
        if h == g:
            out.append((passing, mono[:j] + mono[j + 1:]))
        passing = passing * space.omega(neg, space.degrees[h[0]])
    return out


def _add(store, key, coef):
    new = store.get(key, Scalar(0)) + coef
    if new:
        store[key] = new
    else:
        store.pop(key, None)


def oracle_weyl_multiply(u, v):
    space = u.space
    out = {}

    def reduce_term(xs1, ds1, xs2, ds2, coef):
        if not ds1:
            merged = oracle_merge_words(space, xs1, xs2)
            if merged is not None:
                c, xs = merged
                _add(out, (xs, ds2), coef * c)
            return
        d = ds1[-1]
        rest = ds1[:-1]
        neg = -space.degrees[d[0]]
        passing = ONE
        for k, h in enumerate(xs2):
            if h == d:
                reduce_term(xs1, rest, xs2[:k] + xs2[k + 1:], ds2,
                            coef * passing)
            passing = passing * space.omega(neg, space.degrees[h[0]])
        merged = oracle_merge_gen_left(space, ds2, d)
        if merged is not None:
            c, new_ds = merged
            reduce_term(xs1, rest, xs2, new_ds, coef * passing * c)

    for (xs1, ds1), cu in u.terms.items():
        for (xs2, ds2), cv in v.terms.items():
            reduce_term(xs1, ds1, xs2, ds2, cu * cv)
    return WeylElement(u.space, u.copies, out)


def oracle_fock_apply(u, f):
    space = u.space
    out = {}
    for (xs, ds), cu in u.terms.items():
        for mono, cf in f.terms.items():
            stage = {mono: cu * cf}
            for g in reversed(ds):
                nxt = {}
                for m, c in stage.items():
                    for dc, dm in oracle_derive(space, g, m):
                        _add(nxt, dm, c * dc)
                stage = nxt
            for m, c in stage.items():
                merged = oracle_merge_words(space, xs, m)
                if merged is not None:
                    mc, mm = merged
                    _add(out, mm, c * mc)
    return FockVector(f.space, f.copies, out)


def oracle_multiply(alg, m1, m2):
    coef, word = ONE, m1
    for g in m2:
        if alg.parities[g] == -1 and g in word:
            return None
        pos = len(word)
        while pos > 0 and word[pos - 1] > g:
            coef = coef * alg.factor.omega(alg.degrees[word[pos - 1]],
                                           alg.degrees[g])
            pos -= 1
        word = word[:pos] + (g,) + word[pos:]
    return coef, word


def oracle_derivation_apply(alg, action, x_degree, mono):
    def omega(g, h):
        return alg.factor.omega(alg.degrees[g], alg.degrees[h])

    out = {}
    prefix = ONE
    for j, g in enumerate(mono):
        if j:
            prefix = prefix * alg.factor.omega(
                x_degree, alg.degrees[mono[j - 1]])
        for g2, coef in action.get(g, ()):
            total = prefix * coef
            rest = mono[:j] + mono[j + 1:]
            if alg.parities[g2] == -1 and g2 in rest:
                continue
            c2 = total
            for l, h in enumerate(rest):
                if l < j and h > g2:
                    c2 = c2 * omega(h, g2)
                elif l >= j and h < g2:
                    c2 = c2 * omega(g2, h)
            _add(out, tuple(sorted(rest + (g2,))), c2)
    return out


SPACES = [super_space(1, 1), super_space(2, 1), super_space(0, 2),
          z2z2_space((1, 1, 1, 1)), glq_space(1, 1), glq_space(2, 1),
          green_space(2)]
COEFS = [ONE, MINUS_ONE, Q, Q.inverse() + ONE, Scalar.parse("(q+2)/(q-1)")]


def draw_word(draw, space, copies, max_len=4):
    """A sorted generator word with no odd generator repeated."""
    gens = st.tuples(st.integers(0, space.dim - 1),
                     st.integers(0, copies - 1))
    word = sorted(draw(st.lists(gens, max_size=max_len)))
    return tuple(g for k, g in enumerate(word)
                 if space.parities[g[0]] == 1 or g not in word[:k])


def draw_weyl(draw, space, copies):
    return WeylElement(space, copies, {
        (draw_word(draw, space, copies), draw_word(draw, space, copies)):
            draw(st.sampled_from(COEFS))
        for _ in range(draw(st.integers(1, 3)))})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_merge_matches_the_old_insertions(data):
    space = data.draw(st.sampled_from(SPACES))
    copies = data.draw(st.integers(1, 2))
    odd, om = fock_algebra(space, copies)._tables
    w1 = draw_word(data.draw, space, copies)
    w2 = draw_word(data.draw, space, copies)
    f1, f2 = recode(w1, copies, True), recode(w2, copies, True)
    assert recode(as_coefficient(_merge(f1, f2, odd, om)), copies,
                  False) == oracle_merge_words(space, w1, w2)
    g = data.draw(st.tuples(st.integers(0, space.dim - 1),
                            st.integers(0, copies - 1)))
    merged = _merge(recode((g,), copies, True), f2, odd, om)
    assert recode(as_coefficient(merged), copies, False) == \
        oracle_merge_gen_left(space, w2, g)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_weyl_multiply_and_fock_apply_match_the_old_walks(data):
    space = data.draw(st.sampled_from(SPACES))
    copies = data.draw(st.integers(1, 2))
    u = draw_weyl(data.draw, space, copies)
    v = draw_weyl(data.draw, space, copies)
    fu, fv = recode(u, copies, True), recode(v, copies, True)
    assert recode(weyl_multiply(fu, fv), copies, False) == \
        oracle_weyl_multiply(u, v)
    f = FockVector(space, copies, {draw_word(data.draw, space, copies): ONE})
    assert recode(fock_apply(fu, recode(f, copies, True)), copies, False) \
        == oracle_fock_apply(u, f)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_omega_poly_algebra_matches_factor_omega(data):
    space = data.draw(st.sampled_from(SPACES))
    copies, dual_copies = data.draw(st.integers(1, 2)), data.draw(
        st.integers(0, 2))
    alg = fock_algebra(space, copies, dual_copies)
    n = len(alg.degrees)

    def draw_mono():
        degree = data.draw(st.integers(0, 3))
        return data.draw(st.sampled_from(alg.monomials(degree) or [()]))

    m1, m2 = draw_mono(), draw_mono()
    assert alg.multiply(m1, m2) == oracle_multiply(alg, m1, m2)
    action = {g: [(data.draw(st.integers(0, n - 1)),
                   data.draw(st.sampled_from(COEFS)))]
              for g in range(n) if data.draw(st.booleans())}
    x_degree = data.draw(st.sampled_from(alg.degrees))
    assert alg.derivation_apply(action, degree_row(alg, x_degree), m1) == \
        oracle_derivation_apply(alg, action, x_degree, m1)


# -- the column-pivot elimination the single _reduce replaced ---------------
# Kept verbatim as an oracle for rank_of_rows.

def oracle_rank_of_rows(rows):
    """Row rank of sparse rows (dicts column -> Scalar) by Gaussian
    elimination over the field Q(q)."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        pivot_col = min(min(r) for r in rows)
        pivot_row = next(r for r in rows if pivot_col in r)
        rows.remove(pivot_row)
        rank += 1
        inv = pivot_row[pivot_col].inverse()
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        reduced = []
        for r in rows:
            coef = r.get(pivot_col)
            if coef:
                new = dict(r)
                for c, v in pivot_row.items():
                    _add_into(new, c, -coef * v)
                if new:
                    reduced.append(new)
            else:
                reduced.append(r)
        rows = reduced
    return rank


NONZERO = st.integers(-3, 3).filter(bool)
LAURENT = st.builds(lambda shift, coeffs: Scalar(shift, tuple(coeffs)),
                    st.integers(-2, 2),
                    st.lists(st.integers(-3, 3), min_size=2, max_size=3)
                    ).filter(bool)
ENTRY = st.one_of(
    st.builds(lambda c, e: Scalar.from_rational(c) * Scalar.q_power(e),
              NONZERO, st.integers(-3, 3)),
    LAURENT,
    st.builds(lambda a, b: a / b, LAURENT, LAURENT))


@st.composite
def ranked_rows(draw):
    """(rows, rank): `rank` base rows, each alone at a private column and
    sharing the other columns, then combinations of them, shuffled."""
    rank = draw(st.integers(0, 4))
    width = rank + draw(st.integers(0, 4))
    private = draw(st.permutations(range(width)))[:rank]
    shared = [c for c in range(width) if c not in private]
    bases = []
    for col in private:
        row = {col: draw(ENTRY)}
        for c in draw(st.lists(st.sampled_from(shared), unique=True)
                      if shared else st.just([])):
            row[c] = draw(ENTRY)
        bases.append(row)
    combos = []
    for _ in range(draw(st.integers(0, 3))):
        row = {}
        for base in draw(st.lists(st.sampled_from(bases), max_size=3)
                         if bases else st.just([])):
            coef = draw(ENTRY)
            for c, v in base.items():
                _add_into(row, c, coef * v)
        combos.append(row)
    return draw(st.permutations(bases + combos)), rank


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(ranked_rows())
def test_rank_of_rows_matches_the_column_pivot_oracle(case):
    rows, rank = case
    snapshot = [dict(row) for row in rows]
    assert rank_of_rows(rows) == oracle_rank_of_rows(rows) == rank
    assert rows == snapshot
    echelon = {}
    for row in rows:
        before = {c: dict(r) for c, r in echelon.items()}
        reduced = _reduce(echelon, row)
        if reduced is None:
            assert echelon == before
            continue
        col = min(reduced)
        assert col not in before and reduced[col] == ONE
        assert echelon == {**before, col: reduced}
    assert len(echelon) == rank
    assert all(min(r) == c for c, r in echelon.items())
    for row in rows:
        assert _reduce(echelon, row) is None
    assert len(echelon) == rank and rows == snapshot
