"""The integer Laurent kernels of weyl against the routines they replaced,
which parent_weyl keeps verbatim: weyl_multiply, fock_apply, the
fock-module suite, verify_dual_pair, the two relation checks and
invariant_dimension agree with them on seeded random elements with
fraction coefficients, on every preset of dim V <= 3, and on wrong
Ecal's and wrong gl_q(m|n) factors, which both relation checks must
refuse.  The words of E_ab give derivation_apply's images, and a wrong
factor on an xbar word is refused by invariant_dimension.  The one
normal-ordering walk agrees with the product and action kernels it
replaced on seeded random words, and its Fock action is the product's
d-free words."""

import itertools
import random
from fractions import Fraction

import pytest

import parent_weyl as parent
from colourgl import presets, weyl
from colourgl.gl import GradedSpace, _to_scalars
from colourgl.grading import CommutativeFactor
from colourgl.presets import (glq_space, green_space, preset_space,
                              super_space, z2z2_space)
from colourgl.scalars import ONE, Scalar
from colourgl.verify import suite_fock
from colourgl.weyl import (FockVector, ResourceBoundExceeded, WeylElement,
                           _gl_images, _word_on_monomial,
                           _word_product, fock_algebra, fock_apply,
                           glq_relations_check, invariant_dimension,
                           invariant_generators_check, verify_dual_pair,
                           weyl_multiply)

SPACES = {"super(1|1)": super_space(1, 1), "glq(1|1)": glq_space(1, 1),
          "super(1|2)": super_space(1, 2), "glq(2|1)": glq_space(2, 1),
          "green(2)": green_space(2),
          "z2z2(1,1,1,0)": z2z2_space((1, 1, 1, 0))}


def small_presets():
    """Every preset space of dimension 1 to 3, by name."""
    out = {}
    for m, n in itertools.product(range(4), repeat=2):
        if 1 <= m + n <= 3:
            out[f"super({m}|{n})"] = super_space(m, n)
            out[f"glq({m}|{n})"] = glq_space(m, n)
    for n in range(1, 4):
        out[f"green({n})"] = green_space(n)
    for dims in itertools.product(range(4), repeat=4):
        if 1 <= sum(dims) <= 3:
            out["z2z2({},{},{},{})".format(*dims)] = z2z2_space(dims)
    return out


def random_scalar(rng):
    """A nonzero Laurent polynomial with Fraction coefficients, over a
    second one half the time."""
    def poly():
        while True:
            coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(rng.randint(1, 3)))
            if any(coeffs):
                return Scalar(rng.randint(-2, 2), coeffs)

    return poly() / poly() if rng.random() < 0.5 else poly()


def random_word(rng, alg):
    """A sorted word of alg's generators, no odd generator repeated."""
    odd = alg._tables[0]
    word = sorted(rng.randrange(len(alg.degrees))
                  for _ in range(rng.randint(0, 3)))
    return tuple(g for k, g in enumerate(word)
                 if g not in odd or g not in word[:k])


def random_weyl(rng, space, copies):
    alg = fock_algebra(space, copies)
    return WeylElement(space, copies, {
        (random_word(rng, alg), random_word(rng, alg)): random_scalar(rng)
        for _ in range(rng.randint(1, 3))})


def random_fock(rng, space, copies):
    alg = fock_algebra(space, copies)
    return FockVector(space, copies, {
        random_word(rng, alg): random_scalar(rng)
        for _ in range(rng.randint(1, 3))})


def is_laurent(poly):
    """True iff poly is {(word, e): int} with int exponents and nonzero
    int coefficients."""
    return all(type(e) is int and type(c) is int and c
               for (_, e), c in poly.items())


@pytest.mark.parametrize("name", SPACES)
def test_weyl_multiply_and_fock_apply_match_the_parent(name):
    space = SPACES[name]
    rng = random.Random(name)
    for copies in (1, 2):
        alg = fock_algebra(space, copies)
        for _ in range(150):
            u, v = (random_weyl(rng, space, copies) for _ in range(2))
            f = random_fock(rng, space, copies)
            assert weyl_multiply(u, v) == parent.weyl_multiply(u, v)
            assert fock_apply(u, f) == parent.fock_apply(u, f)
            for (w1, w2), mono in zip(itertools.product(u.terms, v.terms),
                                      f.terms):
                assert is_laurent(_word_product(alg, *w1, *w2))
                assert is_laurent(_word_on_monomial(alg, *w1, mono))


def random_word_cases(name, copies, alg, count=120):
    """count seeded (left word, right word, x-monomial) triples."""
    rng = random.Random(f"{name}/{copies}")
    for _ in range(count):
        yield ((random_word(rng, alg), random_word(rng, alg)),
               (random_word(rng, alg), random_word(rng, alg)),
               random_word(rng, alg))


@pytest.mark.parametrize("copies", (1, 2))
def test_the_walk_matches_both_parent_kernels_on_every_small_preset(copies):
    for name, space in small_presets().items():
        alg = fock_algebra(space, copies)
        for w1, w2, mono in random_word_cases(name, copies, alg):
            assert _word_product(alg, *w1, *w2) == \
                parent._word_product(alg, *w1, *w2), (name, w1, w2)
            assert _word_on_monomial(alg, *w1, mono) == \
                parent._word_on_monomial(alg, *w1, mono), (name, w1, mono)


@pytest.mark.parametrize("copies", (1, 2))
def test_the_fock_action_is_the_products_d_free_words(copies):
    # the vacuum rule: a word on a monomial is its product with the word
    # (monomial, ()) with every output word that keeps a d dropped
    for name, space in small_presets().items():
        alg = fock_algebra(space, copies)
        for w1, _, mono in random_word_cases(name, copies, alg):
            product = _word_product(alg, *w1, mono, ())
            assert _word_on_monomial(alg, *w1, mono) == {
                (xs, e): c for ((xs, ds), e), c in product.items()
                if not ds}, (name, w1, mono)


@pytest.mark.parametrize("copies", (1, 2))
def test_suites_match_the_parent_on_every_small_preset(copies):
    for name, space in small_presets().items():
        assert suite_fock(space, random.Random(0), copies) == \
            parent.suite_fock(space, random.Random(0), copies), name
        assert verify_dual_pair(space, copies) == \
            parent.verify_dual_pair(space, copies), name


def small_glq():
    """(m, n) of every gl_q(m|n) with 1 <= m + n <= 3."""
    return [(m, n) for m, n in itertools.product(range(4), repeat=2)
            if 1 <= m + n <= 3]


@pytest.mark.parametrize("copies", (1, 2))
def test_relation_checks_match_the_parent_on_every_small_preset(copies):
    for name, space in small_presets().items():
        assert invariant_generators_check(space, copies) is \
            parent.invariant_generators_check(space, copies), name
    for m, n in small_glq():
        report = glq_relations_check(m, n, copies, max_degree=2)
        assert report["relations_hold"] is True
        assert report == parent.glq_relations_check(m, n, copies,
                                                    max_degree=2)


def test_invariant_generators_check_refuses_an_ecal_outside_the_kernel(
        monkeypatch):
    # Ecal[(0, 1)] becomes x(0,0) d(1,1): still independent of the other
    # Ecal's, so only the kernel-membership test can refuse it
    real = weyl.dual_pair_generators

    def wrong(space, copies):
        E, Ecal = real(space, copies)
        Ecal[(0, 1)] = WeylElement(space, copies, {((0,), (3,)): ONE})
        return E, Ecal

    monkeypatch.setattr(weyl, "dual_pair_generators", wrong)
    monkeypatch.setattr(parent, "dual_pair_generators", wrong)
    space = super_space(1, 1)
    assert invariant_generators_check(space, 2) is False
    assert parent.invariant_generators_check(space, 2) is False


def wrong_glq_space(form):
    """glq_space with its exponent form negated ("exp") or its sign form
    dropped ("sign")."""
    def build(m, n):
        space = glq_space(m, n)
        factor = space.factor
        if form == "exp":
            factor = CommutativeFactor(
                factor.group, factor.sign_form,
                tuple(tuple(-x for x in row) for row in factor.exp_form))
        else:
            factor = CommutativeFactor(
                factor.group, tuple((0,) * len(row)
                                    for row in factor.sign_form),
                factor.exp_form)
        return GradedSpace(factor, space.components)
    return build


@pytest.mark.parametrize("form, cases", [
    ("exp", [(1, 1, 1), (2, 1, 2), (0, 2, 1), (2, 0, 1)]),
    ("sign", [(1, 1, 1), (2, 1, 2), (0, 2, 1)])])
def test_glq_relations_check_refuses_a_wrong_factor(monkeypatch, form,
                                                    cases):
    # weyl binds glq_space at import; the parent imports it at call time
    monkeypatch.setattr(weyl, "glq_space", wrong_glq_space(form))
    monkeypatch.setattr(presets, "glq_space", wrong_glq_space(form))
    for m, n, copies in cases:
        report = glq_relations_check(m, n, copies, max_degree=1)
        assert report["relations_hold"] is False, (m, n, copies)
        assert report == parent.glq_relations_check(m, n, copies,
                                                    max_degree=1)


# (copies, dual_copies) of the fft checks below
COPY_PAIRS = ((1, 1), (2, 1), (1, 2), (2, 2))


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except (AssertionError, ResourceBoundExceeded) as exc:
        return type(exc).__name__, str(exc)


def test_invariant_dimension_matches_the_parent_on_every_small_preset():
    for name, space in small_presets().items():
        for copies, dual_copies in COPY_PAIRS:
            for degree in range(3):
                args = (space, copies, dual_copies, degree)
                assert outcome(invariant_dimension, *args) == \
                    outcome(parent.invariant_dimension, *args), (name, args)
    # over the basis cap, both refuse with the same message
    args = (super_space(2, 1), 3, 3, 4)
    assert outcome(invariant_dimension, *args)[0] == "ResourceBoundExceeded"
    assert outcome(invariant_dimension, *args) == \
        outcome(parent.invariant_dimension, *args)


RANKS = {weyl: weyl.rank_of_rows, parent: parent.rank_of_rows}


def ranked_rows(monkeypatch, f, *args):
    """The outcome of f(*args) and every list of rows it ranks, by the
    package's rank_of_rows or by the oracles'."""
    seen = []
    for module, rank in RANKS.items():
        def recorded(rows, rank=rank):
            rows = list(rows)
            seen.append(rows)
            return rank(rows)
        monkeypatch.setattr(module, "rank_of_rows", recorded)
    return outcome(f, *args), seen


# spaces with an odd part: one side of the basis is empty past degree N dim
EMPTY_SIDES = [("super(0|1)", 3, 1, 4), ("super(0|1)", 1, 3, 4),
               ("super(0|2)", 2, 1, 4), ("z2z2(0,1,0,0)", 2, 1, 3)]


def test_basis_and_z_rows_match_the_oracle(monkeypatch):
    # the E_ab rows index the basis, so equal rows are an equal basis in
    # the same order; the z rows come in the order of the combinations
    cases = [(name, space, copies, dual_copies, degree)
             for name, space in small_presets().items()
             for copies, dual_copies in COPY_PAIRS for degree in range(3)]
    cases += [(name, preset_space(name), copies, dual_copies, degree)
              for name, copies, dual_copies, top in EMPTY_SIDES
              for degree in range(top + 1)]
    empty = 0
    for name, space, *args in cases:
        ours = ranked_rows(monkeypatch, invariant_dimension, space, *args)
        oracle = ranked_rows(monkeypatch,
                             parent.invariant_dimension_by_combinations,
                             space, *args)
        assert ours == oracle, (name, args)
        empty += ours[0] == 0
    assert empty >= 15


def test_word_images_match_derivation_apply():
    # every E_ab on every monomial of degree <= 2, both sides included
    for name, space in small_presets().items():
        for copies, dual_copies in COPY_PAIRS:
            alg = fock_algebra(space, copies, dual_copies)
            monos = [m for d in range(3) for m in alg.monomials(d)]
            images = _gl_images(space, copies, dual_copies, monos)
            # zero images are left out, and no stored one has a zero entry
            assert all(img and is_laurent(img)
                       for imgs in images.values() for img in imgs.values())
            for unit, (x_row, act) in parent._gl_action_on_generators(
                    space, copies, dual_copies).items():
                for i, mono in enumerate(monos):
                    img = images[unit].get(i, {})
                    assert _to_scalars([(ONE, img)]) == \
                        alg.derivation_apply(act, x_row, mono), \
                        (name, copies, dual_copies, unit, mono)


@pytest.mark.parametrize("unit", [(0, 1), (1, 0)])
@pytest.mark.parametrize("flip_sign,shift", [(1, 0), (0, 1)])
@pytest.mark.parametrize("name", ["super(1|1)", "glq(1|1)", "green(2)",
                                  "super(2|1)"])
def test_a_wrong_factor_on_an_xbar_word_is_refused(unit, flip_sign, shift,
                                                   name):
    # the xbar word of E_ab takes its factor from _omega_pairs[b][a], which
    # nothing else in invariant_dimension reads: made wrong, the sign bit
    # flipped or the exponent off by one, for E_01 or E_10 alone
    space = preset_space(name)
    a, b = unit
    rows = [list(row) for row in space._omega_pairs]
    s, e = rows[b][a]
    rows[b][a] = (s ^ flip_sign, e + shift)
    space.__dict__["_omega_pairs"] = tuple(tuple(row) for row in rows)
    with pytest.raises(AssertionError):
        invariant_dimension(space, 1, 1, 1)
