"""Rules stated once, against the routines that stated them twice.

glvv_decomposition walks the hook shapes of each degree once and takes a
paired weight exactly where k_W is nonzero; parent_weyl keeps the version
that walked them twice.  kac_dimension applies the Weyl dimension formula
to each parity block; parent_reps keeps the version that went through
dim_glN.  The factor of E_ab on V* is gl._dual_pair, which dual_act
applies to Scalars, and the Laurent polynomials of the integer kernels
become Scalars by Scalar.from_laurent."""

import itertools
import random
from fractions import Fraction

import pytest

import parent_reps
import parent_weyl
from colourgl.gl import GlElement, SpaceMismatch, _dual_pair
from colourgl.presets import preset_space
from colourgl.reps import kac_dimension
from colourgl.scalars import ZERO, Scalar, omega_scalar
from colourgl.tensor import dual_act
from colourgl.weyl import glvv_decomposition
from test_laurent_kernels import small_presets


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_glvv_matches_the_parent_on_every_pair_of_small_presets():
    spaces = small_presets()
    shared = 0
    for (v_name, v), (w_name, w) in itertools.product(spaces.items(),
                                                      repeat=2):
        if v.factor != w.factor:
            with pytest.raises(SpaceMismatch):
                glvv_decomposition(v, w, 4)
            continue
        shared += 1
        assert glvv_decomposition(v, w, 4) == \
            parent_weyl.glvv_decomposition(v, w, 4), (v_name, w_name)
    assert shared > 100


KAC_PRESETS = ("super(1|1)", "super(2|1)", "super(1|2)", "super(2|2)",
               "super(3|0)", "super(0|3)", "super(3|1)", "z2z2(1,1,1,1)",
               "glq(2|1)")


def random_weight(rng, space):
    """A weight with coordinates in [-6, 6], halves included; dominant
    three times in four."""
    if rng.random() < 0.25:
        return tuple(Fraction(rng.randint(-12, 12), 2)
                     for _ in range(space.dim))
    lam = []
    for size in (space.m_plus, space.m_minus):
        x = Fraction(rng.randint(-12, 12), 2)
        for _ in range(size):
            lam.append(x)
            x -= rng.randint(0, 3)
    return tuple(lam)


@pytest.mark.parametrize("name", KAC_PRESETS)
def test_kac_dimension_matches_the_parent(name):
    space = preset_space(name)
    rng = random.Random(name)
    for _ in range(120):
        lam = random_weight(rng, space)
        assert outcome(kac_dimension, space, lam) == \
            outcome(parent_reps.kac_dimension, space, lam), lam


@pytest.mark.parametrize("name", ["super(2|1)", "glq(2|1)", "green(3)",
                                  "z2z2(1,1,1,1)"])
def test_dual_act_applies_the_dual_pair(name):
    space = preset_space(name)
    pairs = space._omega_pairs
    coef = Scalar.parse("2*q-3")
    for a, b in itertools.product(range(space.dim), repeat=2):
        # -omega(g_a - g_b, -g_a), read from the factor
        om = space.omega(space.degrees[a] - space.degrees[b],
                         -space.degrees[a])
        assert omega_scalar(*_dual_pair(pairs, a, b)) == -om
        x = GlElement.matrix_unit(space, a, b, coef)
        assert dual_act(x, {a: coef}) == {b: -om * coef * coef}


def test_from_laurent_is_the_sum_of_its_terms():
    rng = random.Random(7)
    for _ in range(300):
        terms = {e: rng.randint(-3, 3) for e in
                 rng.sample(range(-4, 5), rng.randint(0, 4))}
        expected = sum((c * Scalar.q_power(e) for e, c in terms.items()),
                       ZERO)
        got = Scalar.from_laurent(terms)
        assert got == expected, terms
        # the stored form is the canonical one, so str and parse agree
        assert Scalar.parse(str(got)) == got
