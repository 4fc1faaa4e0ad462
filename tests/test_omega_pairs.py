"""omega read as integer (sign, exponent) pairs by basis index.

gl_act_tensor, dual_act and bracket sum the pairs of
GradedSpace._omega_pairs and apply the sum once through
grading.omega_scalar.  The versions below are the earlier ones, kept
verbatim as oracles: they split X into homogeneous parts and evaluate
factor.omega on Degree sums and differences.  Both must agree on every
preset and on seeded random factors, q-valued ones included, for
inhomogeneous operators and vectors of several words."""

import random
from fractions import Fraction

from colourgl.gl import GlElement, SpaceMismatch, _add_into, bracket
from colourgl.grading import omega_scalar
from colourgl.presets import glq_space, green_space, super_space, z2z2_space
from colourgl.scalars import MINUS_ONE, ONE, Q, Scalar
from colourgl.tensor import TensorVector, dual_act, gl_act_tensor
from oracles import homogeneous_parts
from test_random_spaces import random_space
from test_weyl import COEFS


def oracle_gl_act_tensor(x, v):
    """The gl(V)-action through the iterated coproduct:
    X(v_1 ... v_r) = sum_j omega(d(X), d(v_1..v_{j-1})) v_1..X(v_j)..v_r.
    Inhomogeneous X is split into homogeneous parts first."""
    if x.space != v.space:
        raise SpaceMismatch("operator and vector over different spaces")
    space = v.space
    parts = homogeneous_parts(x) if x.degree() is None else {x.degree(): x}
    terms = {}
    for deg, part in parts.items():
        for word, coef in v.terms.items():
            prefix = ONE
            for j, letter in enumerate(word):
                if j:
                    prefix = prefix * space.omega(deg, space.degrees[word[j - 1]])
                for (a, b), xc in part.terms.items():
                    if b == letter:
                        _add_into(terms, word[:j] + (a,) + word[j + 1:],
                                  prefix * xc * coef)
    return TensorVector(space, v.power, terms)


def oracle_dual_act(x, wbar):
    """Action on V*: for homogeneous X, <X.wbar, v> = omega(d(X), d(wbar))
    <wbar, S(X).v> with S(X) = -X.  wbar maps flat indices to Scalars,
    ebar_a having weight -eps_a and degree -gamma_a."""
    space = x.space
    parts = homogeneous_parts(x) if x.degree() is None else {x.degree(): x}
    out = {}
    for deg, part in parts.items():
        for (a, b), coef in part.terms.items():
            # E_ab . ebar_a = -omega(d(X), -gamma_a) ebar_b
            c = wbar.get(a)
            if c:
                om = space.omega(deg, -space.degrees[a])
                _add_into(out, b, -om * coef * c)
    return out


def oracle_bracket(x, y):
    """The graded commutator, extended bilinearly over matrix units."""
    x._check(y)
    space = x.space
    degrees = space.degrees
    terms = {}
    for (a, b), cx in x.terms.items():
        for (c, d), cy in y.terms.items():
            coef = cx * cy
            if b == c:
                _add_into(terms, (a, d), coef)
            if d == a:
                om = space.omega(degrees[a] - degrees[b],
                                 degrees[c] - degrees[d])
                _add_into(terms, (c, b), -om * coef)
    return GlElement(space, terms)


PRESETS = [super_space(1, 1), super_space(2, 1), super_space(1, 2),
           z2z2_space((1, 1, 1, 1)), z2z2_space((2, 1, 1, 2)),
           glq_space(1, 1), glq_space(2, 1), glq_space(1, 2), green_space(3)]


def random_operator(rng, space):
    """A sum of matrix units of at least two degrees: a diagonal unit
    (degree 0) and an off-diagonal one between components of different
    degree, plus up to three more."""
    dim, degrees = space.dim, space.degrees
    a = rng.randrange(dim)
    off = [(p, r) for p in range(dim) for r in range(dim)
           if degrees[p] != degrees[r]]
    units = [(a, a), rng.choice(off)] + [
        (rng.randrange(dim), rng.randrange(dim))
        for _ in range(rng.randint(0, 3))]
    x = GlElement(space)
    for p, r in units:
        x = x + GlElement.matrix_unit(space, p, r, rng.choice(COEFS))
    return x


def random_vector(rng, space):
    power = rng.randint(1, 4)
    return TensorVector(space, power, {
        tuple(rng.randrange(space.dim) for _ in range(power)):
            rng.choice(COEFS)
        for _ in range(rng.randint(2, 5))})


def check_space(rng, space, rounds):
    """Compare on `rounds` random inhomogeneous X; return how many were."""
    checked = 0
    for _ in range(rounds):
        x, y = random_operator(rng, space), random_operator(rng, space)
        if x.degree() is not None:
            continue  # the units cancelled down to one degree
        checked += 1
        v = random_vector(rng, space)
        assert gl_act_tensor(x, v) == oracle_gl_act_tensor(x, v), (space, x, v)
        wbar = {a: rng.choice(COEFS) for a in range(space.dim)
                if rng.random() < 0.7}
        assert dual_act(x, wbar) == oracle_dual_act(x, wbar), (space, x, wbar)
        assert bracket(x, y) == oracle_bracket(x, y), (space, x, y)
        assert bracket(y, x) == oracle_bracket(y, x), (space, x, y)
    return checked


def test_pair_walks_match_the_degree_walks_on_presets():
    rng = random.Random(10101)
    for space in PRESETS:
        assert check_space(rng, space, 25) >= 20, space


def test_pair_walks_match_the_degree_walks_on_random_factors():
    rng = random.Random(20202)
    q_valued = 0
    for _ in range(16):
        space = random_space(rng, max_dim=4)
        q_valued += not space.factor.is_sign_valued()
        assert check_space(rng, space, 15) >= 10, space
    assert q_valued >= 3


def test_every_unit_pair_matches_on_glq_and_colour_presets():
    # exhaustive on matrix units and basis words, where a wrong pair
    # cannot hide in a sum
    for space in (glq_space(2, 1), z2z2_space((1, 1, 1, 1))):
        n = space.dim
        units = [GlElement.matrix_unit(space, a, b)
                 for a in range(n) for b in range(n)]
        words = [TensorVector.basis_word(space, (c, d, e))
                 for c in range(n) for d in range(n) for e in range(n)]
        for x in units:
            for y in units:
                assert bracket(x, y) == oracle_bracket(x, y)
            for v in words:
                assert gl_act_tensor(x, v) == oracle_gl_act_tensor(x, v)
            for a in range(n):
                assert dual_act(x, {a: ONE}) == oracle_dual_act(x, {a: ONE})


def test_omega_scalar_applies_a_pair():
    coef = Scalar.parse("(q+2)/(q-1)")
    assert omega_scalar(0, 0, coef) is coef
    assert omega_scalar(1, 0) == MINUS_ONE
    assert omega_scalar(0, 2, coef) == coef * Q * Q
    assert omega_scalar(1, -1, coef) == -coef * Q.inverse()


def test_omega_scalar_matches_a_q_power_product():
    # omega_scalar shifts the stored form; the oracle multiplies by q^e
    rng = random.Random(1979)
    for _ in range(300):
        num = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3)))
        coef = Scalar(rng.randint(-3, 3), num)
        if rng.random() < 0.4:
            coef = coef / Scalar(rng.randint(-2, 2), (rng.randint(1, 3), 1))
        s, e = rng.randint(0, 1), rng.randint(-4, 4)
        expected = coef * Scalar.q_power(e)
        # Scalar equality compares the canonical (shift, n, d)
        assert omega_scalar(s, e, coef) == (-expected if s else expected), \
            (s, e, coef)
    zero = Scalar(0)
    for s, e in ((0, 0), (1, 0), (0, 3), (1, -2)):
        assert omega_scalar(s, e, zero) is zero
