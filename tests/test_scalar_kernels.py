"""The remainder sequence, the raw constructor and the printer of the Scalar
kernel against the verbatim oracles of tests/parent_scalars.py and sympy:
_gcd and _prem, where a lead of +-1 divides exactly and a constant
remainder ends the sequence; Scalar.__init__, which clears only input that
is not all ints; and str, whose _paren tests for a sign after the first
character.  The work that the kernels save is counted."""

import math
import random
from fractions import Fraction

import pytest
import sympy

import parent_scalars as parent
from colourgl import scalars
from colourgl.scalars import Scalar
from test_scalar_general_path import _count
from test_scalars import QS

LEADS = (1, -1, 2, -2, 3, -3)


def _poly(rng, degree, lead):
    """Ascending integer coefficients of the given degree and lead."""
    return [rng.randint(-4, 4) for _ in range(degree)] + [lead]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _primitive(p):
    g = math.gcd(*p)
    return [x // g for x in p]


def _sym(p):
    return sympy.Poly(list(reversed(p)), QS, domain=sympy.ZZ)


def _coeffs(poly, length):
    """Ascending int coefficients of a sympy polynomial, zero-padded."""
    out = [int(c) for c in reversed(poly.all_coeffs())]
    return out + [0] * (length - len(out))


def _sympy_gcd(a, b):
    """The primitive gcd with a positive lead, by sympy."""
    g = _sym(a).gcd(_sym(b)).primitive()[1]
    if g.LC() < 0:
        g = -g
    return _coeffs(g, 0)


def _gcd_inputs(seed, count):
    """Primitive pairs a = g u, b = g v with a planted common factor g (of
    degree 0 to 3) and leads in LEADS; every fifth pair has a == b."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        g = _poly(rng, rng.randint(0, 3), rng.choice(LEADS))
        u = _poly(rng, rng.randint(0, 4), rng.choice(LEADS))
        v = u if k % 5 == 0 else _poly(rng, rng.randint(0, 4),
                                       rng.choice(LEADS))
        a, b = _primitive(_mul(g, u)), _primitive(_mul(g, v))
        if a[0] and b[0]:
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("seed", range(4))
def test_gcd_matches_the_parent_and_sympy(seed):
    pairs = _gcd_inputs(seed, 150)
    assert sum(a == b for a, b in pairs) >= 20
    for a, b in pairs:
        got = scalars._gcd(list(a), list(b))
        assert got == parent._gcd(list(a), list(b)) == _sympy_gcd(a, b), \
            (a, b)
        assert scalars._gcd(list(b), list(a)) == got


@pytest.mark.parametrize("lead", [1, -1])
def test_prem_with_a_unit_lead_is_the_remainder(lead):
    rng = random.Random(lead)
    for _ in range(300):
        b = _poly(rng, rng.randint(1, 4), lead)
        a = _poly(rng, rng.randint(len(b) - 1, 7), rng.choice(LEADS))
        r = sympy.rem(_sym(a), _sym(b))
        assert scalars._prem(a, b) == _coeffs(r, len(b) - 1), (a, b)


def test_a_unit_lead_takes_no_integer_gcd(monkeypatch):
    calls = _count(monkeypatch, "gcd")
    for b in ([2, 1, 1], [3, 0, -1]):
        scalars._prem([1, -2, 5, 3, 1], b)
    assert calls == []
    # a lead of 2 takes one gcd per nonzero step, as before
    assert scalars._prem([1, -2, 5, 3, 1], [3, 1, 2]) == \
        parent._prem([1, -2, 5, 3, 1], [3, 1, 2])
    assert len(calls) == 3


def test_a_constant_remainder_ends_the_sequence(monkeypatch):
    calls = _count(monkeypatch, "gcd")
    # q^2 + 1 and q + 1 are coprime: the first remainder is 2, and its
    # content is not taken
    assert scalars._gcd([1, 0, 1], [1, 1]) == [1]
    assert calls == []
    # (q + 1)(q + 2) and (q + 1)(q - 3): one step to 5 q + 5, whose
    # content is the one gcd, and one to zero
    assert scalars._gcd([2, 3, 1], [-3, -2, 1]) == [1, 1]
    assert calls == [(5, 5)]


def _raw(rng, fractions=False):
    """A raw (shift, num, den) with multi-term numerator and denominator;
    coefficients are ints, bools or (with fractions) Fractions."""
    def coeff():
        kind = rng.randrange(6 if fractions else 5)
        if kind == 5:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if kind == 4:
            return rng.choice((True, False))
        return rng.randint(-5, 5)

    def poly():
        p = [coeff() for _ in range(rng.randint(1, 5))]
        return p if rng.random() < 0.5 else tuple(p)

    den = poly()
    while not any(den):
        den = poly()
    return rng.randint(-3, 3), poly(), den


def _triple(x):
    return x.shift, x.n, x.d


@pytest.mark.parametrize("fractions", [False, True],
                         ids=["int and bool", "with Fractions"])
def test_the_constructor_gives_the_parent_triple(fractions):
    rng = random.Random(int(fractions))
    kinds = set()
    for _ in range(600):
        raw = _raw(rng, fractions)
        kinds.update(type(c) for c in (*raw[1], *raw[2]))
        x = Scalar(*raw)
        assert _triple(x) == parent.construct(*raw), raw
        # a bool equals its int, so the stored types are checked apart
        assert all(type(c) is int for c in x.n + x.d), raw
    assert kinds == ({int, bool, Fraction} if fractions else {int, bool})
    for den in ((0,), [0, 0], (False,), (Fraction(0),)):
        for make in (Scalar, parent.construct):
            with pytest.raises(ZeroDivisionError):
                make(0, (1,), den)


def test_str_is_the_parent_text():
    rng = random.Random(5)
    fractional = 0
    for _ in range(1500):
        x = Scalar(*_raw(rng, fractions=True))
        y = Scalar(*_raw(rng))
        for z in (x, y, x * y, x + y, -x):
            fractional += "/" in str(z)
            assert str(z) == parent.text(z), _triple(z)
    assert fractional > 1000


SHAPES = ("monomial", "Laurent polynomial", "constant den", "fraction")


def _shape(x):
    if len(x.d) > 1:
        return "fraction"
    if len(x.n) == 1:
        return "monomial"
    return "Laurent polynomial" if x.d == (1,) else "constant den"


def _operand(rng, shape):
    """A random nonzero Scalar of the given shape, with a random sign,
    content and shift; a den's content is kept only when the numerator
    does not share it."""
    while True:
        shift = rng.randint(-5, 5)
        sign = rng.choice((1, -1))
        content = rng.choice((1, 2, 3, 4, 6, 10, 12))
        if shape == "monomial":
            num, den = [sign * content], [rng.choice((1, 2, 3, 5, 6, 12))]
        else:
            num = [sign * content * c
                   for c in _poly(rng, rng.randint(1, 3), rng.choice(LEADS))]
            num[0] = num[0] or sign * content
            den = {"Laurent polynomial": [1],
                   "constant den": [rng.choice((2, 3, 4, 6, 12))],
                   "fraction": [rng.choice((1, 2, 3)) * c for c in _poly(
                       rng, rng.randint(1, 3), rng.choice(LEADS))]}[shape]
        if den[0]:
            x = Scalar(shift, num, den)
            if _shape(x) == shape:
                return x


@pytest.mark.parametrize("left", SHAPES)
@pytest.mark.parametrize("right", SHAPES)
def test_the_product_gives_the_parent_triple(left, right):
    rng = random.Random(f"{left} {right}")
    cancelled = 0
    for _ in range(250):
        x, y = _operand(rng, left), _operand(rng, right)
        for a, b in ((x, y), (y, x)):
            got = a * b
            assert _triple(got) == _triple(parent.mul(a, b)), \
                (_triple(a), _triple(b))
            assert got * b.inverse() == a
        # the cross gcds of a monomial factor: gcd(p, content of the other
        # den) and gcd(r, content of the other numerator)
        cancelled += math.gcd(x.n[0], *y.d) != 1 or \
            math.gcd(x.d[0], *y.n) != 1
    if left == "monomial":
        assert cancelled >= 50


def test_a_product_with_a_rational_gives_the_parent_triple():
    rng = random.Random(11)
    for shape in SHAPES:
        for _ in range(100):
            x = _operand(rng, shape)
            r = rng.choice((0, 1, -1, 6, -4, Fraction(-3, 8), Fraction(5, 6)))
            assert _triple(x * r) == _triple(r * x) == \
                _triple(parent.mul(x, r)), (_triple(x), r)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_exquo_matches_the_parent_on_constant_and_polynomial_divisors(
        degree):
    rng = random.Random(degree)
    for _ in range(300):
        b = _poly(rng, degree, rng.choice(LEADS))
        b[0] = b[0] or 1
        quotient = _poly(rng, rng.randint(0, 4), rng.choice(LEADS))
        a = _mul(b, quotient)
        for a_in, b_in in ((a, b), (tuple(a), tuple(b))):
            got = scalars._exquo(a_in, b_in)
            assert got == parent._tuple_exquo(a_in, b_in) == \
                tuple(quotient), (a, b)
