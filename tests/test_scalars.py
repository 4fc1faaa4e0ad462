import math
import operator
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from colourgl import scalars
from colourgl.scalars import (MINUS_ONE, ONE, Q, ZERO, Scalar, _ONE_POLY,
                              _ZERO_POLY, _trim)


def random_scalar(rng):
    num = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
           for _ in range(rng.randint(1, 4))]
    if all(c == 0 for c in num):
        num[0] = Fraction(1)
    den = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    if all(c == 0 for c in den):
        den[0] = Fraction(1)
    return Scalar(rng.randint(-3, 3), tuple(num), tuple(den))


def test_malformed_text_is_rejected():
    # every term after the first needs a sign; one top-level slash at most
    # and a "*" needs a q after it
    for text in ("2 3", "q q", "q2", "1/2/3", "3/2/q", "q/(q+1)/2", "", "/",
                 "2*", "2 *"):
        with pytest.raises(ValueError):
            Scalar.parse(text)
    for text in ("1/0", "0/0", "q/(q-q)"):
        with pytest.raises(ZeroDivisionError):
            Scalar.parse(text)
    assert Scalar.parse("2 + 3") == Scalar.parse("5")
    assert Scalar.parse("(1/2*q+1)/3") == Scalar.parse("(q+2)/6")


def test_canonical_equality():
    assert Scalar.parse("(q^2-1)/(q-1)") == Scalar.parse("q+1")
    assert Scalar.parse("2/4") == Scalar.from_rational(Fraction(1, 2))
    assert Scalar.q_power(3) / Scalar.q_power(3) == ONE
    assert Scalar.parse("q^-1") == Q.inverse()


def test_zero_and_one():
    assert ZERO.is_zero() and not ZERO
    assert ONE.is_one() and MINUS_ONE.is_sign() and not ONE.is_zero()
    assert (ONE + MINUS_ONE).is_zero()
    assert ZERO * Q == ZERO


def test_field_axioms_sampled():
    rng = random.Random(11)
    for _ in range(150):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + y == y + x
        if not x.is_zero():
            assert (y / x) * x == y
        assert ((x / y) * (y / x)).is_one() if not (x.is_zero() or
                                                    y.is_zero()) else True


def test_string_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        x = random_scalar(rng)
        assert Scalar.parse(str(x)) == x
    assert str(ONE) == "1"
    assert str(MINUS_ONE) == "-1"
    assert str(Q) == "q"
    assert str(Scalar.q_power(-2)) == "1/q^2"


def test_sign_and_rational_views():
    assert ONE.is_sign() and MINUS_ONE.is_sign()
    assert not Q.is_sign()
    assert Scalar.from_rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        Q.as_fraction()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_powers():
    assert Q ** 0 == ONE
    assert Q ** 3 == Scalar.q_power(3)
    assert (Q + ONE) ** 2 == Scalar.parse("q^2+2*q+1")
    assert Q ** -2 == Scalar.q_power(-2)


def test_integer_coefficient_serialisation():
    s = Scalar.from_rational(Fraction(1, 2)) * Q
    text = str(s)
    assert text == "q/2"
    assert Scalar.parse(text) == s


# -- canonical form against an independent oracle (sympy.cancel) -----------

QS = sympy.Symbol("q")
# small factors, so that generated fractions share factors with each other
FACTORS = ((1, 1), (-1, 1), (2, 1), (-1, 2), (1, 0, 1), (1, 1, 1))
COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3)
SHIFT = st.integers(-3, 3)


def _poly_product(factors, scale):
    out = (Fraction(scale),)
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = tuple(prod)
    return out


def _coeff_list(min_size, max_size):
    return st.lists(COEFF, min_size=min_size, max_size=max_size).filter(any)


# raw (shift, num, den) constructor input of each shape
RAW_ZERO = st.builds(lambda s: (s, (Fraction(0),), (Fraction(1),)), SHIFT)
RAW_MONOMIAL = st.builds(lambda s, c: (s, (c,), (Fraction(1),)),
                         SHIFT, COEFF.filter(bool))
RAW_LAURENT = st.builds(lambda s, n: (s, tuple(n), (Fraction(1),)),
                        SHIFT, _coeff_list(2, 4))
RAW_FRACTION = st.builds(lambda s, n, d: (s, tuple(n), tuple(d)),
                         SHIFT, _coeff_list(1, 4),
                         _coeff_list(2, 3).filter(lambda d: any(d[1:])))
RAW_FACTORED = st.builds(
    lambda s, c, n, d, k: (s, _poly_product(n, c), _poly_product(d, k)),
    SHIFT, COEFF.filter(bool),
    st.lists(st.sampled_from(FACTORS), max_size=3),
    st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2),
    st.sampled_from((1, -2, Fraction(1, 3))))
RAW = st.one_of(RAW_ZERO, RAW_MONOMIAL, RAW_LAURENT, RAW_FRACTION,
                RAW_FACTORED)
ORACLE = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)


def _sym_poly(coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * QS ** i
               for i, c in enumerate(coeffs))


def _sym(raw):
    shift, num, den = raw
    return QS ** shift * _sym_poly(num) / _sym_poly(den)


def _fractions(expr):
    """Ascending Fraction coefficients of a sympy polynomial in q."""
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(expr, QS).all_coeffs())]


def _canonical(expr):
    """(shift, num, den) of expr in the canonical form, from sympy.cancel."""
    num, den = sympy.fraction(sympy.cancel(expr))
    num, den = _fractions(num), _fractions(den)
    if not any(num):
        return 0, (Fraction(0),), (Fraction(1),)
    shift = 0
    while not num[0]:
        num.pop(0)
        shift += 1
    while not den[0]:
        den.pop(0)
        shift -= 1
    lead = den[-1]
    return (shift, tuple(c / lead for c in num),
            tuple(c / lead for c in den))


def _check(result, expr):
    form = (result.shift, result.num, result.den)
    assert form == _canonical(expr)
    again = Scalar(*form)
    assert (again.shift, again.num, again.den) == form
    assert all(type(c) is Fraction for c in result.num + result.den)
    assert result.den[-1] == 1 and result.den[0] != 0
    if result.is_zero():
        assert form == (0, (Fraction(0),), (Fraction(1),))
    else:
        assert result.num[0] != 0 and result.num[-1] != 0
        num, den = (sympy.Poly(list(reversed(p)), QS, domain=sympy.QQ)
                    for p in (result.num, result.den))
        assert num.gcd(den).degree() == 0


@ORACLE
@given(RAW)
def test_constructor_matches_sympy_cancel(raw):
    _check(Scalar(*raw), _sym(raw))


@ORACLE
@given(RAW, RAW)
def test_field_operations_match_sympy_cancel(rx, ry):
    x, y = Scalar(*rx), Scalar(*ry)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and y.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        _check(op(x, y), op(_sym(rx), _sym(ry)))
    # cancellation: the low coefficients of y drop out of the sum
    _check((x + y) - y, _sym(rx))
    if not y.is_zero():
        _check((x * y) / y, _sym(rx))


@ORACLE
@given(RAW, st.integers(-3, 3))
def test_inverse_and_powers_match_sympy_cancel(rx, k):
    x = Scalar(*rx)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        if k >= 0:
            _check(x ** k, _sym(rx) ** k if k else sympy.Integer(1))
        return
    _check(x.inverse(), 1 / _sym(rx))
    _check(x ** k, _sym(rx) ** k)


@ORACLE
@given(RAW)
def test_parse_inverts_str(raw):
    x = Scalar(*raw)
    text = str(x)
    assert Scalar.parse(text) == x
    assert str(Scalar.parse(text)) == text


# -- the Fraction kernel the integer kernel replaced -------------------------
# Polynomial division, monic gcd and cancellation over Q[q], kept verbatim as
# oracles for the kernel over Z[q].

_F0 = Fraction(0)


def _is_zero_poly(p):
    return len(p) == 1 and p[0] == 0


def oracle_pdivmod(a, b):
    """Polynomial division over Q; b must be nonzero."""
    if _is_zero_poly(b):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [_F0] * max(len(a) - db, 1)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            c = q[k] = c / lb
            for j in range(db):
                r[k + j] -= c * b[j]
    return _trim(q), _trim(r[:db] or _ZERO_POLY)


def oracle_pgcd(a, b):
    """Monic gcd over Q[q]."""
    while not _is_zero_poly(b):
        a, b = b, oracle_pdivmod(a, b)[1]
    if _is_zero_poly(a):
        return _ONE_POLY
    lead = a[-1]
    return tuple(c / lead for c in a)


def oracle_cancel(a, b):
    """a / g and b / g for g = gcd(a, b); b monic stays monic."""
    g = oracle_pgcd(a, b)
    if len(g) == 1:
        return a, b
    return oracle_pdivmod(a, g)[0], oracle_pdivmod(b, g)[0]


# integer factors of degree 1 or 2, signs of either kind, q itself included
INT_FACTOR = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(
    lambda f: f[-1] != 0)
KERNEL = settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)


@st.composite
def int_pairs(draw):
    """Two integer polynomials of degree <= 8 with coefficients in [-50, 50]
    that share the factors in common: often a nonconstant gcd, sometimes a
    constant one, and sometimes one side a constant."""
    common = draw(st.lists(INT_FACTOR, max_size=2))
    sides = []
    for _ in range(2):
        scale = draw(st.integers(-3, 3).filter(bool))
        sides.append(_poly_product(
            common + draw(st.lists(INT_FACTOR, min_size=1, max_size=2)),
            scale))
    constant = draw(st.sampled_from((None,) * 6 + (0, 1)))
    if constant is not None:
        sides[constant] = (Fraction(draw(st.integers(-50, 50).filter(bool))),)
    a, b = (tuple(int(c) for c in _trim(side)) for side in sides)
    assume(len(a) <= 9 and len(b) <= 9 and max(map(abs, a + b)) <= 50)
    return a, b


def _int_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), QS, domain=sympy.ZZ)


@KERNEL
@given(int_pairs(), COEFF.filter(bool))
def test_integer_kernel_matches_fraction_kernel(pair, scale):
    a_int, b_int = pair
    a = tuple(scale * c for c in a_int)
    b = tuple(Fraction(c, b_int[-1]) for c in b_int)
    # clearing: a primitive integer list and a positive content
    (pa, ka), (pb, kb) = scalars._clear(a), scalars._clear(b)
    assert tuple(ka * c for c in pa) == a and tuple(kb * c for c in pb) == b
    assert ka > 0 and kb > 0 and math.gcd(*pa) == 1 == math.gcd(*pb)
    # the gcd over Z[q] is sympy's up to a unit, with a positive lead
    g = scalars._gcd(pa, pb)
    expect = [int(c) for c in reversed(
        _int_poly(a_int).gcd(_int_poly(b_int)).primitive()[1].all_coeffs())]
    assert g[-1] > 0 and g in (expect, [-c for c in expect])
    # cross cancellation over Z[q], content included, equals the Fraction
    # kernel's up to one positive integer factor
    x, y = scalars._cancel(a_int, b_int)
    ox, oy = oracle_cancel(tuple(map(Fraction, a_int)),
                           tuple(map(Fraction, b_int)))
    k = oy[-1] / y[-1]
    assert k.denominator == 1 and k > 0 and math.gcd(*x, *y) == 1
    assert ox == tuple(k * c for c in x) and oy == tuple(k * c for c in y)
    # the general constructor on a den that is not monic
    raw = (0, a, tuple(Fraction(c) for c in b_int))
    _check(Scalar(*raw), _sym(raw))


# -- the stored integer form --------------------------------------------------

def _assert_stored_form(x):
    """The invariants of the stored (shift, n, d): int tuples, nonzero
    constant terms, trimmed, gcd(n, d) = 1 in Z[q] content included, and a
    positive leading coefficient of d; zero is (0, (0,), (1,))."""
    n, d = x.n, x.d
    assert type(n) is tuple and type(d) is tuple and type(x.shift) is int
    assert all(type(c) is int for c in n + d)
    if not n[0]:
        assert (x.shift, n, d) == (0, (0,), (1,))
        return
    assert n[-1] != 0 and d[0] != 0 and d[-1] > 0
    assert math.gcd(*n, *d) == 1
    assert _int_poly(n).gcd(_int_poly(d)).degree() == 0


@ORACLE
@given(RAW, RAW, st.integers(-3, 3))
def test_every_operation_keeps_the_stored_form(rx, ry, k):
    x, y = Scalar(*rx), Scalar(*ry)
    results = [x, y, -x, x + y, x - y, x * y, Scalar.parse(str(x)),
               x + 1, 2 - x, x * Fraction(-2, 3), Fraction(3, 2) / (y or ONE)]
    if not y.is_zero():
        results += [x / y, y.inverse(), y ** k, (x * y) / y]
    for result in results:
        _assert_stored_form(result)


@given(st.one_of(st.integers(-10**20, 10**20),
                 st.fractions(max_denominator=10**6)))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_rationals_hash_and_compare_as_themselves(value):
    x = Scalar.from_rational(value)
    _assert_stored_form(x)
    assert x == value and value == x and hash(x) == hash(value)
    assert x.as_fraction() == value and x.is_rational()
    assert Scalar.parse(str(x)) == x


def test_num_and_den_read_the_monic_fraction_form():
    x = Scalar.parse("(2*q^2-2)/(4*q+6)")
    assert (x.shift, x.n, x.d) == (0, (-1, 0, 1), (3, 2))
    assert x.num == (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    assert x.den == (Fraction(3, 2), Fraction(1))
    assert all(type(c) is Fraction for c in x.num + x.den)
    half = Scalar.from_rational(Fraction(-1, 2))
    assert (half.n, half.d, half.num, half.den) == (
        (-1,), (2,), (Fraction(-1, 2),), (Fraction(1),))
    assert (ZERO.num, ZERO.den) == ((Fraction(0),), (Fraction(1),))


def test_only_ints_and_fractions_enter_as_rationals():
    for value in (0.1, 1.0, "1", complex(1, 0), None):
        with pytest.raises(TypeError):
            Scalar.from_rational(value)
    with pytest.raises(TypeError):
        Q + 0.5
    # a q-exponent or shift is an int too; int() made q^2 of 2.5 and q^3 of "3"
    for exponent in (2.5, "3"):
        with pytest.raises(TypeError):
            Scalar.q_power(exponent)
        with pytest.raises(TypeError):
            Q ** exponent
        with pytest.raises(TypeError):
            Scalar(exponent, (1,))
    assert Scalar.from_rational(True) == ONE


def test_str_of_a_high_power_does_not_pad_the_shift():
    start = time.perf_counter()
    text = str(Scalar.q_power(10 ** 7))
    assert time.perf_counter() - start < 0.1
    assert text == "q^10000000"
    assert str(Scalar.q_power(-10 ** 7) * (Q + 2)) == "(q+2)/q^10000000"
    assert str(Scalar.q_power(10 ** 7) / (Q - 1)) == "q^10000000/(q-1)"
