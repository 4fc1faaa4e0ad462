"""The general path of the Scalar kernel against the verbatim oracles of
tests/parent_scalars.py and tests/parent_weyl.py: the parser, the raw
constructor, the Henrici sum and the pivot-once elimination step give the
parent's results, and the work they save is counted."""

import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import parent_scalars as parent
import parent_weyl
from colourgl import scalars, weyl
from colourgl.gl import _add_into
from colourgl.scalars import ONE, Scalar
from test_scalars import QS, _assert_stored_form, _check, _sym

DIFF = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)
PARSE = settings(max_examples=500, deadline=None, derandomize=True,
                 database=None)
SAMPLE = settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)


def _triple(x):
    return x.shift, x.n, x.d


def _outcome(fn, *args):
    """fn(*args), or the class of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


# -- the parser ---------------------------------------------------------------

ALPHABET = "0123456789q^*/+- ()"
TOKENS = ("q", "q^", "^-", "2", "3", "0", "12", "*", "+", "-", "/", "(",
          ")", " ", "2*q", "3/2", "q^2")
TEXT = st.one_of(
    st.text(ALPHABET, max_size=16),
    st.lists(st.sampled_from(TOKENS), max_size=10).map("".join))
# a "*" that no q follows: the parent read "2*" as 2, the parser refuses it
DANGLING_STAR = re.compile(r"\*(?!\s*q)")


@PARSE
@given(TEXT)
def test_parse_matches_the_parent_parser(text):
    if DANGLING_STAR.search(text):
        with pytest.raises(ValueError):
            Scalar.parse(text)
        return
    new_split = _outcome(scalars._split_fraction, text)
    assert new_split == _outcome(parent._split_fraction, text)
    assert _outcome(scalars._parse_poly, text) == \
        _outcome(parent._parse_poly, text)
    expect = _outcome(parent.parse, text)
    got = _outcome(lambda t: _triple(Scalar.parse(t)), text)
    assert got == expect
    if isinstance(got, tuple):
        _assert_stored_form(Scalar.parse(text))


def test_parse_reads_each_term_kind():
    cases = {"2*q^-3 - q + 5/7*q^2": {-3: 2, 1: -1, 2: Fraction(5, 7)},
             "(q^2 + 2 q)": {2: 1, 1: 2}, "-q": {1: -1}, "3": {0: 3}}
    for text, expect in cases.items():
        assert scalars._parse_poly(text) == parent._parse_poly(text) == \
            expect
    for text in ("(q+1)/((q-1))", "((q)/q", "(1/2*q)/(3/4)", "1/(q)/"):
        assert _outcome(scalars._split_fraction, text) == \
            _outcome(parent._split_fraction, text)


# -- the raw constructor and the Henrici sum ----------------------------------

# primitive integer factors with a nonzero constant term, of degree 1 or 2
FACTOR = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(
    lambda f: f[0] and f[-1] and math.gcd(*f) == 1)
# a den's content, and a num's, which is prime to every den's
DEN_CONTENT = st.sampled_from((1, -1, 2, -3, 4))
NUM_CONTENT = st.sampled_from((1, -1, 5, -7))


def _product(factors, scale=1):
    out = [scale]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return tuple(out)


def _zgcd(a, b):
    """gcd(a, b) in Z[q], content included, by sympy."""
    a, b = (sympy.Poly(list(reversed(p)), QS, domain=sympy.ZZ)
            for p in (a, b))
    return a.gcd(b)


# the kinds of gcd of the dens of a sum; 'fraction' has Fraction input
CASES = ("coprime", "polynomial", "content", "one-constant", "constants",
         "fraction")


@st.composite
def raw_pair(draw, case, exact=False):
    """Two raw (shift, num, den) inputs with dens whose gcd is mostly of
    the kind case names; exact makes sure of it, by sympy, and makes each
    num prime to its den."""
    common = draw(st.lists(FACTOR, min_size=1, max_size=2)) \
        if case == "polynomial" else []
    k = draw(st.sampled_from((2, 3, 6))) if case == "content" else 1
    raws = []
    for side in range(2):
        constant = case == "constants" or (case == "one-constant" and side)
        own = [] if constant else draw(st.lists(FACTOR, min_size=1,
                                                max_size=2))
        scale = draw(st.sampled_from((1, -1))) if case == "coprime" \
            else k * draw(DEN_CONTENT)
        den = _product(common + own, scale)
        num = _product(draw(st.lists(FACTOR, max_size=2)),
                       draw(NUM_CONTENT))
        assume(not exact or len(num) == 1 or len(den) == 1
               or _zgcd(num, den).degree() == 0)
        if case == "fraction":
            num = tuple(Fraction(c, draw(st.integers(1, 4))) for c in num)
            den = tuple(Fraction(c, draw(st.integers(1, 3))) for c in den)
        raws.append((draw(st.integers(-3, 3)), num, den))
    if exact and case in ("coprime", "content"):
        assume(_zgcd(raws[0][2], raws[1][2]).degree() == 0)
    return raws


def _gcd_kind(b, d):
    """The kind of gcd(b, d) for the dens of two canonical Scalars."""
    if len(b) == 1 or len(d) == 1:
        return "constants" if len(b) == len(d) else "one-constant"
    g = _zgcd(b, d)
    if g.degree():
        return "polynomial"
    return "content" if abs(g.LC()) > 1 else "coprime"


@pytest.mark.parametrize("case", CASES)
@DIFF
@given(data=st.data())
def test_sums_and_construction_match_the_parent(case, data):
    rx, ry = data.draw(raw_pair(case))
    for raw in (rx, ry):
        assert _triple(Scalar(*raw)) == parent.init(*raw)
    x, y = Scalar(*rx), Scalar(*ry)
    for u, v in ((x, y), (y, x), (x, -y), (x, x), (-x, x)):
        result = u + v
        assert _triple(result) == _triple(parent.add(u, v))
        _assert_stored_form(result)


@pytest.mark.parametrize("case", CASES)
@SAMPLE
@given(data=st.data())
def test_sums_match_sympy_cancel(case, data):
    rx, ry = data.draw(raw_pair(case, exact=True))
    x, y = Scalar(*rx), Scalar(*ry)
    if case != "fraction":
        assert _gcd_kind(x.d, y.d) == case
        assert scalars._common(x.d, y.d) == tuple(
            int(c) for c in reversed(_zgcd(x.d, y.d).all_coeffs()))
    _check(x + y, _sym(rx) + _sym(ry))
    _check(x - y, _sym(rx) - _sym(ry))


@pytest.mark.parametrize("case", CASES)
@SAMPLE
@given(data=st.data())
def test_sums_over_different_dens_are_never_zero(case, data):
    # the canonical form is unique, so a zero sum x + y stores y as -x,
    # over x's den: Scalar.__add__ reads no zero after Henrici's sum
    rx, ry = data.draw(raw_pair(case))
    x, y = Scalar(*rx), Scalar(*ry)
    assume(x.d != y.d)
    for total, expr in ((x + y, _sym(rx) + _sym(ry)),
                        (x - y, _sym(rx) - _sym(ry))):
        assert not total.is_zero()
        _check(total, expr)


def test_common_is_the_gcd_with_content():
    assert scalars._common((1, 1), (2, 1)) == (1,)
    assert scalars._common((2, 2), (3, 6)) == (1,)
    assert scalars._common((2, 2), (4, 8)) == (2,)
    assert scalars._common((2, 4, 2), (3, 3)) == (1, 1)
    assert scalars._common((4, 8, 4), (6, 6)) == (2, 2)
    assert scalars._common((6,), (4, 2)) == (2,)
    assert scalars._common((-6, 3), (2, -1)) == (-2, 1)


# -- work counts --------------------------------------------------------------

def _count(monkeypatch, name):
    """Wrap scalars.<name> in a recorder of its arguments."""
    calls = []
    fn = getattr(scalars, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(scalars, name, counted)
    return calls


def test_a_sum_over_coprime_denominators_takes_one_gcd(monkeypatch):
    x = Scalar.parse("(q^2-3)/(2*q^2+q+1)")
    y = Scalar.parse("(5*q+1)/(3*q^3-q+4)")
    calls = _count(monkeypatch, "_gcd")
    total = x + y
    # the one gcd is of the two dens; the sum needs none
    assert calls == [(x.d, y.d)]
    assert _triple(total) == _triple(parent.add(x, y))


def test_a_sum_cancels_only_against_the_common_factor(monkeypatch):
    x = Scalar.parse("1/(q^2-1)")
    y = Scalar.parse("q/(q^2+2*q+1)")
    calls = _count(monkeypatch, "_gcd")
    total = x + y
    assert _triple(total) == _triple(parent.add(x, y))
    assert str(total) == "(q^2+1)/(q^3+q^2-q-1)"
    # gcd(b, d) = q + 1, then the numerator's gcd with q + 1 alone
    assert calls == [(x.d, y.d), ((1, 0, 1), (1, 1))]


def test_int_input_is_never_cleared(monkeypatch):
    calls = _count(monkeypatch, "_clear")
    for raw in ((0, (2, 4), (6, 0, 2)), (-2, (0, 0, 3), (0, 5)),
                (1, (0,), (7,)), (0, [4, -6], [2])):
        assert _triple(Scalar(*raw)) == parent.init(*raw)
    assert calls == []
    raw = (0, (Fraction(1, 2), 1), (3,))
    assert _triple(Scalar(*raw)) == parent.init(*raw)
    assert len(calls) == 1


def _dependent_rows():
    """8 rows of rank 4 over Q(q): four independent rows and their sums
    with fractional coefficients."""
    q = Scalar.q_power(1)
    half = Scalar.from_rational(Fraction(1, 2))
    bases = [{0: q + 1, 2: q, 5: ONE},
             {1: q, 2: ONE / (q - 1), 4: q * q},
             {2: q + 2, 3: half, 5: q / (q + 3)},
             {3: ONE, 4: q - 1, 5: (q + 1) / (q - 2)}]
    combos = []
    for i, j, coef in ((0, 1, q), (1, 2, half / q), (0, 3, ONE / (q + 1)),
                       (2, 3, q * q - 1)):
        row = dict(bases[i])
        for c, v in bases[j].items():
            _add_into(row, c, coef * v)
        combos.append(row)
    return [bases[0], combos[0], bases[1], combos[1], bases[2], combos[2],
            bases[3], combos[3]]


def _count_ops(monkeypatch):
    counts = {"__neg__": 0, "__mul__": 0}
    for name in counts:
        fn = getattr(Scalar, name)

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(Scalar, name, counted)
    return counts


def test_elimination_negates_each_pivot_coefficient_once(monkeypatch):
    rows = _dependent_rows()
    counts = _count_ops(monkeypatch)
    assert parent_weyl.rank_of_rows(rows) == 4
    old = dict(counts)
    counts.update(__neg__=0, __mul__=0)
    echelon = {}
    ranks = [weyl._reduce(echelon, row) is not None for row in rows]
    new = dict(counts)
    monkeypatch.undo()
    assert sum(ranks) == weyl.rank_of_rows(rows) == 4
    assert all(min(row) == col and row[col] == ONE
               for col, row in echelon.items())
    # one negation per step, and one product fewer: the pivot column's
    steps = new["__neg__"]
    assert steps > 0 and new["__mul__"] + steps == old["__mul__"]
    assert steps < old["__neg__"]
