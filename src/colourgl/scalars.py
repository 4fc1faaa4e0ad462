"""Exact scalars: the field Q(q) of rational functions in one formal parameter.

A Scalar is stored in the canonical form  q^shift * num(q) / den(q)  where
num and den are tuples of Fraction coefficients in ascending powers of q,
both with nonzero constant term, den is monic and gcd(num, den) = 1.
Equality is therefore syntactic.  q is never specialised: identities proved
here hold at every q != 0.

Arithmetic reaches the canonical form without a polynomial gcd whenever the
shapes of the operands guarantee it: a monomial factor c*q^s only scales and
shifts the other factor, products and sums of Laurent polynomials (den = 1)
are already in lowest terms, an inverse swaps num and den, and a product of
two fractions cancels only the cross gcds.  The general normalisation in
Scalar() serves parsing, sums of fractions and raw constructor input.

The polynomial work itself runs over Z[q]: a coefficient tuple is cleared
into a primitive integer list and one rational content (Knuth, TAOCP vol. 2,
4.6.1), products convolve the integer lists, and a gcd is taken by a
primitive pseudo-remainder sequence, whose cofactors divide exactly in Z[q]
by Gauss's lemma.  Fractions are built only for the stored result, once per
coefficient.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_F0 = Fraction(0)
_ZERO_POLY = (_F0,)
_ONE_POLY = (Fraction(1),)


def _trim(coeffs):
    """Drop trailing zero coefficients, keeping at least one entry."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b, k):
    """a + q^k * b for k >= 0."""
    out = list(a)
    if len(out) < k + len(b):
        out.extend([_F0] * (k + len(b) - len(out)))
    for i, c in enumerate(b, k):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _clear(p):
    """p as content * ints for nonzero int or Fraction coefficients p: ints
    is an integer list with gcd 1 (signs kept), content a positive Fraction."""
    m = lcm(*[c.denominator for c in p])
    ints = [c.numerator * (m // c.denominator) for c in p]
    g = gcd(*ints)
    if g != 1:
        ints = [x // g for x in ints]
    return ints, Fraction(g, m)


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b in Q[q], for
    integer lists with len(a) >= len(b) > 1; untrimmed, of length len(b)-1."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            g = gcd(c, lb)
            m, c = lb // g, c // g
            if m != 1:
                for i in range(k + db):
                    r[i] *= m
            for j in range(db):
                r[k + j] -= c * b[j]
    return r[:db]


def _gcd(a, b):
    """gcd(a, b) in Z[q] for primitive nonzero integer lists: primitive,
    with a positive leading coefficient.  A primitive polynomial remainder
    sequence (Knuth, TAOCP vol. 2, 4.6.1): each pseudo-remainder is divided
    by its content, so the coefficients stay small."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        n = len(r)
        while n and not r[n - 1]:
            n -= 1
        if not n:
            return b if b[-1] > 0 else [-x for x in b]
        g = gcd(*r[:n])
        a, b = b, [x // g for x in r[:n]]
    return [1]


def _exquo(a, b):
    """a / b for integer lists when b divides a in Z[q]."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db] // lb
        if c:
            out[k] = c
            for j in range(db):
                r[k + j] -= c * b[j]
    return out


def _times(k, ints):
    """The rational k times an integer list, as a Fraction tuple."""
    n, d = k.numerator, k.denominator
    if d == 1:
        return tuple(Fraction(n * x) for x in ints)
    return tuple(Fraction(n * x, d) for x in ints)


def _monic(num, den, k):
    """k * num / den over a monic den, for coprime integer lists and a
    rational k, as Fraction tuples."""
    lead = den[-1]
    if lead == 1:
        return _times(k, num), tuple(map(Fraction, den))
    return _times(k / lead, num), tuple(Fraction(x, lead) for x in den)


def _pmul(a, b):
    """The product of two nonzero Fraction polynomials: an integer
    convolution, scaled once."""
    (pa, ka), (pb, kb) = _clear(a), _clear(b)
    out = [0] * (len(pa) + len(pb) - 1)
    for i, x in enumerate(pa):
        if x:
            for j, y in enumerate(pb, i):
                out[j] += x * y
    return _times(ka * kb, out)


def _cancel(a, b):
    """a / g and b / g for g = gcd(a, b) over nonzero Fraction polynomials;
    b monic stays monic."""
    (pa, ka), (pb, kb) = _clear(a), _clear(b)
    g = _gcd(pa, pb)
    if len(g) == 1:
        return a, b
    return _monic(_exquo(pa, g), _exquo(pb, g), ka / kb)


class Scalar:
    """An element of Q(q) in canonical Laurent form."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift=0, num=_ZERO_POLY, den=_ONE_POLY, _normalized=False):
        if _normalized:
            self.shift, self.num, self.den = shift, num, den
            return
        num, den = _trim(num), _trim(den)
        if not any(den):
            raise ZeroDivisionError("scalar with zero denominator")
        if not any(num):
            self.shift, self.num, self.den = 0, _ZERO_POLY, _ONE_POLY
            return
        # factor plain q powers out of num and den into the shift
        t = next(i for i, c in enumerate(num) if c != 0)
        u = next(i for i, c in enumerate(den) if c != 0)
        (num, kn), (den, kd) = _clear(num[t:]), _clear(den[u:])
        g = _gcd(num, den)
        if len(g) > 1:
            num, den = _exquo(num, g), _exquo(den, g)
        self.num, self.den = _monic(num, den, kn / kd)
        self.shift = shift + t - u

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value):
        value = Fraction(value)
        if value == 0:
            return ZERO
        return cls(0, (value,), _ONE_POLY, _normalized=True)

    @classmethod
    def q_power(cls, k):
        return cls(int(k), _ONE_POLY, _ONE_POLY, _normalized=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.num[0]

    def is_one(self):
        return self.shift == 0 and self.num == _ONE_POLY and self.den == _ONE_POLY

    def is_sign(self):
        """True iff the scalar equals +1 or -1."""
        return self.den == _ONE_POLY and self.shift == 0 and self.num in (
            _ONE_POLY, (Fraction(-1),))

    def is_rational(self):
        return len(self.num) == 1 and self.den == _ONE_POLY and (
            self.shift == 0 or self.is_zero())

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        return self.num[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num[0]:
            return other
        if not other.num[0]:
            return self
        lo, hi = (self, other) if self.shift <= other.shift else (other, self)
        k = hi.shift - lo.shift
        if len(lo.den) == 1 and len(hi.den) == 1:
            # Laurent polynomials: the sum is canonical once its low zero
            # coefficients (possible only when k == 0) move into the shift.
            return _laurent(lo.shift, _padd(lo.num, hi.num, k))
        if lo.den == hi.den:
            return Scalar(lo.shift, _padd(lo.num, hi.num, k), lo.den)
        num = _padd(_pmul(lo.num, hi.den), _pmul(hi.num, lo.den), k)
        return Scalar(lo.shift, num, _pmul(lo.den, hi.den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.shift, _pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a[0] or not c[0]:
            return ZERO
        shift = self.shift + other.shift
        # a monomial factor c*q^s keeps the other factor in lowest terms
        if len(c) == 1 and len(d) == 1:
            return _scaled(shift, a, b, c[0])
        if len(a) == 1 and len(b) == 1:
            return _scaled(shift, c, d, a[0])
        if len(b) == 1 and len(d) == 1:
            # Laurent polynomials: the product is in lowest terms
            return Scalar(shift, _pmul(a, c), _ONE_POLY, _normalized=True)
        # a/b * c/d: gcd(a, b) = gcd(c, d) = 1, so only the cross gcds
        # gcd(a, d) and gcd(c, b) can be common factors; the quotients of
        # the monic b and d by monic gcds stay monic, and so does b*d.
        if len(a) > 1 and len(d) > 1:
            a, d = _cancel(a, d)
        if len(c) > 1 and len(b) > 1:
            c, b = _cancel(c, b)
        # a constant over a constant den only scales the other factor
        # (the shapes of x / y and x * y.inverse() for a Laurent x)
        if len(c) == 1 and len(b) == 1:
            return _scaled(shift, a, d, c[0])
        if len(a) == 1 and len(d) == 1:
            return _scaled(shift, c, b, a[0])
        return Scalar(shift, _pmul(a, c), _pmul(b, d), _normalized=True)

    __rmul__ = __mul__

    def inverse(self):
        num, den = self.num, self.den
        if not num[0]:
            raise ZeroDivisionError("inverse of zero scalar")
        # gcd(den, num) = 1 still holds; only the new den must be made monic
        lead = num[-1]
        if lead != 1:
            num = tuple(x / lead for x in num)
            den = tuple(x / lead for x in den)
        return Scalar(-self.shift, den, num, _normalized=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.shift, self.num, self.den) == (other.shift, other.num, other.den)

    def __hash__(self):
        if self.is_rational():
            return hash(self.num[0])
        return hash((self.shift, self.num, self.den))

    def __bool__(self):
        return bool(self.num[0])

    # -- serialization -----------------------------------------------------

    def __str__(self):
        num, den = self._integer_pair()
        s = _poly_str(num)
        if den == (1,):
            return s
        if _is_multiterm(s):
            s = f"({s})"
        d = _poly_str(den)
        if _is_multiterm(d):
            d = f"({d})"
        return f"{s}/{d}"

    def __repr__(self):
        return f"Scalar({self})"

    def _integer_pair(self):
        """Clear denominators: the value as P(q)/R(q) with coprime integer
        coefficient vectors and positive leading coefficient on R."""
        num, den = self.num, self.den
        if self.shift >= 0:
            num = (0,) * self.shift + num
        else:
            den = (0,) * (-self.shift) + den
        # den is monic, so its cleared leading coefficient is positive
        ints = _clear(num + den)[0]
        return tuple(ints[:len(num)]), tuple(ints[len(num):])

    @classmethod
    def parse(cls, text):
        """Parse strings of the form "p(q)" or "p(q)/r(q)": one top-level
        slash at most, and a sign before every term after the first."""
        num_s, den_s = _split_fraction(text.strip())
        lo_n, num = _coeffs(_parse_poly(num_s))
        lo_d, den = 0, _ONE_POLY
        if den_s is not None:
            lo_d, den = _coeffs(_parse_poly(den_s))
        return cls(lo_n - lo_d, num, den)


def _scaled(shift, num, den, c):
    """q^shift * c * num / den for canonical num / den and rational c != 0."""
    if c != 1:
        num = tuple(x * c for x in num)
    return Scalar(shift, num, den, _normalized=True)


def _laurent(shift, coeffs):
    """The canonical q^shift * coeffs, for trimmed Laurent coefficients."""
    if not coeffs[-1]:
        return ZERO
    t = 0
    while not coeffs[t]:
        t += 1
    return Scalar(shift + t, coeffs[t:], _ONE_POLY, _normalized=True)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    return NotImplemented


def _is_multiterm(rendered):
    return any(ch in rendered[1:] for ch in "+-")


def _poly_str(coeffs):
    """Render an integer coefficient vector, descending powers of q."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "q" if mag == 1 else f"{mag}*q"
        else:
            body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


def _split_fraction(text):
    """Split "a/b" at the top-level slash, honouring parentheses."""
    depth, cut = 0, None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if cut is not None:
                raise ValueError(f"more than one top-level '/' in {text!r}")
            cut = i
    if cut is None:
        return text, None
    return text[:cut], text[cut + 1:]


_TERM_RE = re.compile(
    r"([+-]?)\s*("
    r"(?P<coef>\d+(?:/\d+)?)\s*\*?\s*(?:q(?:\^(?P<exp1>-?\d+))?)?"
    r"|q(?:\^(?P<exp2>-?\d+))?"
    r")\s*")


def _parse_poly(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner, depth = text[1:-1], 0
        for ch in inner:
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if depth < 0:
                break
        else:
            text = inner
    out = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (pos and not m.group(1)):
            raise ValueError(f"cannot parse scalar near {text[pos:]!r}")
        coef = m.group("coef")
        if coef is None:
            coef, exp = 1, int(m.group("exp2") or 1)
        else:
            coef = Fraction(coef) if "/" in coef else int(coef)
            exp = int(m.group("exp1") or 1) if "q" in m.group(2) else 0
        out[exp] = out.get(exp, 0) + (-coef if m.group(1) == "-" else coef)
        pos = m.end()
    if not out:
        raise ValueError(f"empty scalar expression {text!r}")
    return out


def _coeffs(exps):
    """{exponent: coefficient} as (lowest exponent, coefficient tuple)."""
    lo = min(exps)
    coeffs = [0] * (max(exps) - lo + 1)
    for e, c in exps.items():
        coeffs[e - lo] = c
    return lo, tuple(coeffs)


ZERO = Scalar(0, _ZERO_POLY, _ONE_POLY, _normalized=True)
ONE = Scalar(0, _ONE_POLY, _ONE_POLY, _normalized=True)
MINUS_ONE = Scalar(0, (Fraction(-1),), _ONE_POLY, _normalized=True)
Q = Scalar(1, _ONE_POLY, _ONE_POLY, _normalized=True)
