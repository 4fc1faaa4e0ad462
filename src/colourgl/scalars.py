"""Exact scalars: the field Q(q) of rational functions in one formal parameter.

A Scalar is stored in the canonical form  q^shift * num(q) / den(q)  where
num and den are polynomials over Q with nonzero constant term, den is monic
and gcd(num, den) = 1.  Equality is therefore syntactic.  q is never
specialised: identities proved here hold at every q != 0.

Arithmetic reaches the canonical form without a polynomial gcd whenever the
shapes of the operands guarantee it: a monomial factor c*q^s only scales and
shifts the other factor, products and sums of Laurent polynomials (den = 1)
are already in lowest terms, an inverse swaps num and den, and a product of
two fractions cancels only the cross gcds.  The general normalisation in
Scalar() serves parsing, sums of fractions and raw constructor input.
"""

from __future__ import annotations

import re
from fractions import Fraction

_F0 = Fraction(0)
_ZERO_POLY = (_F0,)
_ONE_POLY = (Fraction(1),)


def _trim(coeffs):
    """Drop trailing zero coefficients, keeping at least one entry."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _is_zero_poly(p):
    return len(p) == 1 and p[0] == 0


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


def _pmul(a, b):
    if _is_zero_poly(a) or _is_zero_poly(b):
        return _ZERO_POLY
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a, b):
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


def _pgcd(a, b):
    """Monic gcd over Q[q]."""
    while not _is_zero_poly(b):
        a, b = b, _pdivmod(a, b)[1]
    if _is_zero_poly(a):
        return _ONE_POLY
    lead = a[-1]
    return tuple(c / lead for c in a)


def _cancel(a, b):
    """a / g and b / g for g = gcd(a, b); b monic stays monic."""
    g = _pgcd(a, b)
    if len(g) == 1:
        return a, b
    return _pdivmod(a, g)[0], _pdivmod(b, g)[0]


class Scalar:
    """An element of Q(q) in canonical Laurent form."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift=0, num=_ZERO_POLY, den=_ONE_POLY, _normalized=False):
        if _normalized:
            self.shift, self.num, self.den = shift, num, den
            return
        num = _trim(tuple(Fraction(c) for c in num))
        den = _trim(tuple(Fraction(c) for c in den))
        if _is_zero_poly(den):
            raise ZeroDivisionError("scalar with zero denominator")
        if _is_zero_poly(num):
            self.shift, self.num, self.den = 0, _ZERO_POLY, _ONE_POLY
            return
        # factor plain q powers out of num and den into the shift
        t = next(i for i, c in enumerate(num) if c != 0)
        if t:
            shift += t
            num = num[t:]
        t = next(i for i, c in enumerate(den) if c != 0)
        if t:
            shift -= t
            den = den[t:]
        g = _pgcd(num, den)
        if g != _ONE_POLY:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            den = tuple(c / lead for c in den)
            num = tuple(c / lead for c in num)
        self.shift, self.num, self.den = shift, num, den

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
            num = (Fraction(0),) * self.shift + num
        else:
            den = (Fraction(0),) * (-self.shift) + den
        mult = 1
        for c in num + den:
            mult = mult * c.denominator // _gcd_int(mult, c.denominator)
        n = [int(c * mult) for c in num]
        d = [int(c * mult) for c in den]
        content = 0
        for c in n + d:
            content = _gcd_int(content, abs(c))
        if content > 1:
            n = [c // content for c in n]
            d = [c // content for c in d]
        if d[-1] < 0:
            n = [-c for c in n]
            d = [-c for c in d]
        return tuple(n), tuple(d)

    @classmethod
    def parse(cls, text):
        """Parse strings of the form "p(q)" or "p(q)/r(q)"."""
        text = text.strip()
        num_s, den_s = _split_fraction(text)
        num = _parse_poly(num_s)
        den = _parse_poly(den_s) if den_s is not None else {0: Fraction(1)}
        return _from_exp_map(num) / _from_exp_map(den)


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


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


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
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return text[:i], text[i + 1:]
    return text, None


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
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse scalar near {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group("coef") is not None:
            coef = Fraction(m.group("coef"))
            has_q = "q" in m.group(2)
            exp = int(m.group("exp1") or (1 if has_q else 0)) if has_q else 0
        else:
            coef = Fraction(1)
            exp = int(m.group("exp2") or 1)
        out[exp] = out.get(exp, Fraction(0)) + sign * coef
        pos = m.end()
    if not out:
        raise ValueError(f"empty scalar expression {text!r}")
    return out


def _from_exp_map(exps):
    lo = min(exps)
    coeffs = [Fraction(0)] * (max(exps) - lo + 1)
    for e, c in exps.items():
        coeffs[e - lo] = c
    return Scalar(lo, tuple(coeffs))


ZERO = Scalar(0, _ZERO_POLY, _ONE_POLY, _normalized=True)
ONE = Scalar(0, _ONE_POLY, _ONE_POLY, _normalized=True)
MINUS_ONE = Scalar(0, (Fraction(-1),), _ONE_POLY, _normalized=True)
Q = Scalar(1, _ONE_POLY, _ONE_POLY, _normalized=True)
