"""Exact scalars: the field Q(q) of rational functions in one formal parameter.

A Scalar is stored as  q^shift * n(q) / d(q)  for tuples n, d of ints in
ascending powers of q with nonzero constant terms, gcd(n, d) = 1 in Z[q]
(content included: the gcd of all coefficients of n and d together is 1)
and a positive leading coefficient of d; zero is (0, (0,), (1,)).  The form
is unique, so equality is syntactic.  q is never specialised: identities
proved here hold at every q != 0.

All arithmetic runs on ints.  A product takes one of two branches: Laurent
polynomials over constant dens multiply with one gcd over ints, and any
other product cancels only its two cross gcds, integer gcds when a factor
is a monomial.  An inverse swaps n and d.  A sum over two different dens b
and d follows Henrici (J. ACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1): with
g = gcd(b, d), only gcd(numerator, g) can cancel, so coprime dens cost one
gcd of b and d and none of the sum.  Raw constructor input of ints goes
straight to that cancellation; only Fraction coefficients are cleared to
ints first.  Polynomial gcds are primitive remainder sequences (Knuth,
4.6.1): a divisor with a lead of +-1 divides exactly, with no integer gcd
per step, and a constant remainder ends the sequence.  Fraction appears
only where rationals enter or leave: from_rational, as_fraction, raw input
with Fraction coefficients (parsed a/b among them) and the read-only num
and den views, which give the value over a monic denominator.

No other module reads or builds the stored form.  Two helpers here build
it without arithmetic: omega_scalar multiplies by an omega pair (s, e),
meaning (-1)^s q^e, and Scalar.from_laurent turns an integer Laurent
polynomial {e: c} into a Scalar.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import index

_ZERO_POLY = (0,)
_ONE_POLY = (1,)


def _trim(coeffs):
    """Drop trailing zero coefficients, keeping at least one entry."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n]) or _ZERO_POLY


def _padd(a, b, k):
    """a + q^k * b for integer tuples and k >= 0, trimmed."""
    out = list(a)
    if len(out) < k + len(b):
        out.extend([0] * (k + len(b) - len(out)))
    for i, c in enumerate(b, k):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    """The product of two nonzero integer tuples."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _clear(p):
    """p as content * ints for int or Fraction coefficients p, not all zero:
    ints is an integer list with gcd 1 (signs kept), content a positive
    rational, an int when every coefficient is an int."""
    m = lcm(*[c.denominator for c in p])
    ints = [c.numerator * (m // c.denominator) for c in p]
    g = gcd(*ints)
    if g != 1:
        ints = [x // g for x in ints]
    return ints, (g if m == 1 else Fraction(g, m))


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b in Q[q], for
    integer lists with len(a) >= len(b) > 1; untrimmed, of length len(b)-1.
    When b's lead is +-1 the division is exact: the remainder itself."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    unit = lb == 1 or lb == -1
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            if unit:
                c *= lb
            else:
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
    by its content, so the coefficients stay small; a constant remainder
    means a and b are coprime."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        n = len(r)
        while n and not r[n - 1]:
            n -= 1
        if not n:
            return b if b[-1] > 0 else [-x for x in b]
        if n == 1:
            return [1]
        g = gcd(*r[:n])
        a, b = b, [x // g for x in r[:n]] if g != 1 else r[:n]
    return [1]


def _exquo(a, b):
    """a / b as a tuple, for integer sequences a and b when b divides a in
    Z[q]."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    out = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db] // lb
        if c:
            out[k] = c
            for j in range(db):
                r[k + j] -= c * b[j]
    return tuple(out)


def _common(a, b):
    """gcd(a, b) in Z[q] for nonzero integer tuples a and b, content
    included and with a positive lead, as a tuple; an integer gcd when
    either is a constant."""
    if len(a) > 1 and len(b) > 1:
        ca, cb = gcd(*a), gcd(*b)
        g = _gcd([x // ca for x in a] if ca != 1 else a,
                 [x // cb for x in b] if cb != 1 else b)
        c = gcd(ca, cb)
        return tuple(c * x for x in g) if c != 1 else tuple(g)
    return (gcd(*a, *b),)


def _cancel(a, b):
    """a / g and b / g as integer tuples, for g = _common(a, b)."""
    g = _common(a, b)
    if g == _ONE_POLY:
        return tuple(a), tuple(b)
    return _exquo(a, g), _exquo(b, g)


class Scalar:
    """An element of Q(q) in canonical Laurent form over Z."""

    __slots__ = ("shift", "n", "d")

    def __init__(self, shift=0, num=_ZERO_POLY, den=_ONE_POLY):
        if not any(den):
            raise ZeroDivisionError("scalar with zero denominator")
        raw = (*num, *den)
        for c in raw:
            if type(c) is not int:
                ints = _clear(raw)[0]
                num, den = ints[:len(num)], ints[len(num):]
                break
        n, d = _trim(num), _trim(den)
        u = 0
        while not d[u]:
            u += 1
        x = _lowest(index(shift) - u, n, d[u:])
        self.shift, self.n, self.d = x.shift, x.n, x.d

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value):
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an int or a Fraction: {value!r}")
        if not value:
            return ZERO
        d = value.denominator
        return _make(0, (value.numerator,), (d,) if d != 1 else _ONE_POLY)

    @classmethod
    def q_power(cls, k):
        return _make(index(k), _ONE_POLY, _ONE_POLY)

    @classmethod
    def from_laurent(cls, coeffs):
        """The Laurent polynomial sum c q^e of a dict {e: c} of ints.  With
        nonzero ints at both ends it is stored as it stands, over the den
        1; otherwise the constructor trims and cancels it."""
        if not coeffs:
            return ZERO
        lo = min(coeffs)
        n = tuple(coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1))
        if n[0] and n[-1]:
            return _make(lo, n, _ONE_POLY)
        return cls(lo, n)

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self.n[0]

    def is_one(self):
        return self.shift == 0 and self.n == _ONE_POLY and self.d == _ONE_POLY

    def is_sign(self):
        """True iff the scalar equals +1 or -1."""
        return self.d == _ONE_POLY and self.shift == 0 and self.n in (
            _ONE_POLY, (-1,))

    def is_rational(self):
        return self.shift == 0 and len(self.n) == 1 and len(self.d) == 1

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        return Fraction(self.n[0], self.d[0])

    @property
    def num(self):
        """The numerator over the monic den, as Fractions (read-only)."""
        return tuple(Fraction(x, self.d[-1]) for x in self.n)

    @property
    def den(self):
        """The monic denominator, as Fractions (read-only)."""
        return tuple(Fraction(x, self.d[-1]) for x in self.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        """Henrici's sum: for dens b != d with g = gcd(b, d), b = g b' and
        d = g d', the sum is (a d' + q^k c b') / (g b' d').  A prime p | b'
        that divides the numerator divides a d', against gcd(a, b) =
        gcd(b', d') = 1; for p | d' likewise, and p does not divide q since
        d[0] != 0.  So only gcd(numerator, g) can cancel; g = 1 takes none.
        Nor is such a sum zero: the canonical form is unique, so x + y = 0
        stores y as -x, with x's den, and that case takes the b == d
        branch."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.n[0]:
            return other
        if not other.n[0]:
            return self
        lo, hi = (self, other) if self.shift <= other.shift else (other, self)
        k = hi.shift - lo.shift
        a, b, c, d = lo.n, lo.d, hi.n, hi.d
        if b == d:
            return _lowest(lo.shift, _padd(a, c, k), b)
        g = _common(b, d)
        if g != _ONE_POLY:
            b, d = _exquo(b, g), _exquo(d, g)
        x = _lowest(lo.shift, _padd(_pmul(a, d), _pmul(c, b), k), g)
        return _make(x.shift, x.n, _pmul(x.d, _pmul(b, d)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.shift, _pneg(self.n), self.d)

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
        a, b, c, d = self.n, self.d, other.n, other.d
        if not a[0] or not c[0]:
            return ZERO
        shift = self.shift + other.shift
        if len(b) == 1 and len(d) == 1:
            # Laurent polynomials over constants: only a content cancels
            return _lowest(shift, _pmul(a, c), (b[0] * d[0],))
        # a/b * c/d: gcd(a, b) = gcd(c, d) = 1, so only the cross gcds can
        # cancel; they have positive leads, and so keep b's and d's.
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _make(shift, _pmul(a, c), _pmul(b, d))

    __rmul__ = __mul__

    def inverse(self):
        n, d = self.n, self.d
        if not n[0]:
            raise ZeroDivisionError("inverse of zero scalar")
        # gcd(d, n) = 1 still holds; only the new den's sign may need fixing
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return _make(-self.shift, d, n)

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
        k = index(k)
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
        return (self.shift, self.n, self.d) == (other.shift, other.n, other.d)

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.shift, self.n, self.d))

    def __bool__(self):
        return bool(self.n[0])

    # -- serialization -----------------------------------------------------

    def __str__(self):
        shift = self.shift
        s = _poly_str(self.n, max(shift, 0))
        if shift >= 0 and self.d == _ONE_POLY:
            return s
        return f"{_paren(s)}/{_paren(_poly_str(self.d, max(-shift, 0)))}"

    def __repr__(self):
        return f"Scalar({self})"

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


_new = object.__new__


def _make(shift, n, d):
    """The Scalar with the canonical fields (shift, n, d), unchecked."""
    x = _new(Scalar)
    x.shift, x.n, x.d = shift, n, d
    return x


def _lowest(shift, n, d):
    """The canonical q^shift * n / d for trimmed integer tuples n and d with
    d[0] != 0; a constant d costs one integer gcd, and d == 1 none."""
    if not n[-1]:
        return ZERO
    t = 0
    while not n[t]:
        t += 1
    if t:
        n = n[t:]
    if d == _ONE_POLY:
        d = _ONE_POLY   # one shared tuple for the den of every polynomial
    else:
        n, d = _cancel(n, d)
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
    return _make(shift + t, n, d)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    return NotImplemented


def _paren(rendered):
    """A rendered polynomial of more than one term, in parentheses."""
    tail = rendered[1:]
    if "+" in tail or "-" in tail:
        return f"({rendered})"
    return rendered


def _poly_str(coeffs, offset=0):
    """Render q^offset times an integer coefficient vector, descending
    powers of q; the work is linear in the number of coefficients."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag, e = abs(c), k + offset
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "q" if mag == 1 else f"{mag}*q"
        else:
            body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


def _split_fraction(text):
    """Split "a/b" at the top-level slash: one with as many "(" as ")"
    before it."""
    cut = None
    i = text.find("/")
    while i >= 0:
        if text.count("(", 0, i) == text.count(")", 0, i):
            if cut is not None:
                raise ValueError(f"more than one top-level '/' in {text!r}")
            cut = i
        i = text.find("/", i + 1)
    if cut is None:
        return text, None
    return text[:cut], text[cut + 1:]


# a term: a sign, then c, c*q^e, q^e, c*q or q; "*" only between c and q
_TERM_RE = re.compile(
    r"([+-]?)\s*("
    r"(?P<coef>\d+(?:/\d+)?)(?:\s*\*?\s*q(?:\^(?P<exp1>-?\d+))?)?"
    r"|q(?:\^(?P<exp2>-?\d+))?"
    r")\s*")


def _parse_poly(text):
    text = text.strip()
    # a parenthesis left inside fails the term match below, so one outer
    # pair can be dropped without checking that it is a matching pair
    if text[:1] == "(" and text[-1:] == ")":
        text = text[1:-1].strip()
    out = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (pos and not m.group(1)):
            raise ValueError(f"cannot parse scalar near {text[pos:]!r}")
        sign, body, coef, exp1, exp2 = m.groups()
        if coef is None:
            coef, exp = 1, int(exp2 or 1)
        else:
            coef = Fraction(coef) if "/" in coef else int(coef)
            exp = int(exp1 or 1) if "q" in body else 0
        out[exp] = out.get(exp, 0) + (-coef if sign == "-" else coef)
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


ZERO = _make(0, _ZERO_POLY, _ONE_POLY)
ONE = _make(0, _ONE_POLY, _ONE_POLY)
MINUS_ONE = _make(0, (-1,), _ONE_POLY)
Q = _make(1, _ONE_POLY, _ONE_POLY)


def omega_scalar(s, e, coef=ONE):
    """coef * (-1)^s q^e for an omega pair (s, e): coef's stored form
    shifted by e, its numerator negated when s is set, with no
    multiplication.  The one place a pair becomes a Scalar factor."""
    if not (s or e) or not coef.n[0]:
        return coef
    return _make(coef.shift + e, _pneg(coef.n) if s else coef.n, coef.d)
