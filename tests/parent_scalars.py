"""The general path of the Scalar kernel as it was before the Henrici sum,
the int constructor and the one-pass parse, kept verbatim as oracles for
tests/test_scalar_general_path.py, and the remainder sequence, the int
constructor and the printer as they were before a unit lead divided
exactly, a constant remainder ended the sequence and the constructor and
_paren lost their generators, and the product as it was before its
monomial branches and _exquo's constant-divisor shortcut went, all kept
verbatim as oracles for tests/test_scalar_kernels.py.

Scalar.__init__ cleared every raw input by _clear, Scalar.__add__ of two
different denominators took one gcd of the whole sum against b * d, and
the parser scanned its text one character at a time.  Then
Scalar.__init__ cleared only input that is not all ints (construct), and
_prem took gcd(c, lb) at every step.  Then Scalar.__mul__ rescaled the
other factor of a monomial (p/r) q^s by _scaled, and _exquo divided by a
constant divisor at once.  _prem, _gcd, _exquo, _cancel, _lowest and
_paren are here as they were, so that the oracles share no changed code
with the package; the unchanged helpers are imported below.  The later
_exquo, _cancel and _common that the product took are _tuple_exquo,
_common_cancel and _common here.  The methods are module functions:
init(shift, num, den), construct(shift, num, den) and parse(text) give the
stored (shift, n, d) triple, add(x, y) and mul(x, y) a Scalar and text(x)
its str.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import index

from colourgl.scalars import (ZERO, _ONE_POLY, _coeffs, _coerce, _clear,
                              _make, _padd, _pmul, _pneg, _poly_str, _trim)


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


def _paren(rendered):
    """A rendered polynomial of more than one term, in parentheses."""
    if any(ch in rendered[1:] for ch in "+-"):
        return f"({rendered})"
    return rendered


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


def _cancel(a, b):
    """a / g and b / g as integer tuples, for g = gcd(a, b) in Z[q] with the
    content included and a positive lead, and nonzero integer tuples a, b."""
    if len(a) > 1 and len(b) > 1:
        ca, cb = gcd(*a), gcd(*b)
        g = _gcd([x // ca for x in a] if ca != 1 else a,
                 [x // cb for x in b] if cb != 1 else b)
        if len(g) > 1:
            a, b = _exquo(a, g), _exquo(b, g)
        c = gcd(ca, cb)
    else:
        c = gcd(*a, *b)
    if c != 1:
        return tuple(x // c for x in a), tuple(x // c for x in b)
    return tuple(a), tuple(b)


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


def init(shift=0, num=(0,), den=_ONE_POLY):
    """Scalar.__init__: the stored (shift, n, d) of a raw input."""
    if not any(den):
        raise ZeroDivisionError("scalar with zero denominator")
    ints = _clear((*num, *den))[0]
    n, d = _trim(ints[:len(num)]), _trim(ints[len(num):])
    u = next(i for i, c in enumerate(d) if c)
    x = _lowest(index(shift) - u, n, d[u:])
    return x.shift, x.n, x.d


def construct(shift=0, num=(0,), den=_ONE_POLY):
    """Scalar.__init__ with the int test: the stored (shift, n, d)."""
    if not any(den):
        raise ZeroDivisionError("scalar with zero denominator")
    if not all(type(c) is int for c in (*num, *den)):
        ints = _clear((*num, *den))[0]
        num, den = ints[:len(num)], ints[len(num):]
    n, d = _trim(num), _trim(den)
    u = 0
    while not d[u]:
        u += 1
    x = _lowest(index(shift) - u, n, d[u:])
    return x.shift, x.n, x.d


def text(self):
    """Scalar.__str__."""
    shift = self.shift
    s = _poly_str(self.n, max(shift, 0))
    if shift >= 0 and self.d == _ONE_POLY:
        return s
    return f"{_paren(s)}/{_paren(_poly_str(self.d, max(-shift, 0)))}"


def add(self, other):
    """Scalar.__add__."""
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
    if b != d:
        if len(b) == 1 and len(d) == 1:
            # Laurent polynomials over constants: one lcm, then one gcd
            m = lcm(b[0], d[0])
            a, c, b = _pmul(a, (m // b[0],)), _pmul(c, (m // d[0],)), (m,)
        else:
            a, c, b = _pmul(a, d), _pmul(c, b), _pmul(b, d)
    return _lowest(lo.shift, _padd(a, c, k), b)


def parse(text):
    """Scalar.parse: the stored (shift, n, d) of a text."""
    num_s, den_s = _split_fraction(text.strip())
    lo_n, num = _coeffs(_parse_poly(num_s))
    lo_d, den = 0, _ONE_POLY
    if den_s is not None:
        lo_d, den = _coeffs(_parse_poly(den_s))
    return init(lo_n - lo_d, num, den)


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


def _tuple_exquo(a, b):
    """a / b as a tuple, for integer sequences a and b when b divides a in
    Z[q]."""
    db, lb = len(b) - 1, b[-1]
    if not db:
        return tuple(x // lb for x in a)
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


def _common_cancel(a, b):
    """a / g and b / g as integer tuples, for g = _common(a, b)."""
    g = _common(a, b)
    if g == _ONE_POLY:
        return tuple(a), tuple(b)
    return _tuple_exquo(a, g), _tuple_exquo(b, g)


def _scaled(shift, n, d, p, r):
    """q^shift * (p/r) * n/d for canonical n/d and a nonzero rational p/r in
    lowest terms with r > 0: gcd(p, content d) and gcd(r, content n) are
    the only common factors, so no polynomial gcd is taken."""
    if p != 1:
        g = gcd(p, *d)
        if g != 1:
            p, d = p // g, tuple(x // g for x in d)
        if p != 1:
            n = tuple(p * x for x in n)
    if r != 1:
        g = gcd(r, *n)
        if g != 1:
            r, n = r // g, tuple(x // g for x in n)
        if r != 1:
            d = tuple(r * x for x in d)
    return _make(shift, n, d)


def mul(self, other):
    """Scalar.__mul__."""
    other = _coerce(other)
    if other is NotImplemented:
        return NotImplemented
    a, b, c, d = self.n, self.d, other.n, other.d
    if not a[0] or not c[0]:
        return ZERO
    shift = self.shift + other.shift
    # a monomial factor (p/r) q^s keeps the other factor in lowest terms
    if len(c) == 1 and len(d) == 1:
        return _scaled(shift, a, b, c[0], d[0])
    if len(a) == 1 and len(b) == 1:
        return _scaled(shift, c, d, a[0], b[0])
    if len(b) == 1 and len(d) == 1:
        # Laurent polynomials over constants: only a content cancels
        return _lowest(shift, _pmul(a, c), (b[0] * d[0],))
    # a/b * c/d: gcd(a, b) = gcd(c, d) = 1, so only the cross gcds can
    # cancel; they have positive leads, and so keep b's and d's.
    a, d = _common_cancel(a, d)
    c, b = _common_cancel(c, b)
    return _make(shift, _pmul(a, c), _pmul(b, d))
