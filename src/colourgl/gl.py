"""The general linear Lie colour (super)algebra gl(V) of a graded space.

V is a finite dimensional graded vector space with homogeneous components
(degree alpha, multiplicity m_alpha).  Basis vectors carry a flat index
a = 0..dim-1 in the distinguished order: all even-parity degrees first.
Parity has two owners.  GradedSpace.__init__ takes it once per component
and orders the basis by it, so that basis vector a is odd exactly when
a >= M+; every count, bound and listing on V reads it from m_plus,
m_minus or that order.  weyl.OmegaPolyAlgebra.__init__ takes it once per
distinct degree of its generators.  No other routine calls
CommutativeFactor.parity.
Matrix units E_ab relative to this basis span gl(V), with bracket

    [E_ab, E_cd] = delta_bc E_ad - omega(g_a - g_b, g_c - g_d) delta_da E_cb

where g_a is the degree of the a-th basis vector.  omega between basis
indices is stored once per space as integer pairs, _omega_pairs[a][b] =
(s, e) with omega(g_a, g_b) = (-1)^s q^e, the table that
CommutativeFactor._table builds over the basis; omega between sums and
differences of g's is the XOR of the signs and the sum of the exponents,
applied to a coefficient by scalars.omega_scalar.  _unit_bracket states
the bracket of two matrix units once, as terms with such pairs; bracket
applies it to Scalar coefficients, _bracket_ints to integer ones and
reps.KacModule.act to a Kac module's basis.
_dual_pair states the factor of E_ab on the dual space V* once, for
tensor.dual_act and weyl's fft-check.  Weights live in the basis
eps_0..eps_{dim-1} of h* with (eps_a, eps_b) = parity(g_a) delta_ab.
rho is stated once, as the integral 2 rho of _two_rho: rho halves it, and
reps reads it, so the forms-roots suite of verify checks the rho of every
weight job.

Every sparse container of the package (GlElement here; TensorVector,
SymGroupElement, WeylElement and FockVector elsewhere) is a
LinearCombination: a dict of nonzero coefficients plus its shape, with
one addition, negation, scaling and common degree or weight.  It is a
grading._Record whose fields are the shape, named by a container's own
__slots__, and then the terms, so that equality and repr are the
record's, and LinearCombination.__init__ is the one constructor: a
container writes only its __slots__.
Sums taken term by term into a dict that must stay free of zeros go
through _add_into, which drops a key whose sum is zero: the containers'
arithmetic, bracket and _bracket_ints here, and the Kac module's action
on ints.  The integer kernels of tensor (_block_sums, _act) and weyl (the
word walk, _commutator, _gl_images and the z-products of fft-check)
accumulate with dict.get and drop the zero entries once, at the end.
Their integer Laurent dicts {(word, e): n}, the terms n q^e word, are
summed by _add_ints and turned into {word: Scalar} by _to_scalars, the
one bridge from them to Scalars, for tensor, reps and weyl.

A cache whose keys are known before its check starts, and which the
check reads in full, is a table built whole before it is read:
verify.suite_jacobi's unit brackets and omegas, verify.suite_fock's
products and images, and reps.KacModule._norms.  A cache whose keys are
found while the work goes is a plain dict filled on lookup: the keys of
KacModule.act's memo are found by its recursion, those of
tensor._block_sums' factors are the letters of each word as it comes, and
weyl._commutator's products serve both gl(V) checks of fft-check, the
dual pair on pairs of E and Ecal and the filtration on E x W and W x E,
whose key sets differ from each other and from their union.  A process
memo is bounded one of two ways, the least recently used entry
dropped first: _Kept bounds a memo by the summed sizes of its entries
(tensor's Young tables and arrangements), and functools.lru_cache, on the
one function it serves, bounds a memo by its number of entries.  A
GradedSpace is a plain value and keeps no memo but its lazy omega table.

ResourceBoundExceeded.check is the package's one refusal rule: every
bound on the size of a computation, in gl, tensor, weyl and reps, is a
call to it, made before the work of that size starts; check_dimension
bounds a graded space by DIM_CAP before its degrees, or a unit preset's
forms, are built.  Its message writes a
size too long to print, past SIZE_TEXT_BITS bits, as a bound on its
digits.
"""

import itertools
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property, partial

from .grading import (CommutativeFactor, _json_int, _json_list, _json_object,
                      _Record)
from .scalars import ONE, Scalar, ZERO, omega_scalar


class SpaceMismatch(ValueError):
    """Operands built over different graded spaces."""


# most bits of a size that ResourceBoundExceeded writes out, at most 3914
# digits: Python writes no int of more than 4300 digits as text
SIZE_TEXT_BITS = 13000
# most basis vectors of a graded space: a space stores a degree and a
# parity per basis vector, and a green(n) or glq(m|n) preset n x n forms,
# about a second's work at n = 1000
DIM_CAP = 1000


class _Kept:
    """A memo that keeps its entries up to a bound on their summed sizes,
    the least recently used dropped first.  get(key) is the value kept
    under key, or None, and marks it used; put(key, value, size) keeps
    value, unless its size alone is past the bound, drops the oldest
    entries until the sizes fit and returns value."""

    __slots__ = ("bound", "held", "_entries")

    def __init__(self, bound):
        self.bound = bound
        self.held = 0  # the summed sizes of the entries
        self._entries = OrderedDict()  # key -> (value, size), oldest first

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        found = self._entries.get(key)
        if found is None:
            return None
        self._entries.move_to_end(key)
        return found[0]

    def put(self, key, value, size=1):
        if size <= self.bound:
            old = self._entries.pop(key, None)
            self.held += size - (old[1] if old else 0)
            self._entries[key] = value, size
            while self.held > self.bound:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.held -= dropped
        return value


class ResourceBoundExceeded(RuntimeError):
    """An exact computation was refused because the state space is too big.
    A size of more than SIZE_TEXT_BITS bits is written as the power of ten
    that its bit length puts below it."""

    def __init__(self, what, size, bound, unit="basis elements"):
        text = size
        if isinstance(size, int) and size.bit_length() > SIZE_TEXT_BITS:
            # 0.30102 < log10(2): size >= 2 ** (bits - 1) > 10 ** digits
            digits = (size.bit_length() - 1) * 30102 // 100000
            text = f"more than 10^{digits}"
        super().__init__(f"{what} needs {text} {unit}, above the "
                         f"bound {bound}")
        self.size = size
        self.bound = bound

    @classmethod
    def check(cls, what, size, bound, unit="basis elements"):
        """The package's one refusal rule: raise when size > bound, before
        the computation of that size starts."""
        if size > bound:
            raise cls(what, size, bound, unit)


def check_dimension(dim):
    """Refuse a graded space of more than DIM_CAP basis vectors before
    anything of its size is built."""
    ResourceBoundExceeded.check("a graded space", dim, DIM_CAP,
                                "basis vectors")


class GradedSpace:
    """A graded vector space with its commutative factor, in the
    distinguished order (even components before odd ones)."""

    def __init__(self, factor, components):
        comps = []
        for degree, mult in components:
            mult = int(mult)
            if mult <= 0:
                raise ValueError("component multiplicities must be positive")
            comps.append((degree, mult))
        seen = [d for d, _ in comps]
        if len(set(seen)) != len(seen):
            raise ValueError("component degrees must be pairwise distinct")
        # stable partition by parity keeps the user's order within each class
        parity = [factor.parity(d) for d in seen]
        even = [c for c, p in zip(comps, parity) if p == 1]
        odd = [c for c, p in zip(comps, parity) if p == -1]
        self.factor = factor
        self.components = tuple(even + odd)
        self.m_plus = sum(m for _, m in even)
        self.m_minus = sum(m for _, m in odd)
        self.dim = self.m_plus + self.m_minus
        check_dimension(self.dim)
        self.degrees = tuple(degree for degree, mult in self.components
                             for _ in range(mult))  # flat index -> Degree
        self.parities = (1,) * self.m_plus + (-1,) * self.m_minus

    def omega(self, a, b):
        return self.factor.omega(a, b)

    def omega_flat(self, a, b):
        """omega between the degrees of two flat basis indices, as a Scalar.
        The package reads the pairs of _omega_pairs instead; this stays as
        the tests' omega oracle."""
        return omega_scalar(*self._omega_pairs[a][b])

    @cached_property
    def _omega_pairs(self):
        """The integers (s, e) with omega_flat(a, b) = (-1)^s q^e: the om
        of CommutativeFactor._table over the basis."""
        return self.factor._table(self.degrees)[1]

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, GradedSpace)
                and self.factor == other.factor
                and self.components == other.components)

    def __hash__(self):
        return hash((self.factor, self.components))

    def __repr__(self):
        dims = ",".join(f"{d.coords}:{m}" for d, m in self.components)
        return f"GradedSpace({self.m_plus}|{self.m_minus}; {dims})"

    def to_json(self):
        return {
            "factor": self.factor.to_json(),
            "components": [
                {"degree": list(d.coords), "dim": m}
                for d, m in self.components
            ],
        }

    @classmethod
    def from_json(cls, doc):
        """The space of a JSON document: an object whose factor is an
        object and whose components are a list of objects, each with a
        degree, a list of JSON integers, and a dim, a JSON integer, none
        coerced.  A missing field, or a value of another JSON type, is a
        ValueError that names it."""
        factor, comps = _json_object(
            doc, "space document", factor=CommutativeFactor.from_json,
            components=partial(_json_list, read=_component))
        return cls(factor, [(factor.group.degree(degree), dim)
                            for degree, dim in comps])


def _component(doc, _):
    """The degree, a tuple of JSON integers, and the dim, a JSON integer,
    of a component document."""
    return _json_object(doc, "component", degree=_json_list, dim=_json_int)


def _bracket_pair(pairs, a, b, c, d):
    """The pair (s, e) of omega(g_a - g_b, g_c - g_d), from a space's
    _omega_pairs: omega is a bicharacter, so the XOR of four sign bits and
    a signed sum of four exponents."""
    (s1, e1), (s2, e2) = pairs[a][c], pairs[a][d]
    (s3, e3), (s4, e4) = pairs[b][c], pairs[b][d]
    return s1 ^ s2 ^ s3 ^ s4, e1 - e2 - e3 + e4


def _dual_pair(pairs, a, b):
    """The pair (s, e) of -omega(g_a - g_b, -g_a), the factor by which E_ab
    sends ebar_a to ebar_b on V*: that of omega(g_b, g_a) / omega(g_a, g_a),
    the minus sign folded into s."""
    (s1, e1), (s2, e2) = pairs[b][a], pairs[a][a]
    return 1 ^ s1 ^ s2, e1 - e2


def _add_into(terms, key, coef):
    """terms[key] += coef, dropping the key when the sum is zero."""
    old = terms.get(key)
    new = coef if old is None else old + coef
    if new:
        terms[key] = new
    elif old is not None:
        del terms[key]


def _add_ints(out, poly, coef=1, shift=0):
    """out += coef q^shift poly, for {(word, e): int} dicts."""
    for (word, e), c in poly.items():
        key = (word, e + shift)
        out[key] = out.get(key, 0) + coef * c


def _to_scalars(products):
    """{word: Scalar} from (coef, {(word, e): int}) pairs: coef times the
    Laurent polynomial p of each word, one Scalar product per word unless
    coef is ONE, as in the rows of every rank computation."""
    out = {}
    for coef, poly in products:
        by_word = {}
        for (word, e), c in poly.items():
            by_word.setdefault(word, {})[e] = c
        for word, p in by_word.items():
            p = Scalar.from_laurent(p)
            _add_into(out, word, p if coef is ONE else coef * p)
    return out


class LinearCombination(_Record):
    """A sparse linear combination: terms maps keys to nonzero coefficients.

    A subclass is a record whose own __slots__ are its shape and writes
    nothing else: its fields are the shape and then the terms, the
    constructor takes them in that order, the terms optional, and
    equality and repr come from _Record.  Operands of one type and shape
    combine, anything else raises SpaceMismatch."""

    __slots__ = ("terms",)

    def __init__(self, *fields):
        """The fields in the order of _names, the terms last and empty when
        left out; zero coefficients are dropped."""
        if not 0 <= len(self._names) - len(fields) <= 1:
            raise TypeError(f"{type(self).__name__} takes {self._names}")
        for name, value in zip(self._names, fields + (None,)):
            setattr(self, name, value)
        self.terms = {k: c for k, c in (self.terms or {}).items() if c}

    def _shape(self):
        """The shape: every field but the terms, which come last."""
        return self._fields(self)[:-1]

    def _check(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise SpaceMismatch(f"{type(self).__name__} operands of "
                                "different shape")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            _add_into(terms, key, coef)
        return type(self)(*self._shape(), terms)

    def __neg__(self):
        return type(self)(*self._shape(),
                          {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coef):
        return type(self)(*self._shape(),
                          {k: coef * c for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def _common(self, value, empty=None):
        """The value(key) that every key of the terms shares: None when two
        keys differ, and empty when there are no terms."""
        found = set(map(value, self.terms))
        if len(found) > 1:
            return None
        return found.pop() if found else empty


class GlElement(LinearCombination):
    """A Scalar-linear combination of matrix units E_ab."""

    __slots__ = ("space",)

    @classmethod
    def matrix_unit(cls, space, a, b, coef=ONE):
        return cls(space, {cls._unit(space, a, b): coef})

    @staticmethod
    def _unit(space, a, b):
        if not (0 <= a < space.dim and 0 <= b < space.dim):
            raise IndexError(f"matrix unit E[{a},{b}] out of range")
        return a, b

    def compose(self, other):
        """Composition of endomorphisms (matrix product, no omega twist)."""
        self._check(other)
        terms = {}
        for (a, b), x in self.terms.items():
            for (c, d), y in other.terms.items():
                if b == c:
                    _add_into(terms, (a, d), x * y)
        return GlElement(self.space, terms)

    def degree(self):
        """The Gamma-degree if homogeneous, else None.  Zero has any degree."""
        degrees = self.space.degrees
        return self._common(lambda ab: degrees[ab[0]] - degrees[ab[1]],
                            self.space.factor.group.zero())

    def to_json(self):
        """Triples [a, b, "scalar"] over flat indices."""
        return [[a, b, str(c)] for (a, b), c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, space, doc):
        """The element of triples [a, b, "scalar"], a and b JSON integers
        in range(dim), none coerced, and no pair (a, b) given twice."""
        terms = {}
        for a, b, s in doc:
            unit = cls._unit(space, _json_int(a, "index"),
                             _json_int(b, "index"))
            if unit in terms:
                raise ValueError(f"the index pair {unit} is given twice")
            terms[unit] = Scalar.parse(s)
        return cls(space, terms)


def _unit_bracket(pairs, a, b, c, d):
    """[E_ab, E_cd] = delta_bc E_ad - omega(g_a - g_b, g_c - g_d) delta_da
    E_cb, as its terms (i, j, s, e), each E_ij times (-1)^s q^e, with the
    minus sign folded into s and omega read from a space's _omega_pairs.
    This is the one statement of the rule: bracket applies it to Scalar
    coefficients, _bracket_ints to integer ones and reps.KacModule.act to
    a Kac module's basis."""
    terms = []
    if b == c:
        terms.append((a, d, 0, 0))
    if d == a:
        s, e = _bracket_pair(pairs, a, b, c, a)
        terms.append((c, b, 1 ^ s, e))
    return terms


def bracket(x, y):
    """The graded commutator, extended bilinearly over matrix units."""
    x._check(y)
    pairs = x.space._omega_pairs
    terms = {}
    for (a, b), cx in x.terms.items():
        for (c, d), cy in y.terms.items():
            for i, j, s, e in _unit_bracket(pairs, a, b, c, d):
                _add_into(terms, (i, j), omega_scalar(s, e, cx * cy))
    return GlElement(x.space, terms)


def _bracket_ints(pairs, x, y):
    """The bracket of two matrix-unit combinations whose coefficients are
    Laurent polynomials over Z, each a dict {((a, b), e): int} for the sum
    of n q^e E_ab (weyl's {(word, e): int} with the unit (a, b) for the
    word), with zero entries dropped: the rule of _unit_bracket on
    integers."""
    out = {}
    for ((a, b), ex), nx in x.items():
        for ((c, d), ey), ny in y.items():
            for i, j, s, e in _unit_bracket(pairs, a, b, c, d):
                _add_into(out, ((i, j), ex + ey + e),
                          -nx * ny if s else nx * ny)
    return out


def jacobi_defect(x, y, z):
    """[X,[Y,Z]] - [[X,Y],Z] - omega(d(X),d(Y)) [Y,[X,Z]]; zero on any
    homogeneous X, Y by the Jacobi axiom."""
    dx, dy = x.degree(), y.degree()
    if dx is None or dy is None:
        raise ValueError("jacobi_defect needs Gamma-homogeneous X and Y")
    om = x.space.omega(dx, dy)
    return bracket(x, bracket(y, z)) - bracket(bracket(x, y), z) \
        - bracket(y, bracket(x, z)).scale(om)


def skew_defect(x, y):
    """[X,Y] + omega(d(X),d(Y)) [Y,X]; zero on homogeneous inputs."""
    dx, dy = x.degree(), y.degree()
    if dx is None or dy is None:
        raise ValueError("skew_defect needs Gamma-homogeneous inputs")
    return bracket(x, y) + bracket(y, x).scale(x.space.omega(dx, dy))


# -- weights ----------------------------------------------------------------

def weight_inner(space, lam, mu):
    """Signed inner product sum_a parity(a) lam_a mu_a on h*."""
    if len(lam) != space.dim or len(mu) != space.dim:
        raise ValueError("weight length does not match dim V")
    return sum(Fraction(s) * Fraction(x) * Fraction(y)
               for s, x, y in zip(space.parities, lam, mu))


def positive_roots(space):
    """(Phi0+, Phi1+): even and odd positive roots eps_a - eps_b, a < b."""
    even, odd = [], []
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            root = tuple(Fraction(int(i == a)) - Fraction(int(i == b))
                         for i in range(space.dim))
            if space.parities[a] == space.parities[b]:
                even.append(root)
            else:
                odd.append(root)
    return even, odd


def _two_rho(space):
    """2 rho, which is integral: M+ - M- - 2i + 1 on the even block
    (i = 1..M+) and M+ + M- - 2r + 1 on the odd block (r = 1..M-).  The
    one statement of rho: rho halves it, and reps reads it for typicality,
    the classification and the Casimir eigenvalue."""
    mp, mm = space.m_plus, space.m_minus
    return (*range(mp - mm - 1, -mp - mm - 1, -2),
            *range(mp + mm - 1, mp - mm - 1, -2))


def rho(space):
    """The half-sum rho = rho_0 - rho_1 in coordinates, half of _two_rho."""
    return tuple(Fraction(x, 2) for x in _two_rho(space))


def weyl_orbit(space, lam):
    """Orbit of lam under W = Sym_{M+} x Sym_{M-} permuting the parity
    blocks independently."""
    lam = tuple(Fraction(x) for x in lam)
    mp = space.m_plus
    plus, minus = lam[:mp], lam[mp:]
    orbit = set()
    for p in set(itertools.permutations(plus)):
        for m in set(itertools.permutations(minus)):
            orbit.add(p + m)
    return orbit


def supertrace(x):
    """tr_omega(X) = sum_a parity(a) X_aa."""
    total = ZERO
    for (a, b), coef in x.terms.items():
        if a == b:
            sign = x.space.parities[a]
            total = total + (coef if sign == 1 else -coef)
    return total


def bilinear_form(x, y):
    """(X, Y) = tr_omega(X Y); nondegenerate, omega-symmetric, ad-invariant."""
    x._check(y)
    return supertrace(x.compose(y))


def pbw_dimension_nilradical(space):
    """dim U(v) = 2^(M+ M-): U(v) has a basis of the square-free ordered
    words in the M+ M- odd generators E_{rbar,i}, and these number
    sum_k comb(M+ M-, k) = 2^(M+ M-) by the binomial theorem."""
    return 2 ** (space.m_plus * space.m_minus)
