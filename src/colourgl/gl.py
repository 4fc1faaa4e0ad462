"""The general linear Lie colour (super)algebra gl(V) of a graded space.

V is a finite dimensional graded vector space with homogeneous components
(degree alpha, multiplicity m_alpha).  Basis vectors carry a flat index
a = 0..dim-1 in the distinguished order: all even-parity degrees first.
Matrix units E_ab relative to this basis span gl(V), with bracket

    [E_ab, E_cd] = delta_bc E_ad - omega(g_a - g_b, g_c - g_d) delta_da E_cb

where g_a is the degree of the a-th basis vector.  omega between basis
indices is stored once per space as integer pairs, _omega_pairs[a][b] =
(s, e) with omega(g_a, g_b) = (-1)^s q^e; omega between sums and
differences of g's is the XOR of the signs and the sum of the exponents,
applied to a coefficient by grading.omega_scalar.  Weights live in the
basis eps_0..eps_{dim-1} of h* with (eps_a, eps_b) = parity(g_a) delta_ab.

Every sparse container of the package (GlElement here; TensorVector,
SymGroupElement, WeylElement and FockVector elsewhere) is a
LinearCombination: a dict of nonzero coefficients plus its shape, with
one addition, negation, scaling and equality.  Every algorithm that sums
into such a dict does so through _add_into.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from .grading import CommutativeFactor, omega_scalar
from .scalars import ONE, Scalar, ZERO


class SpaceMismatch(ValueError):
    """Operands built over different graded spaces."""


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
        even = [(d, m) for d, m in comps if factor.parity(d) == 1]
        odd = [(d, m) for d, m in comps if factor.parity(d) == -1]
        self.factor = factor
        self.components = tuple(even + odd)
        self.m_plus = sum(m for _, m in even)
        self.m_minus = sum(m for _, m in odd)
        self.dim = self.m_plus + self.m_minus
        self.degrees = tuple(degree for degree, mult in self.components
                             for _ in range(mult))  # flat index -> Degree
        self.parities = tuple(factor.parity(d) for d in self.degrees)
        self._copy_tables = {}

    def omega(self, a, b):
        return self.factor.omega(a, b)

    def omega_flat(self, a, b):
        """omega between the degrees of two flat basis indices."""
        return omega_scalar(*self._omega_pairs[a][b])

    @cached_property
    def _omega_pairs(self):
        """The integers (s, e) with omega_flat(a, b) = (-1)^s q^e."""
        return tuple(
            tuple(self.factor._pairings(ga, gb) for gb in self.degrees)
            for ga in self.degrees)

    def copy_tables(self, copies):
        """(odd, om) for the basis (a, r), r < copies, of V x C^copies: the
        set of odd pairs and om[g][h] = (s, e) of omega(gamma_a, gamma_b),
        built once per number of copies."""
        tables = self._copy_tables.get(copies)
        if tables is None:
            pairs = [(a, r) for a in range(self.dim) for r in range(copies)]
            rows = self._omega_pairs
            tables = self._copy_tables[copies] = (
                frozenset(g for g in pairs if self.parities[g[0]] == -1),
                {g: {h: rows[g[0]][h[0]] for h in pairs} for g in pairs})
        return tables

    def __eq__(self, other):
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
        factor = CommutativeFactor.from_json(doc["factor"])
        comps = [(factor.group.degree(*c["degree"]), c["dim"])
                 for c in doc["components"]]
        return cls(factor, comps)


def _add_into(terms, key, coef):
    """terms[key] += coef, dropping the key when the sum is zero."""
    old = terms.get(key)
    new = coef if old is None else old + coef
    if new:
        terms[key] = new
    elif old is not None:
        del terms[key]


class LinearCombination:
    """A sparse linear combination: terms maps keys to nonzero coefficients.

    A subclass keeps its shape attributes, names them in _shape() in the
    order of its constructor's leading arguments, and takes the terms
    last; operands of one type and shape combine, anything else raises
    SpaceMismatch."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

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
        if not coef:
            return type(self)(*self._shape())
        return type(self)(*self._shape(),
                          {k: coef * c for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and other._shape() == self._shape()
                and self.terms == other.terms)


class GlElement(LinearCombination):
    """A Scalar-linear combination of matrix units E_ab."""

    __slots__ = ("space",)

    def __init__(self, space, terms=None):
        self.space = space
        super().__init__(terms)

    def _shape(self):
        return (self.space,)

    @classmethod
    def matrix_unit(cls, space, a, b, coef=ONE):
        return cls(space, {(a, b): coef})

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
        deg = None
        for a, b in self.terms:
            d = self.space.degrees[a] - self.space.degrees[b]
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return deg if deg is not None else self.space.factor.group.zero()

    def homogeneous_parts(self):
        parts = {}
        for (a, b), coef in self.terms.items():
            d = self.space.degrees[a] - self.space.degrees[b]
            parts.setdefault(d, {})[(a, b)] = coef
        return {d: GlElement(self.space, t) for d, t in parts.items()}

    def __repr__(self):
        if not self.terms:
            return "GlElement(0)"
        body = " + ".join(f"({c})*E[{a},{b}]"
                          for (a, b), c in sorted(self.terms.items()))
        return f"GlElement({body})"

    def to_json(self):
        """Triples [a, b, "scalar"] over flat indices."""
        return [[a, b, str(c)] for (a, b), c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, space, doc):
        return cls(space, {(int(a), int(b)): Scalar.parse(s)
                           for a, b, s in doc})


def bracket(x, y):
    """The graded commutator, extended bilinearly over matrix units.  The
    factor omega(g_a - g_b, g_c - g_a) of the second term is the pair
    (s, e) of omega(g_a, g_c) omega(g_b, g_a) / (omega(g_a, g_a)
    omega(g_b, g_c)); its minus sign is folded into s."""
    x._check(y)
    pairs = x.space._omega_pairs
    terms = {}
    for (a, b), cx in x.terms.items():
        row_a, row_b = pairs[a], pairs[b]
        for (c, d), cy in y.terms.items():
            coef = cx * cy
            if b == c:
                _add_into(terms, (a, d), coef)
            if d == a:
                (s1, e1), (s2, e2) = row_a[c], row_b[a]
                (s3, e3), (s4, e4) = row_a[a], row_b[c]
                _add_into(terms, (c, b), omega_scalar(
                    1 ^ s1 ^ s2 ^ s3 ^ s4, e1 + e2 - e3 - e4, coef))
    return GlElement(x.space, terms)


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

def basis_weight(space, a):
    """eps_a as a coordinate vector."""
    return tuple(Fraction(int(i == a)) for i in range(space.dim))


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


def rho(space):
    """The half-sum rho = rho_0 - rho_1 in coordinates:
    rho_i = (M+ - M- - 2i + 1)/2 on the even block (i = 1..M+),
    rho_r = (M+ + M- - 2r + 1)/2 on the odd block (r = 1..M-)."""
    mp, mm = space.m_plus, space.m_minus
    coords = []
    for i in range(1, mp + 1):
        coords.append(Fraction(mp - mm - 2 * i + 1, 2))
    for r in range(1, mm + 1):
        coords.append(Fraction(mp + mm - 2 * r + 1, 2))
    return tuple(coords)


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
    """dim U(v) = 2^(M+ M-), cross-checked by enumerating the square-free
    ordered words in the odd generators E_{rbar,i}."""
    gens = [(r, i) for r in range(space.m_plus, space.dim)
            for i in range(space.m_plus)]
    count = sum(1 for k in range(len(gens) + 1)
                for _ in itertools.combinations(gens, k))
    assert count == 2 ** (space.m_plus * space.m_minus)
    return count
