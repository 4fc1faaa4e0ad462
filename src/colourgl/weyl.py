"""The Weyl algebra on N copies of V, Fock modules and dual pairs.

Generators x(a,r) and d(a,r) are indexed by a flat basis index a and a copy
index r < N; x(a,r) has degree gamma_a and d(a,r) degree -gamma_a.  Words
are normal ordered: all x's left of all d's, each block sorted by (a, r),
odd generators square-free.  The straightening rule is the graded CCR

    d(a,r) x(b,s) = omega(-gamma_a, gamma_b) x(b,s) d(a,r) + delta_ab delta_rs.

Graded-commutative straightening is one routine, _merge: the product of
two sorted words, each letter of the right word entering from the right
and passing the larger letters before it.  It multiplies x-words, Fock
monomials and OmegaPolyAlgebra monomials, and merges a d into a d-word
from the left as _merge((d,), ds).  One walk, _derive, gives d_g's
contractions against an x-monomial and the pair for d_g passing all of
it.  Both sum integer pairs om[g][h] = (s, e) with omega(gamma_g,
gamma_h) = (-1)^s q^e, built once per (space, copies) by
GradedSpace.copy_tables and once per OmegaPolyAlgebra, and apply the sum
to the coefficient once, by grading.omega_scalar.  As omega is a
commutative factor (Scheunert 1979), omega(-a, -b) = omega(a, b) and
omega(-gamma_g, gamma_h) = omega(gamma_h, gamma_g), so that one table
serves x's, d's and contractions.

Exact elimination over Q(q) is one step, _reduce, which inserts a sparse
row into an echelon dict keyed by pivot column; rank_of_rows and the
lowest-weight search of reps both run on it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb

from .gl import (GlElement, LinearCombination, SpaceMismatch, _add_into,
                 bracket)
from .grading import omega_scalar
from .partitions import (count_hook_tableaux, dim_glN, hook_partitions,
                         in_hook, lambda_sharp)
from .scalars import MINUS_ONE, ONE
from .tensor import dual_act


MONOMIAL_CAP = 10 ** 6
# most (x-monomials of degree d) ** 2 that invariant_dimension will reduce
INVARIANT_BASIS_CAP = 20000


class ResourceBoundExceeded(RuntimeError):
    """An exact computation was refused because the state space is too big."""

    def __init__(self, what, size, bound):
        super().__init__(f"{what} needs {size} basis elements, above the "
                         f"bound {bound}")
        self.size = size
        self.bound = bound


def _multichoose(n, k):
    """Multisets of size k from n symbols; 1 for k = 0 even when n = 0."""
    if k == 0:
        return 1
    return comb(n + k - 1, k) if n > 0 else 0


class WeylElement(LinearCombination):
    """A Scalar-linear combination of normal-ordered words (xs, ds)."""

    __slots__ = ("space", "copies")

    def __init__(self, space, copies, terms=None):
        self.space = space
        self.copies = copies
        super().__init__(terms)

    def _shape(self):
        return (self.space, self.copies)

    @classmethod
    def one(cls, space, copies):
        return cls(space, copies, {((), ()): ONE})

    @classmethod
    def x_gen(cls, space, copies, a, r):
        cls._check_gen(space, copies, a, r)
        return cls(space, copies, {(((a, r),), ()): ONE})

    @classmethod
    def d_gen(cls, space, copies, a, r):
        cls._check_gen(space, copies, a, r)
        return cls(space, copies, {((), ((a, r),)): ONE})

    @staticmethod
    def _check_gen(space, copies, a, r):
        if not (0 <= a < space.dim and 0 <= r < copies):
            raise IndexError(f"generator ({a},{r}) out of range")

    def degree(self):
        """Gamma-degree when homogeneous, else None."""
        deg = None
        space = self.space
        for xs, ds in self.terms:
            d = space.factor.group.zero()
            for a, _ in xs:
                d = d + space.degrees[a]
            for a, _ in ds:
                d = d - space.degrees[a]
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return deg if deg is not None else space.factor.group.zero()

    def __repr__(self):
        if not self.terms:
            return "WeylElement(0)"
        def gen(s, g):
            return f"{s}[{g[0]},{g[1]}]"
        body = " + ".join(
            "({})*{}".format(c, " ".join(
                [gen("x", g) for g in xs] + [gen("d", g) for g in ds]) or "1")
            for (xs, ds), c in sorted(self.terms.items()))
        return f"WeylElement({body})"


def _merge(w1, w2, odd, om, coef=ONE):
    """The product coef * w1 * w2 of sorted graded-commutative words.  Each
    generator g of w2 enters from the right and passes the larger letters
    h before it, each pass adding the pair om[h][g].  Returns (coefficient,
    sorted word), or None when an odd generator repeats."""
    s, e, word = 0, 0, w1
    for g in w2:
        if g in odd and g in word:
            return None
        pos = len(word)
        while pos and word[pos - 1] > g:
            pos -= 1
            sh, eh = om[word[pos]][g]
            s ^= sh
            e += eh
        word = word[:pos] + (g,) + word[pos:]
    return omega_scalar(s, e, coef), word


def _derive(g, mono, om, coef=ONE):
    """coef * d_g on an x-monomial, d_g a graded derivation of degree
    -gamma_g: ([(coefficient, monomial)], the pair (s, e) of d_g passing
    all of mono).  d_g passes x_h with omega(-gamma_g, gamma_h), the pair
    om[h][g]."""
    out = []
    s = e = 0
    for j, h in enumerate(mono):
        if h == g:
            out.append((omega_scalar(s, e, coef), mono[:j] + mono[j + 1:]))
        sh, eh = om[h][g]
        s ^= sh
        e += eh
    return out, (s, e)


def weyl_multiply(u, v):
    """Normal-ordered product in the Weyl algebra."""
    u._check(v)
    odd, om = u.space.copy_tables(u.copies)
    out = {}

    def reduce_term(xs1, ds1, xs2, ds2, coef):
        if not ds1:
            merged = _merge(xs1, xs2, odd, om, coef)
            if merged is not None:
                _add_into(out, (merged[1], ds2), merged[0])
            return
        d = ds1[-1]
        rest = ds1[:-1]
        contractions, passing = _derive(d, xs2, om, coef)
        for c, xs in contractions:
            reduce_term(xs1, rest, xs, ds2, c)
        # d passes the whole x block and merges into ds2 from the left
        merged = _merge((d,), ds2, odd, om, omega_scalar(*passing, coef))
        if merged is not None:
            reduce_term(xs1, rest, xs2, merged[1], merged[0])

    for (xs1, ds1), cu in u.terms.items():
        for (xs2, ds2), cv in v.terms.items():
            reduce_term(xs1, ds1, xs2, ds2, cu * cv)
    return WeylElement(u.space, u.copies, out)


def weyl_bracket(u, v):
    """Graded commutator u v - omega(d(u), d(v)) v u for homogeneous u, v."""
    du, dv = u.degree(), v.degree()
    if du is None or dv is None:
        raise ValueError("weyl_bracket needs Gamma-homogeneous operands")
    om = u.space.omega(du, dv)
    return weyl_multiply(u, v) - weyl_multiply(v, u).scale(om)


class FockVector(LinearCombination):
    """An element of the Fock space C_omega[x]: a combination of sorted
    x-monomials (tuples of (a, r) pairs)."""

    __slots__ = ("space", "copies")

    def __init__(self, space, copies, terms=None):
        self.space = space
        self.copies = copies
        super().__init__(terms)

    def _shape(self):
        return (self.space, self.copies)

    @classmethod
    def vacuum(cls, space, copies):
        return cls(space, copies, {(): ONE})

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        body = " + ".join(
            "({})*{}".format(c, " ".join(f"x[{a},{r}]" for a, r in m) or "1")
            for m, c in sorted(self.terms.items()))
        return f"FockVector({body})"


def fock_apply(u, f):
    """Apply a Weyl element to a Fock vector: d's act as derivations,
    x's by multiplication."""
    if u.space != f.space or u.copies != f.copies:
        raise SpaceMismatch("operator and Fock vector mismatch")
    odd, om = u.space.copy_tables(u.copies)
    out = {}
    for (xs, ds), cu in u.terms.items():
        for mono, cf in f.terms.items():
            stage = {mono: cu * cf}
            for g in reversed(ds):
                nxt = {}
                for m, c in stage.items():
                    for dc, dm in _derive(g, m, om, c)[0]:
                        _add_into(nxt, dm, dc)
                stage = nxt
            for m, c in stage.items():
                merged = _merge(xs, m, odd, om, c)
                if merged is not None:
                    _add_into(out, merged[1], merged[0])
    return FockVector(f.space, f.copies, out)


def dual_pair_generators(space, copies):
    """(E, Ecal): E[r][s] = sum_a x(a,r) d(a,s) spanning gl_N, and
    Ecal[(a,b)] = sum_r x(a,r) d(b,r) spanning a copy of gl(V)."""
    E = [[WeylElement(space, copies,
                      {(((a, r),), ((a, s),)): ONE for a in range(space.dim)})
          for s in range(copies)] for r in range(copies)]
    Ecal = {(a, b): WeylElement(space, copies,
                                {(((a, r),), ((b, r),)): ONE
                                 for r in range(copies)})
            for a in range(space.dim) for b in range(space.dim)}
    return E, Ecal


def verify_dual_pair(space, copies):
    """Exhaustively check eq. families for the dual pair: gl_N relations,
    gl(V) relations matching the abstract bracket, and [E, Ecal] = 0."""
    E, Ecal = dual_pair_generators(space, copies)
    n = space.dim
    for r in range(copies):
        for s in range(copies):
            for t in range(copies):
                for u in range(copies):
                    lhs = weyl_bracket(E[r][s], E[t][u])
                    rhs = WeylElement(space, copies)
                    if s == t:
                        rhs = rhs + E[r][u]
                    if r == u:
                        rhs = rhs - E[t][s]
                    if not (lhs - rhs).is_zero():
                        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    abstract = bracket(GlElement.matrix_unit(space, a, b),
                                       GlElement.matrix_unit(space, c, d))
                    lhs = weyl_bracket(Ecal[(a, b)], Ecal[(c, d)])
                    rhs = WeylElement(space, copies)
                    for (p, q), coef in abstract.terms.items():
                        rhs = rhs + Ecal[(p, q)].scale(coef)
                    if not (lhs - rhs).is_zero():
                        return False
    for r in range(copies):
        for s in range(copies):
            for a in range(n):
                for b in range(n):
                    lhs = weyl_multiply(E[r][s], Ecal[(a, b)])
                    rhs = weyl_multiply(Ecal[(a, b)], E[r][s])
                    if not (lhs - rhs).is_zero():
                        return False
    return True


# -- graded commutative algebras on explicit generator lists ----------------

class OmegaPolyAlgebra:
    """S_omega on a list of generators with given Gamma-degrees: sorted
    monomials, graded-commutative straightening, derivation actions."""

    def __init__(self, factor, degrees):
        self.factor = factor
        self.degrees = list(degrees)
        self.parities = [factor.parity(d) for d in self.degrees]

    def monomials(self, total):
        """Sorted degree-`total` monomials, odd generators square-free, in
        lexicographic order."""
        n = len(self.parities)
        room = [0] * (n + 1)  # most generators the suffix g.. can supply
        for g in range(n - 1, -1, -1):
            room[g] = total if self.parities[g] == 1 else room[g + 1] + 1
        out = []
        _grow_monomials(self.parities, room, 0, total, (), out)
        return out

    def count_monomials(self, total):
        even = sum(1 for p in self.parities if p == 1)
        odd = len(self.parities) - even
        return sum(_multichoose(even, total - j) * comb(odd, j)
                   for j in range(min(odd, total) + 1))

    @cached_property
    def _tables(self):
        """(odd, om) for _merge: the odd generators and om[g][h] = the
        pair (s, e) of omega(degree of g, degree of h), built on the first
        product."""
        n = len(self.degrees)
        return (frozenset(g for g in range(n) if self.parities[g] == -1),
                tuple(tuple(self.factor._pairings(self.degrees[g],
                                                  self.degrees[h])
                            for h in range(n)) for g in range(n)))

    def multiply(self, m1, m2):
        """(coefficient, sorted monomial) or None when a square vanishes."""
        odd, om = self._tables
        return _merge(m1, m2, odd, om)

    def derivation_apply(self, action, x_degree, mono):
        """Extend a degree-x_degree action on generators to the monomial by
        the graded Leibniz rule.  action maps g -> [(g', Scalar)]."""
        odd, om = self._tables
        out = {}
        prefix = ONE
        for j, g in enumerate(mono):
            if j:
                prefix = prefix * self.factor.omega(
                    x_degree, self.degrees[mono[j - 1]])
            for g2, coef in action.get(g, ()):
                # g2 replaces g at slot j and straightens into place
                merged = _merge(mono[:j], (g2,) + mono[j + 1:], odd, om,
                                prefix * coef)
                if merged is not None:
                    _add_into(out, merged[1], merged[0])
        return out


def _grow_monomials(parities, room, start, left, prefix, out):
    """Append to out every sorted completion of prefix by `left` generators
    >= start: each next generator g comes with a multiplicity k >= 1, at
    most 1 for an odd g, and at least what the generators after g cannot
    supply.  Larger k first keeps the lexicographic order."""
    if not left:
        out.append(prefix)
        return
    n = len(parities)
    for g in range(start, n):
        if room[g] < left:
            break
        low = left - room[g + 1]
        for k in range(left if parities[g] == 1 else 1,
                       low - 1 if low > 0 else 0, -1):
            run = prefix + (g,) * k
            if k == left:
                out.append(run)
            elif k == left - 1:  # any one later generator completes it
                out.extend([run + (h,) for h in range(g + 1, n)])
            else:
                _grow_monomials(parities, room, g + 1, left - k, run, out)


# -- Howe duality dimension sweeps -------------------------------------------

def fock_algebra(space, copies, dual=False):
    sign = -1 if dual else 1
    degrees = []
    for a in range(space.dim):
        for _ in range(copies):
            degrees.append(space.degrees[a] if sign == 1
                           else -space.degrees[a])
    return OmegaPolyAlgebra(space.factor, degrees)


def _guard_monomials(alg, max_degree):
    """Refuse, before enumerating anything, a sweep whose monomials of
    degree <= max_degree number more than MONOMIAL_CAP."""
    size = 0
    for d in range(max_degree + 1):
        size += alg.count_monomials(d)
        if size > MONOMIAL_CAP:
            raise ResourceBoundExceeded(f"the sweep to degree {d}", size,
                                        MONOMIAL_CAP)


def howe_dimension_sweep(space, copies, max_degree, dual=False):
    """Per degree d: dim S^d (monomial count, cross-checked against
    count_monomials) against sum_lambda k(lambda) dim L_lambda(gl_N)."""
    alg = fock_algebra(space, copies, dual=dual)
    _guard_monomials(alg, max_degree)
    rows = []
    for d in range(max_degree + 1):
        count = len(alg.monomials(d))
        closed = alg.count_monomials(d)
        if count != closed:
            raise AssertionError(
                f"monomial count {count} != closed form {closed} at d={d}")
        total = sum(count_hook_tableaux(lam, space.m_plus, space.m_minus)
                    * dim_glN(lam, copies)
                    for lam in hook_partitions(space.m_plus, space.m_minus,
                                               copies, d))
        rows.append({"degree": d, "fock_dimension": count,
                     "module_sum": total, "equal": count == total})
    return rows


def howe_dual_sweep(space, copies, max_degree):
    return howe_dimension_sweep(space, copies, max_degree, dual=True)


def glvv_decomposition(space_v, space_w, max_degree):
    """Howe duality for a pair of graded spaces: per-degree dimension of
    S_omega(V* x W) against sum_lambda k_V(lambda) k_W(lambda), plus the
    paired-weight table for |lambda| <= max_degree."""
    if space_v.factor != space_w.factor:
        raise SpaceMismatch("spaces must share one commutative factor")
    degrees = [dw - dv
               for dv in space_v.degrees for dw in space_w.degrees]
    alg = OmegaPolyAlgebra(space_v.factor, degrees)
    _guard_monomials(alg, max_degree)
    rows = []
    for d in range(max_degree + 1):
        count = len(alg.monomials(d))
        total = sum(
            count_hook_tableaux(lam, space_v.m_plus, space_v.m_minus)
            * count_hook_tableaux(lam, space_w.m_plus, space_w.m_minus)
            for lam in hook_partitions(space_v.m_plus, space_v.m_minus, d, d))
        rows.append({"degree": d, "algebra_dimension": count,
                     "module_sum": total, "equal": count == total})
    pairs = []
    for d in range(max_degree + 1):
        for lam in hook_partitions(space_v.m_plus, space_v.m_minus, d, d):
            if in_hook(lam, space_w.m_plus, space_w.m_minus):
                pairs.append({
                    "partition": lam,
                    "sharp_v": lambda_sharp(lam, space_v.m_plus,
                                            space_v.m_minus),
                    "sharp_w": lambda_sharp(lam, space_w.m_plus,
                                            space_w.m_minus),
                })
    return rows, pairs


# -- exact linear algebra over Q(q) ------------------------------------------

def _reduce(echelon, row):
    """Reduce a sparse row (dict column -> Scalar) against echelon, which
    maps each pivot column to a row whose least column it is, with entry
    ONE.  An independent remainder is normalised the same way, inserted
    and returned; a dependent row gives None and leaves echelon as it is."""
    row = dict(row)
    while row:
        col = min(row)
        pivot = echelon.get(col)
        if pivot is None:
            inv = row[col].inverse()
            row = echelon[col] = {c: v * inv for c, v in row.items()}
            return row
        coef = row[col]
        for c, v in pivot.items():
            _add_into(row, c, -coef * v)
    return None


def rank_of_rows(rows):
    """Row rank of sparse rows (dicts column -> Scalar) over Q(q)."""
    echelon = {}
    return sum(_reduce(echelon, row) is not None for row in rows)


def _gl_action_on_generators(space_v, copies, dual_copies):
    """Generator-level action of each E_ab on the combined algebra
    S_omega(V^N + Vbar^N'): x(c,r) -> delta x(a,r), xbar(c,s) ->
    -omega(d(X), -gamma_c) delta xbar(b,s), as dual_act acts on V*."""
    n = space_v.dim

    def x_id(a, r):
        return a * copies + r

    def xbar_id(a, s):
        return n * copies + a * dual_copies + s

    actions = {}
    for a in range(n):
        for b in range(n):
            deg = space_v.degrees[a] - space_v.degrees[b]
            act = {}
            for r in range(copies):
                act[x_id(b, r)] = [(x_id(a, r), ONE)]
            om = dual_act(GlElement.matrix_unit(space_v, a, b), {a: ONE})[b]
            for s in range(dual_copies):
                act[xbar_id(a, s)] = [(xbar_id(b, s), om)]
            actions[(a, b)] = (deg, act)
    return actions


def mixed_algebra(space, copies, dual_copies):
    degrees = [space.degrees[a] for a in range(space.dim)
               for _ in range(copies)]
    degrees += [-space.degrees[a] for a in range(space.dim)
                for _ in range(dual_copies)]
    return OmegaPolyAlgebra(space.factor, degrees)


def invariant_dimension(space, copies, dual_copies, degree):
    """Dimension of the gl(V)-invariants in the bidegree (d, d) component
    of S_omega(V^N + Vbar^N'), by exact nullspace over Q(q).

    Verifies the count against the second fundamental theorem sum
    sum_lambda dim L_lambda(gl_N) dim L_lambda(gl_N') and that degree-d
    products of the quadratic invariants z_rs span the kernel."""
    n = space.dim
    alg = mixed_algebra(space, copies, dual_copies)
    x_monos = fock_algebra(space, copies).monomials(degree)
    size_estimate = len(x_monos) ** 2
    if size_estimate > INVARIANT_BASIS_CAP:
        raise ResourceBoundExceeded("invariant_dimension", size_estimate,
                                    INVARIANT_BASIS_CAP)

    def flat_count(mono, offset, copies_):
        counts = [0] * n
        for g in mono:
            counts[(g - offset) // copies_] += 1
        return tuple(counts)

    # zero-weight basis: x-part and dual-part use each flat index equally
    by_type = {}
    for mono in x_monos:
        by_type.setdefault(flat_count(mono, 0, copies), []).append(mono)
    basis = []
    xbar_monos = {}
    for mono in fock_algebra(space, dual_copies, dual=True).monomials(degree):
        shifted = tuple(g + n * copies for g in mono)
        xbar_monos.setdefault(flat_count(shifted, n * copies, dual_copies),
                              []).append(shifted)
    for typ, xs in sorted(by_type.items()):
        for xb in xbar_monos.get(typ, ()):
            for xm in xs:
                merged = alg.multiply(xm, xb)
                assert merged is not None and merged[0].is_one()
                basis.append(merged[1])
    basis.sort()
    index = {mono: i for i, mono in enumerate(basis)}

    actions = _gl_action_on_generators(space, copies, dual_copies)
    rows = []
    for (a, b), (deg, act) in sorted(actions.items()):
        if a == b:
            continue  # Cartan generators vanish on the zero-weight basis
        images = {}
        for i, mono in enumerate(basis):
            for target, coef in alg.derivation_apply(act, deg, mono).items():
                images.setdefault(target, {})[i] = coef
        rows.extend(images.values())
    nullity = len(basis) - rank_of_rows(rows)

    expected = sum(dim_glN(lam, copies) * dim_glN(lam, dual_copies)
                   for lam in hook_partitions(space.m_plus, space.m_minus,
                                              degree, degree))
    if nullity != expected:
        raise AssertionError(
            f"invariant dimension {nullity} != structure sum {expected}")

    z_elems = {}
    for r in range(copies):
        for s in range(dual_copies):
            vec = {}
            for a in range(n):
                mono = (a * copies + r, n * copies + a * dual_copies + s)
                vec[mono] = ONE
            z_elems[(r, s)] = vec
    products = []
    for combo in itertools.combinations_with_replacement(
            sorted(z_elems), degree):
        vec = {(): ONE}
        for key in combo:
            nxt = {}
            for m1, c1 in vec.items():
                for m2, c2 in z_elems[key].items():
                    merged = alg.multiply(m1, m2)
                    if merged is not None:
                        _add_into(nxt, merged[1], c1 * c2 * merged[0])
            vec = nxt
        if vec:
            products.append(vec)
    # each product must be killed by every generator
    for vec in products:
        for (a, b), (deg, act) in actions.items():
            defect = {}
            for mono, coef in vec.items():
                for tgt, c in alg.derivation_apply(act, deg, mono).items():
                    _add_into(defect, tgt, coef * c)
            if defect:
                raise AssertionError(
                    f"z-monomial not invariant under E[{a},{b}]")
    span_rows = [{index[m]: c for m, c in vec.items()} for vec in products]
    if rank_of_rows(span_rows) != nullity:
        raise AssertionError("z-monomials do not span the invariants")
    return nullity


def invariant_generators_check(space, copies):
    """Filtration-level-1 check: the ad(gl_N)-invariants in the (1,1)
    component of the Weyl algebra are exactly span{Ecal} + C."""
    E, Ecal = dual_pair_generators(space, copies)
    gens = [(a, r) for a in range(space.dim) for r in range(copies)]
    words = [((g,), (h,)) for g in gens for h in gens]
    windex = {w: i for i, w in enumerate(words)}
    rows = []
    for r in range(copies):
        for s in range(copies):
            images = {}
            for i, (xs, ds) in enumerate(words):
                u = WeylElement(space, copies, {(xs, ds): ONE})
                br = weyl_multiply(E[r][s], u) - weyl_multiply(u, E[r][s])
                for key, coef in br.terms.items():
                    images.setdefault(key, {})[i] = coef
            rows.extend(images.values())
    nullity = len(words) - rank_of_rows(rows)
    if nullity != space.dim ** 2:
        return False
    # the Ecal's must be independent members of the kernel
    ecal_rows = []
    for (a, b), elt in Ecal.items():
        for r in range(copies):
            for s in range(copies):
                if not (weyl_multiply(E[r][s], elt)
                        - weyl_multiply(elt, E[r][s])).is_zero():
                    return False
        ecal_rows.append({windex[key]: coef
                          for key, coef in elt.terms.items()})
    return rank_of_rows(ecal_rows) == space.dim ** 2


def glq_relations_check(m, n, copies, max_degree=4):
    """Instantiate gl_q(m|n) on Z^(m+n) and verify the four defining
    relation families of its Weyl algebra as Laurent-polynomial identities,
    then run the Howe dimension sweep."""
    from .presets import glq_space
    from .scalars import Q

    space = glq_space(m, n)
    total = m + n
    relations_ok = True

    def xg(i, r):
        return WeylElement.x_gen(space, copies, i, r)

    def dg(i, r):
        return WeylElement.d_gen(space, copies, i, r)

    def sign(i, j):
        return MINUS_ONE if (i >= m and j >= m) else ONE

    for i in range(total):
        for r in range(copies):
            for s in range(copies):
                # x_i^r x_i^s = (-1)^[i] x_i^s x_i^r and the d analogue
                lhs = weyl_multiply(xg(i, r), xg(i, s))
                rhs = weyl_multiply(xg(i, s), xg(i, r)).scale(sign(i, i))
                relations_ok &= (lhs - rhs).is_zero()
                lhs = weyl_multiply(dg(i, r), dg(i, s))
                rhs = weyl_multiply(dg(i, s), dg(i, r)).scale(sign(i, i))
                relations_ok &= (lhs - rhs).is_zero()
                # d_i^r x_i^s - (-1)^[i] x_i^s d_i^r = delta_rs
                lhs = weyl_multiply(dg(i, r), xg(i, s)) \
                    - weyl_multiply(xg(i, s), dg(i, r)).scale(sign(i, i))
                rhs = WeylElement.one(space, copies) if r == s \
                    else WeylElement(space, copies)
                relations_ok &= (lhs - rhs).is_zero()
            for j in range(i + 1, total):
                for s in range(copies):
                    q = Q
                    lhs = weyl_multiply(xg(i, r), xg(j, s))
                    rhs = weyl_multiply(xg(j, s), xg(i, r)).scale(
                        sign(i, j) * q)
                    relations_ok &= (lhs - rhs).is_zero()
                    lhs = weyl_multiply(dg(i, r), dg(j, s))
                    rhs = weyl_multiply(dg(j, s), dg(i, r)).scale(
                        sign(i, j) * q)
                    relations_ok &= (lhs - rhs).is_zero()
                    # d_i^r x_j^s = (-1)^[i][j] q^(-1) x_j^s d_i^r for i < j
                    lhs = weyl_multiply(dg(i, r), xg(j, s))
                    rhs = weyl_multiply(xg(j, s), dg(i, r)).scale(
                        sign(i, j) * q.inverse())
                    relations_ok &= (lhs - rhs).is_zero()
    sweep = howe_dimension_sweep(space, copies, max_degree)
    return {
        "m": m, "n": n, "copies": copies,
        "relations_hold": bool(relations_ok),
        "sweep": sweep,
        "sweep_ok": all(row["equal"] for row in sweep),
    }
