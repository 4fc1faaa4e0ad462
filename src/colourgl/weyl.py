"""The Weyl algebra on N copies of V, Fock modules and dual pairs.

Generators x(a,r) and d(a,r), a a basis index and r < N, are the flat
ids a*N + r of fock_algebra, of degrees gamma_a and -gamma_a.  Words are
normal ordered: all x's left of all d's, each block sorted, odd
generators square-free.  The straightening rule is the graded CCR

    d(a,r) x(b,s) = omega(-gamma_a, gamma_b) x(b,s) d(a,r) + delta_ab delta_rs.

grading._merge multiplies x-words, Fock monomials and OmegaPolyAlgebra
monomials, and merges a d into a d-word from the left as _merge((d,), ds).
One walk, _derive, gives d_g's contractions against an x-monomial and
the pair for d_g passing all of it.  Both return sums of the integer
pairs om[g][h] = (s, e), omega(gamma_g, gamma_h) = (-1)^s q^e, of
OmegaPolyAlgebra._tables, which CommutativeFactor._table builds, as it
builds the table of a graded space.  As omega is a commutative factor
(Scheunert 1979), omega(-a, -b) = omega(a, b) and omega(-gamma_g,
gamma_h) = omega(gamma_h, gamma_g), so that one table serves x's, d's
and contractions.

So words straighten over Z[q, q^-1], in two integer kernels:
_word_product multiplies two words and _word_on_monomial applies a word
to a Fock monomial, each as {(word, e): int}, the Laurent polynomial of
every output word.  Every relation check goes through one helper on
them, _commutator, the sum of u v - (-1)^s q^e v u over lists of words:
verify_dual_pair and glq_relations_check compare its dicts and build no
Scalar, and invariant_generators_check turns each into Scalars by
_to_scalars only for rank_of_rows.  The fock-module suite compares
_word_on_monomial dicts.  invariant_dimension (fft-check) applies each
E_ab of gl(V) by its dual-pair words, x(a,r) d(b,r) and xbar(b,s)
dbar(a,s), through _derive and _merge as _word_on_monomial does, and
multiplies the z_rs by _merge, all on ints; a Scalar enters only in the
rows it passes to rank_of_rows.  Otherwise a Scalar enters in weyl_multiply and
fock_apply, one product per pair of input terms and output word, and in
OmegaPolyAlgebra.multiply and derivation_apply, once per term by
scalars.omega_scalar; no routine of the package calls those two.
_to_scalars builds its Scalars by Scalar.from_laurent, so no routine here
reads or builds a Scalar's stored form.

Exact elimination over Q(q) is one step, _reduce, which inserts a sparse
row into an echelon dict keyed by pivot column; rank_of_rows runs on it.
Each step negates the row's pivot-column entry once and skips the pivot
column, whose sum is exactly zero.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb, prod

from .gl import (LinearCombination, SpaceMismatch, _add_into, _bracket_ints,
                 _bracket_pair, _dual_pair)
from .grading import _merge
from .partitions import (_count_hook, _dim_glN, _series, _sharp,
                         hook_partitions)
from .scalars import ONE, ZERO, Scalar, omega_scalar


MONOMIAL_CAP = 10 ** 6
# most x- times xbar-monomials of degree d that invariant_dimension reduces
INVARIANT_BASIS_CAP = 20000
# most commutators glq_relations_check forms: about 0.5 s and 50 MB on a
# 2-vCPU machine, where the largest benchmark job forms 36
GLQ_COMMUTATOR_CAP = 30000


class ResourceBoundExceeded(RuntimeError):
    """An exact computation was refused because the state space is too big."""

    def __init__(self, what, size, bound, unit="basis elements"):
        super().__init__(f"{what} needs {size} {unit}, above the "
                         f"bound {bound}")
        self.size = size
        self.bound = bound


def _count_monomials(even, odd, total):
    """The closed form of dim S^total on `even` even and `odd` odd
    generators: j odd ones, square-free, times the multisets of total - j
    even ones, C(even + total - j - 1, total - j), which is 1 for
    even = total - j = 0 as max(., 0) makes it."""
    return sum(comb(odd, j) * comb(max(even + total - j - 1, 0), total - j)
               for j in range(min(odd, total) + 1))


class WeylElement(LinearCombination):
    """A Scalar-linear combination of normal-ordered words (xs, ds) of
    flat generator ids."""

    __slots__ = ("space", "copies")

    def __init__(self, space, copies, terms=None):
        self.space = space
        self.copies = copies
        super().__init__(terms)

    @classmethod
    def one(cls, space, copies):
        return cls(space, copies, {((), ()): ONE})

    @classmethod
    def x_gen(cls, space, copies, a, r):
        cls._check_gen(space, copies, a, r)
        return cls(space, copies, {((a * copies + r,), ()): ONE})

    @classmethod
    def d_gen(cls, space, copies, a, r):
        cls._check_gen(space, copies, a, r)
        return cls(space, copies, {((), (a * copies + r,)): ONE})

    @staticmethod
    def _check_gen(space, copies, a, r):
        if not (0 <= a < space.dim and 0 <= r < copies):
            raise IndexError(f"generator ({a},{r}) out of range")

    def degree(self):
        """Gamma-degree when homogeneous, else None.  Zero has any degree."""
        degrees, copies = self.space.degrees, self.copies
        zero = self.space.factor.group.zero()
        return self._common(
            lambda word: sum((degrees[g // copies] for g in word[0]), zero)
            - sum((degrees[g // copies] for g in word[1]), zero), zero)


def _derive(g, mono, om):
    """d_g on an x-monomial, d_g a graded derivation of degree -gamma_g:
    ([(s, e, monomial)], the pair (s, e) of d_g passing all of mono), each
    contraction with the pair of d_g passing the letters before it.  d_g
    passes x_h with omega(-gamma_g, gamma_h), the pair om[h][g]."""
    out = []
    s = e = 0
    for j, h in enumerate(mono):
        if h == g:
            out.append((s, e, mono[:j] + mono[j + 1:]))
        sh, eh = om[h][g]
        s ^= sh
        e += eh
    return out, (s, e)


def _word_product(alg, xs1, ds1, xs2, ds2):
    """The normal-ordered product of the words (xs1, ds1) and (xs2, ds2)
    of alg's generators, as {((xs, ds), e): int}: the Laurent polynomial
    over Z of each output word, its signs folded into the ints."""
    odd, om = alg._tables
    out = {}

    def reduce_term(xs1, ds1, xs2, ds2, s, e):
        # the term (-1)^s q^e * xs1 ds1 xs2 ds2
        if not ds1:
            merged = _merge(xs1, xs2, odd, om)
            if merged is not None:
                s2, e2, xs = merged
                key = ((xs, ds2), e + e2)
                out[key] = out.get(key, 0) + (-1 if s ^ s2 else 1)
            return
        d = ds1[-1]
        rest = ds1[:-1]
        contractions, (sp, ep) = _derive(d, xs2, om)
        for s2, e2, xs in contractions:
            reduce_term(xs1, rest, xs, ds2, s ^ s2, e + e2)
        # d passes the whole x block and merges into ds2 from the left
        merged = _merge((d,), ds2, odd, om)
        if merged is not None:
            s2, e2, ds = merged
            reduce_term(xs1, rest, xs2, ds, s ^ sp ^ s2, e + ep + e2)

    reduce_term(xs1, ds1, xs2, ds2, 0, 0)
    return {key: c for key, c in out.items() if c}


def _word_on_monomial(alg, xs, ds, mono):
    """The word (xs, ds) applied to the x-monomial mono, d's as
    derivations and x's by multiplication, as {(monomial, e): int}."""
    odd, om = alg._tables
    stage = {(mono, 0): 1}
    for g in reversed(ds):
        nxt = {}
        for (m, e), c in stage.items():
            for s2, e2, dm in _derive(g, m, om)[0]:
                key = (dm, e + e2)
                nxt[key] = nxt.get(key, 0) + (-c if s2 else c)
        stage = nxt
    out = {}
    for (m, e), c in stage.items():
        merged = _merge(xs, m, odd, om)
        if merged is not None:
            s, e2, word = merged
            key = (word, e + e2)
            out[key] = out.get(key, 0) + (-c if s else c)
    return {key: c for key, c in out.items() if c}


def _add_ints(out, poly, coef=1, shift=0):
    """out += coef q^shift poly, for {(word, e): int} dicts."""
    for (word, e), c in poly.items():
        key = (word, e + shift)
        out[key] = out.get(key, 0) + coef * c


def _commutator(alg, us, vs, products, s=0, e=0):
    """The sum of u v - (-1)^s q^e v u over the words u of us and v of vs,
    as {(word, e): int} with zero entries dropped.  products memoises
    _word_product by its pair of words for the caller."""
    out = {}
    for xs, ys, coef, shift in ((us, vs, 1, 0), (vs, us, 1 if s else -1, e)):
        for w in itertools.product(xs, ys):
            poly = products.get(w)
            if poly is None:
                poly = products[w] = _word_product(alg, *w[0], *w[1])
            _add_ints(out, poly, coef, shift)
    return {key: c for key, c in out.items() if c}


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


def weyl_multiply(u, v):
    """Normal-ordered product in the Weyl algebra."""
    u._check(v)
    alg = fock_algebra(u.space, u.copies)
    return WeylElement(u.space, u.copies, _to_scalars(
        (cu * cv, _word_product(alg, *w1, *w2))
        for w1, cu in u.terms.items() for w2, cv in v.terms.items()))


def weyl_bracket(u, v):
    """Graded commutator u v - omega(d(u), d(v)) v u for homogeneous u, v."""
    du, dv = u.degree(), v.degree()
    if du is None or dv is None:
        raise ValueError("weyl_bracket needs Gamma-homogeneous operands")
    om = u.space.omega(du, dv)
    return weyl_multiply(u, v) - weyl_multiply(v, u).scale(om)


class FockVector(LinearCombination):
    """An element of the Fock space C_omega[x]: a combination of sorted
    x-monomials of flat generator ids."""

    __slots__ = ("space", "copies")

    def __init__(self, space, copies, terms=None):
        self.space = space
        self.copies = copies
        super().__init__(terms)

    @classmethod
    def vacuum(cls, space, copies):
        return cls(space, copies, {(): ONE})


def fock_apply(u, f):
    """Apply a Weyl element to a Fock vector: d's act as derivations,
    x's by multiplication."""
    if u.space != f.space or u.copies != f.copies:
        raise SpaceMismatch("operator and Fock vector mismatch")
    alg = fock_algebra(u.space, u.copies)
    return FockVector(f.space, f.copies, _to_scalars(
        (cu * cf, _word_on_monomial(alg, *w, mono))
        for w, cu in u.terms.items() for mono, cf in f.terms.items()))


def dual_pair_generators(space, copies):
    """(E, Ecal): E[r][s] = sum_a x(a,r) d(a,s) spanning gl_N, and
    Ecal[(a,b)] = sum_r x(a,r) d(b,r) spanning a copy of gl(V)."""
    E = [[WeylElement(space, copies,
                      {((a * copies + r,), (a * copies + s,)): ONE
                       for a in range(space.dim)})
          for s in range(copies)] for r in range(copies)]
    Ecal = {(a, b): WeylElement(space, copies,
                                {((a * copies + r,), (b * copies + r,)): ONE
                                 for r in range(copies)})
            for a in range(space.dim) for b in range(space.dim)}
    return E, Ecal


def verify_dual_pair(space, copies):
    """Exhaustively check eq. families for the dual pair: the E's and the
    Ecal's satisfy the abstract brackets of gl_N = gl(N|0) and of gl(V),
    and [E, Ecal] = 0, as _commutator dicts.  Every coefficient of an E or
    an Ecal is ONE, so their words are all that enters.  The abstract
    bracket is gl._bracket_ints on the two matrix units, each term n q^e
    E_ij of it read as n q^e times every word of gens[i, j]; the words of
    two units differ, so no two terms meet."""
    from .presets import super_space

    alg = fock_algebra(space, copies)
    E, Ecal = dual_pair_generators(space, copies)
    E = {(r, s): x for r, row in enumerate(E) for s, x in enumerate(row)}
    products = {}  # (word, word) -> their product, for this call only
    for gl, gens in ((super_space(copies, 0), E), (space, Ecal)):
        pairs = gl._omega_pairs
        for a, b, c, d in itertools.product(range(gl.dim), repeat=4):
            abstract = _bracket_ints(pairs, {((a, b), 0): 1},
                                     {((c, d), 0): 1})
            rhs = {(w, e): n for (unit, e), n in abstract.items()
                   for w in gens[unit].terms}
            if _commutator(alg, gens[a, b].terms, gens[c, d].terms, products,
                           *_bracket_pair(pairs, a, b, c, d)) != rhs:
                return False
    return not any(_commutator(alg, x.terms, y.terms, products)
                   for x in E.values() for y in Ecal.values())


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
        odd = [p == -1 for p in self.parities]
        return [m for m in itertools.combinations_with_replacement(
                    range(len(odd)), total)
                if not any(odd[g] and g == h for g, h in zip(m, m[1:]))]

    @cached_property
    def _tables(self):
        """(odd, om) for _merge, CommutativeFactor._table over the
        generators, built on the first product."""
        return self.factor._table(self.degrees)

    def multiply(self, m1, m2):
        """(coefficient, sorted monomial) or None when a square vanishes."""
        odd, om = self._tables
        merged = _merge(m1, m2, odd, om)
        if merged is None:
            return None
        s, e, word = merged
        return omega_scalar(s, e), word

    def derivation_apply(self, action, x_row, mono):
        """Extend an action X on generators to the monomial by the graded
        Leibniz rule.  action maps g -> [(g', Scalar)], and x_row[g] is the
        pair (s, e) of omega(deg X, deg g)."""
        odd, om = self._tables
        out = {}
        ps = pe = 0  # the pair of X passing mono[:j]
        for j, g in enumerate(mono):
            if j:
                sh, eh = x_row[mono[j - 1]]
                ps ^= sh
                pe += eh
            for g2, coef in action.get(g, ()):
                # g2 replaces g at slot j and straightens into place
                merged = _merge(mono[:j], (g2,) + mono[j + 1:], odd, om)
                if merged is not None:
                    s, e, word = merged
                    _add_into(out, word, omega_scalar(ps ^ s, pe + e, coef))
        return out


# -- Howe duality dimension sweeps -------------------------------------------

def fock_algebra(space, copies, dual_copies=0):
    """S_omega(V^N + Vbar^N'), N = copies, N' = dual_copies, cached on the
    space.  Its generators are x(a, r) = a*N + r of degree gamma_a, which
    sorts like (a, r), then xbar(a, s) = dim*N + a*N' + s of degree
    -gamma_a.  Weyl words number x(a, r) and d(a, r) alike."""
    alg = space._fock_algebras.get((copies, dual_copies))
    if alg is None:
        degrees = [g for g in space.degrees for _ in range(copies)] + [
            -g for g in space.degrees for _ in range(dual_copies)]
        alg = space._fock_algebras[copies, dual_copies] = OmegaPolyAlgebra(
            space.factor, degrees)
    return alg


def _checked_counts(factor, degrees, copies, max_degree):
    """[dim S^d for d <= max_degree] of S_omega on `copies` copies of
    generators of the given degrees, from the generating series
    partitions._series, each cross-checked against the closed form
    _count_monomials.  Both read only the numbers of even and odd
    generators, so no generator is listed.  A sweep whose monomials of
    degree <= max_degree number more than MONOMIAL_CAP is refused, by the
    closed forms, before the series is built."""
    odd = sum(factor.parity(g) == -1 for g in degrees) * copies
    even = len(degrees) * copies - odd
    forms, size = [], 0
    for d in range(max_degree + 1):
        forms.append(_count_monomials(even, odd, d))
        size += forms[-1]
        if size > MONOMIAL_CAP:
            raise ResourceBoundExceeded(f"the sweep to degree {d}", size,
                                        MONOMIAL_CAP)
    counts = _series(even, odd, max_degree)
    for d, (count, closed) in enumerate(zip(counts, forms)):
        if count != closed:
            raise AssertionError(
                f"monomial count {count} != closed form {closed} at d={d}")
    return counts


def howe_dimension_sweep(space, copies, max_degree):
    """Per degree d: dim S^d against sum_lambda k(lambda) dim L_lambda(gl_N).
    dim S^d is counted, not listed: the coefficient of t^d in the
    generating series of the Fock algebra S_omega(V^N), cross-checked
    against the closed form, both from the parities of V."""
    return _sweep(space, copies, space.degrees, max_degree)


def howe_dual_sweep(space, copies, max_degree):
    return _sweep(space, copies, [-g for g in space.degrees], max_degree)


def _sweep(space, copies, degrees, max_degree):
    rows = []
    for d, count in enumerate(_checked_counts(space.factor, degrees, copies,
                                              max_degree)):
        total = sum(_count_hook(lam, space.m_plus, space.m_minus)
                    * _dim_glN(lam, copies)
                    for lam in hook_partitions(space.m_plus, space.m_minus,
                                               copies, d))
        rows.append({"degree": d, "fock_dimension": count,
                     "module_sum": total, "equal": count == total})
    return rows


def glvv_decomposition(space_v, space_w, max_degree):
    """Howe duality for a pair of graded spaces: per-degree dimension of
    S_omega(V* x W) against sum_lambda k_V(lambda) k_W(lambda), plus the
    paired-weight table for |lambda| <= max_degree.  The dimension is
    counted as in howe_dimension_sweep.  One walk over the hook shapes of
    V per degree gives both: lambda is in the hook of W exactly when
    k_W(lambda) is nonzero, as hs_lambda vanishes off the hook."""
    if space_v.factor != space_w.factor:
        raise SpaceMismatch("spaces must share one commutative factor")
    degrees = [dw - dv for dv in space_v.degrees for dw in space_w.degrees]
    vp, vm, wp, wm = (space_v.m_plus, space_v.m_minus, space_w.m_plus,
                      space_w.m_minus)
    rows, pairs = [], []
    for d, count in enumerate(_checked_counts(space_v.factor, degrees, 1,
                                              max_degree)):
        total = 0
        for lam in hook_partitions(vp, vm, d, d):
            k_w = _count_hook(lam, wp, wm)
            total += _count_hook(lam, vp, vm) * k_w
            if k_w:
                pairs.append({"partition": lam,
                              "sharp_v": _sharp(lam, vp, vm),
                              "sharp_w": _sharp(lam, wp, wm)})
        rows.append({"degree": d, "algebra_dimension": count,
                     "module_sum": total, "equal": count == total})
    return rows, pairs


# -- exact linear algebra over Q(q) ------------------------------------------

def _reduce(echelon, row):
    """Reduce a sparse row (dict column -> Scalar) against echelon, which
    maps each pivot column to a row whose least column it is, with entry
    ONE.  An independent remainder is normalised the same way, inserted
    and returned; a dependent row gives None and leaves echelon as it is.
    A step pops the row's entry in the pivot column, whose sum would be
    exactly zero, negates it once and adds its multiple of the pivot row's
    other entries."""
    row = dict(row)
    while row:
        col = min(row)
        pivot = echelon.get(col)
        if pivot is None:
            inv = row[col].inverse()
            row = echelon[col] = {c: v * inv for c, v in row.items()}
            return row
        coef = -row.pop(col)
        for c, v in pivot.items():
            if c != col:
                _add_into(row, c, coef * v)
    return None


def rank_of_rows(rows):
    """Row rank of sparse rows (dicts column -> Scalar) over Q(q)."""
    echelon = {}
    return sum(_reduce(echelon, row) is not None for row in rows)


def _gl_images(space, copies, dual_copies, monos):
    """E_ab on each monomial of fock_algebra(space, copies, dual_copies)
    in monos, as {(a, b): {i: {(monomial, e): int}}} with zero images left
    out.  E_ab acts by its words x(a,r) d(b,r), r < copies, as in
    dual_pair_generators, and xbar(b,s) dbar(a,s), s < dual_copies, times
    dual_act's factor -omega(g_a - g_b, -g_a), the pair of
    gl._dual_pair.  Each word is applied as
    _word_on_monomial does, but a monomial's contractions are taken once
    per distinct letter and shared by every word that derives it."""
    n = space.dim
    odd, om = fock_algebra(space, copies, dual_copies)._tables
    pairs = space._omega_pairs
    units = list(itertools.product(range(n), repeat=2))
    words = {}  # derived letter -> [((a, b), multiplied letter, s, e)]
    for a, b in units:
        for r in range(copies):
            words.setdefault(b * copies + r, []).append(
                ((a, b), a * copies + r, 0, 0))
        factor = _dual_pair(pairs, a, b)
        for s in range(dual_copies):
            bar = n * copies + s
            words.setdefault(bar + a * dual_copies, []).append(
                ((a, b), bar + b * dual_copies, *factor))
    images = {unit: {} for unit in units}
    for i, mono in enumerate(monos):
        acc = {}
        for g in dict.fromkeys(mono):
            # the copies of g are adjacent: each contraction leaves one rest
            contractions = _derive(g, mono, om)[0]
            rest = contractions[0][2]
            for unit, x, s, e in words[g]:
                merged = _merge((x,), rest, odd, om)
                if merged is not None:
                    s3, e3, word = merged
                    img = acc.setdefault(unit, {})
                    for s2, e2, _ in contractions:
                        key = (word, e + e2 + e3)
                        img[key] = img.get(key, 0) + (
                            -1 if s ^ s2 ^ s3 else 1)
        for unit, img in acc.items():
            img = {key: c for key, c in img.items() if c}
            if img:
                images[unit][i] = img
    return images


def _guard_invariant_basis(space, copies, dual_copies, degrees):
    """Refuse invariant_dimension at the first of `degrees` whose
    zero-weight basis, an x- times an xbar-monomial, is larger than
    INVARIANT_BASIS_CAP: by the closed forms on the parities of V, before
    any generator is listed.  xbar(a, s) has degree -gamma_a, whose
    parity omega(-gamma_a, -gamma_a) = omega(gamma_a, gamma_a) is that of
    x(a, r)."""
    odd = space.parities.count(-1)
    for d in degrees:
        size = prod(_count_monomials((space.dim - odd) * n, odd * n, d)
                    for n in (copies, dual_copies))
        if size > INVARIANT_BASIS_CAP:
            raise ResourceBoundExceeded("invariant_dimension", size,
                                        INVARIANT_BASIS_CAP)


def invariant_dimension(space, copies, dual_copies, degree):
    """Dimension of the gl(V)-invariants in the bidegree (d, d) component
    of S_omega(V^N + Vbar^N'), by exact nullspace over Q(q).

    Verifies the count against the second fundamental theorem sum
    sum_lambda dim L_lambda(gl_N) dim L_lambda(gl_N') and that degree-d
    products of the quadratic invariants z_rs span the kernel.  The E_ab
    images, the z-products and their invariance defects are integer
    Laurent dicts; a Scalar is built only in the rows for rank_of_rows."""
    _guard_invariant_basis(space, copies, dual_copies, (degree,))
    n = space.dim
    x_alg = fock_algebra(space, copies)
    xbar_alg = fock_algebra(space, 0, dual_copies)
    alg = fock_algebra(space, copies, dual_copies)

    # zero-weight basis: x-part and dual-part use each basis index equally,
    # and g // copies lists a monomial's indices in order.  Every x id is
    # below every xbar id, so xm + xb is sorted as it stands.
    by_type = {}
    for mono in x_alg.monomials(degree):
        by_type.setdefault(tuple(g // copies for g in mono), []).append(mono)
    basis = sorted(xm + tuple(g + n * copies for g in mono)
                   for mono in xbar_alg.monomials(degree)
                   for xm in by_type.get(
                       tuple(g // dual_copies for g in mono), ()))
    index = {mono: i for i, mono in enumerate(basis)}

    # the image of every E_ab on every basis element, computed once
    images = _gl_images(space, copies, dual_copies, basis)
    rows = []
    for (a, b), imgs in images.items():
        if a == b:
            if imgs:
                raise AssertionError(
                    f"E[{a},{a}] does not vanish on the zero-weight basis")
            continue
        columns = {}
        for i, img in imgs.items():
            for (target, e), c in img.items():
                columns.setdefault(target, {})[i, e] = c
        rows.extend(_to_scalars([(ONE, col)]) for col in columns.values())
    nullity = len(basis) - rank_of_rows(rows)

    expected = sum(_dim_glN(lam, copies) * _dim_glN(lam, dual_copies)
                   for lam in hook_partitions(space.m_plus, space.m_minus,
                                              degree, degree))
    if nullity != expected:
        raise AssertionError(
            f"invariant dimension {nullity} != structure sum {expected}")

    # z_rs = sum_a x(a,r) xbar(a,s); each term has degree 0, so a product
    # takes it on the right, where _merge inserts two letters
    odd, om = alg._tables
    z_words = {(r, s): [(a * copies + r, n * copies + a * dual_copies + s)
                        for a in range(n)]
               for r in range(copies) for s in range(dual_copies)}
    span_rows = []
    for combo in itertools.combinations_with_replacement(
            sorted(z_words), degree):
        vec = {((), 0): 1}
        for key in combo:
            nxt = {}
            for (mono, e), c in vec.items():
                for xs in z_words[key]:
                    merged = _merge(mono, xs, odd, om)
                    if merged is not None:
                        s, e2, word = merged
                        k = (word, e + e2)
                        nxt[k] = nxt.get(k, 0) + (-c if s else c)
            vec = {k: c for k, c in nxt.items() if c}
        if not vec:
            continue
        if not {mono for mono, _ in vec} <= index.keys():
            raise AssertionError(
                f"a product of z's leaves the zero-weight basis: {combo}")
        row = {(index[mono], e): c for (mono, e), c in vec.items()}
        # each product must be killed by every generator
        for (a, b), imgs in images.items():
            defect = {}
            for (i, e), c in row.items():
                _add_ints(defect, imgs.get(i, {}), c, e)
            if any(defect.values()):
                raise AssertionError(
                    f"z-monomial not invariant under E[{a},{b}]")
        span_rows.append(_to_scalars([(ONE, row)]))
    if rank_of_rows(span_rows) != nullity:
        raise AssertionError("z-monomials do not span the invariants")
    return nullity


def invariant_generators_check(space, copies):
    """Filtration-level-1 check: the ad(gl_N)-invariants in the (1,1)
    component of the Weyl algebra are exactly span{Ecal} + C."""
    alg = fock_algebra(space, copies)
    E, Ecal = dual_pair_generators(space, copies)
    gens = range(space.dim * copies)
    words = [((g,), (h,)) for g in gens for h in gens]
    windex = {w: i for i, w in enumerate(words)}
    products = {}
    rows = []
    for x in itertools.chain.from_iterable(E):
        images = {}
        for i, w in enumerate(words):
            # every coefficient of an E is ONE: its words are all it brings
            br = _to_scalars([(ONE, _commutator(alg, x.terms, (w,),
                                                products))])
            for key, coef in br.items():
                images.setdefault(key, {})[i] = coef
        rows.extend(images.values())
    if len(words) - rank_of_rows(rows) != space.dim ** 2:
        return False
    # the Ecal's must be independent members of the kernel: each row of
    # an ad(E[r][s]) kills each of them
    ecal_rows = [{windex[w]: coef for w, coef in elt.terms.items()}
                 for elt in Ecal.values()]
    if any(sum((row[i] * c for i, c in v.items() if i in row), ZERO)
           for row in rows for v in ecal_rows):
        return False
    return rank_of_rows(ecal_rows) == space.dim ** 2


def glq_relations_check(m, n, copies, max_degree=4):
    """Instantiate gl_q(m|n) on Z^(m+n) and verify the four defining
    relation families of its Weyl algebra as Laurent-polynomial identities,
    then run the Howe dimension sweep.  The sign and q-power of each
    relation come from the gl_q(m|n) presentation, not from the space's
    omega table, so the check does not take the table it tests on trust.
    It forms 3 commutators per pair i <= j of the m + n indices and pair
    of copies, and is refused before it starts past GLQ_COMMUTATOR_CAP."""
    from .presets import glq_space

    size = comb(m + n + 1, 2) * copies ** 2 * 3
    if size > GLQ_COMMUTATOR_CAP:
        raise ResourceBoundExceeded("glq-check", size, GLQ_COMMUTATOR_CAP,
                                    "commutators")
    space = glq_space(m, n)
    alg = fock_algebra(space, copies)
    products = {}
    relations_ok = True
    for i, j in itertools.combinations_with_replacement(range(m + n), 2):
        s, e = int(i >= m and j >= m), int(i != j)
        for r, t in itertools.product(range(copies), repeat=2):
            # x_i^r x_j^t = (-1)^[i][j] q x_j^t x_i^r for i < j, without
            # the q for i = j, the d analogue, and d_i^r x_j^t
            # - (-1)^[i][j] q^-1 x_j^t d_i^r = delta_ij delta_rt
            xi, xj = ((i * copies + r,), ()), ((j * copies + t,), ())
            di, dj = ((), (i * copies + r,)), ((), (j * copies + t,))
            relations_ok &= (
                not _commutator(alg, (xi,), (xj,), products, s, e)
                and not _commutator(alg, (di,), (dj,), products, s, e)
                and _commutator(alg, (di,), (xj,), products, s, -e)
                == ({(((), ()), 0): 1} if (i, r) == (j, t) else {}))
    sweep = howe_dimension_sweep(space, copies, max_degree)
    return {
        "m": m, "n": n, "copies": copies,
        "relations_hold": bool(relations_ok),
        "sweep": sweep,
        "sweep_ok": all(row["equal"] for row in sweep),
    }
