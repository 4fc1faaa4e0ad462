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

So words straighten over Z[q, q^-1], in one staged walk, _word_product,
as {(word, e): int}, the Laurent polynomial of every output word.  The
d's of the left word pass the right x-word from the right, one stage per
d; each leaves its contractions, by _derive, and one that passes every
letter merges into the right d-word from the left.  Last, the left
x-word merges in on the left.  The Fock action, _word_on_monomial, is
the same walk on the vacuum, whose one rule is that a d passing every
letter kills it, so only its contractions stay.  Every relation check
goes through one helper on the walk, _commutator, the sum of
u v - (-1)^s q^e v u over lists of words: verify_dual_pair and
glq_relations_check compare its dicts and build no Scalar.
invariant_generators_check turns each into Scalars by gl._to_scalars
only for rank_of_rows, and finds every Ecal killed by each ad(E[r][s])
as an empty _commutator dict.  The fock-module suite compares
_word_on_monomial dicts.  invariant_dimension (fft-check) applies each
E_ab of gl(V) by its dual-pair words, x(a,r) d(b,r) and xbar(b,s)
dbar(a,s), through _derive and _merge as _word_on_monomial does, and
multiplies the z_rs by _merge, all on ints; a Scalar enters only in the
rows it passes to rank_of_rows.  A degree where the x- or the
xbar-monomials are none, by the closed form _count_monomials, lists
neither side.  The N N' z-words are listed only at a degree d >= 1, which
forms a product; degree 0 yields the empty product alone.  _z_products
walks the z-products depth first over sorted keys, in the order of
combinations_with_replacement: each prefix product is formed once, and a
zero prefix prunes every extension.
invariant_dimensions refuses every degree by the basis bound before it
computes any.  fft_check is fft-check's one call: its two gl(V) checks
share one memo of word products, which each forms afresh when called
alone.  Otherwise a Scalar enters in
weyl_multiply and fock_apply, one product per pair of input terms and
output word, and in
OmegaPolyAlgebra.multiply and derivation_apply, once per term by
scalars.omega_scalar; no routine of the package calls those two.
gl._to_scalars builds its Scalars by Scalar.from_laurent, so no routine
here reads or builds a Scalar's stored form.

The Howe sweeps read only how many generators are even and how many
are odd, the two numbers that _checked_counts takes.  The generator E_vw
of S_omega(V* x W) has degree g_w - g_v, and omega(g - h, g - h) =
omega(g, g) omega(h, h) for a commutative factor, so E_vw is odd exactly
when one of v and w is: the numbers are (vp wp + vm wm, vp wm + vm wp).
S_omega(V^N) is the case W = C^N, N even basis vectors and no odd one,
where they are (M+ N, M- N) and k_W(lambda) = dim L_lambda(gl_N); so
howe_dimension_sweep and glvv_decomposition read one walk, _howe_walk,
at (M+, M-, N, 0) and at (vp, vm, wp, wm).  The walk lists V's hook
shapes of each degree that lie in W's hook, by partitions._in_hook, and
counts k_V k_W on those alone, as hs_lambda vanishes off its hook.  It
lists them to depth wp when W is purely even, whose hook holds no deeper
shape, and else to depth d, so that hook_partitions builds no shape that
the filter would drop for its depth alone.  Vbar has V's parities, as
omega(-g, -g) = omega(g, g).  So fft-check lists its xbar-monomials on
fock_algebra(space, N'), whose generators have the xbar's parities and
their ids less dim V N, and builds no Fock algebra without a copy of V.

Exact elimination over Q(q) is one step, _reduce, which inserts a sparse
row into an echelon dict keyed by pivot column; rank_of_rows runs on it.
Each step negates the row's pivot-column entry once and skips the pivot
column, whose sum is exactly zero.

fock_algebra keeps the module's one process memo: an lru_cache of the
FOCK_ALGEBRAS_KEPT most recently used algebras, keyed by the space's
value and (N, N'), so that equal spaces share them and no space carries
them.

Three bounds refuse a computation before it starts, each by calls to
gl.ResourceBoundExceeded.check: MONOMIAL_CAP on the monomials of a Howe
sweep (_checked_counts), INVARIANT_BASIS_CAP on fft-check's generators
and on each degree's zero-weight basis (_invariant_basis_bounds), and
COMMUTATOR_CAP on the commutators that glq_relations_check and
fft-check's two gl(V) checks, verify_dual_pair and
invariant_generators_check, form.  fft_check applies all of fft-check's
bounds before the first degree is computed.
"""

import itertools
from functools import cached_property, lru_cache
from math import comb, prod

from .gl import (LinearCombination, ResourceBoundExceeded, SpaceMismatch,
                 _add_ints, _add_into, _bracket_ints, _bracket_pair,
                 _dual_pair, _to_scalars)
from .grading import _merge
from .partitions import (_count_hook, _in_hook, _series, _sharp,
                         hook_partitions)
from .presets import glq_space, super_space
from .scalars import ONE, omega_scalar


MONOMIAL_CAP = 10 ** 6
# most x- times xbar-monomials of degree d that invariant_dimension reduces,
# and most generators x(a, r), xbar(a, s) that it lists
INVARIANT_BASIS_CAP = 20000
# most commutators that glq_relations_check, verify_dual_pair or
# invariant_generators_check forms: about 0.5 s and 50 MB for glq on a
# 2-vCPU machine, where the largest benchmark job forms 36; it admits
# verify_dual_pair on dim V <= 13 at N <= 2
COMMUTATOR_CAP = 30000
# most Fock algebras that fock_algebra keeps built in a process, the least
# recently used dropped first: a round of the weyl benchmark uses 11-15
FOCK_ALGEBRAS_KEPT = 16


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
    over Z of each output word, its signs folded into the ints.  With ds2
    None, the vacuum, it is the action of (xs1, ds1) on the x-monomial
    xs2, as {(monomial, e): int}.

    One staged walk: the d's of ds1 pass the x-word from the right, one
    stage per d, each leaving its contractions; a d that passes every
    letter merges into the d-word from the left, or kills the vacuum.
    Then xs1 merges in on the left."""
    odd, om = alg._tables
    stage = {(xs2, ds2, 0): 1}
    for d in reversed(ds1):
        nxt = {}
        for (xs, ds, e), c in stage.items():
            contractions, (sp, ep) = _derive(d, xs, om)
            for s2, e2, dxs in contractions:
                key = (dxs, ds, e + e2)
                nxt[key] = nxt.get(key, 0) + (-c if s2 else c)
            # the vacuum rule: a d that passes all of xs kills the vacuum
            merged = ds is not None and _merge((d,), ds, odd, om)
            if merged:
                s2, e2, dds = merged
                key = (xs, dds, e + ep + e2)
                nxt[key] = nxt.get(key, 0) + (-c if sp ^ s2 else c)
        stage = nxt
    out = {}
    for (xs, ds, e), c in stage.items():
        merged = _merge(xs1, xs, odd, om)
        if merged is not None:
            s, e2, word = merged
            key = (word if ds is None else (word, ds), e + e2)
            out[key] = out.get(key, 0) + (-c if s else c)
    return {key: c for key, c in out.items() if c}


def _word_on_monomial(alg, xs, ds, mono):
    """The word (xs, ds) applied to the x-monomial mono, d's as
    derivations and x's by multiplication, as {(monomial, e): int}."""
    return _word_product(alg, xs, ds, mono, None)


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


def _dual_pair_bound(space, copies):
    ResourceBoundExceeded.check(
        "the dual-pair check", copies ** 4 + space.dim ** 4
        + copies ** 2 * space.dim ** 2, COMMUTATOR_CAP, "commutators")


def _filtration_bound(space, copies):
    ResourceBoundExceeded.check(
        "the filtration-level-1 check",
        copies ** 2 * space.dim ** 2 * (copies ** 2 + 1), COMMUTATOR_CAP,
        "commutators")


def require_dimension(space, job):
    """Refuse dim V = 0 for a job that checks relations on V (verify,
    fft-check and glq-check): with no basis vector, each of its checks
    passes on nothing."""
    if space.dim == 0:
        raise ValueError(f"{job} needs a space of dimension at least 1; "
                         "this one has dim V = 0")


def fft_check(space, copies, dual_copies, max_degree):
    """The fft-check job as one call: the invariant dimensions of
    S_omega(V^N + Vbar^N') up to max_degree, N = copies, N' = dual_copies,
    each checked against the second fundamental theorem and spanned by the
    z-products, then verify_dual_pair and invariant_generators_check at
    min(N, 2) copies.  Every bound is checked first, in the order the parts
    run, so a refusal reads as the part's own.  The two gl(V) checks run on
    one Fock algebra and share one memo of its word products, which a
    separate call of either forms afresh.  Returns the report's fields;
    the job passes when dual_pair_ok and filtration_level_1_ok both hold."""
    require_dimension(space, "fft-check")
    gl_copies = min(copies, 2)
    _invariant_basis_bounds(space, copies, dual_copies,
                            range(max_degree + 1))
    _dual_pair_bound(space, gl_copies)
    _filtration_bound(space, gl_copies)
    dims = invariant_dimensions(space, copies, dual_copies, max_degree)
    products = {}  # (word, word) -> their product, for this call only
    return {
        "invariant_dimensions": {str(d): n for d, n in dims.items()},
        "z_span_verified": True,
        "dual_pair_ok": _dual_pair_holds(space, gl_copies, products),
        "filtration_level_1_ok": _filtration_holds(space, gl_copies,
                                                   products),
    }


def verify_dual_pair(space, copies):
    """Exhaustively check eq. families for the dual pair: the E's and the
    Ecal's satisfy the abstract brackets of gl_N = gl(N|0) and of gl(V),
    and [E, Ecal] = 0, as _commutator dicts.  Every coefficient of an E or
    an Ecal is ONE, so their words are all that enters.  The abstract
    bracket is gl._bracket_ints on the two matrix units, each term n q^e
    E_ij of it read as n q^e times every word of gens[i, j]; the words of
    two units differ, so no two terms meet.  It forms N^4 + dim V^4 +
    N^2 dim V^2 commutators, refused before the first past
    COMMUTATOR_CAP."""
    _dual_pair_bound(space, copies)
    return _dual_pair_holds(space, copies, {})


def _dual_pair_holds(space, copies, products):
    """verify_dual_pair, unbounded, on the memo products of
    fock_algebra(space, copies)'s word products."""
    alg = fock_algebra(space, copies)
    E, Ecal = dual_pair_generators(space, copies)
    E = {(r, s): x for r, row in enumerate(E) for s, x in enumerate(row)}
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
        parity = {d: factor.parity(d) for d in set(self.degrees)}
        self.parities = [parity[d] for d in self.degrees]

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
    """S_omega(V^N + Vbar^N'), N = copies, N' = dual_copies.  Its
    generators are x(a, r) = a*N + r of degree gamma_a, which sorts like
    (a, r), then xbar(a, s) = dim*N + a*N' + s of degree -gamma_a.  Weyl
    words number x(a, r) and d(a, r) alike.  The process keeps the
    FOCK_ALGEBRAS_KEPT most recently used, one per value of the space and
    (N, N'), so equal spaces share them; every argument is passed on
    positionally, so that fock_algebra(space, N) and fock_algebra(space,
    N, 0) are one entry of the memo."""
    return _fock_algebra(space, copies, dual_copies)


@lru_cache(maxsize=FOCK_ALGEBRAS_KEPT)
def _fock_algebra(space, copies, dual_copies):
    dual = [-g for g in space.degrees]  # negated once, not once per copy
    degrees = [g for g in space.degrees for _ in range(copies)] + [
        g for g in dual for _ in range(dual_copies)]
    return OmegaPolyAlgebra(space.factor, degrees)


def _checked_counts(even, odd, max_degree):
    """[dim S^d for d <= max_degree] of S_omega on `even` even and `odd`
    odd generators, from the generating series partitions._series, each
    cross-checked against the closed form _count_monomials.  Both read
    only these two numbers, so no generator or degree is listed.  A sweep
    whose monomials of degree <= max_degree number more than MONOMIAL_CAP
    is refused, by the closed forms, before the series is built."""
    forms, size = [], 0
    for d in range(max_degree + 1):
        forms.append(_count_monomials(even, odd, d))
        size += forms[-1]
        ResourceBoundExceeded.check(f"the sweep to degree {d}", size,
                                    MONOMIAL_CAP)
    counts = _series(even, odd, max_degree)
    for d, (count, closed) in enumerate(zip(counts, forms)):
        if count != closed:
            raise AssertionError(
                f"monomial count {count} != closed form {closed} at d={d}")
    return counts


def _howe_walk(vp, vm, wp, wm, max_degree):
    """(d, dim S^d, sum_lambda k_V(lambda) k_W(lambda), the shapes lambda
    with k_W(lambda) nonzero) per degree d <= max_degree of S_omega(V* x
    W), V of vp even and vm odd basis vectors and W of wp and wm.  E_vw is
    odd exactly when one of v and w is, so dim S^d is counted from (vp wp
    + vm wm, vp wm + vm wp).  One walk over the hook shapes of V per
    degree keeps those in the hook of W, by _in_hook: k(lambda) > 0
    exactly on its hook, as hs_lambda vanishes off it, so the kept shapes
    are those with k_W nonzero, and the sum counts k_V and k_W on them
    alone.  The depth bound stays: with wm = 0 no shape deeper than wp is
    in W's hook, and hook_partitions lists none, where a walk to depth d
    would build each only to drop it: the sweep of super(3|3) at N = 1 to
    degree 14 took about 1.3 ms that way against 0.3 ms (in process,
    2-vCPU Xeon)."""
    for d, count in enumerate(_checked_counts(
            vp * wp + vm * wm, vp * wm + vm * wp, max_degree)):
        shapes = [lam for lam in hook_partitions(vp, vm, d if wm else wp, d)
                  if _in_hook(lam, wp, wm)]
        yield d, count, sum(_count_hook(lam, vp, vm) * _count_hook(lam, wp, wm)
                            for lam in shapes), shapes


def howe_dimension_sweep(space, copies, max_degree):
    """Per degree d: dim S^d against sum_lambda k(lambda) dim L_lambda(gl_N).
    S_omega(V^N) is S_omega(V* x W) at W = C^N, purely even, and
    dim L_lambda(gl_N) is k(lambda) of C^N, so the sweep is the glvv walk
    at (M+, M-, N, 0); dim S^d is counted, not listed, from (M+ N, M- N)."""
    return [{"degree": d, "fock_dimension": count, "module_sum": total,
             "equal": count == total}
            for d, count, total, _ in _howe_walk(
                space.m_plus, space.m_minus, copies, 0, max_degree)]


def glvv_decomposition(space_v, space_w, max_degree):
    """Howe duality for a pair of graded spaces: per-degree dimension of
    S_omega(V* x W) against sum_lambda k_V(lambda) k_W(lambda), plus the
    paired-weight table for |lambda| <= max_degree, all read off the one
    walk _howe_walk."""
    if space_v.factor != space_w.factor:
        raise SpaceMismatch("spaces must share one commutative factor")
    vp, vm, wp, wm = (space_v.m_plus, space_v.m_minus, space_w.m_plus,
                      space_w.m_minus)
    rows, pairs = [], []
    for d, count, total, shapes in _howe_walk(vp, vm, wp, wm, max_degree):
        rows.append({"degree": d, "algebra_dimension": count,
                     "module_sum": total, "equal": count == total})
        pairs.extend({"partition": lam, "sharp_v": _sharp(lam, vp, vm),
                      "sharp_w": _sharp(lam, wp, wm)} for lam in shapes)
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


def _invariant_basis_bounds(space, copies, dual_copies, degrees):
    """The number of x- times xbar-monomials of each of `degrees`, a bound
    on its zero-weight basis, by the closed forms on (M+, M-) before any
    generator is listed; refused at the first degree past
    INVARIANT_BASIS_CAP.  xbar(a, s) has degree -gamma_a, whose parity
    omega(-gamma_a, -gamma_a) = omega(gamma_a, gamma_a) is that of
    x(a, r).  Its dim V (N + N') generators, which fock_algebra and
    _gl_images list at every degree, degree 0 included, are bounded by the
    same cap first; for dim V >= 2 that refuses no degree d >= 1 that the
    basis bound allows.  The dim V N N' letters of the z-words, listed
    only at d >= 1, are at most the (dim V)^2 N N' that degree 1's basis
    bound allows; invariant_dimensions and fft_check bound degree 1 with
    the others, while invariant_dimension alone bounds only its own."""
    ResourceBoundExceeded.check(
        "invariant_dimension", space.dim * (copies + dual_copies),
        INVARIANT_BASIS_CAP, "generators")
    sizes = []
    for d in degrees:
        sizes.append(prod(_count_monomials(space.m_plus * n,
                                           space.m_minus * n, d)
                          for n in (copies, dual_copies)))
        ResourceBoundExceeded.check("invariant_dimension", sizes[-1],
                                    INVARIANT_BASIS_CAP)
    return sizes


def _z_products(z_words, degree, odd, om):
    """(keys, {(monomial, e): int}) for each nonzero product z_k1 ... z_kd
    of d = degree factors, k1 <= ... <= kd in sorted order, in the order
    of itertools.combinations_with_replacement.  The walk is depth first:
    each prefix product is formed once and shared by its extensions, and
    a zero prefix ends them all.  z has degree 0, so a product takes each
    z on the right, where _merge inserts its two letters."""
    keys = sorted(z_words)
    path = [((), {((), 0): 1}, 0)]  # (prefix keys, product, next key)
    while path:
        combo, vec, j = path.pop()
        if len(combo) == degree:
            yield combo, vec
            continue
        if j == len(keys):
            continue
        path.append((combo, vec, j + 1))
        nxt = {}
        for (mono, e), c in vec.items():
            for xs in z_words[keys[j]]:
                merged = _merge(mono, xs, odd, om)
                if merged is not None:
                    s, e2, word = merged
                    k = (word, e + e2)
                    nxt[k] = nxt.get(k, 0) + (-c if s else c)
        nxt = {k: c for k, c in nxt.items() if c}
        if nxt:
            path.append((combo + (keys[j],), nxt, j))


def invariant_dimensions(space, copies, dual_copies, max_degree):
    """{d: invariant_dimension(space, copies, dual_copies, d)} for d <=
    max_degree, every degree refused by the basis bound before any is
    computed."""
    degrees = range(max_degree + 1)
    _invariant_basis_bounds(space, copies, dual_copies, degrees)
    return {d: invariant_dimension(space, copies, dual_copies, d)
            for d in degrees}


def invariant_dimension(space, copies, dual_copies, degree):
    """Dimension of the gl(V)-invariants in the bidegree (d, d) component
    of S_omega(V^N + Vbar^N'), by exact nullspace over Q(q).

    Verifies the count against the second fundamental theorem sum
    sum_lambda dim L_lambda(gl_N) dim L_lambda(gl_N'), each the k(lambda)
    of C^N or C^N', over the shapes no deeper than min(N, N'), as a deeper
    one has no gl_N or no gl_N' module, and that degree-d products of the
    quadratic invariants z_rs span the kernel.  The E_ab
    images, the z-products and their invariance defects are integer
    Laurent dicts; a Scalar is built only in the rows for rank_of_rows.
    The N N' z-words are listed only at d >= 1: degree 0 forms no
    product, and its one z-product is the empty one."""
    bound, = _invariant_basis_bounds(space, copies, dual_copies, (degree,))
    n = space.dim
    alg = fock_algebra(space, copies, dual_copies)

    # zero-weight basis: x-part and dual-part use each basis index equally,
    # and g // copies lists a monomial's indices in order.  The xbar-
    # monomials are those of fock_algebra(space, N'), ids shifted by
    # dim N: xbar(a, s) has the id and the parity of x(a, s) there.  Every
    # x id is below every xbar id, so xm + xb is sorted as it stands.  When
    # one side has no monomial of this degree, neither is listed.
    basis = []
    if bound:
        by_type = {}
        for mono in fock_algebra(space, copies).monomials(degree):
            by_type.setdefault(tuple(g // copies for g in mono),
                               []).append(mono)
        basis = sorted(xm + tuple(g + n * copies for g in mono)
                       for mono in fock_algebra(
                           space, dual_copies).monomials(degree)
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

    expected = sum(_count_hook(lam, copies, 0)
                   * _count_hook(lam, dual_copies, 0)
                   for lam in hook_partitions(
                       space.m_plus, space.m_minus,
                       min(copies, dual_copies), degree))
    if nullity != expected:
        raise AssertionError(
            f"invariant dimension {nullity} != structure sum {expected}")

    # z_rs = sum_a x(a,r) xbar(a,s), listed only where a product is formed
    z_words = {(r, s): [(a * copies + r, n * copies + a * dual_copies + s)
                        for a in range(n)] for r in range(copies)
               for s in range(dual_copies)} if degree else {}
    span_rows = []
    for combo, vec in _z_products(z_words, degree, *alg._tables):
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
    component of the Weyl algebra are exactly span{Ecal} + C.  Each of the
    N^2 E's meets each of the (dim V N)^2 words and each of the dim V^2
    Ecal's: N^2 dim V^2 (N^2 + 1) commutators, refused before the first
    past COMMUTATOR_CAP."""
    _filtration_bound(space, copies)
    return _filtration_holds(space, copies, {})


def _filtration_holds(space, copies, products):
    """invariant_generators_check, unbounded, on the memo products of
    fock_algebra(space, copies)'s word products."""
    alg = fock_algebra(space, copies)
    E, Ecal = dual_pair_generators(space, copies)
    gens = range(space.dim * copies)
    words = [((g,), (h,)) for g in gens for h in gens]
    windex = {w: i for i, w in enumerate(words)}
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
    # the Ecal's must be independent members of the kernel: each
    # ad(E[r][s]) kills each of them
    if any(_commutator(alg, x.terms, elt.terms, products)
           for x in itertools.chain.from_iterable(E)
           for elt in Ecal.values()):
        return False
    return rank_of_rows([{windex[w]: coef for w, coef in elt.terms.items()}
                         for elt in Ecal.values()]) == space.dim ** 2


def glq_relations_check(m, n, copies, max_degree=4):
    """Instantiate gl_q(m|n) on Z^(m+n), run the Howe dimension sweep and
    verify the four defining relation families of its Weyl algebra as
    Laurent-polynomial identities.  The sign and q-power of each relation
    come from the gl_q(m|n) presentation, not from the space's omega
    table, so the check does not take the table it tests on trust.  It
    forms 3 commutators per pair i <= j of the m + n indices and pair of
    copies, and is refused before it starts past COMMUTATOR_CAP; the sweep
    runs first, so its MONOMIAL_CAP too refuses before any commutator.
    gl_q(0|0) is refused by require_dimension, as verify and fft-check
    refuse an empty space."""
    ResourceBoundExceeded.check(
        "glq-check", comb(m + n + 1, 2) * copies ** 2 * 3, COMMUTATOR_CAP,
        "commutators")
    space = glq_space(m, n)
    require_dimension(space, "glq-check")
    sweep = howe_dimension_sweep(space, copies, max_degree)
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
    return {
        "m": m, "n": n, "copies": copies,
        "relations_hold": bool(relations_ok),
        "sweep": sweep,
        "sweep_ok": all(row["equal"] for row in sweep),
    }
