"""The Weyl-algebra routines as they were before the integer Laurent
kernels, the one commutator check and the pivot-once elimination, kept
verbatim as oracles for tests/test_laurent_kernels.py and
tests/test_scalar_general_path.py.

weyl_multiply and fock_apply straighten with one Scalar per leaf,
verify_dual_pair brackets WeylElements, suite_fock compares FockVectors,
and invariant_generators_check and glq_relations_check multiply one
WeylElement per word; omega_scalar multiplies by a q_power Scalar;
invariant_dimension applies each E_ab through _gl_action_on_generators
and OmegaPolyAlgebra.derivation_apply, and multiplies z-products by
OmegaPolyAlgebra.multiply, one Scalar per term; _reduce, under
rank_of_rows, negates the pivot coefficient once per product and adds a
zero sum in the pivot column; glvv_decomposition walks the hook shapes
of each degree twice, once for the rows and once for the pairs (the
oracle of tests/test_rules_once.py), and counts dim S^d by
_checked_counts over the running sums of _series_counts, one pass per
generator, against the closed form count_monomials.  Those two were
methods of OmegaPolyAlgebra and are functions of the algebra here.  Each
name here calls the others of this module, never the package's new code,
except for the unchanged helpers imported below (the package-relative
imports of glq_relations_check read from colourgl).

_word_product and _word_on_monomial are the two integer kernels that one
staged walk replaced: the product reduces each term depth first, and the
action runs its own stages of d's on the monomial.  They are the oracles
of the walk in tests/test_laurent_kernels.py.

howe_dimension_sweep and glvv_decomposition_depth_d are the sweeps as
they were before both read one walk: the first multiplies k(lambda) by
_dim_glN, the contents over the hooks, and the second walks V's hook
shapes to depth d even when W is purely even.  Their bodies are verbatim
but for one name: they call the package's unchanged _checked_counts, on
the numbers of even and odd generators, as _checked_parity_counts, since
_checked_counts here is the older one on an algebra.  glq_relations_check
here runs this howe_dimension_sweep.

invariant_dimension_by_combinations is the later, integer-kernel
invariant_dimension, with its guard _guard_invariant_basis: it lists both
sides of the zero-weight basis at every degree, even when one side has
no monomial, and multiplies out each combination of z's from the start,
so it is the oracle of the basis and of the z-product rows.
"""

import itertools
from math import comb, prod

from colourgl.gl import (GlElement, SpaceMismatch, _add_ints, _add_into,
                         _to_scalars, bracket)
from colourgl.grading import _merge
from colourgl.partitions import (_count_hook, _in_hook, _sharp, dim_glN,
                                  hook_partitions)
from colourgl.scalars import MINUS_ONE, ONE, ZERO, Scalar
from colourgl.tensor import dual_act
from colourgl.weyl import (INVARIANT_BASIS_CAP, FockVector,
                           MONOMIAL_CAP, OmegaPolyAlgebra,
                           ResourceBoundExceeded, WeylElement,
                           _count_monomials, _derive, _gl_images,
                           dual_pair_generators, fock_algebra)
from colourgl.weyl import _checked_counts as _checked_parity_counts
from parent_partitions import _dim_glN

# the verbatim bodies below call fock_algebra by its former private name
_fock_algebra = fock_algebra


def omega_scalar(s, e, coef=ONE):
    """coef * (-1)^s q^e, with no multiplication when (s, e) = (0, 0)."""
    if e:
        q_e = Scalar.q_power(e)
        coef = q_e if coef is ONE else coef * q_e
    return -coef if s else coef


def weyl_multiply(u, v):
    """Normal-ordered product in the Weyl algebra."""
    u._check(v)
    odd, om = _fock_algebra(u.space, u.copies)._tables
    out = {}

    def reduce_term(xs1, ds1, xs2, ds2, s, e, coef):
        # the term coef * (-1)^s q^e * xs1 ds1 xs2 ds2
        if not ds1:
            merged = _merge(xs1, xs2, odd, om)
            if merged is not None:
                s2, e2, xs = merged
                _add_into(out, (xs, ds2), omega_scalar(s ^ s2, e + e2, coef))
            return
        d = ds1[-1]
        rest = ds1[:-1]
        contractions, (sp, ep) = _derive(d, xs2, om)
        for s2, e2, xs in contractions:
            reduce_term(xs1, rest, xs, ds2, s ^ s2, e + e2, coef)
        # d passes the whole x block and merges into ds2 from the left
        merged = _merge((d,), ds2, odd, om)
        if merged is not None:
            s2, e2, ds = merged
            reduce_term(xs1, rest, xs2, ds, s ^ sp ^ s2, e + ep + e2, coef)

    for (xs1, ds1), cu in u.terms.items():
        for (xs2, ds2), cv in v.terms.items():
            reduce_term(xs1, ds1, xs2, ds2, 0, 0, cu * cv)
    return WeylElement(u.space, u.copies, out)


def weyl_bracket(u, v):
    """Graded commutator u v - omega(d(u), d(v)) v u for homogeneous u, v."""
    du, dv = u.degree(), v.degree()
    if du is None or dv is None:
        raise ValueError("weyl_bracket needs Gamma-homogeneous operands")
    om = u.space.omega(du, dv)
    return weyl_multiply(u, v) - weyl_multiply(v, u).scale(om)


def fock_apply(u, f):
    """Apply a Weyl element to a Fock vector: d's act as derivations,
    x's by multiplication."""
    if u.space != f.space or u.copies != f.copies:
        raise SpaceMismatch("operator and Fock vector mismatch")
    odd, om = _fock_algebra(u.space, u.copies)._tables
    out = {}
    for (xs, ds), cu in u.terms.items():
        for mono, cf in f.terms.items():
            stage = {mono: cu * cf}
            for g in reversed(ds):
                nxt = {}
                for m, c in stage.items():
                    for s, e, dm in _derive(g, m, om)[0]:
                        _add_into(nxt, dm, omega_scalar(s, e, c))
                stage = nxt
            for m, c in stage.items():
                merged = _merge(xs, m, odd, om)
                if merged is not None:
                    s, e, word = merged
                    _add_into(out, word, omega_scalar(s, e, c))
    return FockVector(f.space, f.copies, out)


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


def suite_fock(space, rng, copies):
    if space.dim > 4:
        return None, "skipped (dim V too big)"
    gens = [WeylElement.x_gen(space, copies, a, r)
            for a in range(space.dim) for r in range(copies)]
    gens += [WeylElement.d_gen(space, copies, a, r)
             for a in range(space.dim) for r in range(copies)]
    alg = fock_algebra(space, copies)
    monos = [m for d in range(4) for m in alg.monomials(d)]
    vectors = [FockVector(space, copies, {mono: ONE}) for mono in monos]
    # v.f once per (generator, monomial), reused for every u
    images = [[fock_apply(v, f) for f in vectors] for v in gens]
    for u in gens:
        for v, v_images in zip(gens, images):
            prod = weyl_multiply(u, v)
            for f, vf in zip(vectors, v_images):
                if fock_apply(prod, f) != fock_apply(u, vf):
                    return False, "module axiom failed"
    return True, f"all generator pairs on {len(monos)} monomials"


def invariant_generators_check(space, copies):
    """Filtration-level-1 check: the ad(gl_N)-invariants in the (1,1)
    component of the Weyl algebra are exactly span{Ecal} + C."""
    E, Ecal = dual_pair_generators(space, copies)
    gens = range(space.dim * copies)
    words = [((g,), (h,)) for g in gens for h in gens]
    windex = {w: i for i, w in enumerate(words)}
    rows = []
    for x in itertools.chain.from_iterable(E):
        images = {}
        for i, w in enumerate(words):
            u = WeylElement(space, copies, {w: ONE})
            br = weyl_multiply(x, u) - weyl_multiply(u, x)
            for key, coef in br.terms.items():
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
    then run the Howe dimension sweep."""
    from colourgl.presets import glq_space
    from colourgl.scalars import Q

    space = glq_space(m, n)
    zero = WeylElement(space, copies)
    relations_ok = True

    def xg(i, r):
        return WeylElement.x_gen(space, copies, i, r)

    def dg(i, r):
        return WeylElement.d_gen(space, copies, i, r)

    def holds(u, v, coef, rhs=zero):
        # u v - coef v u == rhs
        return (weyl_multiply(u, v) - weyl_multiply(v, u).scale(coef)
                - rhs).is_zero()

    for i, j in itertools.combinations_with_replacement(range(m + n), 2):
        sign = MINUS_ONE if (i >= m and j >= m) else ONE
        q, q_inv = (ONE, ONE) if i == j else (Q, Q.inverse())
        for r, s in itertools.product(range(copies), repeat=2):
            # x_i^r x_j^s = (-1)^[i][j] q x_j^s x_i^r for i < j, without
            # the q for i = j, the d analogue, and d_i^r x_j^s
            # - (-1)^[i][j] q^-1 x_j^s d_i^r = delta_ij delta_rs
            delta = WeylElement.one(space, copies) if (i, r) == (j, s) \
                else zero
            relations_ok &= holds(xg(i, r), xg(j, s), sign * q)
            relations_ok &= holds(dg(i, r), dg(j, s), sign * q)
            relations_ok &= holds(dg(i, r), xg(j, s), sign * q_inv, delta)
    sweep = howe_dimension_sweep(space, copies, max_degree)
    return {
        "m": m, "n": n, "copies": copies,
        "relations_hold": bool(relations_ok),
        "sweep": sweep,
        "sweep_ok": all(row["equal"] for row in sweep),
    }


def _gl_action_on_generators(space_v, copies, dual_copies):
    """(x_row, action) of each E_ab on fock_algebra(space_v, copies,
    dual_copies), for derivation_apply: x(c,r) -> delta x(a,r), xbar(c,s)
    -> -omega(d(X), -gamma_c) delta xbar(b,s), as dual_act acts on V*.
    x_row holds the pair of omega(g_a - g_b, gamma_c) on x(c,r) and, as
    omega(X, -gamma) = omega(X, gamma)^-1, the same pair with its exponent
    negated on xbar(c,s)."""
    n = space_v.dim
    pairs = space_v._omega_pairs
    actions = {}
    for a in range(n):
        for b in range(n):
            row = [(sa ^ sb, ea - eb)
                   for (sa, ea), (sb, eb) in zip(pairs[a], pairs[b])]
            x_row = tuple(p for p in row for _ in range(copies)) + tuple(
                (s, -e) for s, e in row for _ in range(dual_copies))
            act = {}
            for r in range(copies):
                act[b * copies + r] = [(a * copies + r, ONE)]
            om = dual_act(GlElement.matrix_unit(space_v, a, b), {a: ONE})[b]
            for s in range(dual_copies):
                act[n * copies + a * dual_copies + s] = [
                    (n * copies + b * dual_copies + s, om)]
            actions[(a, b)] = (x_row, act)
    return actions


def invariant_dimension(space, copies, dual_copies, degree):
    """Dimension of the gl(V)-invariants in the bidegree (d, d) component
    of S_omega(V^N + Vbar^N'), by exact nullspace over Q(q).

    Verifies the count against the second fundamental theorem sum
    sum_lambda dim L_lambda(gl_N) dim L_lambda(gl_N') and that degree-d
    products of the quadratic invariants z_rs span the kernel."""
    n = space.dim
    x_alg = fock_algebra(space, copies)
    xbar_alg = fock_algebra(space, 0, dual_copies)
    # the zero-weight basis pairs an x- with an xbar-monomial
    size = count_monomials(x_alg, degree) * count_monomials(xbar_alg, degree)
    if size > INVARIANT_BASIS_CAP:
        raise ResourceBoundExceeded("invariant_dimension", size,
                                    INVARIANT_BASIS_CAP)
    alg = fock_algebra(space, copies, dual_copies)

    def flat_count(mono, copies_):
        counts = [0] * n
        for g in mono:
            counts[g // copies_] += 1
        return tuple(counts)

    # zero-weight basis: x-part and dual-part use each flat index equally.
    # Every x id is below every xbar id, so xm + xb is sorted as it stands.
    by_type = {}
    for mono in x_alg.monomials(degree):
        by_type.setdefault(flat_count(mono, copies), []).append(mono)
    basis = []
    for mono in xbar_alg.monomials(degree):
        xb = tuple(g + n * copies for g in mono)
        basis.extend(xm + xb
                     for xm in by_type.get(flat_count(mono, dual_copies), ()))
    basis.sort()
    index = {mono: i for i, mono in enumerate(basis)}

    # the image of every E_ab on every basis element, computed once
    images = {(a, b): [alg.derivation_apply(act, x_row, mono)
                       for mono in basis]
              for (a, b), (x_row, act) in _gl_action_on_generators(
                  space, copies, dual_copies).items()}
    rows = []
    for (a, b), imgs in images.items():
        if a == b:
            if any(imgs):
                raise AssertionError(
                    f"E[{a},{a}] does not vanish on the zero-weight basis")
            continue
        columns = {}
        for i, img in enumerate(imgs):
            for target, coef in img.items():
                columns.setdefault(target, {})[i] = coef
        rows.extend(columns.values())
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
    span_rows = []
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
        if not vec:
            continue
        if not vec.keys() <= index.keys():
            raise AssertionError(
                f"a product of z's leaves the zero-weight basis: {combo}")
        row = {index[m]: c for m, c in vec.items()}
        # each product must be killed by every generator
        for (a, b), imgs in images.items():
            defect = {}
            for i, coef in row.items():
                for tgt, c in imgs[i].items():
                    _add_into(defect, tgt, coef * c)
            if defect:
                raise AssertionError(
                    f"z-monomial not invariant under E[{a},{b}]")
        span_rows.append(row)
    if rank_of_rows(span_rows) != nullity:
        raise AssertionError("z-monomials do not span the invariants")
    return nullity


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


def _multichoose(n, k):
    """Multisets of size k from n symbols; 1 for k = 0 even when n = 0."""
    if k == 0:
        return 1
    return comb(n + k - 1, k) if n > 0 else 0


def count_monomials(self, total):
    even = sum(1 for p in self.parities if p == 1)
    odd = len(self.parities) - even
    return sum(_multichoose(even, total - j) * comb(odd, j)
               for j in range(min(odd, total) + 1))


def _series_counts(self, max_degree):
    """[dim S^d for d = 0..max_degree]: the coefficients of t^d in
    prod_even (1 - t)^-1 * prod_odd (1 + t), by O(n * max_degree)
    integer additions and without listing a monomial."""
    coeffs = [1] + [0] * max_degree
    for p in self.parities:
        if p == 1:  # times (1 - t)^-1: running sums
            for d in range(1, max_degree + 1):
                coeffs[d] += coeffs[d - 1]
        else:  # times (1 + t)
            for d in range(max_degree, 0, -1):
                coeffs[d] += coeffs[d - 1]
    return coeffs


def _checked_counts(alg, max_degree):
    """[dim S^d for d <= max_degree] from the generating series, each
    cross-checked against the closed form count_monomials.  A sweep whose
    monomials of degree <= max_degree number more than MONOMIAL_CAP is
    refused, by the closed forms, before the series is built."""
    forms, size = [], 0
    for d in range(max_degree + 1):
        forms.append(count_monomials(alg, d))
        size += forms[-1]
        if size > MONOMIAL_CAP:
            raise ResourceBoundExceeded(f"the sweep to degree {d}", size,
                                        MONOMIAL_CAP)
    counts = _series_counts(alg, max_degree)
    for d, (count, closed) in enumerate(zip(counts, forms)):
        if count != closed:
            raise AssertionError(
                f"monomial count {count} != closed form {closed} at d={d}")
    return counts


def glvv_decomposition(space_v, space_w, max_degree):
    """Howe duality for a pair of graded spaces: per-degree dimension of
    S_omega(V* x W) against sum_lambda k_V(lambda) k_W(lambda), plus the
    paired-weight table for |lambda| <= max_degree.  The dimension is
    counted as in howe_dimension_sweep."""
    if space_v.factor != space_w.factor:
        raise SpaceMismatch("spaces must share one commutative factor")
    degrees = [dw - dv
               for dv in space_v.degrees for dw in space_w.degrees]
    alg = OmegaPolyAlgebra(space_v.factor, degrees)
    rows = []
    for d, count in enumerate(_checked_counts(alg, max_degree)):
        total = sum(
            _count_hook(lam, space_v.m_plus, space_v.m_minus)
            * _count_hook(lam, space_w.m_plus, space_w.m_minus)
            for lam in hook_partitions(space_v.m_plus, space_v.m_minus, d, d))
        rows.append({"degree": d, "algebra_dimension": count,
                     "module_sum": total, "equal": count == total})
    pairs = []
    for d in range(max_degree + 1):
        for lam in hook_partitions(space_v.m_plus, space_v.m_minus, d, d):
            if _in_hook(lam, space_w.m_plus, space_w.m_minus):
                pairs.append({
                    "partition": lam,
                    "sharp_v": _sharp(lam, space_v.m_plus, space_v.m_minus),
                    "sharp_w": _sharp(lam, space_w.m_plus, space_w.m_minus),
                })
    return rows, pairs


def howe_dimension_sweep(space, copies, max_degree):
    """Per degree d: dim S^d against sum_lambda k(lambda) dim L_lambda(gl_N).
    dim S^d is counted, not listed: the coefficient of t^d in the
    generating series of the Fock algebra S_omega(V^N), cross-checked
    against the closed form, both from (M+ N, M- N)."""
    rows = []
    for d, count in enumerate(_checked_parity_counts(
            space.m_plus * copies, space.m_minus * copies, max_degree)):
        total = sum(_count_hook(lam, space.m_plus, space.m_minus)
                    * _dim_glN(lam, copies)
                    for lam in hook_partitions(space.m_plus, space.m_minus,
                                               copies, d))
        rows.append({"degree": d, "fock_dimension": count,
                     "module_sum": total, "equal": count == total})
    return rows


def glvv_decomposition_depth_d(space_v, space_w, max_degree):
    """Howe duality for a pair of graded spaces: per-degree dimension of
    S_omega(V* x W) against sum_lambda k_V(lambda) k_W(lambda), plus the
    paired-weight table for |lambda| <= max_degree.  The dimension is
    counted as in howe_dimension_sweep.  One walk over the hook shapes of
    V per degree gives both: lambda is in the hook of W exactly when
    k_W(lambda) is nonzero, as hs_lambda vanishes off the hook.  E_vw is
    odd exactly when one of v and w is odd."""
    if space_v.factor != space_w.factor:
        raise SpaceMismatch("spaces must share one commutative factor")
    vp, vm, wp, wm = (space_v.m_plus, space_v.m_minus, space_w.m_plus,
                      space_w.m_minus)
    rows, pairs = [], []
    for d, count in enumerate(_checked_parity_counts(
            vp * wp + vm * wm, vp * wm + vm * wp, max_degree)):
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


def _guard_invariant_basis(space, copies, dual_copies, degrees):
    """Refuse invariant_dimension at the first of `degrees` whose
    zero-weight basis, an x- times an xbar-monomial, is larger than
    INVARIANT_BASIS_CAP: by the closed forms on the parities of V, before
    any generator is listed.  xbar(a, s) has degree -gamma_a, whose
    parity omega(-gamma_a, -gamma_a) = omega(gamma_a, gamma_a) is that of
    x(a, r).  Its dim V (N + N') generators are bounded by the same cap
    first, as each degree lists them all, degree 0 included; for dim V >=
    2 that refuses no degree d >= 1 that the basis bound allows."""
    gens = space.dim * (copies + dual_copies)
    if gens > INVARIANT_BASIS_CAP:
        raise ResourceBoundExceeded("invariant_dimension", gens,
                                    INVARIANT_BASIS_CAP, "generators")
    odd = space.parities.count(-1)
    for d in degrees:
        size = prod(_count_monomials((space.dim - odd) * n, odd * n, d)
                    for n in (copies, dual_copies))
        if size > INVARIANT_BASIS_CAP:
            raise ResourceBoundExceeded("invariant_dimension", size,
                                        INVARIANT_BASIS_CAP)


def invariant_dimension_by_combinations(space, copies, dual_copies, degree):
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
