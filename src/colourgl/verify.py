"""Batch verification suites behind the `verify` subcommand.

Each suite returns {"name", "passed", "detail"}; a suite that did not run
returns "passed": null and "skipped": true instead of a verdict.  Seeded
randomness makes a job reproducible from its inputs alone.

On matrix units and basis words every structure constant is some
(-1)^s q^e, so most suites check their identities on exact integers:
bicharacter compares the pairs (s, e) of CommutativeFactor._pairings,
jacobi-skew brackets matrix units with integer Laurent coefficients
(gl._bracket_ints), each ordered pair of units once, into a table built
whole before its loops, as its skew loop reads every pair, and takes
omega(d(X), d(Y)), a second such table, from the factor rather than from
the _omega_pairs table the brackets read, coxeter-braid follows
one term (s, e, word) through each sigma word (tensor._swap),
gl-equivariance commutes E_ab (tensor._act, the kernel the schur-weyl and
casimir jobs run) with sigma_i (tensor._swap) on integer terms, and
fock-module and dual-pair compare the integer walk of weyl, dual-pair
against the abstract brackets of gl._bracket_ints.  A Scalar still
enters in scalar-field, which tests Scalar arithmetic itself, and in
forms-roots (bracket and the supertrace form).  forms-roots checks
gl.rho on the roots of gl.positive_roots: (rho, eps_i - eps_sbar) on each
odd root, and rho against its definition, half the sum of the even
positive roots less half that of the odd ones.  gl.rho halves
gl._two_rho, the 2 rho that typicality, the classification and the
Casimir eigenvalue of reps read, so this checks the rho of every weight
job.
forms-roots leaves out gl.pbw_dimension_nilradical: 2^(M+ M-) is a
closed form, and the count of square-free words it stands for equals it
by the binomial theorem, so no check of it could fail.

jacobi-skew checks skew symmetry on all dim V ** 4 ordered pairs of
matrix units, at either level, so run_verification refuses a space past
SKEW_PAIRS_CAP of them before any suite runs.

_random_degree and _random_scalar draw each integer in a..b as
rng.choice(range(a, b + 1)), over ranges built once.  choice(seq) is
seq[rng._randbelow(len(seq))] and randint(a, b) is a + rng._randbelow(b -
a + 1): one _randbelow call of the same width each, so the values and the
rng state after each suite are those of rng.randint(a, b), on Python 3.10
to 3.13 alike, with two Python frames fewer per draw.  _random_degree's
draws are reduced already, so it builds its degree by grading._degree,
unchecked.  fock-module reads every product u v of two generators and
every image it needs in full, so it builds both as tables before its
loops: each product once, and one table {monomial: image} per distinct
word, a generator's over the monomials of degree <= 4 and a product
word's over those of degree < 4, each image formed once.
"""

import itertools
import random

from .gl import (GlElement, ResourceBoundExceeded, _add_ints, _bracket_ints,
                 bilinear_form, bracket, positive_roots, rho, supertrace,
                 weight_inner)
from .grading import _degree
from .scalars import Scalar
from .tensor import _act, _swap
from .weyl import (_word_on_monomial, _word_product, fock_algebra,
                   require_dimension, verify_dual_pair)

# most ordered pairs of matrix units, dim V ** 4, whose skew symmetry the
# jacobi-skew suite checks at either level: it admits dim V <= 20, where
# verify on green(20) takes about 5 s on a 2-vCPU machine
SKEW_PAIRS_CAP = 20 ** 4


# the values of a free and of a torsion coordinate of _random_degree, and of
# a coefficient, an exponent and a length of _random_scalar
_FREE, _TORSION = range(-5, 6), range(2)
_COEF, _SHIFT, _LENGTH = range(-4, 5), range(-2, 3), range(1, 4)


def _random_degree(group, rng):
    """A degree of group with free coordinates in -5..5 and torsion ones in
    0..1, drawn in coordinate order."""
    return _degree(group, tuple(map(rng.choice, (_FREE,) * group.free_rank
                                    + (_TORSION,) * group.torsion2_rank)))


def _random_scalar(rng):
    draw = rng.choice
    num = [draw(_COEF) for _ in range(draw(_LENGTH))]
    if not any(num):
        num[0] = 1
    return Scalar(draw(_SHIFT), tuple(num))


def suite_bicharacter(space, rng, samples):
    # omega(a, b) = (-1)^s q^e is the pair (s, e) of _pairings, s in {0, 1}:
    # a product of omegas is the XOR of the signs and the sum of the
    # exponents, and omega(a, a)^2 = q^(2e) is one exactly when e = 0
    factor = space.factor
    group = factor.group
    pair = factor._pairings
    for _ in range(samples):
        a, b, c = (_random_degree(group, rng) for _ in range(3))
        (s_ab, e_ab), (s_ac, e_ac) = pair(a, b), pair(a, c)
        if pair(a, b + c) != (s_ab ^ s_ac, e_ab + e_ac):
            return False, f"additivity failed at {a}, {b}, {c}"
        s_bc, e_bc = pair(b, c)
        if pair(a + b, c) != (s_ac ^ s_bc, e_ac + e_bc):
            return False, f"additivity failed at {a}, {b}, {c}"
        s_ba, e_ba = pair(b, a)
        if s_ab ^ s_ba or e_ab + e_ba:
            return False, f"inversion failed at {a}, {b}"
        if pair(a, a)[1]:
            return False, f"parity not a sign at {a}"
    return True, f"{samples} random triples"


def suite_scalar_field(space, rng, samples):
    for _ in range(samples):
        x, y = _random_scalar(rng), _random_scalar(rng)
        if not ((x / y) * (y / x)).is_one():
            return False, f"(x/y)(y/x) != 1 for {x}, {y}"
        if Scalar.parse(str(x)) != x:
            return False, f"string round trip failed for {x}"
    return True, f"{samples} random scalars"


def suite_jacobi(space, rng, exhaustive):
    units = [(a, b) for a in range(space.dim) for b in range(space.dim)]
    if exhaustive and space.dim <= 4:
        triples = itertools.product(units, repeat=3)
        label = f"all {len(units)}^3 basis triples"
    else:
        triples = [tuple(rng.choice(units) for _ in range(3))
                   for _ in range(60)]
        label = "60 random basis triples"
    pairs, degrees = space._omega_pairs, space.degrees
    pairing = space.factor._pairings
    # the skew loop reads every ordered pair of units, so each table is
    # built whole, every unit bracket once; omega(d(E_x), d(E_y)) comes
    # from the factor, not from _omega_pairs, which the brackets read: the
    # check stays independent of the table
    ints = {x: {(x, 0): 1} for x in units}
    brackets = {(x, y): _bracket_ints(pairs, ints[x], ints[y])
                for x in units for y in units}
    omegas = {(x, y): pairing(degrees[x[0]] - degrees[x[1]],
                              degrees[y[0]] - degrees[y[1]])
              for x in units for y in units}
    for x, y, z in triples:
        # [X,[Y,Z]] - [[X,Y],Z] - omega(d(X),d(Y)) [Y,[X,Z]]
        s, e = omegas[x, y]
        defect = _bracket_ints(pairs, ints[x], brackets[y, z])
        _add_ints(defect, _bracket_ints(pairs, brackets[x, y], ints[z]), -1)
        _add_ints(defect, _bracket_ints(pairs, ints[y], brackets[x, z]),
                  1 if s else -1, e)
        if any(defect.values()):
            return False, "jacobi defect nonzero"
    for (x, y), (s, e) in omegas.items():
        # [X,Y] + omega(d(X),d(Y)) [Y,X], the pairs in the order of units
        defect = dict(brackets[x, y])
        _add_ints(defect, brackets[y, x], -1 if s else 1, e)
        if any(defect.values()):
            return False, "skew defect nonzero"
    return True, label


def suite_coxeter(space, rng, r_max):
    # sigma_i sends the term (s, e, word), word times (-1)^s q^e, to one
    # term, so a sigma word is followed on integer pairs by tensor._swap
    pairs = space._omega_pairs

    def sigma(i, term):
        return _swap(pairs, i, term)

    for r in range(2, r_max + 1):
        if space.dim ** r <= 1024:
            words = itertools.product(range(space.dim), repeat=r)
        else:
            words = [tuple(rng.randrange(space.dim) for _ in range(r))
                     for _ in range(50)]
        for word in words:
            v = (0, 0, word)
            for i in range(r - 1):
                if sigma(i, sigma(i, v)) != v:
                    return False, f"sigma_{i}^2 != id on {word}"
                for j in range(i + 2, r - 1):
                    if sigma(i, sigma(j, v)) != sigma(j, sigma(i, v)):
                        return False, (f"sigma_{i} and sigma_{j} do not "
                                       f"commute on {word}")
            for i in range(r - 2):
                lhs = sigma(i, sigma(i + 1, sigma(i, v)))
                rhs = sigma(i + 1, sigma(i, sigma(i + 1, v)))
                if lhs != rhs:
                    return False, f"braid relation failed at {i} on {word}"
    return True, f"Coxeter presentation up to r = {r_max}"


def suite_equivariance(space, rng, samples):
    # E_ab by tensor._act, the kernel of schur-weyl and casimir, and
    # sigma_i by tensor._swap, on the terms {(word, e): n} of n q^e word
    pairs = space._omega_pairs
    r = 3

    def sigma(i, terms):
        out = {}  # sigma_i is a bijection on terms: no two keys meet
        for (word, e), n in terms.items():
            s, e, word = _swap(pairs, i, (0, e, word))
            out[word, e] = -n if s else n
        return out

    for _ in range(samples):
        word = tuple(rng.randrange(space.dim) for _ in range(r))
        v = {(word, 0): 1}
        a, b = rng.randrange(space.dim), rng.randrange(space.dim)
        for i in range(r - 1):
            lhs = sigma(i, _act(pairs, a, b, v))
            if lhs != _act(pairs, a, b, sigma(i, v)):
                return False, f"[gl, sigma_{i}] != 0 on {word}"
    return True, f"{samples} random words, r = {r}"


def suite_forms(space, rng, samples):
    units = [GlElement.matrix_unit(space, a, b)
             for a in range(space.dim) for b in range(space.dim)]
    for _ in range(samples):
        x, y, z = (rng.choice(units) for _ in range(3))
        if bilinear_form(bracket(x, y), z) != bilinear_form(x, bracket(y, z)):
            return False, "form is not ad-invariant"
        if not supertrace(bracket(x, y)).is_zero():
            return False, "supertrace of a bracket is nonzero"
    mp, mm = space.m_plus, space.m_minus
    r = rho(space)
    even, odd = positive_roots(space)
    for root in odd:
        # eps_i - eps_sbar, for the 1-based i <= M+ and s <= M-
        i, s = root.index(1) + 1, root.index(-1) - mp + 1
        if weight_inner(space, r, root) != mp - s - i + 1:
            return False, f"(rho, eps_{i}-eps_{s}bar) wrong"
    if len(even) != mp * (mp - 1) // 2 + mm * (mm - 1) // 2 or \
            len(odd) != mp * mm:
        return False, "positive root counts wrong"
    # rho = rho_0 - rho_1, the half-sums of the even and the odd positive
    # roots: this pins every coordinate, where the pairings above leave a
    # shift by c on the even block and -c on the odd one free
    if any(2 * x != sum(e[a] for e in even) - sum(o[a] for o in odd)
           for a, x in enumerate(r)):
        return False, "rho is not the half-sum rho_0 - rho_1"
    return True, f"{samples} random triples + root data"


def suite_fock(space, rng, copies):
    if space.dim > 4:
        return None, "skipped (dim V too big)"
    alg = fock_algebra(space, copies)
    n = space.dim * copies
    gens = [((g,), ()) for g in range(n)] + [((), (g,)) for g in range(n)]
    monos = [m for d in range(4) for m in alg.monomials(d)]
    # every product u v, and the image of every word the loops read on
    # every monomial they read it on, each formed once before the loops: a
    # generator u on the monomials of v f, of degree <= 4, and a product
    # word on f; no product word is one letter long, so no word is in both
    products = {(u, v): _word_product(alg, *u, *v)
                for u in gens for v in gens}
    reads = {**dict.fromkeys(gens, monos + alg.monomials(4)),
             **dict.fromkeys((w for prod in products.values()
                              for w, _ in prod), monos)}
    images = {word: {m: _word_on_monomial(alg, *word, m) for m in on}
              for word, on in reads.items()}
    for u in gens:
        u_images = images[u]
        for v in gens:
            # u (v f) - (u v) f for f = mono
            v_images = images[v]
            prod = [(images[w], c, e)
                    for (w, e), c in products[u, v].items()]
            for mono in monos:
                defect = {}
                for (m, e), c in v_images[mono].items():
                    _add_ints(defect, u_images[m], c, e)
                for w_images, c, e in prod:
                    _add_ints(defect, w_images[mono], -c, e)
                if any(defect.values()):
                    return False, "module axiom failed"
    return True, f"all generator pairs on {len(monos)} monomials"


def suite_dual_pair(space, rng, copies):
    if space.dim > 3:
        return None, "skipped (dim V too big)"
    ok = verify_dual_pair(space, copies)
    return ok, f"N = {copies} exhaustive brackets"


def run_verification(space, level="full", rng=None):
    """Run every suite on space, refused before the first one when the
    skew pairs of jacobi-skew number more than SKEW_PAIRS_CAP."""
    require_dimension(space, "verify")
    ResourceBoundExceeded.check("the jacobi-skew suite", space.dim ** 4,
                                SKEW_PAIRS_CAP, "pairs of matrix units")
    rng = rng or random.Random(0)
    full = level == "full"
    plan = [
        ("bicharacter", suite_bicharacter, 200 if full else 50),
        ("scalar-field", suite_scalar_field, 100 if full else 25),
        ("jacobi-skew", suite_jacobi, full),
        ("coxeter-braid", suite_coxeter, 5 if full else 3),
        ("gl-equivariance", suite_equivariance, 40 if full else 10),
        ("forms-roots", suite_forms, 60 if full else 15),
        ("fock-module", suite_fock, 2 if full else 1),
        ("dual-pair", suite_dual_pair, 2 if full else 1),
    ]
    results = []
    for name, fn, arg in plan:
        passed, detail = fn(space, rng, arg)
        if passed is None:
            results.append({"name": name, "passed": None, "skipped": True,
                            "detail": detail})
        else:
            results.append({"name": name, "passed": bool(passed),
                            "detail": detail})
    return results
