"""The bicharacter, jacobi-skew, coxeter-braid and gl-equivariance suites
of verify as they were before they ran on integer omega pairs, and the
scalar-field suite as it was before its random scalars had int
coefficients, kept verbatim as oracles for tests/test_integer_suites.py.

suite_bicharacter multiplies factor.omega Scalars, suite_jacobi takes
jacobi_defect and skew_defect of GlElements, suite_coxeter compares
braiding_apply images of TensorVectors, and suite_equivariance commutes
braiding_apply with gl_act_tensor on TensorVectors, the Scalar prefix
walk that parent_tensor keeps.  _random_scalar built Fraction
coefficients, which the Scalar constructor cleared to ints.

_random_degree and _random_int_scalar are verify's draws as they were
before they drew by rng.choice over constant ranges: each value came from
rng.randint, and a degree was built through group.degree, checked and
reduced.  suite_bicharacter draws through this _random_degree.
suite_fock is the fock-module suite as it was before it kept one image
table per word: it memoised each image under its (word, monomial) key
and took the images of v over every monomial once per pair (u, v).
suite_fock_images is the suite as it was before it built its products
and images as tables before its loops: each word's _Images, a dict that
formed an image on its first lookup, and each product u v formed inside
the loop over u and v.  tests/test_fock_tables.py runs it beside
verify.suite_fock.
"""

import itertools
from fractions import Fraction

from colourgl.gl import GlElement, _add_ints, jacobi_defect, skew_defect
from colourgl.scalars import Scalar
from colourgl.tensor import TensorVector, braiding_apply
from colourgl.weyl import _word_on_monomial, _word_product, fock_algebra
from parent_tensor import gl_act_tensor


def _random_degree(group, rng, span=5):
    coords = [rng.randint(-span, span) for _ in range(group.free_rank)]
    coords += [rng.randint(0, 1) for _ in range(group.torsion2_rank)]
    return group.degree(*coords)


def _random_int_scalar(rng):
    num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
    if not any(num):
        num[0] = 1
    return Scalar(rng.randint(-2, 2), tuple(num))


def suite_bicharacter(space, rng, samples):
    factor = space.factor
    group = factor.group
    for _ in range(samples):
        a, b, c = (_random_degree(group, rng) for _ in range(3))
        if factor.omega(a, b + c) != factor.omega(a, b) * factor.omega(a, c):
            return False, f"additivity failed at {a}, {b}, {c}"
        if factor.omega(a + b, c) != factor.omega(a, c) * factor.omega(b, c):
            return False, f"additivity failed at {a}, {b}, {c}"
        if not (factor.omega(a, b) * factor.omega(b, a)).is_one():
            return False, f"inversion failed at {a}, {b}"
        if not (factor.omega(a, a) ** 2).is_one():
            return False, f"parity not a sign at {a}"
    return True, f"{samples} random triples"


def _random_scalar(rng):
    num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
    if all(c == 0 for c in num):
        num[0] = Fraction(1)
    return Scalar(rng.randint(-2, 2), tuple(num))


def suite_scalar_field(space, rng, samples):
    for _ in range(samples):
        x, y = _random_scalar(rng), _random_scalar(rng)
        if not ((x / y) * (y / x)).is_one():
            return False, f"(x/y)(y/x) != 1 for {x}, {y}"
        if Scalar.parse(str(x)) != x:
            return False, f"string round trip failed for {x}"
    return True, f"{samples} random scalars"


def suite_jacobi(space, rng, exhaustive):
    units = [GlElement.matrix_unit(space, a, b)
             for a in range(space.dim) for b in range(space.dim)]
    if exhaustive and space.dim <= 4:
        triples = itertools.product(units, repeat=3)
        label = f"all {len(units)}^3 basis triples"
    else:
        triples = [tuple(rng.choice(units) for _ in range(3))
                   for _ in range(60)]
        label = "60 random basis triples"
    count = 0
    for x, y, z in triples:
        if not jacobi_defect(x, y, z).is_zero():
            return False, "jacobi defect nonzero"
        count += 1
    for x, y in itertools.product(units, repeat=2):
        if not skew_defect(x, y).is_zero():
            return False, "skew defect nonzero"
    return True, label


def suite_coxeter(space, rng, r_max):
    for r in range(2, r_max + 1):
        if space.dim ** r <= 1024:
            words = itertools.product(range(space.dim), repeat=r)
        else:
            words = [tuple(rng.randrange(space.dim) for _ in range(r))
                     for _ in range(50)]
        for word in words:
            v = TensorVector.basis_word(space, word)
            for i in range(r - 1):
                if braiding_apply(i, braiding_apply(i, v)) != v:
                    return False, f"sigma_{i}^2 != id on {word}"
                for j in range(i + 2, r - 1):
                    lhs = braiding_apply(i, braiding_apply(j, v))
                    rhs = braiding_apply(j, braiding_apply(i, v))
                    if lhs != rhs:
                        return False, f"distant sigmas do not commute"
            for i in range(r - 2):
                lhs = braiding_apply(
                    i, braiding_apply(i + 1, braiding_apply(i, v)))
                rhs = braiding_apply(
                    i + 1, braiding_apply(i, braiding_apply(i + 1, v)))
                if lhs != rhs:
                    return False, f"braid relation failed at {i} on {word}"
    return True, f"Coxeter presentation up to r = {r_max}"


def suite_equivariance(space, rng, samples):
    r = 3
    for _ in range(samples):
        word = tuple(rng.randrange(space.dim) for _ in range(r))
        v = TensorVector.basis_word(space, word)
        a, b = rng.randrange(space.dim), rng.randrange(space.dim)
        x = GlElement.matrix_unit(space, a, b)
        for i in range(r - 1):
            lhs = braiding_apply(i, gl_act_tensor(x, v))
            rhs = gl_act_tensor(x, braiding_apply(i, v))
            if lhs != rhs:
                return False, f"[gl, sigma_{i}] != 0 on {word}"
    return True, f"{samples} random words, r = {r}"


def suite_fock(space, rng, copies):
    if space.dim > 4:
        return None, "skipped (dim V too big)"
    alg = fock_algebra(space, copies)
    n = space.dim * copies
    gens = [((g,), ()) for g in range(n)] + [((), (g,)) for g in range(n)]
    monos = [m for d in range(4) for m in alg.monomials(d)]
    images = {}  # (word, monomial) -> its image, for this call only

    def image(word, mono):
        img = images.get((word, mono))
        if img is None:
            img = images[word, mono] = _word_on_monomial(alg, *word, mono)
        return img

    for u, v in itertools.product(gens, repeat=2):
        prod = _word_product(alg, *u, *v)
        for mono in monos:
            # u (v f) - (u v) f for f = mono
            defect = {}
            for (m, e), c in image(v, mono).items():
                _add_ints(defect, image(u, m), c, e)
            for (w, e), c in prod.items():
                _add_ints(defect, image(w, mono), -c, e)
            if any(defect.values()):
                return False, "module axiom failed"
    return True, f"all generator pairs on {len(monos)} monomials"


class _Images(dict):
    """{monomial: its image} under one word of alg, each image taken by
    _word_on_monomial on its first lookup."""

    __slots__ = ("alg", "word")

    def __init__(self, alg, word):
        super().__init__()
        self.alg, self.word = alg, word

    def __missing__(self, mono):
        img = self[mono] = _word_on_monomial(self.alg, *self.word, mono)
        return img


def suite_fock_images(space, rng, copies):
    if space.dim > 4:
        return None, "skipped (dim V too big)"
    alg = fock_algebra(space, copies)
    n = space.dim * copies
    gens = [((g,), ()) for g in range(n)] + [((), (g,)) for g in range(n)]
    monos = [m for d in range(4) for m in alg.monomials(d)]
    tables = {}  # word -> its _Images, for this call only

    def table(word):
        found = tables.get(word)
        if found is None:
            found = tables[word] = _Images(alg, word)
        return found

    listed = {v: list(map(table(v).__getitem__, monos)) for v in gens}
    for u in gens:
        u_images = table(u)
        for v in gens:
            # u (v f) - (u v) f for f = mono
            prod = [(table(w), c, e)
                    for (w, e), c in _word_product(alg, *u, *v).items()]
            for mono, v_image in zip(monos, listed[v]):
                defect = {}
                for (m, e), c in v_image.items():
                    _add_ints(defect, u_images[m], c, e)
                for w_images, c, e in prod:
                    _add_ints(defect, w_images[mono], -c, e)
                if any(defect.values()):
                    return False, "module axiom failed"
    return True, f"all generator pairs on {len(monos)} monomials"
