"""Batch verification suites behind the `verify` subcommand.

Each suite returns {"name", "passed", "detail"}; a suite that did not run
returns "passed": null and "skipped": true instead of a verdict.  Seeded
randomness makes a job reproducible from its inputs alone.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .gl import (GlElement, bilinear_form, bracket, jacobi_defect,
                 positive_roots, rho, skew_defect, supertrace,
                 pbw_dimension_nilradical, weight_inner)
from .scalars import Scalar
from .tensor import TensorVector, braiding_apply, gl_act_tensor
from .weyl import (_add_ints, _word_on_monomial, _word_product, fock_algebra,
                   verify_dual_pair)


def _random_degree(group, rng, span=5):
    coords = [rng.randint(-span, span) for _ in range(group.free_rank)]
    coords += [rng.randint(0, 1) for _ in range(group.torsion2_rank)]
    return group.degree(*coords)


def _random_scalar(rng):
    num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
    if all(c == 0 for c in num):
        num[0] = Fraction(1)
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
    for i in range(1, mp + 1):
        for s in range(1, mm + 1):
            root = tuple(
                Fraction(int(a == i - 1)) - Fraction(int(a == mp + s - 1))
                for a in range(space.dim))
            if weight_inner(space, r, root) != mp - s - i + 1:
                return False, f"(rho, eps_{i}-eps_{s}bar) wrong"
    even, odd = positive_roots(space)
    if len(even) != mp * (mp - 1) // 2 + mm * (mm - 1) // 2 or \
            len(odd) != mp * mm:
        return False, "positive root counts wrong"
    pbw_dimension_nilradical(space)
    return True, f"{samples} random triples + root data"


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


def suite_dual_pair(space, rng, copies):
    if space.dim > 3:
        return None, "skipped (dim V too big)"
    ok = verify_dual_pair(space, copies)
    return ok, f"N = {copies} exhaustive brackets"


def run_verification(space, level="full", rng=None):
    if space.dim == 0:
        raise ValueError("verify needs a space of dimension at least 1; "
                         "this one has dim V = 0")
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
