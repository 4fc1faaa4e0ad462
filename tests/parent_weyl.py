"""The Weyl-algebra routines as they were before the integer Laurent
kernels, kept verbatim as oracles for tests/test_laurent_kernels.py.

weyl_multiply and fock_apply straighten with one Scalar per leaf,
verify_dual_pair brackets WeylElements, and suite_fock compares
FockVectors; omega_scalar multiplies by a q_power Scalar.  Each name here
calls the others of this module, never the package's new code, except
for the unchanged helpers imported below.
"""

from colourgl.gl import GlElement, SpaceMismatch, _add_into, bracket
from colourgl.grading import _merge
from colourgl.scalars import ONE, Scalar
from colourgl.weyl import (FockVector, WeylElement, _derive, _fock_algebra,
                           dual_pair_generators, fock_algebra)


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
