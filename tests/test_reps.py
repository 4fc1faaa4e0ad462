import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from colourgl.gl import GlElement, GradedSpace
from colourgl.partitions import (check_partition, count_hook_tableaux, in_hook,
                                 lambda_sharp, partitions_of)
from colourgl.presets import glq_space, green_space, super_space, z2z2_space
from colourgl.reps import (DualWeightUnsupported, KacModule, UnsupportedFactor,
                           UnsupportedSpace, casimir_defect,
                           casimir_eigenvalue, classify_unitarisable,
                           dual_weight, gram_report, is_finite_dimensional,
                           kac_dimension, symmetric_inertia, typicality)
from colourgl.tensor import TensorVector, gl_act_tensor, highest_weight_vector
from colourgl.weyl import _reduce, rank_of_rows
from parent_tensor import casimir_apply
from test_kac_memo import CASES, OracleAction, _module


F = Fraction


def test_dominance(super11, super21, super20):
    assert is_finite_dimensional(super11, (F(7, 3), F(-1, 5)))
    assert not is_finite_dimensional(super20, (0, 1))
    assert is_finite_dimensional(super20, (3, 3))
    assert not is_finite_dimensional(super21, (F(1, 2), 0, 5))  # non-integer step
    assert is_finite_dimensional(super21, (F(1, 2), F(-1, 2), F(9, 7)))
    # every hook sharp weight is dominant
    for size in range(5):
        for lam in partitions_of(size):
            if in_hook(lam, 2, 1):
                sharp = lambda_sharp(lam, 2, 1)
                assert is_finite_dimensional(super21, sharp)


def test_typicality_gl11_symbolic(super11):
    # chi(lambda) = lambda_1 + lambda_1bar, checked across a rational grid
    for a in (F(-3), F(-1, 2), F(0), F(2, 3), F(5)):
        for b in (F(-2), F(0), F(1, 3), F(4)):
            typical, chi = typicality(super11, (a, b))
            assert chi == a + b
            assert typical == (chi != 0)
    assert typicality(super11, (0, 0)) == (False, 0)


def test_typicality_colour_case(super20):
    typical, chi = typicality(super20, (3, 1))
    assert typical and chi == 1


def test_kac_dimension(super11, super21, super20):
    assert kac_dimension(super11, (F(5, 7), F(1, 3))) == 2
    # M- = 0: classical Weyl dimension formula
    assert kac_dimension(super20, (3, 1)) == 3
    assert kac_dimension(super21, (2, 1, 0)) == 4 * 2
    with pytest.raises(ValueError):
        kac_dimension(super20, (0, 1))


def test_kac_vs_tableaux(super11, super21, super12, super22, z2z2_all):
    # typical hook sharps: kac == k(lambda); atypical: k(lambda) < kac
    for space in (super11, super21, super12, super22, z2z2_all):
        mp, mm = space.m_plus, space.m_minus
        for size in range(5):
            for lam in partitions_of(size):
                if not in_hook(lam, mp, mm):
                    continue
                sharp = tuple(F(c) for c in lambda_sharp(lam, mp, mm))
                typical, _ = typicality(space, sharp)
                k = count_hook_tableaux(lam, mp, mm)
                kd = kac_dimension(space, sharp)
                if typical:
                    assert k == kd, (space, lam)
                else:
                    assert k < kd, (space, lam)


def test_casimir_eigenvalues(super11, super20):
    assert casimir_eigenvalue(super11, (0, 0)) == 0
    assert casimir_eigenvalue(super11, (1, 0)) == 0
    assert casimir_eigenvalue(super20, (1, 0)) == 2


def test_casimir_matrix_oracle(super20, super11):
    # apply Omega directly to basis vectors of V and compare the scalar
    for space, expected in ((super20, 2), (super11, 0)):
        v = TensorVector.basis_word(space, (0,))
        image = casimir_apply(space, v)
        assert image == v.scale(
            __import__("colourgl.scalars", fromlist=["Scalar"])
            .Scalar.from_rational(expected))


def test_casimir_defect_zero(super11, super21):
    for space in (super11, super21):
        for size in (1, 2, 3):
            for lam in partitions_of(size):
                if in_hook(lam, space.m_plus, space.m_minus):
                    assert casimir_defect(space, lam).is_zero(), (space, lam)


def test_casimir_is_central(super11, super21, glq11):
    # Omega commutes with the gl(V)-action on tensor powers
    from colourgl.tensor import TensorVector, gl_act_tensor
    rng = random.Random(77)
    for space in (super11, super21, glq11):
        for _ in range(15):
            word = tuple(rng.randrange(space.dim) for _ in range(2))
            v = TensorVector.basis_word(space, word)
            a, b = rng.randrange(space.dim), rng.randrange(space.dim)
            x = GlElement.matrix_unit(space, a, b)
            lhs = casimir_apply(space, gl_act_tensor(x, v))
            rhs = gl_act_tensor(x, casimir_apply(space, v))
            assert lhs == rhs, (space, word, a, b)


def test_classification_examples(super11):
    # hook sharps are unitarisable
    sharp = tuple(F(c) for c in lambda_sharp((2, 1), 1, 1))
    assert classify_unitarisable(super11, sharp).unitarisable
    # atypical (x, -x), x > 0 non-integer
    v = classify_unitarisable(super11, (F(1, 2), F(-1, 2)))
    assert v.unitarisable and v.certificate["branch"] == "atypical"
    # typical with negative edge
    v = classify_unitarisable(super11, (F(-1), F(0)))
    assert not v.unitarisable
    # non-dominant
    assert not classify_unitarisable(
        super_space(2, 0), (0, 1)).unitarisable


def test_classification_shift_invariance(super11, super21):
    rng = random.Random(23)
    for space in (super11, super21):
        esc = tuple(F(1) if a < space.m_plus else F(-1)
                    for a in range(space.dim))
        for _ in range(25):
            base = [F(rng.randint(-4, 8), rng.choice((1, 1, 2)))
                    for _ in range(space.dim)]
            base[0] = base[1] + abs(base[0] - base[1]) if space.m_plus == 2 \
                else base[0]
            lam = tuple(base)
            if not is_finite_dimensional(space, lam):
                continue
            got = classify_unitarisable(space, lam).unitarisable
            for shift in (F(1), F(-3), F(5, 2)):
                lam2 = tuple(x + shift * e for x, e in zip(lam, esc))
                assert classify_unitarisable(
                    space, lam2).unitarisable == got


def test_classification_certificate_reconstructs_weight(super21):
    esc = (F(1), F(1), F(-1))
    eplus = (F(1), F(1), F(0))
    # typical with fractional even block: lands in the flexible class
    lam = (F(7, 2), F(3, 2), F(0))
    v = classify_unitarisable(super21, lam)
    assert v.unitarisable and v.certificate["b"] == F(1, 2)
    mu = v.certificate["mu"]
    assert mu == (4, 2)
    assert mu[1] >= super21.m_minus > 0  # flexible hook condition
    for lam in [(F(7, 2), F(3, 2), F(0)), (F(3), F(1), F(-1)),
                (F(1, 2), F(1, 2), F(-1, 2))]:
        v = classify_unitarisable(super21, lam)
        if not v.unitarisable:
            continue
        a, mu, b = v.certificate["a"], v.certificate["mu"], v.certificate["b"]
        sharp = tuple(F(c) for c in lambda_sharp(
            mu, super21.m_plus, super21.m_minus))
        rebuilt = tuple(a * e + s - b * p
                        for e, s, p in zip(esc, sharp, eplus))
        assert rebuilt == lam, lam


def test_unsupported_factor(glq11):
    with pytest.raises(UnsupportedFactor):
        classify_unitarisable(glq11, (F(1), F(0)))
    with pytest.raises(UnsupportedFactor):
        gram_report(glq11, (F(1), F(0)))


def test_dual_weights(super11, super21):
    assert dual_weight(super11, (F(1), F(0))) == (F(0), F(-1))
    # typical formula: dual of the dual is the original
    for lam in [(F(3), F(1)), (F(5, 2), F(-1, 2))]:
        if typicality(super11, lam)[0]:
            assert dual_weight(super11, dual_weight(super11, lam)) == lam
    # the tensor weight of V is typical: the Kac-module formula
    sharp = tuple(F(c) for c in lambda_sharp((1,), 1, 1))
    assert typicality(super11, sharp) == (True, F(1))
    assert dual_weight(super11, sharp) == (F(0), F(-1))
    # an atypical tensor weight: the Berele-Regev transpose
    sharp = (F(6), F(0), F(0))
    assert typicality(super21, sharp)[0] is False
    assert dual_weight(super21, sharp) == (F(0), F(-5), F(-1))
    # twisted by 2*E, the dual twists by -2*E
    assert dual_weight(super21, (F(8), F(2), F(-2))) == (F(-2), F(-7), F(1))
    # unsupported atypical weight
    with pytest.raises(DualWeightUnsupported):
        dual_weight(super21, (F(1, 2), F(-1, 2), F(-3, 2)))


def test_a_sharp_of_no_partition_is_refused(super22):
    # (0,0,1,0) is atypical with t = 0: mu = (1,) from its odd block, but
    # mu# = (1,0,0,0), so no mu has this sharp and the weight is refused
    with pytest.raises(DualWeightUnsupported,
                       match=r"^0,0,1,0 is atypical and not of the form"):
        dual_weight(super22, (F(0), F(0), F(1), F(0)))
    with pytest.raises(ValueError, match=r"^0,1 is not dominant$"):
        kac_dimension(super_space(2, 0), (F(0), F(1)))


def test_type_two_classification(super11):
    # V is type I but not type II; V* is type II but not type I
    natural = (F(1), F(0))
    dual = (F(0), F(-1))
    assert classify_unitarisable(super11, natural, "I").unitarisable
    assert not classify_unitarisable(super11, natural, "II").unitarisable
    assert not classify_unitarisable(super11, dual, "I").unitarisable
    assert classify_unitarisable(super11, dual, "II").unitarisable


def test_symmetric_inertia():
    assert symmetric_inertia([[2, 0], [0, 3]]) == (2, 0, 0)
    assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert symmetric_inertia([[1, 2], [2, 1]]) == (1, 1, 0)
    assert symmetric_inertia([]) == (0, 0, 0)


# symmetric_inertia as it was on Fractions, kept verbatim as the oracle
def oracle_symmetric_inertia(mat):
    """(positive, negative, zero) eigenvalue counts of an exact symmetric
    matrix, by congruence diagonalisation (Sylvester's law)."""
    n = len(mat)
    work = [[Fraction(x) for x in row] for row in mat]
    alive = list(range(n))
    pos = neg = zero = 0
    while alive:
        pivot = next((i for i in alive if work[i][i] != 0), None)
        if pivot is None:
            hyper = None
            for i in alive:
                for j in alive:
                    if i != j and work[i][j] != 0:
                        hyper = (i, j)
                        break
                if hyper:
                    break
            if hyper is None:
                zero += len(alive)
                break
            i, j = hyper
            for k in range(n):
                work[i][k] += work[j][k]
            for k in range(n):
                work[k][i] += work[k][j]
            continue
        d = work[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(pivot)
        for i in alive:
            factor = work[i][pivot] / d
            if factor:
                for k in range(n):
                    work[i][k] -= factor * work[pivot][k]
                for k in range(n):
                    work[k][i] -= factor * work[k][pivot]
    return pos, neg, zero


def _random_symmetric(rng, n, kind):
    """A seeded symmetric n x n matrix of ints and Fractions: "dense",
    "zero-diagonal" (forces the hyperbolic step), "sparse" (few nonzero
    entries, so some pivots are skipped) or "singular" (B D B^T with B of
    rank below n and D of mixed signs)."""
    entries = [0, 0, -3, -2, -1, 1, 2, 5, F(1, 2), F(-2, 3), F(7, 6)]
    if kind == "singular":
        rank = rng.randint(0, max(n - 1, 0))
        cols = [[rng.choice(entries) for _ in range(rank)]
                for _ in range(n)]
        diag = [rng.choice((-2, -1, F(1, 3), 1, 4)) for _ in range(rank)]
        return [[sum(cols[i][k] * diag[k] * cols[j][k]
                     for k in range(rank)) for j in range(n)]
                for i in range(n)]
    if kind == "sparse":
        entries = [0] * 8 + [-1, 1, F(3, 2)]
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = rng.choice(entries)
    if kind == "zero-diagonal":
        for i in range(n):
            mat[i][i] = 0
    return mat


def test_symmetric_inertia_matches_the_fraction_oracle_on_random_matrices():
    rng = random.Random(2718)
    seen = set()
    for n in range(8):
        for kind in ("dense", "zero-diagonal", "sparse", "singular"):
            for _ in range(40):
                mat = _random_symmetric(rng, n, kind)
                expected = oracle_symmetric_inertia(mat)
                assert symmetric_inertia(mat) == expected, mat
                if expected[1]:
                    seen.add("negative pivot")
                if expected[2]:
                    seen.add(f"singular {kind}")
                if n and kind == "zero-diagonal" and expected[2] < n:
                    seen.add("hyperbolic step")
    assert seen >= {"negative pivot", "hyperbolic step", "singular singular",
                    "singular dense", "singular zero-diagonal"}


@pytest.mark.parametrize("spec,weight", CASES)
def test_symmetric_inertia_matches_the_oracle_on_pool_gram_blocks(spec,
                                                                   weight):
    module = _module(spec, weight)
    rep = gram_report(module.space, tuple(F(x) for x in weight.split(",")))
    assert rep.blocks
    for level, wt, mat, inertia in rep.blocks:
        assert inertia == oracle_symmetric_inertia(mat), (level, wt)


def test_gram_entries_are_ints_for_integral_weights():
    # the gram-d4 pool modules have integral weights: every entry of every
    # block, and each form value behind it, is an int, never a Fraction
    d4 = CASES[:5]
    assert all(_module(*case).space.dim == 4 for case in d4)
    for spec, weight in d4:
        module = _module(spec, weight)
        assert all(type(x) is int for x in module.lam)
        basis = module.basis()
        assert type(module.form(basis[-1], basis[-1])) is int
        rep = gram_report(module.space, tuple(F(x) for x in weight.split(",")))
        assert all(type(x) is int
                   for _, _, mat, _ in rep.blocks for row in mat for x in row)


def _fraction_oracle(module):
    """The un-memoised oracle action with lambda as Fractions."""
    oracle = OracleAction(module)
    oracle.lam = tuple(Fraction(x) for x in module.lam)
    return oracle


def _oracle_form(oracle, el1, el2):
    """The contravariant form as computed before it ran on ints, through
    the Fraction oracle action, with Fraction(1) seeds and a Fraction L0
    norm."""
    module, lam = oracle.module, oracle.lam
    S, kp, km = el1
    vec = {el2: Fraction(1)}
    for sid in S:
        i, rb = module.pairs[sid]
        out = {}
        for el, coef in vec.items():
            for key, c in oracle.act(i, rb, el).items():
                out[key] = out.get(key, Fraction(0)) + coef * c
        vec = {key: c for key, c in out.items() if c}
        if not vec:
            return Fraction(0)
    norm = Fraction(1)
    if module.mp == 2:
        for t in range(1, kp + 1):
            norm *= t * (lam[0] - lam[1] - t + 1)
    if module.mm == 2:
        for t in range(1, km + 1):
            norm *= t * (lam[module.mp] - lam[module.mp + 1] - t + 1)
    total = Fraction(0)
    for (T, lp, lm), coef in vec.items():
        if not T and (lp, lm) == (kp, km):
            total += coef * norm
    return total


# (1/2, -1/2, 3/2) has integral Gram entries built from Fraction
# coordinates; (5/2, 1/2, -1/3) has entries that are not integers
@pytest.mark.parametrize("lam,fractional", [
    ((F(1, 2), F(-1, 2), F(3, 2)), False),
    ((F(5, 2), F(1, 2), F(-1, 3)), True)])
def test_half_integral_gram_matches_the_fraction_oracles(super21, lam,
                                                         fractional):
    module = KacModule(super21, lam)
    assert any(isinstance(x, Fraction) for x in module.lam)
    oracle = _fraction_oracle(module)
    rep = gram_report(super21, lam)
    groups = {}
    for el in module.basis():
        groups.setdefault((len(el[0]), module.weight(el)), []).append(el)
    assert [(level, wt) for level, wt, _, _ in rep.blocks] == sorted(groups)
    seen = False
    for level, wt, mat, inertia in rep.blocks:
        els = groups[(level, wt)]
        expected = [[_oracle_form(oracle, e1, e2) for e2 in els]
                    for e1 in els]
        assert mat == expected, (level, wt)
        assert [[str(x) for x in row] for row in mat] == \
            [[str(x) for x in row] for row in expected]
        assert inertia == oracle_symmetric_inertia(expected), (level, wt)
        seen |= any(x.denominator != 1 for row in mat for x in row)
    assert seen == fractional


def test_gram_gl11_examples(super11):
    rep = gram_report(super11, (F(1), F(0)), depth=1)
    level1 = [blk for blk in rep.blocks if blk[0] == 1]
    assert len(level1) == 1 and level1[0][2] == [[F(1)]]
    assert rep.verdict == "positive-definite"
    rep = gram_report(super11, (F(0), F(0)), depth=1)
    assert [blk[2] for blk in rep.blocks if blk[0] == 1] == [[[F(0)]]]
    assert rep.verdict == "positive-semidefinite"
    rep = gram_report(super11, (F(-1), F(0)), depth=1)
    assert [blk[2] for blk in rep.blocks if blk[0] == 1] == [[[F(-1)]]]
    assert rep.verdict == "indefinite"


def test_gram_norm_recursion(super21):
    # <v_s, v_s> = (lambda+rho, eps_{M+} - eps_sbar) <v_{s-1}, v_{s-1}>
    # specialised to M- = 1 on gl(2|1)
    lam = (F(3), F(1), F(-1, 2))
    module = KacModule(super21, lam)
    v0 = ((), 0, 0)
    sid = module.pairs.index((1, 2))
    v1 = ((sid,), 0, 0)
    from colourgl.gl import rho, weight_inner
    shifted = tuple(x + y for x, y in zip(lam, rho(super21)))
    root = (F(0), F(1), F(1))  # (mu, eps_2 - eps_1bar) = mu_2 + mu_1bar
    expected = (shifted[1] + shifted[2]) * module.form(v0, v0)
    assert module.form(v1, v1) == expected


def test_kac_module_is_representation(super21, super11):
    # X(Y v) - omega(dX, dY) Y(X v) = [X, Y] v on random generators
    rng = random.Random(41)
    from colourgl.gl import bracket
    for space in (super11, super21):
        lam = tuple(F(x) for x in ([3, 1, 0] if space.dim == 3 else [2, 0]))
        module = KacModule(space, lam)
        basis = module.basis()
        for _ in range(60):
            a, b = rng.randrange(space.dim), rng.randrange(space.dim)
            c, d = rng.randrange(space.dim), rng.randrange(space.dim)
            el = rng.choice(basis)
            dx = space.degrees[a] - space.degrees[b]
            dy = space.degrees[c] - space.degrees[d]
            om = space.factor.omega(dx, dy).as_fraction()
            lhs = {}
            for key, coef in module.act(c, d, el).items():
                for key2, coef2 in module.act(a, b, key).items():
                    lhs[key2] = lhs.get(key2, F(0)) + coef * coef2
            for key, coef in module.act(a, b, el).items():
                for key2, coef2 in module.act(c, d, key).items():
                    lhs[key2] = lhs.get(key2, F(0)) - om * coef * coef2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {}
            br = bracket(GlElement.matrix_unit(space, a, b),
                         GlElement.matrix_unit(space, c, d))
            for (p, q), coef in br.terms.items():
                for key, c2 in module.act(p, q, el).items():
                    val = rhs.get(key, F(0)) + coef.as_fraction() * c2
                    if val:
                        rhs[key] = val
                    else:
                        rhs.pop(key, None)
            assert lhs == rhs, (a, b, c, d, el)


def test_kac_module_contravariance(super21):
    # <E_ab u, v> = <u, E_ba v> for the type I structure
    rng = random.Random(55)
    lam = (F(5, 2), F(1, 2), F(1))
    module = KacModule(super21, lam)
    basis = module.basis()
    for _ in range(80):
        a, b = rng.randrange(3), rng.randrange(3)
        u, v = rng.choice(basis), rng.choice(basis)
        lhs = sum((coef * module.form(key, v)
                   for key, coef in module.act(a, b, u).items()), F(0))
        rhs = sum((coef * module.form(u, key)
                   for key, coef in module.act(b, a, v).items()), F(0))
        assert lhs == rhs


def test_gram_agrees_with_classification(super11, super21):
    rng = random.Random(67)
    for space, count in ((super11, 30), (super21, 30)):
        done = 0
        while done < count:
            coords = [F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                      for _ in range(space.dim)]
            if space.m_plus == 2:
                coords[1] = coords[0] - rng.randint(0, 3)
            lam = tuple(coords)
            if not is_finite_dimensional(space, lam):
                continue
            done += 1
            rep = gram_report(space, lam)
            verdict = classify_unitarisable(space, lam)
            assert rep.unitarisable == verdict.unitarisable, lam
            # chi = 0 iff the full Gram form is degenerate
            typical, _ = typicality(space, lam)
            assert any(inertia[2] for *_, inertia in rep.blocks) == \
                (not typical), lam


def test_gram_rank_equals_tableau_count(super11, super21, super12):
    # three independent routes agree: the rank of the full contravariant
    # Gram form (dimension of the simple quotient) equals the hook tableau
    # count k(mu) = dim L_{mu#}
    for space in (super11, super21, super12):
        for size in range(5):
            for mu in partitions_of(size):
                if not in_hook(mu, space.m_plus, space.m_minus):
                    continue
                sharp = tuple(F(c) for c in lambda_sharp(
                    mu, space.m_plus, space.m_minus))
                rep = gram_report(space, sharp)
                rank = sum(i[0] + i[1] for _, _, _, i in rep.blocks)
                assert rank == count_hook_tableaux(
                    mu, space.m_plus, space.m_minus), (space, mu)


def test_dual_weight_involution(super11, super21, super12):
    flagged = 0
    for space in (super11, super21, super12):
        for size in range(1, 10):
            for mu in partitions_of(size):
                if not in_hook(mu, space.m_plus, space.m_minus):
                    continue
                sharp = tuple(F(c) for c in lambda_sharp(
                    mu, space.m_plus, space.m_minus))
                dw = dual_weight(space, sharp)
                try:
                    assert dual_weight(space, dw) == sharp, (space, mu)
                except DualWeightUnsupported:
                    # duals of atypical tensor modules are flagged, not
                    # guessed
                    assert not typicality(space, dw)[0]
                    flagged += 1
    assert flagged == 18


# -- the lowest-weight search that dual_weight's closed form replaced --------

def _tensor_module_lowest_weight(space, mu):
    """Lowest weight of the simple tensor module generated by the highest
    weight vector of the hook partition mu inside V^(tensor |mu|)."""
    mu = check_partition(mu)
    start = highest_weight_vector(space, mu)
    by_weight = {}
    queue = [start]
    _reduce(by_weight.setdefault(start.weight(), {}), start.terms)
    gens = [GlElement.matrix_unit(space, a, b)
            for a in range(space.dim) for b in range(space.dim) if a != b]
    while queue:
        current = queue.pop()
        for gen in gens:
            image = gl_act_tensor(gen, current)
            if image.is_zero():
                continue
            reduced = _reduce(by_weight.setdefault(image.weight(), {}),
                              image.terms)
            if reduced is not None:
                queue.append(TensorVector(space, start.power, reduced))
    lowering = [GlElement.matrix_unit(space, a, b)
                for a in range(space.dim) for b in range(space.dim) if a > b]
    lowest = []
    for weight, echelon in by_weight.items():
        columns = {}
        for j, row in enumerate(echelon.values()):
            vec = TensorVector(space, start.power, row)
            for gen in lowering:
                image = gl_act_tensor(gen, vec)
                for word, coef in image.terms.items():
                    columns.setdefault((id(gen), word), {})[j] = coef
        if len(echelon) - rank_of_rows(columns.values()) > 0:
            lowest.append(weight)
    if len(lowest) != 1:
        raise AssertionError(f"lowest weight not unique: {lowest}")
    return lowest[0]


def _pool_spaces():
    pool = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "pool.json").read_text())
    return [GradedSpace.from_json(doc) for doc in pool["spaces"].values()]


def test_dual_weight_matches_lowest_weight_search():
    # the dual of L_{mu#} is minus its lowest weight, typical or not
    cases = [(space, 5) for space in (
        super_space(1, 1), super_space(2, 1), super_space(1, 2),
        super_space(2, 2), super_space(3, 1), z2z2_space((1, 1, 1, 0)),
        green_space(2), glq_space(1, 1), glq_space(2, 1))]
    cases += [(space, 4) for space in _pool_spaces()]
    pairs = 0
    for space, top in cases:
        mp, mm = space.m_plus, space.m_minus
        for size in range(top + 1 if space.dim < 4 else top):
            for mu in partitions_of(size):
                if not in_hook(mu, mp, mm):
                    continue
                sharp = tuple(F(c) for c in lambda_sharp(mu, mp, mm))
                low = _tensor_module_lowest_weight(space, mu)
                assert dual_weight(space, sharp) == tuple(-x for x in low), \
                    (space.parities, mu)
                pairs += 1
    assert pairs == 328


def colour22_space():
    """A sign-valued space whose block root vectors anticommute: exercises
    the omega factors that all super presets leave trivial."""
    from colourgl.grading import CommutativeFactor, GradingGroup
    from colourgl.gl import GradedSpace
    g = GradingGroup(0, 4)
    S = ((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1))
    B = tuple((0,) * 4 for _ in range(4))
    factor = CommutativeFactor(g, S, B)
    comps = [(g.degree(0, 0, 0, 0), 1), (g.degree(0, 1, 0, 0), 1),
             (g.degree(0, 0, 1, 0), 1), (g.degree(0, 0, 0, 1), 1)]
    return GradedSpace(factor, comps)


def test_colour22_space_has_twisted_blocks():
    space = colour22_space()
    assert space.parities == (1, 1, -1, -1)
    d_plus = space.degrees[1] - space.degrees[0]
    d_minus = space.degrees[3] - space.degrees[2]
    assert space.factor.omega(d_minus, d_plus).as_fraction() == -1


def test_colour22_kac_representation_and_contravariance():
    from colourgl.gl import bracket
    space = colour22_space()
    lam = (F(3), F(1), F(1), F(-1))
    module = KacModule(space, lam)
    rng = random.Random(123)
    basis = module.basis()
    for _ in range(120):
        a, b, c, d = (rng.randrange(4) for _ in range(4))
        el = rng.choice(basis)
        dx = space.degrees[a] - space.degrees[b]
        dy = space.degrees[c] - space.degrees[d]
        om = space.factor.omega(dx, dy).as_fraction()
        lhs = {}
        for k, co in module.act(c, d, el).items():
            for k2, co2 in module.act(a, b, k).items():
                lhs[k2] = lhs.get(k2, F(0)) + co * co2
        for k, co in module.act(a, b, el).items():
            for k2, co2 in module.act(c, d, k).items():
                lhs[k2] = lhs.get(k2, F(0)) - om * co * co2
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {}
        br = bracket(GlElement.matrix_unit(space, a, b),
                     GlElement.matrix_unit(space, c, d))
        for (p, q), co in br.terms.items():
            for k, c2 in module.act(p, q, el).items():
                val = rhs.get(k, F(0)) + co.as_fraction() * c2
                if val:
                    rhs[k] = val
                else:
                    rhs.pop(k, None)
        assert lhs == rhs, (a, b, c, d, el)
    for _ in range(120):
        a, b = rng.randrange(4), rng.randrange(4)
        u, v = rng.choice(basis), rng.choice(basis)
        lhs = sum((co * module.form(k, v)
                   for k, co in module.act(a, b, u).items()), F(0))
        rhs = sum((co * module.form(u, k)
                   for k, co in module.act(b, a, v).items()), F(0))
        assert lhs == rhs


def test_colour22_gram_agrees_with_classification():
    space = colour22_space()
    rng = random.Random(321)
    for _ in range(25):
        l0 = F(rng.randint(-3, 5))
        l2 = F(rng.randint(-3, 3))
        lam = (l0, l0 - rng.randint(0, 3), l2, l2 - rng.randint(0, 3))
        rep = gram_report(space, lam)
        typical, _ = typicality(space, lam)
        assert any(inertia[2] for *_, inertia in rep.blocks) == \
            (not typical), lam
        assert rep.unitarisable == \
            classify_unitarisable(space, lam).unitarisable, lam


def test_gram_unsupported_block():
    big = super_space(3, 1)
    with pytest.raises(UnsupportedSpace):
        gram_report(big, (F(2), F(1), F(0), F(0)))


def test_gram_depth_validation(super11):
    with pytest.raises(ValueError):
        gram_report(super11, (F(1), F(0)), depth=5)
    rep = gram_report(super11, (F(1), F(0)), depth=0)
    assert rep.verdict == "positive-definite"
