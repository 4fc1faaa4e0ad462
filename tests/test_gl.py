import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from colourgl import cli
from colourgl.gl import (GlElement, GradedSpace, SpaceMismatch,
                         bilinear_form, bracket, jacobi_defect,
                         pbw_dimension_nilradical, positive_roots, rho,
                         skew_defect, supertrace, weight_inner, weyl_orbit,
                         _Kept)
from colourgl.grading import (CommutativeFactor, GradingGroup, ShapeError,
                              superalgebra_factor)
from colourgl.presets import preset_space, super_space
from colourgl.reps import classify_unitarisable
from colourgl.tensor import TensorVector
from colourgl.weyl import WeylElement
from colourgl.scalars import ONE, Scalar
from oracles import homogeneous_parts


def units(space):
    return [GlElement.matrix_unit(space, a, b)
            for a in range(space.dim) for b in range(space.dim)]


def test_distinguished_order(glq21, z2z2_all):
    assert glq21.parities == (1, 1, -1)
    # even components always precede odd ones regardless of input order
    assert all(p == 1 for p in z2z2_all.parities)


def test_cartan_bracket_rule(super21):
    space = super21
    for a in range(space.dim):
        h = GlElement.matrix_unit(space, a, a)
        assert bracket(h, h).is_zero()
        for c in range(space.dim):
            for d in range(space.dim):
                e = GlElement.matrix_unit(space, c, d)
                expected = e.scale(Scalar.from_rational(
                    int(a == c) - int(a == d)))
                assert bracket(h, e) == expected


def test_gl11_bracket(super11):
    e01 = GlElement.matrix_unit(super11, 0, 1)
    e10 = GlElement.matrix_unit(super11, 1, 0)
    result = bracket(e01, e10)
    expected = GlElement(super11, {(0, 0): ONE, (1, 1): ONE})
    assert result == expected


def test_jacobi_and_skew_exhaustive(super11, super21):
    for space in (super11, super21):
        us = units(space)
        for x, y in itertools.product(us, repeat=2):
            assert skew_defect(x, y).is_zero()
        for x, y, z in itertools.product(us, repeat=3):
            assert jacobi_defect(x, y, z).is_zero()


def test_jacobi_random_combinations(glq11, super22):
    rng = random.Random(5)
    for space in (glq11, super22):
        us = units(space)
        by_degree = {}
        for u in us:
            by_degree.setdefault(u.degree(), []).append(u)
        degrees = sorted(by_degree, key=lambda d: d.coords)
        for _ in range(30):
            # random homogeneous combinations within a fixed degree
            def combo():
                deg = rng.choice(degrees)
                out = GlElement(space)
                for u in by_degree[deg]:
                    out = out + u.scale(
                        Scalar.from_rational(rng.randint(-2, 2)))
                return out if not out.is_zero() else by_degree[deg][0]
            x, y = combo(), combo()
            z = rng.choice(us) + rng.choice(us)
            assert jacobi_defect(x, y, z).is_zero()
            assert skew_defect(x, y).is_zero()


def test_jacobi_rejects_inhomogeneous(super11):
    x = GlElement(super11, {(0, 1): ONE, (0, 0): ONE})
    y = GlElement.matrix_unit(super11, 1, 0)
    assert x.degree() is None
    with pytest.raises(ValueError):
        jacobi_defect(x, y, y)


def test_positive_roots(super11, super21, super22):
    even, odd = positive_roots(super11)
    assert even == [] and odd == [(1, -1)]
    even, odd = positive_roots(super21)
    assert len(even) == 1 and len(odd) == 2
    even, odd = positive_roots(super22)
    assert len(odd) == 4 and len(even) == 2


def test_rho(super11, super21):
    assert rho(super11) == (Fraction(-1, 2), Fraction(1, 2))
    assert rho(super21) == (0, -1, 1)
    for space in (super11, super21):
        r = rho(space)
        mp, mm = space.m_plus, space.m_minus
        for i in range(1, mp + 1):
            for s in range(1, mm + 1):
                root = tuple(
                    Fraction(int(a == i - 1)) - Fraction(int(a == mp + s - 1))
                    for a in range(space.dim))
                assert weight_inner(space, r, root) == mp - s - i + 1


def test_weight_inner(super11):
    e0, e1 = (1, 0), (0, 1)
    assert weight_inner(super11, e0, e0) == 1
    assert weight_inner(super11, e1, e1) == -1
    assert weight_inner(super11, e0, e1) == 0


def test_supertrace_and_form(super21):
    space = super21
    identity = GlElement(space, {(a, a): ONE for a in range(space.dim)})
    assert supertrace(identity) == Scalar.from_rational(
        space.m_plus - space.m_minus)
    e01 = GlElement.matrix_unit(space, 0, 1)
    e10 = GlElement.matrix_unit(space, 1, 0)
    assert bilinear_form(e01, e10) == ONE  # omega(gamma_0, gamma_0) = +1
    rng = random.Random(9)
    us = units(space)
    for _ in range(40):
        x, y, z = (rng.choice(us) for _ in range(3))
        assert supertrace(bracket(x, y)).is_zero()
        assert bilinear_form(bracket(x, y), z) == \
            bilinear_form(x, bracket(y, z))


def test_form_basis_relation(super11, glq11):
    # (E_ab, E_cd) = parity(a) delta_bc delta_ad
    for space in (super11, glq11):
        for a in range(space.dim):
            for b in range(space.dim):
                for c in range(space.dim):
                    for d in range(space.dim):
                        val = bilinear_form(
                            GlElement.matrix_unit(space, a, b),
                            GlElement.matrix_unit(space, c, d))
                        if b == c and a == d:
                            assert val == Scalar.from_rational(
                                space.parities[a])
                        else:
                            assert val.is_zero()


def test_weyl_orbit(super21):
    lam = (Fraction(1), Fraction(0), Fraction(5))
    orbit = weyl_orbit(super21, lam)
    assert orbit == {(1, 0, 5), (0, 1, 5)}
    const = (Fraction(2), Fraction(2), Fraction(7))
    assert weyl_orbit(super21, const) == {const}
    lam2 = (Fraction(3), Fraction(1), Fraction(0))
    assert 24 % (len(weyl_orbit(super21, lam2)) or 1) == 0


def test_even_reflections_are_block_transpositions(super21, super22):
    # sigma_Y(mu) = mu - 2 (mu, Y)/(Y, Y) Y for Y in Phi0+ swaps the two
    # coordinates of Y, so the generated group is Sym_{M+} x Sym_{M-}
    for space in (super21, super22):
        even, _ = positive_roots(space)
        mu = tuple(Fraction(3 * a + 1, 2) for a in range(space.dim))
        for root in even:
            ry = weight_inner(space, root, root)
            assert abs(ry) == 2
            coef = 2 * weight_inner(space, mu, root) / ry
            image = tuple(m - coef * y for m, y in zip(mu, root))
            a = root.index(1)
            b = root.index(-1)
            swapped = list(mu)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert image == tuple(swapped)
            assert image in weyl_orbit(space, mu)


def test_pbw_dimension(super11, super22, super20):
    assert pbw_dimension_nilradical(super11) == 2
    assert pbw_dimension_nilradical(super22) == 16
    assert pbw_dimension_nilradical(super20) == 1


def test_space_mismatch(super11, super21):
    x = GlElement.matrix_unit(super11, 0, 1)
    y = GlElement.matrix_unit(super21, 0, 1)
    with pytest.raises(SpaceMismatch):
        bracket(x, y)


def test_gl_element_json_round_trip(super21):
    x = GlElement(super21, {(0, 1): Scalar.parse("q+1"), (2, 0): ONE})
    doc = x.to_json()
    assert doc == [[0, 1, "q+1"], [2, 0, "1"]]
    assert GlElement.from_json(super21, doc) == x


@pytest.mark.parametrize("doc", [[[1.9, 0, "1"]], [[True, 1, "q"]],
                                 [[0, "1", "1"]], [[0, None, "1"]]])
def test_gl_element_from_json_refuses_an_index_that_is_not_an_int(super11,
                                                                   doc):
    # a float would be truncated and a bool read as 1
    with pytest.raises(ValueError, match="not a JSON integer"):
        GlElement.from_json(super11, doc)


@pytest.mark.parametrize("a, b", [(1, 5), (2, 0), (-1, 0), (0, -1)])
def test_gl_element_from_json_refuses_an_index_out_of_range(super11, a, b):
    with pytest.raises(IndexError, match="out of range"):
        GlElement.from_json(super11, [[0, 0, "1"], [a, b, "q"]])


@pytest.mark.parametrize("doc", [[[0, 1, "1"], [0, 1, "q"]],
                                 [[0, 1, "1"], [1, 0, "q"], [0, 1, "0"]]])
def test_gl_element_from_json_refuses_a_repeated_index_pair(super11, doc):
    # the last of two triples on (0, 1) was kept and the other dropped
    with pytest.raises(ValueError, match=r"index pair \(0, 1\) is given "
                                         "twice"):
        GlElement.from_json(super11, doc)


@pytest.mark.parametrize("a, b", [(7, 9), (2, 0), (0, 2), (-1, 1)])
def test_matrix_unit_refuses_an_index_out_of_range(super11, a, b):
    # E[7,9] on super(1|1) was built, and only its degree() raised
    with pytest.raises(IndexError, match="out of range"):
        GlElement.matrix_unit(super11, a, b)


@pytest.mark.parametrize("name", ["super(2|1)", "super(0|3)", "glq(2|1)",
                                  "green(3)", "z2z2(1,2,0,1)"])
def test_space_json_round_trip(name):
    space = preset_space(name)
    doc = json.loads(json.dumps(space.to_json()))
    assert GradedSpace.from_json(doc) == space
    assert GradedSpace.from_json(doc).degrees == space.degrees


def test_pool_space_json_round_trip():
    pool = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "pool.json").read_text())
    assert len(pool["spaces"]) == 19
    for doc in pool["spaces"].values():
        space = GradedSpace.from_json(doc)
        again = GradedSpace.from_json(json.loads(json.dumps(space.to_json())))
        assert again == space and again.degrees == space.degrees


def test_degree_and_homogeneity(glq11):
    x = GlElement.matrix_unit(glq11, 0, 1)
    assert x.degree() == glq11.degrees[0] - glq11.degrees[1]
    mixed = x + GlElement.matrix_unit(glq11, 1, 1)
    assert mixed.degree() is None
    parts = homogeneous_parts(mixed)
    assert len(parts) == 2


def test_duplicate_degree_rejected(super11):
    with pytest.raises(ValueError):
        GradedSpace(super11.factor,
                    [(super11.degrees[0], 1), (super11.degrees[0], 2)])


def test_kept_drops_the_least_recently_used_past_its_bound():
    kept = _Kept(5)
    kept.put("a", 1, 2)
    kept.put("b", 2, 2)
    assert kept.get("a") == 1  # a is now the most recently used
    assert kept.put("c", 3, 2) == 3  # 6 > 5: b, the oldest, is dropped
    assert (kept.get("b"), kept.get("a"), kept.get("c")) == (None, 1, 3)
    assert (len(kept), kept.held) == (2, 4)
    # an entry past the bound alone is returned and not kept
    assert kept.put("d", 4, 6) == 4
    assert (kept.get("d"), len(kept), kept.held) == (None, 2, 4)
    # a key put again counts its new size only
    kept.put("a", 5, 1)
    assert (kept.get("a"), len(kept), kept.held) == (5, 2, 3)


def space_file_of_dim_0(tmp_path):
    doc = super_space(1, 0).to_json()
    doc["components"][0]["dim"] = 0
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    return cli.load_space(str(path))


S11 = super_space(1, 1)


@pytest.mark.parametrize("call, error, text", [
    (space_file_of_dim_0, cli.InputError,
     "component multiplicities must be positive"),
    (lambda _: CommutativeFactor(GradingGroup(2, 0), ((0, 0),),
                                 ((0, 0), (0, 0))),
     ShapeError, "sign_form must be a 2x2 integer matrix"),
    (lambda _: GradingGroup(1, 0).degree(1) + GradingGroup(2, 0).degree(1, 0),
     ShapeError, "degrees belong to different grading groups"),
    (lambda _: delattr(superalgebra_factor(), "group"), AttributeError,
     "cannot delete field 'group'"),
    (lambda _: weight_inner(S11, (1,), (1, 0)), ValueError,
     "weight length does not match dim V"),
    (lambda _: skew_defect(GlElement.matrix_unit(S11, 0, 0)
                           + GlElement.matrix_unit(S11, 0, 1),
                           GlElement.matrix_unit(S11, 1, 1)),
     ValueError, "skew_defect needs Gamma-homogeneous inputs"),
    (lambda _: classify_unitarisable(S11, (1, 0), "III"), ValueError,
     "unknown *-structure type 'III'"),
    (lambda _: WeylElement.x_gen(S11, 1, 2, 0), IndexError,
     "generator (2,0) out of range"),
    (lambda _: TensorVector.basis_word(S11, (0, 2)), IndexError,
     "word letter out of range"),
    (lambda _: preset_space("green"), KeyError, "green preset needs (n)"),
    (lambda _: repr(S11), None, "GradedSpace(1|1; (0,):1,(1,):1)")],
    ids=["dim-0-file", "non-square-form", "two-groups", "del-field",
         "weight-length", "inhomogeneous", "star-type-III", "x-gen-range",
         "word-range", "green-without-n", "space-repr"])
def test_each_bad_argument_is_refused_by_name(tmp_path, call, error, text):
    # refusals that no other in-process test reached, and the repr
    if error is None:
        assert call(tmp_path) == text
        return
    with pytest.raises(error, match=re.escape(text)):
        call(tmp_path)
