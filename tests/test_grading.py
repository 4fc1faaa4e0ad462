import random

import pytest

from colourgl.grading import (CommutativeFactor, GradingGroup, ShapeError,
                              superalgebra_factor)
from colourgl.scalars import MINUS_ONE, ONE, Q


def random_degree(group, rng, span=5):
    coords = [rng.randint(-span, span) for _ in range(group.free_rank)]
    coords += [rng.randint(0, 1) for _ in range(group.torsion2_rank)]
    return group.degree(*coords)


def test_superalgebra_factor_values():
    factor = superalgebra_factor()
    g = factor.group
    one = g.degree(1)
    assert factor.omega(one, one) == MINUS_ONE
    assert factor.omega(g.zero(), one) == ONE
    assert factor.parity(one) == -1
    assert factor.parity(g.zero()) == 1


def test_q_form_example():
    group = GradingGroup(2, 0)
    factor = CommutativeFactor(group, ((0, 0), (0, 0)), ((0, 1), (-1, 0)))
    a, b = group.degree(1, 0), group.degree(0, 1)
    assert factor.omega(a, b) == Q
    assert factor.omega(b, a) == Q.inverse()
    assert factor.parity(a) == 1


def test_unit_modulus_property():
    group = GradingGroup(2, 0)
    zero = ((0, 0), (0, 0))
    signs = ((1, 1), (1, 0))
    assert CommutativeFactor(group, signs, zero).is_sign_valued()
    skew = ((0, 1), (-1, 0))
    assert not CommutativeFactor(group, zero, skew).is_sign_valued()
    trivial = CommutativeFactor(GradingGroup(0, 0), (), ())
    assert trivial.is_sign_valued()


def test_bicharacter_axioms_random():
    rng = random.Random(3)
    group = GradingGroup(2, 2)
    factor = CommutativeFactor(
        group,
        ((1, 0, 1, 0), (0, 0, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0)),
        ((0, 2, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    for _ in range(200):
        a, b, c = (random_degree(group, rng) for _ in range(3))
        assert factor.omega(a, b + c) == factor.omega(a, b) * factor.omega(a, c)
        assert factor.omega(a + b, c) == factor.omega(a, c) * factor.omega(b, c)
        assert (factor.omega(a, b) * factor.omega(b, a)).is_one()
        assert (factor.omega(a, a) ** 2).is_one()
        assert factor.omega(group.zero(), b).is_one()


def test_torsion_reduction_and_arithmetic():
    group = GradingGroup(1, 1)
    a = group.degree(2, 3)
    assert a.coords == (2, 1)
    b = group.degree(-1, 1)
    assert (a + b).coords == (1, 0)
    assert (a - b).coords == (3, 0)
    assert (-a).coords == (-2, 1)
    assert group.degree(0, 0).is_zero()


def test_validation_errors():
    group = GradingGroup(2, 1)
    with pytest.raises(ShapeError):
        group.degree(1)
    ok_s = ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    ok_b = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    CommutativeFactor(group, ok_s, ok_b)
    with pytest.raises(ValueError):
        CommutativeFactor(group, ((0, 1, 0), (0, 0, 0), (0, 0, 0)), ok_b)
    with pytest.raises(ValueError):
        CommutativeFactor(group, ok_s, ((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        # q-exponents are not allowed on torsion coordinates
        CommutativeFactor(group, ok_s,
                          ((0, 0, 1), (0, 0, 0), (-1, 0, 0)))
    other = GradingGroup(1, 0)
    factor = CommutativeFactor(group, ok_s, ok_b)
    with pytest.raises(ShapeError):
        factor.omega(other.degree(1), group.degree(0, 0, 0))


def test_json_round_trip():
    group = GradingGroup(1, 1)
    factor = CommutativeFactor(group, ((1, 0), (0, 1)), ((0, 0), (0, 0)))
    doc = factor.to_json()
    assert CommutativeFactor.from_json(doc) == factor
    with pytest.raises(ValueError):
        CommutativeFactor.from_json({"free_rank": 1})


def test_records_compare_hash_and_print_by_their_fields():
    group = GradingGroup(1, 1)
    factor = CommutativeFactor(group, ((0, 0), (0, 1)), [[0, 0], [0, 0]])
    assert repr(group) == "GradingGroup(free_rank=1, torsion2_rank=1)"
    assert repr(group.degree(1, 3)) == "Degree(1, 1)"
    assert repr(factor) == (
        "CommutativeFactor(group=GradingGroup(free_rank=1, torsion2_rank=1),"
        " sign_form=((0, 0), (0, 1)), exp_form=((0, 0), (0, 0)))")
    assert group == GradingGroup(free_rank=1, torsion2_rank=1) != \
        GradingGroup(1, 0)
    assert group != (1, 1)
    assert hash(group) == hash((1, 1))
    assert hash(factor) == hash((group, factor.sign_form, factor.exp_form))
    assert factor == CommutativeFactor(group, [[0, 0], [0, 1]],
                                       ((0, 0), (0, 0)))
    assert len({group.degree(1, 1), group.degree(1, 3)}) == 1
    for record, name in [(group, "free_rank"), (factor, "exp_form"),
                         (group.degree(0, 0), "coords")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(ValueError):
        GradingGroup(-1, 0)


def test_report_records_compare_by_fields_and_are_unhashable():
    from colourgl.reps import GramReport, UnitarisableVerdict

    verdict = UnitarisableVerdict(True, "I", "r")
    assert repr(verdict) == ("UnitarisableVerdict(unitarisable=True, "
                             "star_type='I', reason='r', certificate={})")
    assert verdict == UnitarisableVerdict(True, "I", "r", {})
    assert verdict.certificate is not UnitarisableVerdict(
        True, "I", "r").certificate
    report = GramReport((1,), 2, [], "x")
    assert repr(report) == \
        "GramReport(weight=(1,), depth=2, blocks=[], verdict='x')"
    assert report == GramReport(weight=(1,), depth=2, blocks=[], verdict="x")
    for record in (verdict, report):
        with pytest.raises(TypeError):
            hash(record)


def test_pairings_take_an_equal_group_and_refuse_another():
    # the groups are compared by identity first, then by value
    group = GradingGroup(2, 1)
    factor = CommutativeFactor(group, ((1, 0, 0), (0, 0, 1), (0, 1, 1)),
                               ((0, 2, 0), (-2, 0, 0), (0, 0, 0)))
    twin = GradingGroup(2, 1)
    assert twin is not group and twin == group
    a, b = group.degree(1, -1, 1), group.degree(2, 3, 0)
    pair = factor._pairings(a, b)
    assert pair == (1, 10)  # 2 + 3 odd, 1*2*3 + (-1)(-2)2
    for x, y in ((twin.degree(1, -1, 1), b), (a, twin.degree(2, 3, 0)),
                 (twin.degree(1, -1, 1), twin.degree(2, 3, 0))):
        assert factor._pairings(x, y) == pair
    other = GradingGroup(3, 0).degree(1, -1, 1)
    for x, y in ((other, b), (a, other), (other, other)):
        with pytest.raises(ShapeError, match="this factor's group"):
            factor._pairings(x, y)
