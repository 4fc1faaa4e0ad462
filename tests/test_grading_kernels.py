"""The whole-tuple kernels of colourgl.grading against their parents.

tests/parent_grading.py keeps the degree arithmetic, the form checks and
the per-pair omega table builder as they were.  On every small preset,
on 60 random spaces with negative and torsion coordinates and on Fock
algebras with dual copies, the package's degrees, sums, differences,
negatives and omega tables equal the parent's entry for entry, parity
equals the sign of omega(a, a), and forms with seeded faults raise the
same error; a degree of another group is refused by both builders."""

import random

import pytest

import parent_grading as parent
from colourgl.grading import (CommutativeFactor, GradingGroup, ShapeError,
                              superalgebra_factor)
from colourgl.weyl import fock_algebra
from test_laurent_kernels import small_presets
from test_random_spaces import random_space

SPACES = list(small_presets().values()) + [
    random_space(random.Random(seed), max_dim=5) for seed in range(60)]


def parent_group(group):
    return parent.GradingGroup(group.free_rank, group.torsion2_rank)


def random_coords(rng, group, span=7):
    """Coordinates of group, unreduced: torsion ones outside {0, 1} too."""
    return [rng.randint(-span, span) for _ in range(group.rank)]


def same(new, old):
    assert type(new.coords) is tuple and new.coords == old.coords
    assert all(type(c) is int for c in new.coords)
    assert (new.group.free_rank, new.group.torsion2_rank) == (
        old.group.free_rank, old.group.torsion2_rank)


def tables(space, copies, dual_copies):
    algebra = fock_algebra(space, copies, dual_copies)
    return algebra.factor._table(algebra.degrees), parent._table(
        algebra.factor, algebra.degrees)


@pytest.mark.parametrize("index", range(len(SPACES)))
def test_degree_arithmetic_matches_the_parent(index):
    space = SPACES[index]
    group = space.factor.group
    old_group = parent_group(group)
    rng = random.Random(index)
    coords = [list(d.coords) for d in space.degrees] + [
        random_coords(rng, group) for _ in range(20)]
    for c in coords:
        same(group.degree(*c), old_group.degree(*c))
        same(group.degree(c), old_group.degree(c))
        same(group.degree(tuple(c)), old_group.degree(tuple(c)))
    same(group.zero(), old_group.zero())
    for c1, c2 in zip(coords, coords[1:] + coords[:1]):
        a, b = group.degree(c1), group.degree(c2)
        x, y = old_group.degree(c1), old_group.degree(c2)
        same(a + b, x + y)
        same(a - b, x - y)
        same(-a, -x)
        same(a + b - b - a, x + y - y - x)
        assert (a + b).is_zero() == (x + y).is_zero()
        assert a + b == group.degree((x + y).coords)


@pytest.mark.parametrize("index", range(len(SPACES)))
def test_omega_tables_match_the_parent(index):
    space = SPACES[index]
    factor = space.factor
    new = factor._table(space.degrees)
    assert new == parent._table(factor, space.degrees)
    assert space._omega_pairs == new[1]
    for copies, dual_copies in ((1, 0), (2, 1), (1, 2)):
        new, old = tables(space, copies, dual_copies)
        assert new == old
        assert all(type(row) is tuple for row in new[1])
    for d in space.degrees:
        assert factor.parity(d) == (-1 if factor._pairings(d, d)[0] else 1)


def test_a_degree_table_over_repeats_and_random_degrees_matches():
    rng = random.Random(40)
    for space in SPACES[-20:]:
        factor = space.factor
        group = factor.group
        degrees = [group.degree(random_coords(rng, group))
                   for _ in range(6)]
        degrees += [rng.choice(degrees) for _ in range(6)]
        assert factor._table(degrees) == parent._table(factor, degrees)
    assert factor._table([]) == parent._table(factor, []) == (
        frozenset(), ())


def test_a_degree_of_another_group_is_refused():
    factor = superalgebra_factor()
    other = GradingGroup(1, 0).degree(1)
    degrees = [factor.group.degree(1), other]
    for build in (factor._table, lambda d: parent._table(factor, d)):
        with pytest.raises(ShapeError, match="this factor's group"):
            build(degrees)
    with pytest.raises(ShapeError, match="this factor's group"):
        factor.parity(other)
    with pytest.raises(ShapeError, match="different grading groups"):
        factor.group.degree(1) + other
    with pytest.raises(ShapeError, match="degree needs 1 coordinates"):
        factor.group.degree(1, 0)


def faulty_forms(rng, free_rank, torsion_rank):
    """A valid (sign, exp) pair of the group with zero to three seeded
    faults: an asymmetric sign entry, an entry that breaks the skew form,
    a q-exponent on a torsion coordinate."""
    r = free_rank + torsion_rank
    sign = [[0] * r for _ in range(r)]
    exp = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):  # symmetric mod 2, not as integers
            bit = rng.randint(0, 1)
            sign[i][j] = bit + 2 * rng.randint(-2, 2)
            sign[j][i] = bit + 2 * rng.randint(-2, 2)
        for j in range(i + 1, free_rank):
            exp[i][j] = rng.randint(-2, 2)
            exp[j][i] = -exp[i][j]
    for fault in rng.sample(range(3), rng.randint(0, 3)):
        i, j = rng.randrange(r), rng.randrange(r)
        if fault == 0:
            sign[i][j] += 1
        elif fault == 1:
            exp[i][j] += 1
        elif torsion_rank:
            j = rng.randrange(free_rank, r)
            exp[i][j] += 1
            exp[j][i] -= 1
    return sign, exp


def test_form_checks_raise_the_parent_errors():
    rng = random.Random(7)
    errors = set()
    for _ in range(400):
        group = GradingGroup(rng.randint(0, 3), rng.randint(0, 2))
        if not group.rank:
            continue
        sign, exp = faulty_forms(rng, group.free_rank, group.torsion2_rank)
        outcomes = []
        for check in (CommutativeFactor, parent.check_forms):
            try:
                check(group, sign, exp)
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (sign, exp)
        errors.add(outcomes[0] and outcomes[0][1])
    assert errors == {None, "sign_form must be symmetric mod 2",
                      "exp_form must be skew-symmetric",
                      "exp_form must vanish on torsion coordinates"}
    for bad in ([[0, 1]], [[0, 1], [1]], [[0, 1], [1, 0], [0, 0]]):
        for check in (CommutativeFactor, parent.check_forms):
            with pytest.raises(ShapeError, match="2x2 integer matrix"):
                check(GradingGroup(2, 0), bad, [[0, 0], [0, 0]])
