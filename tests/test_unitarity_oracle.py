"""classify_unitarisable and dual_weight against their parent routines.

reps states the decomposition lambda = a*E + mu# - b*E+ once, in
_decompose, for both branches of the classification and for the dual
weight; tests/parent_reps.py keeps the routines that each wrote it out.
Both are run on every weight of the grids of tests/test_unitarity_gram.py,
its 1634 dominant weights and the others, and on the large coordinates
of tests/test_cli.py, for both *-structures: the verdict, reason and
certificate must agree, value and type, and so must the dual weight or
the type and text of the exception raised in its place."""

import itertools

import pytest

import parent_reps
from colourgl import reps
from colourgl.presets import preset_space
from test_unitarity_gram import GRIDS

LARGE = [
    ("super(1|1)", "100000000,1"),
    ("super(2|1)", "100000000,0,0"),
    ("super(2|1)", "7,0,0"),
    ("super(2|1)", "1/2,-1/2,-3/2"),
    ("super(1|2)", "5,1000000,0"),
    ("super(1|2)", "5,10000000,0"),
    ("super(2|2)", "0,0,1,0"),
    ("super(5|5)", ",".join(["9" * 999] * 5 + ["-1"] * 5))]


def typed(value):
    """A value with the type of each of its parts, so that 2 and
    Fraction(2), which the CLI writes differently, do not compare equal."""
    if isinstance(value, tuple):
        return tuple(typed(x) for x in value)
    if isinstance(value, dict):
        return {key: typed(x) for key, x in value.items()}
    return type(value).__name__, value


def outcome(f, *args):
    try:
        out = f(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return "raised", type(exc).__name__, str(exc)
    if isinstance(out, reps.UnitarisableVerdict):
        return (out.unitarisable, out.star_type, out.reason,
                typed(out.certificate))
    return typed(out)


def assert_same(space, lam):
    for star in ("I", "II"):
        assert outcome(reps.classify_unitarisable, space, lam, star) == \
            outcome(parent_reps.classify_unitarisable, space, lam, star), \
            (lam, star)
    assert outcome(reps.dual_weight, space, lam) == \
        outcome(parent_reps.dual_weight, space, lam), lam


def test_the_grids_hold_the_1634_dominant_weights_of_the_gram_test():
    dominant = sum(reps.is_finite_dimensional(preset_space(name), lam)
                   for name, values in GRIDS
                   for lam in itertools.product(
                       values, repeat=preset_space(name).dim))
    assert dominant == 1634


@pytest.mark.parametrize("name, values", GRIDS,
                         ids=[f"{name}-{i}" for i, (name, _) in
                              enumerate(GRIDS)])
def test_classification_and_dual_weight_match_the_parent(name, values):
    space = preset_space(name)
    kinds = set()
    for lam in itertools.product(values, repeat=space.dim):
        assert_same(space, lam)
        kinds.add(reps.classify_unitarisable(space, lam).certificate.get(
            "branch"))
    # a superspace grid reaches both branches of the decomposition
    if space.m_plus and space.m_minus:
        assert {"typical", "atypical"} <= kinds


@pytest.mark.parametrize("name, weight", LARGE)
def test_large_coordinates_match_the_parent(name, weight):
    space = preset_space(name)
    assert_same(space, tuple(weight.split(",")))
