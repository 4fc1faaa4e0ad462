"""The caches that a check reads in full are tables built whole before
they are read: jacobi-skew's unit brackets and omegas, and a Kac module's
L0 norms.  Each table holds what the lookup-or-compute memo it replaced
held: every L0 norm equals the parent's loop (parent_reps.l0_norm), read
through the form as level 0 of a Gram report reads it, on strings up to
GRAM_BASIS_CAP long; a module refused past that bound builds no norm
table; jacobi-skew forms each unit bracket once, dim V ** 4 of them, plus
three brackets per triple; and a wrong unit bracket or a wrong omega pair
is refused with the parent suite's (False, detail) and rng state
(parent_verify.suite_jacobi, on GlElements)."""

import random

import pytest

import parent_reps
import parent_verify
from colourgl import gl, verify
from colourgl.gl import ResourceBoundExceeded
from colourgl.grading import CommutativeFactor
from colourgl.presets import preset_space
from colourgl.reps import GRAM_BASIS_CAP, KacModule

# (space, weight): the longest string the bound admits, 200 positions on
# super(2|1), and super(2|2) weights with both strings 3 or more long
NORM_MODULES = [("super(2|1)", (199, 0, 0)), ("super(2|2)", (3, 1, 2, 0)),
                ("super(2|2)", (4, 0, 3, 0)), ("super(2|2)", (5, 1, -1, -5))]


@pytest.mark.parametrize("spec,lam", NORM_MODULES)
def test_every_l0_norm_is_the_parent_loop(spec, lam):
    module = KacModule(preset_space(spec), lam)
    assert module.n_plus >= 3 and (spec == "super(2|1)"
                                   or module.n_minus >= 3)
    for kp in range(module.n_plus):
        for km in range(module.n_minus):
            el = ((), kp, km)
            norm = module.form(el, el)
            assert type(norm) is int and norm > 0
            assert norm == parent_reps.l0_norm(module, kp, km), el


def test_the_longest_string_reaches_the_bound():
    assert KacModule(preset_space("super(2|1)"), (199, 0, 0)).n_plus * 4 \
        == GRAM_BASIS_CAP


def test_a_refused_module_builds_no_norm_table():
    # the fields a module writes before its size is checked, and no other:
    # past GRAM_BASIS_CAP neither the norms nor the action's memo is built
    written = []

    class Recording(KacModule):
        def __setattr__(self, name, value):
            written.append(name)
            super().__setattr__(name, value)

    with pytest.raises(ResourceBoundExceeded):
        Recording(preset_space("super(2|1)"), (200, 0, 0))
    assert written == ["space", "lam", "mp", "mm", "pairs", "_strings",
                       "n_plus", "n_minus"]


JACOBI_SPACES = ["super(1|1)", "glq(1|1)", "green(2)", "super(2|1)",
                 "green(5)"]


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("name", JACOBI_SPACES)
def test_each_unit_bracket_is_formed_once(monkeypatch, name, exhaustive):
    space = preset_space(name)
    calls = []

    def counted(*args):
        calls.append(args)
        return gl._bracket_ints(*args)

    monkeypatch.setattr(verify, "_bracket_ints", counted)
    passed, label = verify.suite_jacobi(space, random.Random(0), exhaustive)
    triples = space.dim ** 6 if exhaustive and space.dim <= 4 else 60
    assert passed is True and label.startswith(("all", "60"))
    assert len(calls) == space.dim ** 4 + 3 * triples


def wrong_bracket(monkeypatch):
    # [E_01, E_10] without its E_11 term
    rule = gl._unit_bracket

    def bracket(pairs, a, b, c, d):
        terms = rule(pairs, a, b, c, d)
        return terms[:1] if (a, b, c, d) == (0, 1, 1, 0) else terms

    monkeypatch.setattr(gl, "_unit_bracket", bracket)


def wrong_pair(flip_sign, shift):
    def plant(monkeypatch, space):
        # omega(d(E_01), d(E_10)) from the factor made wrong, and no other
        # pair; the brackets read _omega_pairs, which keeps its value
        pairings = CommutativeFactor._pairings
        degrees = space.degrees
        target = (degrees[0] - degrees[1], degrees[1] - degrees[0])

        def wrong(self, a, b):
            s, e = pairings(self, a, b)
            if (a, b) == target:
                return s ^ flip_sign, e + shift
            return s, e

        monkeypatch.setattr(CommutativeFactor, "_pairings", wrong)
    return plant


PLANTS = {"bracket": lambda monkeypatch, space: wrong_bracket(monkeypatch),
          "omega sign": wrong_pair(1, 0), "omega exponent": wrong_pair(0, 1)}


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("name", ["super(1|1)", "glq(1|1)", "green(2)",
                                  "super(2|1)", "green(5)"])
def test_a_planted_fault_is_refused_as_the_parent_refuses_it(
        monkeypatch, plant, name):
    # every triple of a space of dim V <= 4 meets the fault in the Jacobi
    # loop; on green(5) the 60 random triples miss it and the skew loop
    # finds it
    space = preset_space(name)
    found_by = "jacobi" if space.dim <= 4 else "skew"
    space._omega_pairs  # built from the factor before the plant
    PLANTS[plant](monkeypatch, space)
    for exhaustive in (True, False):
        for seed in range(2):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            new = verify.suite_jacobi(space, new_rng, exhaustive)
            old = parent_verify.suite_jacobi(space, old_rng, exhaustive)
            assert new == old and new[0] is False, (exhaustive, seed)
            if exhaustive or space.dim > 4:
                assert new[1] == f"{found_by} defect nonzero"
            assert new_rng.getstate() == old_rng.getstate()
