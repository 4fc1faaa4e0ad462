"""The weight layer on ints against its parent on Fractions.

reps reads an integral weight coordinate as an int and lets rho enter
only through integers; tests/parent_reps.py keeps the routines that made
every coordinate a Fraction and added the half-integral rho.  Both are
run on seeded random weights whose coordinates are k, k/2 or k/3, over
small_presets() and random colour spaces, half of them dominant: each
public result must agree, value and type, or raise the same exception
with the same text.  The classification and dual weight run on the
sign-valued spaces alone, for both *-structures."""

import random
from fractions import Fraction

import pytest

import parent_reps
from colourgl import reps
from colourgl.presets import preset_space
from test_laurent_kernels import small_presets
from test_random_spaces import random_space
from test_unitarity_oracle import outcome

_rng = random.Random(4646)
SPACES = dict(small_presets())
SPACES.update((f"random {i}", random_space(_rng, max_dim=4))
              for i in range(12))


def random_weight(space, rng):
    """Coordinates k, k/2 or k/3: ints and Fractions, and in half of the
    weights each parity block a shift of a weakly decreasing int run."""
    def coordinate():
        den = rng.choice((1, 1, 2, 3))
        k = rng.randint(-4, 4)
        return k if den == 1 and rng.random() < 0.5 else Fraction(k, den)

    if rng.random() < 0.5:
        return tuple(coordinate() for _ in range(space.dim))
    lam = []
    for size in (space.m_plus, space.m_minus):
        x = coordinate()
        for _ in range(size):
            lam.append(x)
            x -= rng.randint(0, 2)
    return tuple(lam)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_the_weight_layer_matches_the_parent(name):
    space = SPACES[name]
    rng = random.Random(name)
    signed = space.factor.is_sign_valued()
    for _ in range(40):
        lam = random_weight(space, rng)
        for f in ("typicality", "casimir_eigenvalue", "kac_dimension",
                  "is_finite_dimensional"):
            assert outcome(getattr(reps, f), space, lam) == \
                outcome(getattr(parent_reps, f), space, lam), (f, lam)
        if not signed:
            continue
        for star in ("I", "II"):
            assert outcome(reps.classify_unitarisable, space, lam, star) == \
                outcome(parent_reps.classify_unitarisable, space, lam,
                        star), (lam, star)
        assert outcome(reps.dual_weight, space, lam) == \
            outcome(parent_reps.dual_weight, space, lam), lam


def test_the_spaces_reach_every_branch():
    # the sweep above is worth as much as what it reaches
    kinds = set()
    for name, space in sorted(SPACES.items()):
        if not space.factor.is_sign_valued():
            continue
        rng = random.Random(name)
        for _ in range(40):
            verdict = reps.classify_unitarisable(
                space, random_weight(space, rng))
            kinds.add(verdict.certificate.get("branch", verdict.reason))
    assert {"typical", "atypical", "colour", "weight is not dominant",
            "typical with (lambda+rho, eps_{M+}-eps_{M-bar}) <= 0",
            "atypical with no admissible vanishing odd root"} <= kinds


@pytest.mark.parametrize("f", [reps.typicality, reps.casimir_eigenvalue,
                               reps.kac_dimension, reps.classify_unitarisable,
                               reps.dual_weight, reps.is_finite_dimensional])
def test_a_float_coordinate_is_refused(f):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="not an int or a Fraction: 0.1"):
        f(preset_space("super(2|1)"), (0.1, 0, 0))


def test_integral_coordinates_are_ints_and_the_others_fractions():
    space = preset_space("super(2|1)")
    lam = reps._as_weight(space, (Fraction(4, 2), "1/2", True))
    assert [type(x) for x in lam] == [int, Fraction, int]
    assert lam == (2, Fraction(1, 2), 1)
