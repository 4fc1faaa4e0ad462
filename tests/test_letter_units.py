"""The Schur-Weyl witness check and the Casimir defect apply only the
matrix units that can move a letter of the witness, against the loops over
all dim V ** 2 units that tests/parent_tensor.py and tests/parent_reps.py
keep: tensor._check_witness applies the strictly upper E_ab whose b is a
letter of the seed word, and reps._casimir_defect the E_ba whose a is a
letter of the witness.  On every preset of dim V <= 3 and on seeded random
colour spaces, over the hook shapes of r <= 5 boxes, both give the
parent's verdict, message and defect, on the witness and on its
perturbations, and every unit they skip gives an empty image."""

import random

import pytest

import parent_reps
import parent_tensor
from colourgl.partitions import _sharp
from colourgl.reps import _casimir_defect
from colourgl.tensor import _act, _check_witness, _seed_word
from test_laurent_kernels import small_presets
from test_random_spaces import random_space
from test_tensor_witness import perturbations, witnesses

SPACES = dict(small_presets())
_rng = random.Random(2222)
SPACES.update((f"random {i}", random_space(_rng)) for i in range(8))


def verdict(check, *args):
    """None when check(*args) passes, else the message it raises."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(SPACES))
def test_letter_units_match_the_parent_loops(name):
    space = SPACES[name]
    for r, lam, terms in witnesses(space):
        sharp = _sharp(lam, space.m_plus, space.m_minus)
        for case in [terms] + perturbations(space, lam, terms):
            args = (space, lam, sharp, case)
            assert verdict(_check_witness, *args) == \
                verdict(parent_tensor._check_witness, *args), (lam, case)
            assert _casimir_defect(space, lam, case) == \
                parent_reps._casimir_defect(space, lam, case), (lam, case)
        assert verdict(_check_witness, space, lam, sharp, terms) is None


@pytest.mark.parametrize("name", sorted(SPACES))
def test_every_skipped_unit_is_zero_on_the_witness(name):
    space = SPACES[name]
    pairs = space._omega_pairs
    for r, lam, terms in witnesses(space):
        seed = set(_seed_word(space, lam))
        letters = {g for word, _ in terms for g in word}
        assert letters == seed, lam
        for a in range(space.dim):
            for b in range(space.dim):
                # _check_witness skips E_ab, a < b, for b off the seed;
                # _casimir_defect skips E_ba for a off the witness
                if a < b and b not in seed:
                    assert _act(pairs, a, b, terms) == {}, (lam, a, b)
                if a not in letters:
                    assert _act(pairs, b, a, terms) == {}, (lam, a, b)
