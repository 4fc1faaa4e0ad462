"""The braided action nu_r through the one swap rule, tensor._swap, against
the routines that parent_tensor keeps verbatim: braiding_apply and
apply_permutation agree with them on every preset space of dim V <= 3,
over all permutations of r <= 4 slots, on seeded random words with Scalar
coefficients.  A permutation takes exactly one _swap per inversion and
word, and braiding_apply now refuses a malformed word as
apply_permutation does.  Every sparse container is built by the one
constructor, LinearCombination.__init__, from its slots."""

import itertools
import random

import pytest

import parent_tensor as parent
from colourgl import tensor
from colourgl.gl import GlElement
from colourgl.presets import glq_space, super_space
from colourgl.scalars import ONE, ZERO
from colourgl.tensor import (SymGroupElement, TensorVector, apply_permutation,
                             braiding_apply)
from colourgl.weyl import FockVector, WeylElement
from test_laurent_kernels import random_scalar, small_presets

SPACES = small_presets()


def random_vector(rng, space, r):
    """One to four random words of r letters with random Scalars."""
    return TensorVector(space, r, {
        tuple(rng.randrange(space.dim) for _ in range(r)): random_scalar(rng)
        for _ in range(rng.randint(1, 4))})


def inversions(perm):
    return sum(perm[i] > perm[j]
               for i, j in itertools.combinations(range(len(perm)), 2))


@pytest.mark.parametrize("name", sorted(SPACES))
def test_the_braided_action_matches_the_parent(name):
    space = SPACES[name]
    rng = random.Random(name)
    for r in range(5):
        for perm in itertools.permutations(range(r)):
            v = random_vector(rng, space, r)
            assert apply_permutation(perm, v) == \
                parent.apply_permutation(perm, v)
        for i in range(r - 1):
            v = random_vector(rng, space, r)
            assert braiding_apply(i, v) == parent.braiding_apply(i, v)


@pytest.fixture
def swaps(monkeypatch):
    """The words that tensor._swap is called on, in order."""
    calls = []
    swap = tensor._swap

    def counted(pairs, i, term):
        calls.append(term[2])
        return swap(pairs, i, term)
    monkeypatch.setattr(tensor, "_swap", counted)
    return calls


@pytest.mark.parametrize("r", range(5))
def test_a_permutation_swaps_once_per_inversion(swaps, r):
    space = glq_space(2, 1)
    for word in itertools.product(range(space.dim), repeat=r):
        v = TensorVector.basis_word(space, word)
        for perm in itertools.permutations(range(r)):
            swaps.clear()
            apply_permutation(perm, v)
            assert len(swaps) == inversions(perm)
            assert not swaps or swaps[0] == word


def test_the_group_algebra_and_sigma_i_go_through_swap(swaps):
    space = super_space(2, 1)
    v = TensorVector(space, 3, {(0, 2, 1): ONE, (2, 2, 0): ONE})
    perms = list(itertools.permutations(range(3)))
    SymGroupElement(3, {p: ONE for p in perms}).apply(v)
    assert len(swaps) == 2 * sum(map(inversions, perms))
    swaps.clear()
    braiding_apply(1, v)
    assert sorted(swaps) == sorted(v.terms)


@pytest.mark.parametrize("word", [(0, 1), (0, 1, 0, 1), (1, -1, 0),
                                  (0, 2, 1)])
def test_braiding_apply_refuses_malformed_words(word):
    # super(1|1) has the letters 0 and 1; a power-3 vector needs 3 of them
    v = TensorVector(super_space(1, 1), 3, {word: ONE})
    with pytest.raises(ValueError, match="not a word of 3 letters"):
        braiding_apply(0, v)


S11 = super_space(1, 1)
CONTAINERS = {
    "GlElement": (GlElement, (S11,)),
    "TensorVector": (TensorVector, (S11, 2)),
    "SymGroupElement": (SymGroupElement, (2,)),
    "WeylElement": (WeylElement, (S11, 1)),
    "FockVector": (FockVector, (S11, 1)),
}


@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_a_container_is_built_from_its_slots(name):
    cls, shape = CONTAINERS[name]
    assert "__init__" not in vars(cls)
    zero = cls(*shape)
    assert zero.terms == {} and zero._shape() == shape
    assert tuple(getattr(zero, slot) for slot in cls.__slots__) == shape
    assert cls(*shape, None) == zero == cls(*shape, {"k": ZERO})
    assert cls(*shape, {"k": ONE, "dropped": ZERO}).terms == {"k": ONE}
    for fields in (shape[:-1], (*shape, {}, {}), ()):
        with pytest.raises(TypeError):
            cls(*fields)
