"""The kernels of the tensor and reps layers read their omega pairs from a
table that CommutativeFactor._table builds, with no form of their own.

tensor._act reads the pairs pairs[a][c] and pairs[b][c] of each letter c
that it passes, where tests/parent_tensor.py keeps the walk that built the
list of all dim V pair differences first: both give the same image on
every preset of dim V <= 3 and on seeded random colour spaces, for every
(a, b), on int and Scalar coefficients, over words with and without b,
and the new walk reads no pair of a letter outside the words.

KacModule takes the odd set and the pairs of its lowering pairs F_s, of
degree g_rb - g_i, from factor._table, where tests/parent_reps.py keeps
the table built from gl._bracket_pair sign bits with every pair odd: both
agree on every sign-valued preset of dim V <= 3 and on seeded random
sign-valued spaces with parity blocks of size at most 2."""

import random

import pytest

import parent_reps
import parent_tensor
from colourgl.gl import GradedSpace
from colourgl.grading import CommutativeFactor
from colourgl.reps import KacModule
from colourgl.tensor import _act
from test_laurent_kernels import random_scalar, small_presets
from test_random_spaces import random_space

SPACES = dict(small_presets())
_rng = random.Random(4242)
SPACES.update((f"random {i}", random_space(_rng, max_dim=4))
              for i in range(8))


def random_terms(rng, dim, b, scalar):
    """{(word, e): n} over letters of range(dim): random words of 0-4
    letters, one word that holds b and, when dim > 1, one that does not;
    n a nonzero int, or a Scalar when scalar is set."""
    words = {tuple(rng.randrange(dim) for _ in range(rng.randint(0, 4)))
             for _ in range(6)}
    held = [rng.randrange(dim) for _ in range(rng.randint(0, 3))]
    held.insert(rng.randint(0, len(held)), b)
    words.add(tuple(held))
    if dim > 1:
        others = [c for c in range(dim) if c != b]
        words.add(tuple(rng.choice(others) for _ in range(rng.randint(1, 3))))
    return {(word, rng.randint(-2, 2)):
            random_scalar(rng) if scalar else rng.choice([-3, -1, 1, 2])
            for word in words}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_act_matches_the_step_list_walk(name):
    space = SPACES[name]
    pairs = space._omega_pairs
    rng = random.Random(name)
    for a in range(space.dim):
        for b in range(space.dim):
            for scalar in (False, True):
                terms = random_terms(rng, space.dim, b, scalar)
                assert _act(pairs, a, b, terms) == \
                    parent_tensor._act(pairs, a, b, terms), (a, b, terms)


class RecordingRow:
    """A row of omega pairs that records each index read from it."""

    def __init__(self, row, seen):
        self.row, self.seen = row, seen

    def __getitem__(self, c):
        self.seen.add(c)
        return self.row[c]


def test_act_reads_only_the_pairs_of_the_words_letters():
    space = SPACES["z2z2(1,1,1,0)"]
    pairs = space._omega_pairs
    rng = random.Random(7)
    for a in range(space.dim):
        for b in range(space.dim):
            terms = random_terms(rng, space.dim, b, False)
            seen = [set() for _ in range(space.dim)]
            rows = [RecordingRow(row, seen[c]) for c, row in enumerate(pairs)]
            assert _act(rows, a, b, terms) == _act(pairs, a, b, terms)
            letters = {c for (word, _) in terms if b in word for c in word}
            assert seen[a] | seen[b] <= letters, (a, b, terms)
            assert not any(seen[c] for c in range(space.dim)
                           if c not in (a, b))
        # a b in no word reads no pair
        seen = [set() for _ in range(space.dim)]
        rows = [RecordingRow(row, seen[c]) for c, row in enumerate(pairs)]
        assert _act(rows, a, 0, {((1, 2), 0): 1}) == {}
        assert not any(seen)


def sign_valued_spaces(rng, count):
    """count random spaces of dim V <= 4 with parity blocks of size at most
    2, each over the sign form of a random factor and a zero exponent
    form."""
    out = []
    while len(out) < count:
        space = random_space(rng, max_dim=4)
        factor = space.factor
        zero = ((0,) * factor.group.rank,) * factor.group.rank
        space = GradedSpace(CommutativeFactor(
            factor.group, factor.sign_form, zero), space.components)
        if space.m_plus <= 2 and space.m_minus <= 2:
            out.append(space)
    return out


KAC_SPACES = {name: space for name, space in small_presets().items()
              if space.factor.is_sign_valued()
              and space.m_plus <= 2 and space.m_minus <= 2}
KAC_SPACES.update((f"random sign-valued {i}", space) for i, space in
                  enumerate(sign_valued_spaces(random.Random(99), 40)))


@pytest.mark.parametrize("name", sorted(KAC_SPACES))
def test_kac_pair_table_matches_the_bracket_pair_table(name):
    space = KAC_SPACES[name]
    module = KacModule(space, (0,) * space.dim)
    odd, om = parent_reps.kac_pair_table(space, module.pairs)
    assert set(module._odd) == set(odd)
    assert [list(row) for row in module._om] == om
