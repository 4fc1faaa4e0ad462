"""The bicharacter, jacobi-skew, coxeter-braid and gl-equivariance suites
of verify run on integer omega pairs, the scalar-field suite on random
scalars with int coefficients, and the fock-module suite on one image
table per word.  They agree with the suites they replaced, which
parent_verify keeps verbatim: the same verdict and detail, and the same
rng state after each suite, on every preset of dim V <= 3 and on 12
seeded random colour spaces, at both levels and seeds 0-2.  verify's
draws by rng.choice give the values and the rng states of the parent's
rng.randint draws.  Both versions refuse a space whose omega table or
whose factor is wrong, and gl-equivariance refuses an E_ab kernel that
drops its prefix signs."""

import random

import pytest

import parent_verify as parent
from colourgl import tensor, verify
from colourgl.grading import CommutativeFactor, GradingGroup
from colourgl.presets import preset_space
from test_laurent_kernels import small_presets
from test_random_spaces import random_space

PRESETS = small_presets()
_rng = random.Random(4141)
RANDOM_SPACES = {f"random {i}": random_space(_rng) for i in range(12)}
# suite name, its argument at level full, at level quick
SUITES = (("suite_bicharacter", 200, 50), ("suite_scalar_field", 100, 25),
          ("suite_jacobi", True, False), ("suite_coxeter", 5, 3),
          ("suite_equivariance", 40, 10), ("suite_fock", 2, 1))


def assert_suites_match(space):
    for level in range(2):
        seedless = set()  # suites that drew nothing from rng at seed 0
        for seed in range(3):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            for suite, *args in SUITES:
                if suite in seedless:
                    continue  # it never read rng, so the seed cannot matter
                before = new_rng.getstate()
                new = getattr(verify, suite)(space, new_rng, args[level])
                old = getattr(parent, suite)(space, old_rng, args[level])
                assert new == old, (suite, level, seed)
                assert new_rng.getstate() == old_rng.getstate(), \
                    (suite, level, seed)
                if seed == 0 and new_rng.getstate() == before:
                    seedless.add(suite)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_integer_suites_match_the_scalar_suites(name):
    assert_suites_match(PRESETS[name])


@pytest.mark.parametrize("name", sorted(RANDOM_SPACES))
def test_integer_suites_match_on_random_colour_spaces(name):
    assert_suites_match(RANDOM_SPACES[name])


GROUPS = sorted({space.factor.group for space in [*PRESETS.values(),
                                                  *RANDOM_SPACES.values()]}
                | {GradingGroup(3, 2), GradingGroup(0, 0)},
                key=lambda group: (group.free_rank, group.torsion2_rank))


@pytest.mark.parametrize("seed", range(3))
def test_draws_by_choice_are_the_randint_draws(seed):
    for group in GROUPS:
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for _ in range(300):
            new, old = (verify._random_degree(group, new_rng),
                        parent._random_degree(group, old_rng))
            assert new == old and new.group is group, group
            assert verify._random_scalar(new_rng) == \
                parent._random_int_scalar(old_rng)
            assert new_rng.getstate() == old_rng.getstate()


def with_wrong_pair(space, flip_sign, shift):
    """space with _omega_pairs[0][1] = omega(g_0, g_1) made wrong: its sign
    bit flipped, or its exponent shifted, and nothing else."""
    rows = [list(row) for row in space._omega_pairs]
    s, e = rows[0][1]
    rows[0][1] = (s ^ flip_sign, e + shift)
    space.__dict__["_omega_pairs"] = tuple(tuple(row) for row in rows)
    return space


@pytest.mark.parametrize("module", [verify, parent])
@pytest.mark.parametrize("suite,arg", [("suite_jacobi", True),
                                       ("suite_coxeter", 5)])
@pytest.mark.parametrize("flip_sign,shift", [(1, 0), (0, 1)])
@pytest.mark.parametrize("name", ["super(1|1)", "glq(1|1)", "green(2)"])
def test_a_wrong_omega_table_entry_is_refused(module, suite, arg, flip_sign,
                                              shift, name):
    # omega(d(X), d(Y)) of the Jacobi and skew checks comes from the factor,
    # so a table entry that disagrees with it is caught, the sign flip too
    space = with_wrong_pair(preset_space(name), flip_sign, shift)
    passed, _ = getattr(module, suite)(space, random.Random(0), arg)
    assert passed is False


@pytest.mark.parametrize("module", [verify, parent])
@pytest.mark.parametrize("flip_sign,shift", [(1, 0), (0, 1)])
@pytest.mark.parametrize("name", ["super(1|1)", "glq(1|1)", "green(2)"])
def test_a_pairing_that_is_not_additive_is_refused(monkeypatch, module,
                                                   flip_sign, shift, name):
    space = preset_space(name)
    pairings = CommutativeFactor._pairings

    def wrong(self, a, b):
        s, e = pairings(self, a, b)
        return s ^ flip_sign, e + shift

    monkeypatch.setattr(CommutativeFactor, "_pairings", wrong)
    passed, detail = module.suite_bicharacter(space, random.Random(0), 200)
    assert passed is False
    assert detail.startswith("additivity failed at")


def test_distant_sigmas_that_do_not_commute_are_named(monkeypatch):
    # a swap rule whose sigma_i, i >= 2, adds a sign when the first letter
    # is 1: it squares to the identity and fails first the commutation of
    # sigma_0 and sigma_2, at r = 4
    def swap(pairs, i, term):
        s, e, word = tensor._swap(pairs, i, term)
        return s ^ (i >= 2 and term[2][0] == 1), e, word

    monkeypatch.setattr(verify, "_swap", swap)
    assert verify.suite_coxeter(preset_space("super(1|1)"),
                                random.Random(0), 5) == (
        False, "sigma_0 and sigma_2 do not commute on (0, 1, 0, 0)")


@pytest.mark.parametrize("name", ["super(1|1)", "green(2)"])
def test_equivariance_refuses_a_kernel_without_prefix_signs(monkeypatch,
                                                            name):
    # tensor._act with the sign bits of its prefix pairs dropped: E_ab no
    # longer passes an odd letter with a sign, which sigma_i detects
    def act(pairs, a, b, terms):
        unsigned = [[(0, e) for _, e in row] for row in pairs]
        return tensor._act(unsigned, a, b, terms)

    monkeypatch.setattr(verify, "_act", act)
    passed, detail = verify.suite_equivariance(preset_space(name),
                                               random.Random(0), 40)
    assert passed is False
    assert detail.startswith("[gl, sigma_")
