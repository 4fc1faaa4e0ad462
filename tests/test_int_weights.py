"""The weight layer on ints against its parent on Fractions.

reps reads an integral weight coordinate as an int and lets rho enter
only through the integral 2 rho of gl._two_rho; tests/parent_reps.py
keeps the routines that made every coordinate a Fraction and added the
half-integral rho, with its own copy of rho.  Both are run on seeded
random weights whose coordinates are k, k/2 or k/3, over small_presets()
and random colour spaces, half of them dominant: each public result, and
gl.rho, must agree, value and type, or raise the same exception with the
same text.  The classification and dual weight run on the sign-valued
spaces alone, for both *-structures.

Each public weight function reads its weight by one _as_weight, and type
II by one more for lambda*; a wrong 2 rho moves the Casimir eigenvalue
and fails verify's forms-roots suite, as 2 rho is stated once."""

import random
from fractions import Fraction

import pytest

import parent_reps
from colourgl import gl, reps
from colourgl.presets import preset_space
from colourgl.verify import run_verification
from test_laurent_kernels import small_presets
from test_random_spaces import random_space
from test_unitarity_oracle import outcome, typed

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
    assert typed(gl.rho(space)) == typed(parent_reps.rho(space))
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


SUPER21 = preset_space("super(2|1)")
# typical, atypical and half-integral typical, each with a dual weight
WEIGHTS = [(2, 1, 0), (1, 0, 0), (Fraction(5, 2), Fraction(3, 2),
                                  Fraction(-1, 2))]


@pytest.mark.parametrize("call, reads", [
    (reps.is_finite_dimensional, 1),
    (reps.typicality, 1),
    (lambda space, lam: list(reps.kac_dimension_floors(space, lam)), 1),
    (reps.kac_dimension, 1),
    (reps.casimir_eigenvalue, 1),
    (reps.dual_weight, 1),
    (lambda space, lam: reps.classify_unitarisable(space, lam, "I"), 1),
    # lambda* is another weight, read once more
    (lambda space, lam: reps.classify_unitarisable(space, lam, "II"), 2),
    (reps.KacModule, 1),
    (reps.gram_report, 1),
], ids=["is_finite_dimensional", "typicality", "kac_dimension_floors",
        "kac_dimension", "casimir_eigenvalue", "dual_weight", "type I",
        "type II", "KacModule", "gram_report"])
def test_a_public_call_reads_its_weight_once(monkeypatch, call, reads):
    real = reps._as_weight
    calls = []

    def counted(space, lam):
        calls.append(lam)
        return real(space, lam)

    monkeypatch.setattr(reps, "_as_weight", counted)
    for lam in WEIGHTS:
        calls.clear()
        call(SUPER21, lam)
        assert len(calls) == reads, lam


@pytest.mark.parametrize("wrong", [
    lambda mp, two_rho: (two_rho[0] + 2,) + two_rho[1:],
    # +2 on the even block and -2 on the odd one: every odd pairing
    # (rho, eps_i - eps_sbar) keeps its value
    lambda mp, two_rho: tuple(x + 2 if a < mp else x - 2
                              for a, x in enumerate(two_rho)),
    lambda mp, two_rho: two_rho[:mp] + tuple(-x for x in two_rho[mp:]),
], ids=["first coordinate", "even and odd blocks", "odd block negated"])
def test_a_wrong_two_rho_fails_forms_roots_and_moves_the_casimir(
        monkeypatch, wrong):
    space, lam = SUPER21, (3, 1, 2)
    right = gl._two_rho
    before = reps.casimir_eigenvalue(space, lam)
    verdicts = {suite["name"]: suite["passed"]
                for suite in run_verification(space, "quick")}
    assert verdicts["forms-roots"] is True
    for module in (gl, reps):
        monkeypatch.setattr(module, "_two_rho",
                            lambda space: wrong(space.m_plus, right(space)))
    verdicts = {suite["name"]: suite["passed"]
                for suite in run_verification(space, "quick")}
    assert verdicts["forms-roots"] is False
    assert reps.casimir_eigenvalue(space, lam) != before
    # the parent's copy of rho does not read gl._two_rho
    assert parent_reps.casimir_eigenvalue(space, lam) == before


def test_the_sl2_string_lengths_are_ints():
    # d = lambda_0 - lambda_1 = 1 of a half-integral weight, an int
    module = reps.KacModule(SUPER21, (Fraction(1, 2), Fraction(-1, 2),
                                      Fraction(-3, 2)))
    assert typed(module._strings) == typed(((0, 1), None))
    assert (module.n_plus, module.n_minus) == (2, 1)
    # a Gram entry where lambda's coordinates enter stays a Fraction
    entries = {typed(x) for *_, mat, _ in
               reps.gram_report(SUPER21, (Fraction(1, 2), Fraction(1, 2),
                                          0)).blocks
               for row in mat for x in row}
    assert {typed(Fraction(1, 2)), typed(Fraction(3, 4)), typed(1)} <= \
        entries
