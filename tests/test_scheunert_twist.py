"""The Scheunert twist as an oracle independent of the omega tables.

Scheunert (J. Math. Phys. 20 (1979) 712): a commutative factor is
omega = omega0 sigma / sigma^T, with omega0 the super factor of the same
parities and sigma a 2-cocycle.  For the factors (-1)^(a^T S b)
q^(a^T B b) of this package sigma is the bicharacter

    sigma(a, b) = (-1)^(a^T U b) q^(a^T B+ b),

U the strict upper triangle of S - d d^T mod 2, d = diag S mod 2, and B+
the strict upper triangle of B; omega0 is the factor of the forms
(d d^T, 0), the super twin.  So a colour structure is its super twin's
with the product twisted to a o b = sigma(|a|, |b|) ab.  Every check here
reads sigma from the factor's forms, never from CommutativeFactor._table
or GradedSpace._omega_pairs, which every other oracle shares:

- the Fock product on two copies: colour _merge(m1, m2) is the twin's
  times c(m1) c(m2) sigma(|m1|, |m2|) / c(m1 m2), where c(m) =
  prod_{j<k} sigma(g_j, g_k) over the letters of a sorted monomial;
- the bracket of matrix units: colour _bracket_ints is the twin's,
  twisted the same way, with c(E_ab) = sigma(g_a - g_b, g_b)^-1, the
  weight under which the twin's E_ab multiply as matrix units in the
  twisted product;
- the CCR walk _word_product: on normal-ordered words u, v the colour
  product is the twin's times W(u) W(v) sigma(|u|, |v|) / W(w) on each
  output word w, where W(word) = prod_{j<k} sigma(deg_j, deg_k) over its
  letters in normal order, x(a, r) of degree gamma_a before d(a, r) of
  degree -gamma_a, times sigma(-gamma_a, gamma_a)^-1 for each d(a, r),
  which keeps the contraction of d(a, r) with x(a, r) at 1;
- the tensor layer: with c(w) = prod_{j<k} sigma(g_{w_j}, g_{w_k}), the
  swap _swap is the twin's times c(w) / c(w'), E_ab by _act the twin's
  times c(E_ab) c(w) sigma(g_a - g_b, |w|) / c(w'), and the integer
  Young witness _witness the twin's times c(seed) / c(w) on each word w.

Factors are read as integer pairs (s, e) for (-1)^s q^e: a product XORs
the signs and sums the exponents.

At report level, the twist changes no number that a computing subcommand
writes: each job on a colour preset reports what it reports on the super
preset super(M+|M-) of the same parities, `inputs` aside."""

import itertools
import json
import random

import pytest

from colourgl.cli import main
from colourgl.gl import GradedSpace, _bracket_ints
from colourgl.grading import CommutativeFactor, _merge
from colourgl.partitions import hook_partitions
from colourgl.presets import preset_space
from colourgl.tensor import _act, _seed_word, _swap, _witness
from colourgl.weyl import _word_product, fock_algebra
from test_laurent_kernels import small_presets
from test_random_spaces import random_space


def twin_and_cocycle(factor):
    """The super twin CommutativeFactor(group, d d^T, 0) and sigma, a
    function of two coordinate tuples returning its pair (s, e)."""
    S, B = factor.sign_form, factor.exp_form
    r = len(S)
    d = [S[i][i] % 2 for i in range(r)]
    U = [[(S[i][j] - d[i] * d[j]) % 2 if i < j else 0 for j in range(r)]
         for i in range(r)]
    B_plus = [[B[i][j] if i < j else 0 for j in range(r)] for i in range(r)]
    twin = CommutativeFactor(factor.group,
                             tuple(tuple(x * y for y in d) for x in d),
                             ((0,) * r,) * r)

    def sigma(a, b):
        return (sum(a[i] * U[i][j] * b[j] for i in range(r)
                    for j in range(r)) % 2,
                sum(a[i] * B_plus[i][j] * b[j] for i in range(r)
                    for j in range(r)))
    return twin, sigma


def times(*pairs):
    return sum(s for s, _ in pairs) % 2, sum(e for _, e in pairs)


def inverse(pair):
    return pair[0], -pair[1]


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def neg(a):
    return tuple(-x for x in a)


def twisted(base, twist):
    """{(key, e): n} of the twin, whose every e is 0, with each term's
    pair twist(key) applied: the sign folded into n, the exponent as e."""
    out = {}
    for (key, e0), n in base.items():
        assert e0 == 0
        s, e = twist(key)
        out[key, e] = -n if s else n
    return out


def spaces():
    out = list(small_presets().items())
    rng = random.Random(2020)
    out += [(f"random-{k}", random_space(rng)) for k in range(16)]
    return out


SPACES = spaces()


def test_the_twin_has_the_parities_and_omega_of_the_factor():
    # omega = omega0 sigma / sigma^T on every pair of basis degrees; this
    # pins sigma and the twin to the factor's own omega
    for name, space in SPACES:
        twin, sigma = twin_and_cocycle(space.factor)
        for g, h in itertools.product(space.degrees, repeat=2):
            a, b = g.coords, h.coords
            s0, e0 = twin._pairings(g, h)
            assert e0 == 0
            assert space.factor._pairings(g, h) == times(
                (s0, e0), sigma(a, b), inverse(sigma(b, a))), name
            assert twin.parity(g) == space.factor.parity(g), name


@pytest.mark.parametrize("name,space", SPACES, ids=[n for n, _ in SPACES])
def test_the_fock_product_is_the_twins_twisted(name, space):
    twin, sigma = twin_and_cocycle(space.factor)
    colour = fock_algebra(space, 2)
    plain = fock_algebra(GradedSpace(twin, space.components), 2)
    assert plain.degrees == colour.degrees
    coords = [g.coords for g in colour.degrees]
    rank = space.factor.group.rank

    def grade(word):
        return tuple(sum(coords[g][i] for g in word) for i in range(rank))

    def weight(word):
        return times(*(sigma(coords[g], coords[h])
                       for g, h in itertools.combinations(word, 2)))

    monomials = [m for total in range(3) for m in colour.monomials(total)]
    assert monomials == [m for total in range(3)
                         for m in plain.monomials(total)]
    odd, om = colour._tables
    odd0, om0 = plain._tables
    for m1, m2 in itertools.product(monomials, repeat=2):
        got, base = _merge(m1, m2, odd, om), _merge(m1, m2, odd0, om0)
        if base is None:
            assert got is None, (name, m1, m2)
            continue
        s0, e0, word = base
        twist = times((s0, e0), weight(m1), weight(m2),
                      sigma(grade(m1), grade(m2)), inverse(weight(word)))
        assert got == (*twist, word), (name, m1, m2)


def test_the_bracket_of_matrix_units_is_the_twins_twisted():
    checked = 0
    for name, space in SPACES:
        twin, sigma = twin_and_cocycle(space.factor)
        pairs = space._omega_pairs
        pairs0 = GradedSpace(twin, space.components)._omega_pairs
        g = [d.coords for d in space.degrees]

        def unit_weight(a, b):
            return inverse(sigma(sub(g[a], g[b]), g[b]))

        units = list(itertools.product(range(space.dim), repeat=2))
        for (a, b), (c, d) in itertools.product(units, repeat=2):
            x, y = {((a, b), 0): 1}, {((c, d), 0): 1}
            expected = {}
            for ((i, j), e), n in _bracket_ints(pairs0, x, y).items():
                assert e == 0
                s, e = times(sigma(sub(g[a], g[b]), sub(g[c], g[d])),
                             unit_weight(a, b), unit_weight(c, d),
                             inverse(unit_weight(i, j)))
                expected[((i, j), e)] = -n if s else n
            assert _bracket_ints(pairs, x, y) == expected, (name, a, b, c, d)
            checked += 1
    assert checked > 1000


def ccr_words(alg, longest):
    """Every normal-ordered word (xs, ds) of alg of at most `longest`
    letters: an x-monomial and a d-monomial, each sorted and square-free
    in its odd letters, as d(a, r) has the parity of x(a, r)."""
    return [(xs, ds) for i in range(longest + 1)
            for j in range(longest + 1 - i)
            for xs in alg.monomials(i) for ds in alg.monomials(j)]


def ccr_twist_holds(space, copies, sigma_of_d=inverse):
    """Each product of normal-ordered words u, v of at most 3 letters in
    all is the twin's twisted by W(u) W(v) sigma(|u|, |v|) / W(w).
    sigma_of_d(sigma(-gamma_a, gamma_a)) is each d(a, r)'s own factor of
    W: its inverse keeps the contraction of d with x at 1."""
    twin, sigma = twin_and_cocycle(space.factor)
    colour = fock_algebra(space, copies)
    plain = fock_algebra(GradedSpace(twin, space.components), copies)
    coords = [g.coords for g in colour.degrees]
    zero = (0,) * space.factor.group.rank

    def grades(word):
        xs, ds = word
        return [coords[g] for g in xs] + [neg(coords[g]) for g in ds]

    def grade(word):
        return tuple(map(sum, zip(zero, *grades(word))))

    def weight(word):
        return times(*(sigma(a, b)
                       for a, b in itertools.combinations(grades(word), 2)),
                     *(sigma_of_d(sigma(neg(coords[g]), coords[g]))
                       for g in word[1]))

    words = ccr_words(colour, 3)
    for u, v in itertools.product(words, repeat=2):
        if sum(map(len, u + v)) > 3:
            continue
        outer = times(weight(u), weight(v), sigma(grade(u), grade(v)))
        expected = twisted(_word_product(plain, *u, *v),
                           lambda w: times(outer, inverse(weight(w))))
        if _word_product(colour, *u, *v) != expected:
            return False
    return True


@pytest.mark.parametrize("name,space", SPACES, ids=[n for n, _ in SPACES])
def test_the_ccr_walk_is_the_twins_twisted(name, space):
    assert ccr_twist_holds(space, 1)


@pytest.mark.parametrize("name", ["glq(1|1)", "glq(2|1)", "green(2)"])
def test_the_ccr_walk_on_two_copies_is_the_twins_twisted(name):
    assert ccr_twist_holds(preset_space(name), 2)


def test_the_ccr_weight_of_a_d_is_the_inverse_pair():
    # sigma(-gamma_a, gamma_a) in place of its inverse fails where that
    # pair is not its own inverse: on 8 of the 16 random spaces
    failed = [name for name, space in SPACES if name.startswith("random")
              and not ccr_twist_holds(space, 1, sigma_of_d=lambda p: p)]
    assert len(failed) == 8, failed


def tensor_twist(space):
    """(the twin space, sigma, c) with c(w) = prod_{j<k} sigma(g_{w_j},
    g_{w_k}) over the letters of a word of basis indices."""
    twin, sigma = twin_and_cocycle(space.factor)
    g = [d.coords for d in space.degrees]

    def c(word):
        return times(*(sigma(g[a], g[b])
                       for a, b in itertools.combinations(word, 2)))
    return GradedSpace(twin, space.components), sigma, c


@pytest.mark.parametrize("name,space", SPACES, ids=[n for n, _ in SPACES])
def test_the_tensor_layer_is_the_twins_twisted(name, space):
    plain, sigma, c = tensor_twist(space)
    pairs, pairs0 = space._omega_pairs, plain._omega_pairs
    g = [d.coords for d in space.degrees]
    zero = (0,) * space.factor.group.rank
    units = list(itertools.product(range(space.dim), repeat=2))
    for word in itertools.product(range(space.dim), repeat=3):
        for i in range(2):
            s0, e0, swapped = _swap(pairs0, i, (0, 0, word))
            assert e0 == 0
            assert _swap(pairs, i, (0, 0, word)) == (
                *times((s0, e0), c(word), inverse(c(swapped))), swapped)
        grade = tuple(map(sum, zip(zero, *(g[x] for x in word))))
        for a, b in units:
            outer = times(inverse(sigma(sub(g[a], g[b]), g[b])), c(word),
                          sigma(sub(g[a], g[b]), grade))
            expected = twisted(_act(pairs0, a, b, {(word, 0): 1}),
                               lambda w: times(outer, inverse(c(w))))
            assert _act(pairs, a, b, {(word, 0): 1}) == expected, \
                (name, word, a, b)
    for r in (2, 3, 4):
        for lam in hook_partitions(space.m_plus, space.m_minus, r, r):
            seed = c(_seed_word(space, lam))
            assert _witness(space, lam) == twisted(
                _witness(plain, lam),
                lambda w: times(seed, inverse(c(w)))), (name, lam)


# each computing subcommand's options; OTHER stands for the space itself
TWIN_JOBS = (
    ("fft-check", "--copies", "2", "--dual-copies", "1", "--max-degree", "2"),
    ("howe-sweep", "--copies", "2", "--max-degree", "4"),
    ("glvv", "--other-space", "OTHER", "--max-degree", "4"),
    ("verify", "--level", "full"),
    ("schur-weyl", "--power", "3"),
    ("tableaux", "--size", "4", "--copies", "2"),
    ("casimir", "--partition", "2,1"))


def report_without_inputs(capsys, command, space, *options):
    code = main([command, "--space", space,
                 *(space if x == "OTHER" else x for x in options)])
    doc = json.loads(capsys.readouterr().out)
    del doc["inputs"]
    return code, doc


# every colour space of the benchmark pool, and five more
@pytest.mark.parametrize("name", [
    "glq(1|1)", "glq(2|1)", "glq(1|2)", "glq(2|0)", "glq(0|2)", "glq(2|2)",
    "green(2)", "green(3)", "z2z2(1,1,0,0)", "z2z2(1,0,1,1)",
    "z2z2(1,1,1,0)", "z2z2(1,1,1,1)"])
def test_every_report_is_the_super_twins(capsys, name):
    space = preset_space(name)
    twin = f"super({space.m_plus}|{space.m_minus})"
    for job in TWIN_JOBS:
        colour = report_without_inputs(capsys, job[0], name, *job[1:])
        assert colour[0] == 0, (name, job, colour)
        assert colour == report_without_inputs(capsys, job[0], twin,
                                               *job[1:]), (name, job)
