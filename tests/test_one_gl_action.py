"""One gl(V) action, checked across the tensor and Fock layers.

V^(tensor r) is the multilinear part of S_omega(V (x) C^r), its gl_r
weight (1, ..., 1) (Howe, Trans. AMS 313, 1989).  The word a_0 ...
a_{r-1} is the Fock monomial x(a_0, 0) x(a_1, 1) ... x(a_{r-1}, r-1) of
fock_algebra(space, r), the flat ids a_t r + t, which grading._merge
sorts into a monomial and the pair (s, e) of the factor (-1)^s q^e that
the sorting costs.  Under that map the coproduct rule of tensor._act is
the CCR walk of weyl._word_on_monomial with E_ab acting as Ecal_ab =
sum_t x(a, t) d(b, t): the package's two statements of the gl(V) action
agree word by word, and every Schur-Weyl witness maps to a nonzero Fock
vector that each raising Ecal_ab, a < b, kills.  On the S_r side the
braiding tensor._swap at slot i is the exchange of copies i and i + 1:
the algebra automorphism x(a, i) <-> x(a, i + 1) of fock_algebra(space,
r), which keeps degrees, so that it is well defined, and whose sorting
of the exchanged product gives the braiding factor."""

import itertools

from colourgl.gl import _add_ints
from colourgl.grading import _merge
from colourgl.partitions import hook_partitions
from colourgl.presets import glq_space, green_space, super_space, z2z2_space
from colourgl.tensor import _act, _swap, _witness
from colourgl.weyl import _word_on_monomial, fock_algebra
from test_laurent_kernels import small_presets

POWERS = (1, 2, 3)
# dimension-3 presets of each grading, for r = 4
PRESETS_AT_4 = {"super(1|2)": super_space(1, 2), "glq(2|1)": glq_space(2, 1),
                "green(3)": green_space(3),
                "z2z2(1,1,1,0)": z2z2_space((1, 1, 1, 0))}


def to_fock(alg, r, terms):
    """{(word, e): n} on V^(tensor r) as {(monomial, e): n} on
    fock_algebra(space, r).  Each word's ids differ in their copy t, so
    no odd square vanishes, and the map is one to one on words, so no two
    terms meet."""
    odd, om = alg._tables
    out = {}
    for (word, e), n in terms.items():
        s, e2, mono = _merge((), tuple(a * r + t for t, a in enumerate(word)),
                             odd, om)
        out[mono, e + e2] = -n if s else n
    return out


def ecal(alg, r, a, b, vec):
    """Ecal_ab = sum_t x(a, t) d(b, t) on the Fock vector vec."""
    out = {}
    for (mono, e), n in vec.items():
        for t in range(r):
            _add_ints(out, _word_on_monomial(alg, (a * r + t,),
                                             (b * r + t,), mono), n, e)
    return {key: n for key, n in out.items() if n}


def test_the_coproduct_rule_is_the_fock_action_of_ecal():
    checks = 0
    for name, space in small_presets().items():
        pairs = space._omega_pairs
        units = list(itertools.product(range(space.dim), repeat=2))
        for r in POWERS:
            alg = fock_algebra(space, r)
            for word in itertools.product(range(space.dim), repeat=r):
                terms = {(word, 0): 1}
                fock = to_fock(alg, r, terms)
                for a, b in units:
                    assert to_fock(alg, r, _act(pairs, a, b, terms)) == \
                        ecal(alg, r, a, b, fock), (name, word, a, b)
                    checks += 1
    # sum over the presets of dim^(r + 2) for r = 1, 2, 3
    assert checks == 11158


def test_every_schur_weyl_witness_is_a_fock_highest_weight_vector():
    witnesses = 0
    for name, space in small_presets().items():
        raising = [(a, b) for a in range(space.dim)
                   for b in range(a + 1, space.dim)]
        for r in POWERS:
            alg = fock_algebra(space, r)
            for lam in hook_partitions(space.m_plus, space.m_minus, r, r):
                fock = to_fock(alg, r, _witness(space, lam))
                assert fock, (name, lam)
                for a, b in raising:
                    assert not ecal(alg, r, a, b, fock), (name, lam, a, b)
                witnesses += 1
    assert witnesses == 288


def exchange(alg, r, i, vec):
    """The exchange of copies i and i + 1, x(a, i) <-> x(a, i + 1), on the
    Fock vector vec: each monomial's generators are relabelled in place,
    and the product re-sorted by _merge, which adds its (s, e) pair."""
    odd, om = alg._tables
    swap = {i: i + 1, i + 1: i}
    out = {}
    for (mono, e), n in vec.items():
        image = tuple(g - g % r + swap.get(g % r, g % r) for g in mono)
        s, e2, word = _merge((), image, odd, om)
        _add_ints(out, {(word, e + e2): 1}, -n if s else n, 0)
    return {key: n for key, n in out.items() if n}


def test_the_braiding_is_the_exchange_of_two_copies():
    checks = 0
    cases = [(name, space, r) for name, space in small_presets().items()
             for r in POWERS] + [(name, space, 4)
                                 for name, space in PRESETS_AT_4.items()]
    for name, space, r in cases:
        pairs = space._omega_pairs
        alg = fock_algebra(space, r)
        for word in itertools.product(range(space.dim), repeat=r):
            fock = to_fock(alg, r, {(word, 0): 1})
            for i in range(r - 1):
                s, e, swapped = _swap(pairs, i, (0, 0, word))
                assert to_fock(alg, r, {(swapped, e): -1 if s else 1}) == \
                    exchange(alg, r, i, fock), (name, word, i)
                checks += 1
    # dim^r (r - 1) summed over the presets: 2194 at r = 2, 3 and
    # 4 * 3^4 * 3 = 972 at r = 4
    assert checks == 3166
