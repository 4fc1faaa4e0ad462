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
vector that each raising Ecal_ab, a < b, kills."""

import itertools

from colourgl.gl import _add_ints
from colourgl.grading import _merge
from colourgl.partitions import hook_partitions
from colourgl.tensor import _act, _witness
from colourgl.weyl import _word_on_monomial, fock_algebra
from test_laurent_kernels import small_presets

POWERS = (1, 2, 3)


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
