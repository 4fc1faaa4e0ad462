"""The integer Schur-Weyl and Casimir witnesses against the Scalar route
they replaced (tests/parent_tensor.py), on every preset with dim V <= 3
and every hook shape of r <= 5 boxes.

tensor._act must equal the parent's Scalar prefix walk gl_act_tensor on
every witness and every E_ab,
the schur_weyl_table rows and the casimir_defect vectors must equal the
parent's, and a perturbed witness must be refused by both tables and give
both Casimir routes the same defect.

The witness reads a Young table shared by the spaces of one parity
pattern and kept in a bounded memo: warm witnesses, built after another
space of the same parities in either order, words symmetrised on spaces
of other parities, and witnesses whose tables were dropped and rebuilt
must equal the parent's block sums too, and the count form of Psi must
be the pair of sorting by grading._merge."""

import itertools
import random

import pytest

import parent_tensor as parent
from colourgl import tensor
from colourgl.gl import GlElement, _Kept, _to_scalars
from colourgl.grading import _inversion_pair, _merge
from colourgl.partitions import _sharp, hook_partitions
from colourgl.presets import preset_space
from colourgl.reps import _casimir_defect, casimir_defect
from colourgl.scalars import ONE
from colourgl.tensor import (TensorVector, _act, _check_witness, _inversions,
                             _letter_pairs, _seed_word, _witness,
                             highest_weight_vector, schur_weyl_table,
                             young_symmetrize)
from test_laurent_kernels import small_presets
from test_random_spaces import random_space

PRESETS = ([f"{kind}({m}|{n})" for kind in ("super", "glq")
            for m in range(4) for n in range(4) if 0 < m + n <= 3]
           + ["z2z2({},{},{},{})".format(*dims)
              for dims in itertools.product(range(4), repeat=4)
              if 0 < sum(dims) <= 3]
           + [f"green({n})" for n in range(1, 4)])


def as_vector(space, r, terms):
    """The TensorVector of an integer witness {(w, e): n}."""
    return TensorVector(space, r, _to_scalars([(ONE, terms)]))


def witnesses(space):
    """(r, lambda, integer witness) over the hook shapes of r <= 5."""
    for r in range(1, 6):
        for lam in hook_partitions(space.m_plus, space.m_minus, r, r):
            yield r, lam, _witness(space, lam)


def perturbations(space, lam, terms):
    """The witness with one coefficient changed, with one word of another
    weight added, and emptied.  A single word w is killed by every upper
    E_ab only when all its letters are 0, so v + q^e w with w holding a
    letter > 0 is no highest weight vector; the added word breaks the
    weight; and the empty witness is zero."""
    out = []
    key = next((k for k in terms if max(k[0]) > 0), None)
    if key is not None:
        changed = dict(terms)
        changed[key] += 1
        out.append({k: n for k, n in changed.items() if n})
    if space.dim > 1:
        seed = _seed_word(space, lam)
        other = ((seed[0] + 1) % space.dim,) + seed[1:]
        added = dict(terms)
        added[other, 0] = added.get((other, 0), 0) + 1
        out.append(added)
    out.append({})
    return out


@pytest.mark.parametrize("name", PRESETS)
def test_witnesses_and_the_kernel_match_the_parent(name):
    space = preset_space(name)
    pairs = space._omega_pairs
    units = [(a, b, GlElement.matrix_unit(space, a, b))
             for a in range(space.dim) for b in range(space.dim)]
    for r, lam, terms in witnesses(space):
        v = parent._highest_weight_vector(space, lam)
        assert as_vector(space, r, terms) == v, lam
        assert highest_weight_vector(space, lam) == v, lam
        for a, b, x in units:
            assert as_vector(space, r, _act(pairs, a, b, terms)) == \
                parent.gl_act_tensor(x, v), (lam, a, b)
        assert casimir_defect(space, lam) == parent.casimir_defect(
            space, lam), lam
    for r in range(1, 6):
        assert schur_weyl_table(space, r) == parent.schur_weyl_table(
            space, r)


@pytest.mark.parametrize("name", PRESETS)
def test_both_routes_refuse_a_perturbed_witness(name, monkeypatch):
    space = preset_space(name)
    nonzero = 0
    for r, lam, terms in witnesses(space):
        sharp = _sharp(lam, space.m_plus, space.m_minus)
        for bad in perturbations(space, lam, terms):
            with pytest.raises(AssertionError,
                               match="hwv|highest weight vector vanished"):
                _check_witness(space, lam, sharp, bad)
            v = as_vector(space, r, bad)
            # the parent's table, on this one shape, with v as its witness
            monkeypatch.setattr(parent, "hook_partitions",
                                lambda *args, lam=lam: iter([lam]))
            monkeypatch.setattr(parent, "_highest_weight_vector",
                                lambda *args, v=v: v)
            with pytest.raises(AssertionError,
                               match="hwv|highest weight vector vanished"):
                parent.schur_weyl_table(space, r)
            defect = _casimir_defect(space, lam, bad)
            assert defect == parent.casimir_defect(space, lam), lam
            monkeypatch.undo()
            nonzero += not defect.is_zero()
    # the Casimir routes are compared on nonzero defects too, except on a
    # line, whose one word of each length is an eigenvector of Omega
    assert nonzero or space.dim == 1


def parity_classes():
    """The presets above and a few random colour spaces, grouped by their
    parity bits, in classes of two to four spaces."""
    rng = random.Random(34)
    spaces = [(name, preset_space(name)) for name in PRESETS] + [
        (f"random {i}", random_space(rng)) for i in range(8)]
    classes = {}
    for name, space in spaces:
        classes.setdefault(space.parities, []).append((name, space))
    return [group[:4] for group in classes.values() if len(group) > 1]


def matches_the_parent(space):
    for r, lam, terms in witnesses(space):
        assert as_vector(space, r, terms) == \
            parent._highest_weight_vector(space, lam), (space, lam)


@pytest.mark.parametrize("group", parity_classes(),
                         ids=lambda group: group[0][0])
def test_spaces_of_one_parity_pattern_share_their_young_tables(
        group, monkeypatch):
    for order in (group, group[::-1]):
        kept = _Kept(tensor.TERMS_KEPT)
        monkeypatch.setattr(tensor, "_KEPT", kept)
        tables = None
        for _, space in order:
            matches_the_parent(space)
            # the first space builds every table, the others only read
            assert tables in (None, len(kept))
            tables = len(kept)


def test_spaces_of_other_parities_keep_their_own_tables(monkeypatch):
    # a seed word fixes the parity of every letter it repeats, but a word
    # in general does not: over a row, (1, 1) sums to 2 (1, 1) when 1 is
    # even and to 0 when 1 is odd
    monkeypatch.setattr(tensor, "_KEPT", _Kept(tensor.TERMS_KEPT))
    cases = (((2,), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (0, 1, 1)),
             ((2, 1), (1, 1, 0)))
    for name in ("super(2|0)", "super(1|1)", "super(2|0)"):
        space = preset_space(name)
        for lam, word in cases:
            assert young_symmetrize(space, lam, word) == \
                parent._young_symmetrize(space, lam, word), (name, lam, word)
    assert not young_symmetrize(preset_space("super(2|0)"), (2,),
                                (1, 1)).is_zero()
    assert young_symmetrize(preset_space("super(1|1)"), (2,),
                            (1, 1)).is_zero()


def test_dropped_tables_give_the_same_witnesses(monkeypatch):
    kept = _Kept(40)
    monkeypatch.setattr(tensor, "_KEPT", kept)
    names = ("super(1|2)", "glq(2|1)", "super(2|1)", "green(3)", "glq(1|1)",
             "super(1|1)")
    shapes = set()
    for _ in range(2):
        for name in names:
            space = preset_space(name)
            matches_the_parent(space)
            assert kept.held <= 40
            shapes.update((space.parities, lam) for r in range(1, 6)
                          for lam in hook_partitions(
                              space.m_plus, space.m_minus, r, r))
    # more tables were built than the memo holds entries: some were
    # dropped, and built again on the second pass
    assert len(kept) < len(shapes)


def test_the_memo_is_bounded_on_terms():
    assert tensor._KEPT.bound == tensor.TERMS_KEPT


@pytest.mark.parametrize("name", sorted(small_presets()))
def test_the_count_form_of_psi_is_the_pair_of_sorting(name):
    pairs = small_presets()[name]._omega_pairs
    dim = len(pairs)
    for r in range(1, 5):
        for word in itertools.product(range(dim), repeat=r):
            letter_pairs = _letter_pairs(word)
            s, e, _ = _merge((), word, (), pairs)
            assert _inversion_pair(letter_pairs,
                                   _inversions(letter_pairs, word),
                                   pairs) == (s, e), word
