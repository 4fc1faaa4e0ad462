"""The integer Schur-Weyl and Casimir witnesses against the Scalar route
they replaced (tests/parent_tensor.py), on every preset with dim V <= 3
and every hook shape of r <= 5 boxes.

tensor._act must equal the parent's Scalar prefix walk gl_act_tensor on
every witness and every E_ab,
the schur_weyl_table rows and the casimir_defect vectors must equal the
parent's, and a perturbed witness must be refused by both tables and give
both Casimir routes the same defect."""

import itertools

import pytest

import parent_tensor as parent
from colourgl.gl import GlElement, _to_scalars
from colourgl.partitions import _sharp, hook_partitions
from colourgl.presets import preset_space
from colourgl.reps import _casimir_defect, casimir_defect
from colourgl.scalars import ONE
from colourgl.tensor import (TensorVector, _act, _check_witness, _seed_word,
                             _witness, highest_weight_vector,
                             schur_weyl_table)

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
