"""The contract every sparse container shares through LinearCombination:
exact cancellation, the zero filter, scaling by zero, equality by type and
shape, and SpaceMismatch on operands of different shape."""

import pytest

from colourgl.gl import GlElement, SpaceMismatch
from colourgl.presets import glq_space, super_space
from colourgl.scalars import ONE, Q, ZERO, Scalar
from colourgl.tensor import SymGroupElement, TensorVector
from colourgl.weyl import FockVector, WeylElement

S11, S21, GLQ = super_space(1, 1), super_space(2, 1), glq_space(1, 1)
C = Scalar.parse("(q+1)/(q-2)")

# (element, zero of the same shape, element of another shape)
CASES = {
    "GlElement": (GlElement(GLQ, {(0, 1): Q, (1, 1): C}), GlElement(GLQ),
                  GlElement(S21, {(0, 1): Q})),
    "TensorVector": (TensorVector(GLQ, 2, {(0, 1): Q, (1, 1): C}),
                     TensorVector(GLQ, 2),
                     TensorVector(GLQ, 3, {(0, 1, 1): Q})),
    "SymGroupElement": (SymGroupElement(2, {(0, 1): ONE, (1, 0): C}),
                        SymGroupElement(2),
                        SymGroupElement(3, {(0, 1, 2): ONE})),
    "WeylElement": (WeylElement(GLQ, 2, {((1,), (2,)): Q, ((), ()): C}),
                    WeylElement(GLQ, 2),
                    WeylElement(GLQ, 1, {((0,), ()): Q})),
    "FockVector": (FockVector(GLQ, 1, {(0, 1): Q, (): C}),
                   FockVector(GLQ, 1),
                   FockVector(S11, 1, {(): Q})),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_shared_core_contract(name):
    x, zero, other = CASES[name]
    assert (x + (-x)).terms == {}
    assert x - x == zero
    assert x.scale(ZERO).terms == {}
    assert x.scale(ONE) == x and x + zero == x
    assert (x.scale(Q) - x.scale(Q)).is_zero() and not x.is_zero()
    assert type(x)(*x._shape(), {**x.terms, "dropped": ZERO}) == x
    assert x != other
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(SpaceMismatch):
            op(x, other)
        with pytest.raises(ValueError):  # SpaceMismatch is a ValueError
            op(other, x)


def test_containers_of_different_type_never_mix():
    terms = {((0,),): Q}
    tensor = TensorVector(GLQ, 1, terms)
    fock = FockVector(GLQ, 1, terms)
    assert tensor._shape() == fock._shape()
    assert tensor != fock and fock != tensor
    with pytest.raises(SpaceMismatch):
        tensor + fock


def test_group_algebra_mismatch_is_a_space_mismatch():
    a = SymGroupElement(2, {(1, 0): ONE})
    b = SymGroupElement(3, {(0, 1, 2): ONE})
    with pytest.raises(SpaceMismatch):
        a * b
    with pytest.raises(SpaceMismatch):
        a.apply(TensorVector.basis_word(S11, (0, 1, 1)))
