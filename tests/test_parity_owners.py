"""Parity has two owners.  GradedSpace.__init__ takes it once per component
and orders the basis by it, so basis vector a is odd exactly when a >= M+;
OmegaPolyAlgebra.__init__ takes it once per distinct degree of its
generators.  Every other count, bound and listing reads it from one of
them; fft-check lists its xbar-monomials on the algebra of N' copies of
V, so that it builds no Fock algebra with no copy of V."""

import ast

import pytest

from colourgl import cli, weyl
from colourgl.grading import CommutativeFactor
from colourgl.presets import glq_space
from test_refusal_rule import called_name, trees


def parity_callers(tree):
    """(class, function) around every call of an attribute named parity."""
    found = []

    def visit(node, cls, where):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            where = node.name
        elif isinstance(node, ast.Call) and called_name(node) == "parity" \
                and isinstance(node.func, ast.Attribute):
            found.append((cls, where))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, where)

    visit(tree, None, None)
    return found


def test_only_the_two_owners_call_parity():
    found = {(module, *where) for module, tree in trees().items()
             for where in parity_callers(tree)}
    assert found == {("gl.py", "GradedSpace", "__init__"),
                     ("weyl.py", "OmegaPolyAlgebra", "__init__")}


def test_an_algebra_asks_the_factor_once_per_distinct_degree(monkeypatch):
    asked = []
    parity = CommutativeFactor.parity

    def counted(self, a):
        asked.append(a)
        return parity(self, a)

    space = glq_space(3, 3)
    monkeypatch.setattr(CommutativeFactor, "parity", counted)
    # 6 (47 + 47) = 564 generators of 12 distinct degrees
    alg = weyl._fock_algebra.__wrapped__(space, 47, 47)
    assert len(alg.parities) == 564 and len(asked) == 12
    assert alg.parities == [
        p for p in space.parities for _ in range(47)] + [
        p for p in space.parities for _ in range(47)]


@pytest.mark.parametrize("space, copies, dual_copies, degree", [
    ("super(1|1)", 1, 1, 3), ("super(2|1)", 1, 2, 2), ("glq(1|1)", 2, 1, 2),
    ("green(2)", 2, 2, 2), ("z2z2(1,0,1,0)", 1, 3, 2)])
def test_fft_check_builds_no_algebra_without_copies_of_v(
        capsys, monkeypatch, space, copies, dual_copies, degree):
    built = []
    memo = weyl._fock_algebra

    def recorded(space, copies, dual_copies):
        built.append((copies, dual_copies))
        return memo(space, copies, dual_copies)

    monkeypatch.setattr(weyl, "_fock_algebra", recorded)
    assert cli.main(["fft-check", "--space", space, "--copies", str(copies),
                     "--dual-copies", str(dual_copies), "--max-degree",
                     str(degree)]) == 0
    capsys.readouterr()
    assert built and all(n >= 1 for n, _ in built), built
    assert {shape for shape in built if shape[1]} == {(copies, dual_copies)}
