"""One refusal rule.  Every bound on the size of a computation is a call to
gl.ResourceBoundExceeded.check, made before the work of that size starts:
no module builds a ResourceBoundExceeded itself except gl's check and the
CLI's _too_long, the one bound on report text; no module but gl defines a
class of that name; every *_CAP of the library is the bound of a check
call; and the CLI keeps no bound on a computation.  The tensor power of
schur_weyl_table and casimir_defect is the library's, refused before any
witness is built, and in casimir_defect after the partition check and
before the hook check, the order the CLI applied it in."""

import ast
import json
from pathlib import Path

import pytest

from colourgl import ResourceBoundExceeded, cli, gl, reps, tensor, weyl
from colourgl.presets import super_space

SRC = Path(__file__).resolve().parent.parent / "src" / "colourgl"
TENSOR_POWER_20 = ("tensor power needs 1048576 basis elements, above the "
                   "bound 1000000")


def trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else \
        getattr(func, "attr", None)


def calls_by_function(tree, name):
    """The innermost enclosing function of every call to `name`, or None at
    module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and called_name(node) == name:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_check_and_the_cli_text_bound_build_the_exception():
    found = {(module, where) for module, tree in trees().items()
             for where in calls_by_function(tree, "ResourceBoundExceeded")}
    assert found == {("cli.py", "_too_long")}
    # check raises cls(...), so that it stays the one constructor call
    check, = [node for node in ast.walk(trees()["gl.py"])
              if isinstance(node, ast.FunctionDef) and node.name == "check"]
    assert calls_by_function(check, "cls") == ["check"]


def test_the_exception_is_defined_once_in_gl():
    defined = [module for module, tree in trees().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name == "ResourceBoundExceeded"]
    assert defined == ["gl.py"]
    assert ResourceBoundExceeded is gl.ResourceBoundExceeded \
        is weyl.ResourceBoundExceeded


def module_caps(tree):
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_CAP")}


def test_every_library_cap_is_the_bound_of_a_check_call():
    checked, caps = set(), {}
    for module, tree in trees().items():
        caps[module] = module_caps(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called_name(node) == "check" \
                    and len(node.args) >= 3 \
                    and isinstance(node.args[2], ast.Name):
                checked.add(node.args[2].id)
    library = set().union(*(c for m, c in caps.items() if m != "cli.py"))
    assert library == {"WORD_CAP", "MONOMIAL_CAP", "INVARIANT_BASIS_CAP",
                       "GLQ_COMMUTATOR_CAP", "CERTIFICATE_PARTS_CAP",
                       "GRAM_BASIS_CAP"}
    assert library <= checked
    # the CLI's bounds are on text alone
    assert caps["cli.py"] == {"WEIGHT_DIGITS_CAP", "REPORT_DIGITS_CAP"}
    assert not hasattr(cli, "guard_words")


def test_reps_imports_nothing_from_weyl():
    modules = {node.module for node in ast.walk(trees()["reps.py"])
               if isinstance(node, ast.ImportFrom)}
    assert "weyl" not in modules


def test_check_refuses_only_past_the_bound():
    for size in (9, 10):
        assert ResourceBoundExceeded.check("a job", size, 10) is None
    with pytest.raises(ResourceBoundExceeded) as exc:
        ResourceBoundExceeded.check("a job", 11, 10, "rows")
    assert str(exc.value) == "a job needs 11 rows, above the bound 10"
    assert (exc.value.size, exc.value.bound) == (11, 10)


def refuse_to_build(monkeypatch):
    def built(*args):
        raise AssertionError("a witness or a row was built")
    for module, name in ((tensor, "_witness"), (tensor, "hook_table"),
                         (reps, "_witness"), (reps, "_hook_shape")):
        monkeypatch.setattr(module, name, built)


def test_schur_weyl_table_refuses_the_tensor_power_unbuilt(monkeypatch):
    refuse_to_build(monkeypatch)
    with pytest.raises(ResourceBoundExceeded) as exc:
        tensor.schur_weyl_table(super_space(1, 1), 20)
    assert str(exc.value) == TENSOR_POWER_20
    # 2^30 words, refused by the library call alone
    with pytest.raises(ResourceBoundExceeded, match="1073741824 basis"):
        tensor.schur_weyl_table(super_space(0, 2), 30)


def test_casimir_defect_refuses_the_tensor_power_unbuilt(monkeypatch):
    refuse_to_build(monkeypatch)
    with pytest.raises(ResourceBoundExceeded) as exc:
        reps.casimir_defect(super_space(1, 1), (20,))
    assert str(exc.value) == TENSOR_POWER_20


@pytest.mark.parametrize("lam, error", [
    ((1, 0, 1), ValueError),             # not a partition: checked first
    ((10, 10), ResourceBoundExceeded),   # out of the 1|1 hook, 2^20 words
    ((2, 2), ValueError)])               # out of the hook, in the bound
def test_casimir_defect_bounds_between_the_two_shape_checks(lam, error):
    with pytest.raises(error) as exc:
        reps.casimir_defect(super_space(1, 1), lam)
    assert type(exc.value) is error


def test_the_cli_reports_the_library_bound(capsys):
    for argv in (["schur-weyl", "--space", "super(1|1)", "--power", "20"],
                 ["casimir", "--space", "super(1|1)", "--partition",
                  "10,10"]):
        assert cli.main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"kind": "error", "ok": False,
                       "error": TENSOR_POWER_20}, argv
