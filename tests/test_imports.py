"""No module of colourgl imports a name it never uses: a refactor that
moves work elsewhere must take the imports it left behind with it.  A
__future__ import counts as a name too: `annotations` is used only by a
module that holds an annotation, and every other feature is in force on
every Python that colourgl supports.  No
private module-level function goes unreferenced in the package: a helper
whose last caller moved away goes with it.  No module writes an f-string
without a placeholder: a message meant to name its inputs that names none
of them.  Importing the CLI loads neither dataclasses nor inspect, which
with ast, dis and tokenize are most of a cold start's import time.  No
module but scalars imports a private name of scalars.  The CLI imports no
private name of the package: it calls the public library, one call per
job.  No module holds an assert statement: a self-check raises
AssertionError itself, so that python -O keeps it and exit 1 keeps its
meaning."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "colourgl"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    """Every name tree reads, and `annotations` when it holds an
    annotation, the one thing that the __future__ import of that name acts
    on."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if any(getattr(node, "annotation", None) or getattr(node, "returns", None)
           for node in ast.walk(tree)):
        used.add("annotations")
    return used


def unused_imports(text):
    tree = ast.parse(text)
    used = used_names(tree)
    return [name for name in imported_names(tree) if name not in used]


@pytest.mark.parametrize("text, unused", [
    ("from __future__ import annotations\nx = 1\n", ["annotations"]),
    ("from __future__ import annotations\ndef f(a: int): pass\n", []),
    ("from __future__ import annotations\ndef f() -> int: pass\n", []),
    ("from __future__ import annotations\nx: int = 1\n", []),
    ("from __future__ import division\n", ["division"]),
    ("import os, re\nos.sep\n", ["re"])],
    ids=["no-annotation", "argument", "return", "variable", "division",
         "plain"])
def test_an_import_is_unused_without_a_use(text, unused):
    assert unused_imports(text) == unused


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name in unused_imports(path.read_text()):
            # the package __init__ re-exports every public name it imports
            if path.name == "__init__.py" and not name.startswith("_"):
                continue
            unused.append(f"{path.name}: {name}")
    assert not unused


def referenced_names(tree, skip=None):
    """Every name tree reads, as a name, an attribute or an import, outside
    the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    node.name.startswith("_") and \
                    not node.name.startswith("__"):
                # a reference from its own body, a recursion, does not count
                if not any(node.name in referenced_names(
                        other, node if other is tree else None)
                        for other in trees.values()):
                    unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced


def test_no_f_string_lacks_a_placeholder():
    bare = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # a format spec, as in f"{x:>5}", parses as an f-string of its own
        specs = {id(node.format_spec) for node in ast.walk(tree)
                 if isinstance(node, ast.FormattedValue) and node.format_spec}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and id(node) not in specs \
                    and not any(isinstance(value, ast.FormattedValue)
                                for value in node.values):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare


def test_cli_import_leaves_out_dataclasses_and_inspect():
    probe = ("import sys, colourgl.cli; print(' '.join(sorted("
             "{'dataclasses', 'inspect'} & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.split() == []


def test_only_scalars_imports_a_private_name_of_scalars():
    # the stored form (shift, n, d) of a Scalar is read and built in
    # scalars alone; other modules use its public constructors,
    # omega_scalar and the arithmetic
    private = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[-1] == "scalars":
                private += [f"{path.name}: {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert not private


def test_cli_imports_no_private_name_of_the_package():
    private = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.level or (node.module or "").startswith("colourgl")):
            private += [alias.name for alias in node.names
                        if alias.name.startswith("_")]
    assert not private


def test_no_module_holds_an_assert_statement():
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert not asserts
