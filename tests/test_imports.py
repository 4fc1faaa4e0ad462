"""No module of colourgl imports a name it never uses: a refactor that
moves work elsewhere must take the imports it left behind with it.  No
module writes an f-string without a placeholder: a message meant to name
its inputs that names none of them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "colourgl"


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for name in imported_names(tree):
            # the package __init__ re-exports every public name it imports
            if path.name == "__init__.py" and not name.startswith("_"):
                continue
            if name not in used:
                unused.append(f"{path.name}: {name}")
    assert not unused


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
