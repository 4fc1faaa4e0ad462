"""The benchmark's tracer wraps colourgl from outside (perfbench/tracing.py):
every public module-level function of a span layer and the methods named
in its SPAN_METHODS.  A refactor that moves such a method out of its class
body, or adds an unwrapped public name, breaks the traced run; this checks
the contract fast, in a fresh process, without changing perfbench."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import sys
sys.path.insert(0, "perfbench")
import selftest, tracing
errors = selftest.check_namespaces()
import importlib
for layer, classes in tracing.SPAN_METHODS.items():
    mod = importlib.import_module("colourgl." + layer)
    for cls_name, methods in classes.items():
        for meth in methods:
            code = getattr(getattr(mod, cls_name).__dict__[meth],
                           "__code__", None)
            if code is None or code.co_filename != tracing.__file__:
                errors.append(f"{cls_name}.{meth} is not wrapped")
print("\\n".join(errors))
sys.exit(1 if errors else 0)
"""


def test_tracer_installs_and_wraps_every_public_name():
    proc = subprocess.run([sys.executable, "-c", CHECK], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
