"""One refusal rule.  Every bound on the size of a computation is a call to
gl.ResourceBoundExceeded.check, made before the work of that size starts:
no module builds a ResourceBoundExceeded itself except gl's check and the
CLI's _too_long, the one bound on report text; no module but gl defines a
class of that name; every *_CAP of the library is the bound of a check
call; no check call forms a power of a variable exponent as its size; and
the CLI keeps no bound on a computation.  The tensor power of
schur_weyl_table and casimir_defect is the library's, one
tensor.check_tensor_power refused from r and the bits of dim V before the
power is formed, and in casimir_defect after the partition check and
before the hook check, the order the CLI applied it in.  A size too long
to print is written as a bound on its digits.  fft-check's two gl(V)
checks share glq-check's commutator bound, and an fft-check job meets
every bound of its parts before its first degree is computed, as a
glq-check job meets its sweep's bound before its first commutator.  A graded
space of more than gl.DIM_CAP basis vectors, a preset or a file, is
refused before its degrees, or a unit preset's forms, are built."""

import ast
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from colourgl import (ResourceBoundExceeded, cli, gl, presets, reps, tensor,
                      weyl)
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
                       "COMMUTATOR_CAP", "CERTIFICATE_PARTS_CAP",
                       "GRAM_BASIS_CAP", "DIM_CAP", "SKEW_PAIRS_CAP"}
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
                         (reps, "_witness"), (reps, "_check_hook")):
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


def variable_powers(node):
    """The ** operations under node whose exponent is not a constant."""
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
            and not isinstance(sub.right, ast.Constant)]


def check_sizes(tree):
    """The size argument of every check call in a module."""
    return [node.args[1] if len(node.args) > 1 else
            next(k.value for k in node.keywords if k.arg == "size")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called_name(node) == "check"]


def test_no_check_forms_a_power_of_a_variable_exponent():
    # a size such as dim V ** r is formed in full before check compares
    # it: at r = 30000000 that took 20 s, for a refusal
    sample = ast.parse("R.check('x', d ** r * 2, CAP)\n"
                       "R.check('y', n ** 2, CAP, unit='u')\n"
                       "R.check('z', size=(a ** b), bound=CAP)")
    assert [len(variable_powers(size)) for size in check_sizes(sample)] \
        == [1, 0, 1]
    found = {module: [ast.unparse(power) for size in check_sizes(tree)
                      for power in variable_powers(size)]
             for module, tree in trees().items()}
    assert found == {module: [] for module in found}


def test_a_size_too_long_to_print_is_written_as_a_bound_on_its_digits():
    bits = gl.SIZE_TEXT_BITS
    # at the bound the size is written in full, one bit more and it is not
    top = (1 << bits) - 1
    with pytest.raises(ResourceBoundExceeded) as exc:
        ResourceBoundExceeded.check("a job", top, 10)
    assert str(exc.value) == f"a job needs {top} basis elements, above " \
        "the bound 10"
    # the bound is a lower one: 10^5000 has 16610 bits, and 0.30102 per
    # bit puts it past 10^4999 only
    for size, digits in ((1 << bits, 3913), (10 ** 5000, 4999),
                         (9 * 10 ** 5000, 5000), (10 ** 5000 - 1, 4999)):
        with pytest.raises(ResourceBoundExceeded) as exc:
            ResourceBoundExceeded.check("a job", size, 10, "rows")
        assert str(exc.value) == f"a job needs more than 10^{digits} " \
            "rows, above the bound 10"
        # a true bound: the size has more digits than the power of ten
        assert size > 10 ** digits and exc.value.size == size


def test_one_tensor_power_check_serves_both_callers():
    names = {alias.name for node in ast.walk(trees()["reps.py"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "check_tensor_power" in names and "WORD_CAP" not in names
    assert calls_by_function(trees()["tensor.py"], "check") == [
        "check_tensor_power"]
    assert sorted(where for module in ("tensor.py", "reps.py")
                  for where in calls_by_function(trees()[module],
                                                 "check_tensor_power")) \
        == ["casimir_defect", "schur_weyl_table"]


@pytest.mark.parametrize("power, text", [
    (13, "1594323"), (8000, str(3 ** 8000)), (20000, "more than 10^3913"),
    (10 ** 30, "more than 10^3913")], ids=["13", "8000", "20000", "1e30"])
def test_the_tensor_power_is_refused_before_it_is_formed(power, text):
    # 3^8000 has 12680 bits and is written out; past 13000 bits of the
    # lower bound 2^r the power is not formed, 3^(10^30) included
    space = super_space(2, 1)
    assert tensor.check_tensor_power(space, 12) is None
    with pytest.raises(ResourceBoundExceeded) as exc:
        tensor.check_tensor_power(space, power)
    assert str(exc.value) == f"tensor power needs {text} basis elements, " \
        "above the bound 1000000"


# the address space of a run_module child: a regression on an input that
# should be refused fails its test instead of taking the machine's memory
CHILD_ADDRESS_SPACE = 3 << 30


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "colourgl", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=limit_address_space)
    return proc.returncode, json.loads(proc.stdout), \
        time.perf_counter() - start


@pytest.mark.parametrize("argv, error", [
    (("schur-weyl", "--space", "super(2|1)", "--power", "20000"),
     "tensor power needs more than 10^3913 basis elements, above the bound "
     "1000000"),
    (("schur-weyl", "--space", "super(2|1)", "--power", "30000000"),
     "tensor power needs more than 10^3913 basis elements, above the bound "
     "1000000"),
    (("casimir", "--space", "super(2|1)", "--partition", "30000000"),
     "tensor power needs more than 10^3913 basis elements, above the bound "
     "1000000"),
    (("glq-check", "--m", "1", "--n", "1", "--copies", "1" + "0" * 2500),
     "glq-check needs more than 10^5000 commutators, above the bound 30000"),
    (("fft-check", "--space", "super(14|14)", "--copies", "1",
      "--dual-copies", "1", "--max-degree", "0"),
     "the dual-pair check needs 615441 commutators, above the bound 30000"),
    (("fft-check", "--space", "super(40|40)", "--copies", "1",
      "--dual-copies", "1", "--max-degree", "1"),
     "the dual-pair check needs 40966401 commutators, above the bound "
     "30000"),
    (("kac-dim", "--space", "super(3000000|0)", "--weight", "0"),
     "a graded space needs 3000000 basis vectors, above the bound 1000"),
    (("kac-dim", "--space", "super(100000000|0)", "--weight", "0"),
     "a graded space needs 100000000 basis vectors, above the bound 1000"),
    (("kac-dim", "--space", "green(2000)", "--weight", "0"),
     "a graded space needs 2000 basis vectors, above the bound 1000"),
    (("typicality", "--space", "glq(3000|1)", "--weight", "0"),
     "a graded space needs 3001 basis vectors, above the bound 1000"),
    (("verify", "--space", "glq(600|600)", "--level", "quick"),
     "a graded space needs 1200 basis vectors, above the bound 1000"),
    (("glvv", "--space", "super(500|500)", "--other-space", "super(500|500)",
      "--max-degree", "1"),
     "the sweep to degree 1 needs 1000001 basis elements, above the bound "
     "1000000"),
    (("kac-dim", "--space", "super(500|500)", "--weight", ",".join(
        ["0"] * 1000)),
     "a number of the report needs more than 4000 digits, above the bound "
     "4000"),
    (("verify", "--space", "green(21)", "--level", "quick"),
     "the jacobi-skew suite needs 194481 pairs of matrix units, above the "
     "bound 160000"),
    (("kac-dim", "--space", "super(600|0)", "--weight", ",".join(
        str(600 - i) for i in range(600))),
     "a number of the report needs more than 4000 digits, above the bound "
     "4000"),
    (("kac-dim", "--space", "super(1000|0)", "--weight", ",".join(
        str(1000 - i) for i in range(1000))),
     "a number of the report needs more than 4000 digits, above the bound "
     "4000")])
def test_an_oversized_request_exits_2_fast_naming_the_bound(argv, error):
    # each exited 2 with Python's 4300-digit error, or after 8-20 s, or
    # (fft-check super(14|14)) ran to exit 0 in 8 s, or (super(40|40) at
    # degree 1) computed the degree-1 invariants for 1.1 s before its
    # refusal; a space past DIM_CAP was built in full first, for 2.1 s
    # (super(3000000|0)) or 3.1 s (green(2000)) on a 2-vCPU machine, or
    # until memory ran out.  glvv listed dim V dim W degrees before its
    # bound (4.4 s for super(500|500)), kac-dim formed the C(n, 2)
    # products of equal coordinates (11.3 s), or the whole Weyl product
    # of (m, m-1, ..., 1) before its digits were checked (10.1 s for
    # super(600|0), about 100 s for super(1000|0)), and verify bracketed
    # every pair of matrix units (green(200) ran past 60 s)
    code, doc, seconds = run_module(*argv)
    assert (code, doc["error"]) == (2, error)
    assert seconds < 2


@pytest.mark.parametrize("weight, error", [
    (",".join(["0"] * 1000),
     "a number of the report needs more than 4000 digits, above the bound "
     "4000"),
    (",".join(["0"] * 999 + ["1"]),
     ",".join(["0"] * 999 + ["1"]) + " is not dominant")],
    ids=["dominant", "not dominant"])
def test_kac_dim_refuses_an_unprintable_dimension_before_computing_it(
        weight, error):
    # 2^(M+ M-) divides the dimension, so M+ M- = 250000 decides the
    # refusal of a dominant weight; kac_dimension compared the C(500, 2)
    # coordinate pairs of each parity block first.  A weight that is not
    # dominant is still named as such
    code, doc, seconds = run_module("kac-dim", "--space", "super(500|500)",
                                    "--weight", weight)
    assert (code, doc["error"]) == (2, error)
    assert seconds < 1


@pytest.mark.parametrize("degree, code", [(0, 0), (1, 2)])
def test_glvv_of_the_largest_colour_space_counts_without_listing(degree,
                                                                 code):
    # green(1000) against itself has 10^6 generators E_vw; the sweep reads
    # their parities from (M+, M-) alone, where it listed their degrees
    # first: that job was stopped by hand after 2 min 51 s at 7.2 GB
    code_seen, doc, seconds = run_module(
        "glvv", "--space", "green(1000)", "--other-space", "green(1000)",
        "--max-degree", str(degree))
    assert code_seen == code, doc
    if code:
        assert doc["error"] == ("the sweep to degree 1 needs 1000001 basis "
                                "elements, above the bound 1000000")
    else:
        assert doc["results"]["rows"] == [{
            "algebra_dimension": 1, "degree": 0, "equal": True,
            "module_sum": 1}]
    assert seconds < 3


def test_a_space_past_the_dimension_bound_is_refused_unbuilt():
    # a space at the bound is built; one basis vector more is refused
    # before its degrees, or a unit preset's forms, are built
    assert super_space(gl.DIM_CAP, 0).dim == gl.DIM_CAP
    past = gl.DIM_CAP + 1
    for build in (lambda n: super_space(0, n), presets.green_space,
                  lambda n: presets.glq_space(n - 1, 1)):
        start = time.perf_counter()
        with pytest.raises(ResourceBoundExceeded,
                           match=f"needs {past} basis vectors"):
            build(past)
        assert time.perf_counter() - start < 0.1


def test_a_space_file_past_the_dimension_bound_exits_2_fast(tmp_path):
    doc = super_space(1, 0).to_json()
    doc["components"][0]["dim"] = 10 ** 12
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, doc, seconds = run_module("verify", "--space", str(path))
    assert (code, doc["error"]) == (
        2, "a graded space needs 1000000000000 basis vectors, above the "
           "bound 1000")
    assert seconds < 2


@pytest.mark.parametrize("space, copies, degree, error", [
    ("super(40|40)", 1, 1, "the dual-pair check needs 40966401 commutators"),
    # past both bounds: the degree's basis is refused first, as before
    ("super(14|14)", 2, 5, "invariant_dimension needs 614656 basis "
                           "elements")])
def test_fft_check_meets_every_bound_before_its_first_degree(
        capsys, monkeypatch, space, copies, degree, error):
    monkeypatch.setattr(weyl, "invariant_dimensions", refuse_to_compute)
    monkeypatch.setattr(weyl, "_invariant_dimension", refuse_to_compute)
    monkeypatch.setattr(weyl, "fock_algebra", refuse_to_compute)
    assert cli.main(["fft-check", "--space", space, "--copies", str(copies),
                     "--dual-copies", "1", "--max-degree", str(degree)]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(error)


def refuse_to_compute(*args):
    raise AssertionError("a job started its work before its bounds")


def test_glq_check_meets_the_sweep_bound_before_its_first_commutator(
        capsys, monkeypatch):
    # the relations admit 3 * 50^2 commutators; the sweep refuses degree 4.
    # The commutators were formed first, for 0.17-0.39 s
    monkeypatch.setattr(weyl, "_commutator", refuse_to_compute)
    assert cli.main(["glq-check", "--m", "1", "--n", "1", "--copies", "50",
                     "--max-degree", "40"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "the sweep to degree 4 needs 4341801 basis elements, above the "
        "bound 1000000")


def test_fft_check_just_under_the_commutator_bound_runs():
    # dim V = 13 at N = 1: 1 + 13^4 + 13^2 = 28731 commutators
    code, doc, _ = run_module("fft-check", "--space", "super(7|6)",
                              "--copies", "1", "--dual-copies", "1",
                              "--max-degree", "0")
    assert code == 0 and doc["ok"] is True
    assert doc["results"]["invariant_dimensions"] == {"0": 1}


@pytest.mark.parametrize("check, size", [
    (weyl.verify_dual_pair, 2 ** 4 + 2 ** 4 + 2 ** 2 * 2 ** 2),
    (weyl.invariant_generators_check, 2 ** 2 * 2 ** 2 * (2 ** 2 + 1))])
def test_the_gl_v_checks_count_the_commutators_they_form(monkeypatch, check,
                                                         size):
    # super(1|1) at N = 2: exactly at the bound they run, one below it not
    monkeypatch.setattr(weyl, "COMMUTATOR_CAP", size)
    assert check(super_space(1, 1), 2) is True
    monkeypatch.setattr(weyl, "COMMUTATOR_CAP", size - 1)
    with pytest.raises(ResourceBoundExceeded,
                       match=f"needs {size} commutators"):
        check(super_space(1, 1), 2)
