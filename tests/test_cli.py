import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

import pytest

from colourgl import cli, gl, reps, weyl
from colourgl.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_verify_quick(capsys):
    code, doc = run_json(capsys, "verify", "--space", "super(1|1)",
                         "--level", "quick")
    assert code == 0
    assert doc["ok"] is True
    assert all(s["passed"] for s in doc["results"]["suites"])


def test_schur_weyl_report(capsys):
    code, doc = run_json(capsys, "schur-weyl", "--space", "super(1|1)",
                         "--power", "2")
    assert code == 0
    assert doc["results"]["checksum"] == 4
    parts = [tuple(r["partition"]) for r in doc["results"]["rows"]]
    assert parts == [(2,), (1, 1)]


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "howe-sweep", "--space", "super(1|1)",
                      "--copies", "2", "--max-degree", "3")
    _, out2 = run_cli(capsys, "howe-sweep", "--space", "super(1|1)",
                      "--copies", "2", "--max-degree", "3")
    assert out1 == out2


def test_one_parser_serves_successive_jobs(capsys):
    # the jobs of one process share the grammar table and the spaces; a
    # second job must not see the options of the first (tableaux's
    # --copies defaults to 0)
    jobs = (["howe-sweep", "--space", "super(1|1)", "--copies", "2",
             "--max-degree", "3"],
            ["tableaux", "--space", "super(2|1)", "--size", "3"])
    in_process = [run_cli(capsys, *argv) for argv in jobs]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, (code, out) in zip(jobs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "colourgl", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert json.loads(in_process[1][1])["inputs"]["copies"] == 0


def test_inputs_round_trip(capsys):
    code, doc = run_json(capsys, "typicality", "--space", "super(2|1)",
                         "--weight", "2,1,0")
    assert code == 0
    inputs = doc["inputs"]
    argv = [inputs["command"], "--space", inputs["space"],
            "--weight", inputs["weight"]]
    code2, doc2 = run_json(capsys, *argv)
    assert code2 == 0 and doc2["inputs"] == inputs


def test_bad_inputs_exit_2(capsys, tmp_path):
    code, doc = run_json(capsys, "typicality", "--space", "nosuch(9)",
                         "--weight", "1")
    assert code == 2 and doc["kind"] == "error"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run_json(capsys, "verify", "--space", str(bad))
    assert code == 2 and "JSON" in doc["error"]
    # a path that exists but cannot be read as a file
    code, doc = run_json(capsys, "verify", "--space", str(tmp_path))
    assert code == 2 and doc["kind"] == "error"
    assert doc["error"].startswith(f"cannot read {tmp_path}")
    code, doc = run_json(capsys, "kac-dim", "--space", "super(2|0)",
                         "--weight", "0,1")
    assert code == 2
    code, doc = run_json(capsys, "typicality", "--space", "super(1|1)",
                         "--weight", "1/0,2")
    assert code == 2 and "bad weight coordinate" in doc["error"]
    # negative counts, fft-check, glq-check or howe-sweep without a copy,
    # fft-check without a dual copy, and glq-check on an empty space are
    # bad input
    for argv in (
            ("schur-weyl", "--space", "super(1|1)", "--power", "-1"),
            ("tableaux", "--space", "super(1|1)", "--size", "-1"),
            ("tableaux", "--space", "super(1|1)", "--size", "2",
             "--copies", "-1"),
            ("howe-sweep", "--space", "super(1|1)", "--copies", "-1",
             "--max-degree", "2"),
            ("howe-sweep", "--space", "super(1|1)", "--copies", "1",
             "--max-degree", "-1"),
            ("fft-check", "--space", "super(1|1)", "--copies", "-1",
             "--dual-copies", "1"),
            ("fft-check", "--space", "super(1|1)", "--copies", "0",
             "--dual-copies", "1"),
            ("fft-check", "--space", "super(1|1)", "--copies", "1",
             "--dual-copies", "-1"),
            ("fft-check", "--space", "super(1|1)", "--copies", "1",
             "--dual-copies", "0"),
            ("howe-sweep", "--space", "super(1|1)", "--copies", "0",
             "--max-degree", "2"),
            ("glq-check", "--m", "-1", "--n", "1"),
            ("glq-check", "--m", "1", "--n", "-1"),
            ("glq-check", "--m", "1", "--n", "1", "--copies", "0"),
            ("glq-check", "--m", "0", "--n", "0"),
            ("glvv", "--space", "super(1|1)", "--other-space", "super(1|1)",
             "--max-degree", "-1")):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["kind"] == "error", argv
        assert "must be at least" in doc["error"], argv
    # a 0-dimensional space is refused before any suite or check runs:
    # verify and fft-check would pass on no basis vector
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "factor": {"free_rank": 0, "torsion2_rank": 1,
                   "sign_form": [[1]], "exp_form": [[0]]},
        "components": []}))
    for space in ("super(0|0)", "z2z2(0,0,0,0)", str(empty)):
        for job in (("verify", "--level", "quick"),
                    ("verify", "--level", "full"),
                    ("fft-check", "--copies", "1", "--dual-copies", "1")):
            code, doc = run_json(capsys, job[0], "--space", space, *job[1:])
            assert code == 2 and doc["kind"] == "error", (space, job)
            assert "dimension at least 1" in doc["error"], (space, job)
    # --copies 0 is the tableaux default: no dim_glN column
    code, doc = run_json(capsys, "tableaux", "--space", "super(1|1)",
                         "--size", "2", "--copies", "0")
    assert code == 0 and "dim_glN" not in doc["results"]["rows"][0]


def test_unsupported_factor_exit_2(capsys):
    code, doc = run_json(capsys, "unitarisable", "--space", "glq(1|1)",
                         "--weight", "1,0")
    assert code == 2
    assert "sign-valued" in doc["error"]


def test_dual_weight_unsupported_exit_2(capsys):
    code, doc = run_json(capsys, "unitarisable", "--space", "super(2|1)",
                         "--weight=1/2,-1/2,-3/2", "--type", "II")
    assert code == 2
    assert "atypical" in doc["error"]


def test_type_two_on_a_large_tensor_weight(capsys):
    # mu = (7,): the dual weight needs no tensor power
    code, doc = run_json(capsys, "unitarisable", "--space", "super(2|1)",
                         "--weight=7,0,0", "--type", "II")
    assert code == 0
    assert doc["results"]["certificate"]["dual_weight"] == ["0", "-6", "-1"]


def test_resource_guard_exit_2(capsys):
    code, doc = run_json(capsys, "schur-weyl", "--space", "super(2|2)",
                         "--power", "12")
    assert code == 2
    assert "bound" in doc["error"]


def test_monomial_guard_exit_2_fast(capsys):
    # 2.68e9 monomials at d = 16 alone: refused before any enumeration
    start = time.perf_counter()
    code, doc = run_json(capsys, "howe-sweep", "--space", "super(3|3)",
                         "--copies", "4", "--max-degree", "16")
    assert code == 2 and "bound" in doc["error"]
    assert time.perf_counter() - start < 2


def test_fft_guard_exit_2_fast_on_many_dual_copies(capsys):
    # 20000 x-monomials of degree 2 on the dual side, 2 on the other:
    # refused before either side is listed, as with the copies swapped
    start = time.perf_counter()
    code, doc = run_json(capsys, "fft-check", "--space", "super(1|1)",
                         "--copies", "1", "--dual-copies", "100",
                         "--max-degree", "2")
    assert time.perf_counter() - start < 2
    assert code == 2 and doc["kind"] == "error"
    assert "40000" in doc["error"] and "bound 20000" in doc["error"]


@pytest.mark.parametrize("copies, code", [(1000000, 2), (9999, 0)])
def test_fft_guard_bounds_the_generators_at_degree_0(copies, code):
    # dim V (N + N') generators: 2000002 are refused before any is listed
    # (unguarded, 18 s to exit 0), 2 * 10000 = 20000, the bound, are built
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "colourgl", "fft-check",
                           "--space", "super(1|1)", "--copies", str(copies),
                           "--dual-copies", "1", "--max-degree", "0"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == code
    doc = json.loads(proc.stdout)
    if code:
        assert time.perf_counter() - start < 2
        assert "2000002 generators" in doc["error"]
        assert "bound 20000" in doc["error"]
    else:
        assert doc["results"]["invariant_dimensions"] == {"0": 1}


@pytest.mark.parametrize("m, n, copies", [(5, 5, 20), (0, 15, 26),
                                          (10, 10, 30)])
def test_glq_guard_exit_2_fast(capsys, m, n, copies):
    # 3 C(m + n + 1, 2) copies^2 commutators, refused before any is formed;
    # unguarded these took 1.1 s / 88 MB up to 14.2 s / 648 MB
    start = time.perf_counter()
    code, doc = run_json(capsys, "glq-check", "--m", str(m), "--n", str(n),
                         "--copies", str(copies))
    assert time.perf_counter() - start < 2
    assert code == 2 and doc["kind"] == "error"
    size = 3 * (m + n + 1) * (m + n) // 2 * copies ** 2
    assert f"{size} commutators" in doc["error"]
    assert "bound 30000" in doc["error"]


def test_glq_guard_counts_the_commutators_it_forms(monkeypatch):
    # gl_q(0|2) on 2 copies: 3 index pairs, 4 copy pairs, 3 relations
    monkeypatch.setattr(weyl, "COMMUTATOR_CAP", 36)
    result = weyl.glq_relations_check(0, 2, 2, 1)
    assert result["relations_hold"] and result["sweep_ok"]
    monkeypatch.setattr(weyl, "COMMUTATOR_CAP", 35)
    with pytest.raises(weyl.ResourceBoundExceeded, match="36 commutators"):
        weyl.glq_relations_check(0, 2, 2, 1)


def test_large_tableaux_table_is_fast(capsys):
    # rows come from the hook shapes, not from all p(60) ~ 10**6 partitions
    start = time.perf_counter()
    code, doc = run_json(capsys, "tableaux", "--space", "super(2|1)",
                         "--size", "60")
    assert time.perf_counter() - start < 2
    assert code == 0
    rows = doc["results"]["rows"]
    # the (60) row and (a, b, 1^k) with a >= b >= 1: sum_{m=2}^{60} m // 2
    assert len(rows) == 1 + sum(m // 2 for m in range(2, 61)) == 901
    assert rows[0]["partition"] == [60]


@pytest.mark.parametrize("space, power", [("super(1|1)", 10),
                                          ("super(2|2)", 8)])
def test_large_schur_weyl_table_is_fast(capsys, space, power):
    # the highest weight vectors come from block sums over distinct
    # arrangements, not from all |P_lambda| |Q_lambda| permutations
    start = time.perf_counter()
    code, doc = run_json(capsys, "schur-weyl", "--space", space,
                         "--power", str(power))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert doc["results"]["checksum"] == doc["results"]["dimension"]


@pytest.mark.parametrize("argv", [
    ("tableaux", "--space", "super(0|1)", "--size", "2000"),
    ("schur-weyl", "--space", "super(1|0)", "--power", "2000")])
def test_one_row_tables_take_no_recursion_per_row(capsys, argv):
    # the one shape is a column or a row of 2000 boxes: strips and
    # arrangements are grown without a call per row or per letter
    code, doc = run_json(capsys, *argv)
    assert code == 0
    rows = doc["results"]["rows"]
    assert len(rows) == 1 and rows[0]["k"] == 1 and rows[0]["f"] == 1
    assert sum(rows[0]["partition"]) == 2000


@pytest.mark.parametrize("argv", [
    ("tableaux", "--space", "super(0|1)", "--size", "1000"),
    ("howe-sweep", "--space", "super(0|1)", "--copies", "1",
     "--max-degree", "990"),
    ("glvv", "--space", "super(0|1)", "--other-space", "super(0|1)",
     "--max-degree", "1000")])
def test_strip_tables_of_a_thousand_rows_exit_0(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["ok"] is True


@pytest.mark.parametrize("argv", [
    ("howe-sweep", "--space", "super(2|2)", "--copies", "1",
     "--max-degree", "200"),
    ("tableaux", "--space", "super(0|3)", "--size", "150")])
def test_long_rows_and_tall_shapes_end_fast(capsys, argv):
    # each took over a minute or 13 s with the strip table
    start = time.perf_counter()
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["ok"] is True
    assert time.perf_counter() - start < 2


def test_verify_reports_skipped_suites(capsys):
    code, doc = run_json(capsys, "verify", "--space", "super(3|3)",
                         "--level", "quick")
    assert code == 0 and doc["ok"] is True
    suites = {s["name"]: s for s in doc["results"]["suites"]}
    for name in ("fock-module", "dual-pair"):
        assert suites[name]["skipped"] is True
        assert suites[name]["passed"] is None
    ran = [s for s in suites.values() if "skipped" not in s]
    assert len(ran) == 6 and all(s["passed"] is True for s in ran)


def test_verify_quick_on_a_large_space_is_fast(capsys):
    # the PBW cross-check counts the 2^36 odd words of super(6|6) by
    # binomials per length instead of listing them
    start = time.perf_counter()
    code, doc = run_json(capsys, "verify", "--space", "super(6|6)",
                         "--level", "quick")
    assert time.perf_counter() - start < 2
    assert code == 0 and doc["ok"] is True


# one small job per subcommand, for the report contract below
CONTRACT_JOBS = {
    "verify": ("--space", "super(1|1)", "--level", "quick"),
    "schur-weyl": ("--space", "super(1|1)", "--power", "2"),
    "howe-sweep": ("--space", "super(1|1)", "--copies", "1",
                   "--max-degree", "2"),
    "fft-check": ("--space", "super(1|1)", "--copies", "1",
                  "--dual-copies", "1", "--max-degree", "1"),
    "glq-check": ("--m", "1", "--n", "1", "--max-degree", "2"),
    "typicality": ("--space", "super(1|1)", "--weight", "1,0"),
    "kac-dim": ("--space", "super(2|1)", "--weight", "2,1,0"),
    "casimir": ("--space", "super(1|1)", "--weight", "1,0"),
    "unitarisable": ("--space", "super(1|1)", "--weight=-1,0"),
    "gram": ("--space", "super(1|1)", "--weight=-1,0"),
    "tableaux": ("--space", "super(1|1)", "--size", "2"),
    "glvv": ("--space", "super(1|1)", "--other-space", "super(1|1)",
             "--max-degree", "1"),
    "presets": (),
}


def one_sorted_line(capsys, *argv):
    """(exit code, report) of a job whose stdout is its report as one line
    of JSON with sorted keys and json's default separators."""
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True) + "\n", argv
    return code, doc


def test_every_subcommand_keeps_the_report_contract(capsys, monkeypatch):
    # a subcommand added without a job here fails the test
    assert set(cli.SUBCOMMANDS) == set(CONTRACT_JOBS)
    for name, argv in CONTRACT_JOBS.items():
        code, doc = one_sorted_line(capsys, name, *argv)
        assert doc["kind"] == name, name
        assert code == (0 if doc["ok"] else 1), name
    # the error reports are written the same way
    code, doc = one_sorted_line(capsys, "kac-dim", "--space", "super(2|1)",
                                "--weight", "0,1,0")
    assert (code, doc["kind"]) == (2, "error")
    # a handler's ok = False reaches the exit code through main alone
    monkeypatch.setattr(cli, "cmd_presets", lambda args: ({}, False))
    code, doc = one_sorted_line(capsys, "presets")
    assert code == 1
    assert doc == {"kind": "presets", "inputs": {"command": "presets"},
                   "ok": False, "results": {}}
    monkeypatch.setattr(cli, "cmd_presets", lambda args: 1 / 0)
    code, doc = one_sorted_line(capsys, "presets")
    assert (code, doc["kind"]) == (3, "internal-error")


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_presets", broken)
    code, doc = run_json(capsys, "presets")
    assert code == 3
    assert doc == {"kind": "internal-error", "ok": False,
                   "error": "RuntimeError: boom"}


def test_space_file_input(capsys, tmp_path):
    doc = {
        "factor": {"free_rank": 0, "torsion2_rank": 1,
                   "sign_form": [[1]], "exp_form": [[0]]},
        "components": [{"degree": [0], "dim": 1}, {"degree": [1], "dim": 1}],
    }
    path = tmp_path / "gl11.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "schur-weyl", "--space", str(path),
                            "--power", "2")
    assert code == 0 and report["results"]["checksum"] == 4


def test_jobs_share_one_space_per_preset_and_per_file_text(capsys, tmp_path,
                                                          monkeypatch):
    seen, real = [], cli.kac_dimension
    monkeypatch.setattr(cli, "kac_dimension", lambda space, lam: (
        seen.append(space), real(space, lam))[1])
    path = tmp_path / "space.json"

    def job(spec, weight):
        code, doc = run_json(capsys, "kac-dim", "--space", spec,
                             "--weight", weight)
        assert code == 0, doc
        return seen[-1], doc["results"]["kac_dimension"]

    assert job("super(2|1)", "2,1,0")[0] is job("super(2|1)", "1,0,0")[0]
    doc = cli.presets.super_space(1, 1).to_json()
    path.write_text(json.dumps(doc))
    first, dim = job(str(path), "1,0")
    assert job(str(path), "1,0") == (first, dim)
    # the same text written again is the same space; an edited file is not
    path.write_text(json.dumps(doc))
    assert job(str(path), "1,0")[0] is first
    path.write_text(json.dumps(cli.presets.super_space(2, 1).to_json()))
    edited, _ = job(str(path), "2,1,0")
    assert edited is not first and edited.dim == 3
    assert cli._space.cache_info().maxsize == cli.SPACES_KEPT


def test_a_warm_process_reports_as_a_fresh_one(capsys):
    # every job runs once to warm the shared space and its Fock and omega
    # tables, then again; each second report equals a fresh process's
    jobs = (["fft-check", "--space", "super(1|1)", "--copies", "2",
             "--dual-copies", "1", "--max-degree", "2"],
            ["howe-sweep", "--space", "super(1|1)", "--copies", "2",
             "--max-degree", "3"],
            ["verify", "--space", "super(1|1)", "--level", "quick"])
    for argv in jobs:
        run_cli(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in jobs:
        warm = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "colourgl", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=60)
        assert warm == (fresh.returncode, fresh.stdout), argv


def test_a_space_keeps_a_bounded_set_of_fock_algebras(capsys, monkeypatch):
    # 40 shapes leave the FOCK_ALGEBRAS_KEPT most recently used
    space = cli.presets.super_space(2, 2)
    for copies in range(1, 41):
        weyl.fock_algebra(space, copies, 1)
    assert len(space._fock_algebras) == gl.FOCK_ALGEBRAS_KEPT
    assert [key for key in space._fock_algebras._entries] == [
        (copies, 1) for copies in range(41 - gl.FOCK_ALGEBRAS_KEPT, 41)]
    # the jobs that build Fock algebras report the same when a space keeps
    # one algebra only, so that a job's second shape drops its first
    jobs = (["fft-check", "--space", "super(1|1)", "--copies", "2",
             "--dual-copies", "1", "--max-degree", "2"],
            ["fft-check", "--space", "super(2|1)", "--copies", "1",
             "--dual-copies", "1", "--max-degree", "2"],
            ["howe-sweep", "--space", "super(1|1)", "--copies", "2",
             "--max-degree", "3"],
            ["glvv", "--space", "super(1|1)", "--other-space", "super(0|1)",
             "--max-degree", "3"],
            ["verify", "--space", "super(1|1)", "--level", "quick"])
    kept = [run_cli(capsys, *argv) for argv in jobs]
    monkeypatch.setattr(gl, "FOCK_ALGEBRAS_KEPT", 1)
    cli._space.cache_clear()
    try:
        assert [run_cli(capsys, *argv) for argv in jobs] == kept
        assert len(cli.load_space("super(1|1)")._fock_algebras) <= 1
    finally:
        cli._space.cache_clear()


def test_howe_sweep_and_tsv(capsys):
    code, doc = run_json(capsys, "howe-sweep", "--space", "glq(1|1)",
                         "--copies", "2", "--max-degree", "3")
    assert code == 0
    assert all(r["equal"] for r in doc["results"]["rows"])
    code, out = run_cli(capsys, "tableaux", "--space", "super(1|1)",
                        "--size", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["f", "k", "partition", "sharp"]
    assert len(lines) == 3


def test_unitarisable_and_gram(capsys):
    code, doc = run_json(capsys, "unitarisable", "--space", "super(1|1)",
                         "--weight=-1,0")
    assert code == 0 and doc["results"]["unitarisable"] is False
    code, doc = run_json(capsys, "gram", "--space", "super(1|1)",
                         "--weight=-1,0")
    assert code == 0 and doc["results"]["verdict"] == "indefinite"


def test_casimir_subcommand(capsys):
    code, doc = run_json(capsys, "casimir", "--space", "super(1|1)",
                         "--weight", "1,0", "--partition", "2,1")
    assert code == 0
    assert doc["results"]["eigenvalue"] == "0"
    assert doc["results"]["defect_zero"] is True
    code, _ = run_json(capsys, "casimir", "--space", "super(1|1)")
    assert code == 2


def test_casimir_reads_a_partition_as_the_library_does(capsys):
    # trailing zeros are dropped, as check_partition drops them
    code, doc = run_json(capsys, "casimir", "--space", "super(2|1)",
                         "--partition", "2,1,0")
    assert code == 0 and doc["results"]["partition"] == [2, 1]
    assert doc["results"]["defect_zero"] is True
    for text, message in (("2,0,1", "(2, 0, 1) is not a partition"),
                          ("1,2", "(1, 2) is not a partition"),
                          ("-1", "(-1,) is not a partition")):
        code, doc = run_json(capsys, "casimir", "--space", "super(2|1)",
                             "--partition", text)
        assert code == 2 and doc["error"] == message, text


@pytest.mark.parametrize("job", ["kac-dim", "gram"])
def test_a_weight_that_is_not_dominant_is_refused_by_reps(capsys, job):
    code, doc = run_json(capsys, job, "--space", "super(2|0)",
                         "--weight", "0,1")
    assert code == 2 and doc["kind"] == "error"
    assert doc["error"] == "0,1 is not dominant"


def test_fft_check_subcommand(capsys):
    code, doc = run_json(capsys, "fft-check", "--space", "super(1|1)",
                         "--copies", "1", "--dual-copies", "1",
                         "--max-degree", "2")
    assert code == 0
    assert doc["results"]["invariant_dimensions"] == {"0": 1, "1": 1, "2": 1}
    assert doc["results"]["dual_pair_ok"] is True
    assert doc["ok"] is True


def test_fft_check_with_an_empty_side_ends_fast():
    # the xbar side has no monomial past degree 1, so neither side is
    # listed, and every product of two z's is zero at its first prefix
    argv = ["fft-check", "--space", "super(0|1)", "--copies", "200",
            "--dual-copies", "1", "--max-degree", "5"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "colourgl", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 2
    assert out.returncode == 0, out.stdout
    assert json.loads(out.stdout)["results"]["invariant_dimensions"] == {
        "0": 1, "1": 200, "2": 0, "3": 0, "4": 0, "5": 0}


def test_fft_check_failed_flag_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "invariant_generators_check",
                        lambda space, copies: False)
    code, doc = run_json(capsys, "fft-check", "--space", "super(1|1)",
                         "--copies", "1", "--dual-copies", "1",
                         "--max-degree", "1")
    assert code == 1
    assert doc["ok"] is False
    assert doc["results"]["filtration_level_1_ok"] is False


def test_glq_check_subcommand(capsys):
    code, doc = run_json(capsys, "glq-check", "--m", "1", "--n", "1",
                         "--copies", "1", "--max-degree", "3")
    assert code == 0
    assert doc["results"]["relations_hold"] is True


def test_glvv_subcommand(capsys):
    code, doc = run_json(capsys, "glvv", "--space", "super(1|1)",
                         "--other-space", "super(1|1)", "--max-degree", "2")
    assert code == 0
    assert doc["results"]["rows"][2]["algebra_dimension"] == 8


def test_format_belongs_to_the_table_subcommands():
    # --format acts only where the report is nothing but its rows, so that
    # TSV drops no field (schur-weyl's checksum, howe-sweep's dual_rows,
    # glvv's pairs and every ok would be lost); elsewhere it is an unknown
    # option, which the parser refuses with exit 2
    with_format = {name for name, (_, options) in cli.SUBCOMMANDS.items()
                   if "--format" in options}
    assert with_format == {"tableaux"}
    for argv in (["verify", "--space", "super(1|1)"],
                 ["schur-weyl", "--space", "super(1|1)", "--power", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "tsv"])
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv, code", [
    (["presets"], 0),
    (["tableaux", "--space", "super(2|1)", "--size", "3", "--format", "tsv"],
     0),
    (["kac-dim", "--space", "super(2|0)", "--weight", "0,1"], 2)])
def test_a_closed_stdout_keeps_the_exit_code(argv, code):
    # the read end is closed before the job starts, so its first write
    # meets a broken pipe: the job's code stands, with no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "colourgl", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, ""), argv


@pytest.mark.parametrize("space, weight, expected", [
    ("super(2|1)", "1000000,0,0", 4000004),
    ("super(3|0)", "3000000,0,0", 4500004500001)])
def test_kac_dim_of_a_large_weight_exits_0_fast(capsys, space, weight,
                                                expected):
    # dim L0 is C(k + 2, 2) for gl_3 at (k, 0, 0) and k + 1 for gl_2 at
    # (k, 0); forming k! instead ran past a minute
    start = time.perf_counter()
    code, doc = run_json(capsys, "kac-dim", "--space", space,
                         "--weight", weight)
    assert time.perf_counter() - start < 2
    assert code == 0 and doc["results"]["kac_dimension"] == expected


@pytest.mark.parametrize("weight", ["1000,0,0", "1500,0,0", "2000,0,0"])
def test_gram_past_the_basis_cap_exits_2_fast(capsys, weight):
    # unguarded, these built the module and failed converting a Gram entry
    # of more than 4300 digits to text, after up to 3.4 s
    start = time.perf_counter()
    code, doc = run_json(capsys, "gram", "--space", "super(2|1)",
                         "--weight", weight)
    assert time.perf_counter() - start < 2
    assert code == 2 and doc["kind"] == "error"
    assert f"bound {reps.GRAM_BASIS_CAP}" in doc["error"]


def test_gram_at_the_basis_cap_is_written_out(capsys):
    # a string of length n as the whole basis: the entries grow fastest
    n = reps.GRAM_BASIS_CAP
    for space, weight in (("super(2|0)", f"{n - 1},0"),
                          ("super(0|2)", f"{n - 1},0")):
        code, doc = run_json(capsys, "gram", "--space", space,
                             "--weight", weight)
        assert code == 0 and len(doc["results"]["blocks"]) == n
        code, doc = run_json(capsys, "gram", "--space", space,
                             "--weight", f"{n},0")
        assert code == 2 and "bound" in doc["error"]


def run_timed(capsys, *argv):
    start = time.perf_counter()
    code, doc = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1, argv
    return code, doc


@pytest.mark.parametrize("coordinate", [
    "1e30000000", "1e-3000000", "1e5000", "1.5e-1000", "1" * 1001,
    "1/" + "3" * 1000, "1e" + "9" * 20000])
@pytest.mark.parametrize("argv", [
    ("typicality", "--space", "super(1|1)"),
    ("kac-dim", "--space", "super(1|1)"),
    ("casimir", "--space", "super(1|1)"),
    ("gram", "--space", "super(1|1)"),
    ("unitarisable", "--space", "super(1|1)")])
def test_a_weight_coordinate_past_the_digit_bound_exits_2_fast(
        capsys, argv, coordinate):
    # Fraction builds 10^k for an exponent k: 1e30000000 ran past 30 s
    code, doc = run_timed(capsys, *argv, "--weight", f"{coordinate},1")
    assert code == 2 and doc["kind"] == "error"
    assert doc["error"] == (f"a weight coordinate has more than "
                            f"{cli.WEIGHT_DIGITS_CAP} digits, its exponent "
                            "included")


def test_a_weight_coordinate_at_the_digit_bound_is_read():
    assert cli.parse_weight("1e999,-1" + "0" * 999, 2) == (10 ** 999,
                                                           -10 ** 999)
    assert cli.parse_weight("1e0_999,1E-9_9_9", 2) == (
        10 ** 999, Fraction(1, 10 ** 999))


@pytest.mark.parametrize("argv", [
    # chi has 25 factors of about 10^999
    ("typicality", "--space", "super(5|5)", "--weight",
     ",".join(["9" * 999] * 5 + ["-1"] * 5)),
    ("unitarisable", "--space", "super(5|5)", "--weight",
     ",".join(["9" * 999] * 5 + ["-1"] * 5)),
    # dim L0 multiplies 15 differences of about 10^999
    ("kac-dim", "--space", "super(6|0)", "--weight",
     ",".join(f"{k}e999" for k in range(6, 0, -1))),
    # Gram entries of the odd level 4 hold products of four coordinates
    ("gram", "--space", "super(2|2)", "--weight",
     ",".join(["9" * 1000] * 4)),
    # dim_glN of (3,) is C(N + 2, 3)
    ("tableaux", "--space", "super(1|1)", "--size", "3", "--copies",
     str(10 ** 1500)),
    # dim_glN of (size,) has about size * 4000 digits, refused unbuilt: the
    # first row multiplied 300 numbers of 4001 digits in 6.2 s, and 900
    # ran past 60 s
    ("tableaux", "--space", "super(1|1)", "--size", "300", "--copies",
     str(10 ** 4000)),
    ("tableaux", "--space", "super(1|1)", "--size", "900", "--copies",
     str(10 ** 4000))])
def test_a_result_too_long_to_print_exits_2_fast(capsys, argv):
    code, doc = run_timed(capsys, *argv)
    assert code == 2 and doc["kind"] == "error"
    assert doc["error"] == (
        f"a number of the report needs more than {cli.REPORT_DIGITS_CAP} "
        f"digits, above the bound {cli.REPORT_DIGITS_CAP}")


def largest_copies_below_the_cap(size):
    """The largest N whose dim_glN of (size,), C(N + size - 1, size), has
    at most REPORT_DIGITS_CAP digits, for size 1 or 2."""
    cap = 10 ** cli.REPORT_DIGITS_CAP
    if size == 1:
        return cap - 1
    n = isqrt(2 * cap)
    while n * (n + 1) // 2 >= cap:
        n -= 1
    return n


@pytest.mark.parametrize("space, size", [("super(1|0)", 1),
                                         ("super(1|1)", 2)])
def test_a_dim_glN_just_under_the_digit_bound_prints(capsys, space, size):
    copies = largest_copies_below_the_cap(size)
    code, doc = run_json(capsys, "tableaux", "--space", space, "--size",
                         str(size), "--copies", str(copies))
    assert code == 0
    top = max(row["dim_glN"] for row in doc["results"]["rows"])
    assert top == comb(copies + size - 1, size)
    assert len(str(top)) == cli.REPORT_DIGITS_CAP
    # one more copy and the count passes the bound
    code, doc = run_json(capsys, "tableaux", "--space", space, "--size",
                         str(size), "--copies", str(copies + 1))
    assert code == 2 and doc["kind"] == "error"


def test_timing_reports_the_seconds_only_when_asked(capsys):
    argv = ("tableaux", "--space", "super(1|1)", "--size", "2")
    code, doc = run_json(capsys, "--timing", *argv)
    assert code == 0
    seconds = doc["timing"]["seconds"]
    assert type(seconds) in (int, float) and seconds >= 0
    assert "timing" not in doc["inputs"]
    code, doc = run_json(capsys, *argv)
    assert code == 0 and "timing" not in doc


@pytest.mark.parametrize("space, weight, star, certificate", [
    # mu = (10^8 + 1,): one long row, which _sharp no longer transposes
    ("super(1|1)", "100000000,1", "I",
     {"a": "-1", "b": "0", "branch": "typical", "chi": "100000001",
      "mu": ["100000001"]}),
    ("super(1|1)", "100000000,1", "II",
     {"chi": "-100000001", "dual_weight": ["-99999999", "-2"],
      "edge": "-100000001"}),
    ("super(2|1)", "100000000,0,0", "I",
     {"a": "0", "b": "0", "branch": "atypical", "mu": ["100000000"],
      "r": 1}),
    ("super(1|2)", "5,1000000,0", "I", None),
    ("super(1|2)", "5,1000000,0", "II",
     {"chi": "4000020", "dual_weight": ["-3", "-1", "-1000001"],
      "edge": "-1000005"}),
    ("super(1|2)", "5,10000000,0", "I", None),
    ("super(1|2)", "5,10000000,0", "II",
     {"chi": "40000020", "dual_weight": ["-3", "-1", "-10000001"],
      "edge": "-10000005"})])
def test_unitarisable_ends_fast_on_a_large_coordinate(capsys, space, weight,
                                                       star, certificate):
    # mu has a part per unit of the leading odd coordinate: 5,1000000,0
    # wrote a 13 MB report, and 100000000,1 took 10.8 s to transpose mu
    code, doc = run_timed(capsys, "unitarisable", "--space", space,
                          "--weight", weight, "--type", star)
    if certificate is None:
        assert code == 2 and doc["kind"] == "error"
        parts = int(weight.split(",")[1]) + 1
        assert doc["error"] == (f"the partition mu needs {parts} parts, "
                                f"above the bound "
                                f"{reps.CERTIFICATE_PARTS_CAP}")
    else:
        assert code == 0
        assert doc["results"]["certificate"] == certificate


def test_the_dual_of_a_long_row_is_read_without_transposing_it(capsys):
    code, doc = run_timed(capsys, "unitarisable", "--space", "super(2|1)",
                          "--weight", "100000000,0,0", "--type", "II")
    assert code == 0
    assert doc["results"]["certificate"]["dual_weight"] == [
        "0", "-99999999", "-1"]


def test_refusals_print_weights_as_the_cli_reads_them(capsys):
    code, doc = run_json(capsys, "unitarisable", "--space", "super(2|2)",
                         "--weight", "0,0,1,0", "--type", "II")
    assert code == 2
    assert doc["error"] == "0,0,1,0 is atypical and not of the form a*E + mu#"


GOOD_SPACE = {
    "factor": {"free_rank": 1, "torsion2_rank": 1,
               "sign_form": [[0, 0], [0, 1]], "exp_form": [[0, 0], [0, 0]]},
    "components": [{"degree": [0, 0], "dim": 2}, {"degree": [1, 1], "dim": 1}],
}


@pytest.mark.parametrize("field, where, value", [
    ("dim", ("components", 0, "dim"), 2.9),
    ("dim", ("components", 0, "dim"), True),
    ("dim", ("components", 0, "dim"), "2"),
    ("degree", ("components", 1, "degree", 0), 1.7),
    ("degree", ("components", 1, "degree"), "11"),
    ("degree", ("components", 1, "degree"), [[1, 1]]),
    ("torsion2_rank", ("factor", "torsion2_rank"), 1.9),
    ("free_rank", ("factor", "free_rank"), False),
    ("sign_form", ("factor", "sign_form", 1, 1), 1.5),
    ("sign_form", ("factor", "sign_form", 1, 1), "1"),
    ("exp_form", ("factor", "exp_form", 0), "00")])
def test_space_documents_are_checked_not_coerced(capsys, tmp_path, field,
                                                 where, value):
    # each of these exited 0 as a space other than the one written
    doc = json.loads(json.dumps(GOOD_SPACE))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", "--space", str(path),
                            "--level", "quick")
    assert code == 2 and report["kind"] == "error"
    assert f"{field}: " in report["error"]
    assert report["error"].endswith(("is not a JSON integer",
                                     "is not a JSON list"))


def test_a_checked_space_document_still_loads(capsys, tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(GOOD_SPACE))
    code, report = run_json(capsys, "schur-weyl", "--space", str(path),
                            "--power", "2")
    assert code == 0 and report["results"]["checksum"] == 9


def readme_cli_lines():
    """The argv of every `colourgl ...` line of README's CLI examples."""
    text = (SRC.parent / "README.md").read_text()
    block = text.split("`--space` accepts either", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("colourgl ")]


def test_every_readme_cli_line_runs(capsys, monkeypatch):
    lines = readme_cli_lines()
    assert len(lines) == 13
    reports, real_emit = [], cli.emit

    def emit(report, args):
        # the report itself, as a --format tsv line prints no kind
        reports.append(report)
        real_emit(report, args)

    monkeypatch.setattr(cli, "emit", emit)
    for argv in lines:
        code, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert reports.pop()["kind"] == argv[0], argv
