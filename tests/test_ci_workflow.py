"""Every Python file that the CI workflow runs exists, and its benchmark
gate runs every workload of BENCHMARK.json.  The workflow runs only on
the hosted runners, so a renamed script or test, or a workload left out
of the gate, would otherwise first show there; here it fails in the
tier-1 suite.  The run commands are read with regular expressions, both
the one-line `run: cmd` form and the lines of a `run: |` block.  The
stdlib-only pool replay and coordinate table run on every matrix
version: their steps have no `if:`."""

import itertools
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
PY_PATH = re.compile(r"[\w./-]+\.py\b")
FOR = re.compile(r"^\s*for (\w+) in ([^;]+); do\s*$")


def run_commands(text):
    """The text of every run: step, a block's lines included."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = RUN.match(line)
        if not match:
            continue
        indent, rest = len(match.group(1)), match.group(2)
        if rest not in ("|", ">"):
            yield rest
            continue
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            yield body


def python_paths(text):
    return {path for command in run_commands(text)
            for path in PY_PATH.findall(command)}


def test_the_reader_finds_one_line_and_block_commands():
    text = ("    steps:\n"
            "      - name: a\n"
            "        run: python tools/a.py --x\n"
            "      - name: b\n"
            "        run: |\n"
            "          for s in 1 2; do\n"
            "            python -m pytest tests/test_b.py || exit 1\n"
            "          done\n"
            "      - name: c\n"
            "        with:\n"
            "          script: not/run.py\n")
    assert python_paths(text) == {"tools/a.py", "tests/test_b.py"}


def test_every_python_file_the_workflow_runs_exists():
    paths = python_paths(WORKFLOW.read_text())
    # perfbench/run.py and tests/test_pool_replay.py when this was written
    assert paths
    assert [p for p in sorted(paths) if not (ROOT / p).is_file()] == []


def gate_loops(text):
    """The values of every shell loop of a run: block whose body runs
    perfbench/run.py with --workload set to the loop's variable."""
    lines = list(run_commands(text))
    for i, line in enumerate(lines):
        match = FOR.match(line)
        if not match:
            continue
        body = itertools.takewhile(
            lambda b: not b.strip().startswith("done"), lines[i + 1:])
        if any("perfbench/run.py" in b
               and f'--workload "${match.group(1)}"' in b for b in body):
            yield match.group(2).split()


def test_the_reader_finds_the_benchmark_gate_loop():
    text = ("      - name: gate\n"
            "        run: |\n"
            "          for s in 1 2; do\n"
            "            python -m pytest tests/test_b.py || exit 1\n"
            "          done\n"
            "          for w in a b; do\n"
            '            python3 perfbench/run.py --workload "$w" || exit 1\n'
            "          done\n")
    assert list(gate_loops(text)) == [["a", "b"]]


def test_the_benchmark_gate_runs_every_workload():
    declared = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    loop, = gate_loops(WORKFLOW.read_text())
    assert sorted(loop) == sorted(declared)


def steps(text):
    """The text of each step of the workflow, from its `- name:` line to
    the next step's."""
    return re.split(r"\n(?=\s*- name:)", text)[1:]


def test_the_stdlib_replay_runs_on_every_matrix_version():
    # report bytes may depend on the interpreter: the replay runs under
    # every version of the matrix, not only one
    step, = [s for s in steps(WORKFLOW.read_text())
             if "tests/replay_pool.py" in s]
    assert "if:" not in step
    assert "PYTHONHASHSEED" in step


def test_the_stdlib_coordinate_table_runs_on_every_matrix_version():
    # Fraction's reading of a weight coordinate differs by version, so the
    # table of _coordinate's readings runs under every version too
    step, = [s for s in steps(WORKFLOW.read_text())
             if "tests/coordinate_table.py" in s]
    assert "if:" not in step
