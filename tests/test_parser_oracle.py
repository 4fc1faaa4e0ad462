"""The CLI's parser against the argparse tree of its parent.

cli._parse reads a well-formed argv in one pass of cli._read and leaves
every other argv to cli._argparse, an argparse tree built from the table
cli.SUBCOMMANDS; tests/parent_cli.py keeps the parent argparse tree
verbatim.  Over every argv of the pool, of CONTRACT_JOBS and of the
README, and over variants of each (the = form, unique and ambiguous
prefixes, a repeated option, a missing value, an unknown option or
subcommand, a bad int or choice, --timing on either side of the
subcommand, -h), both give the same namespace or both exit with the same
code.  An error writes a one-line usage and then the parent's message
line to stderr, and the help goes to stdout."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import parent_cli
from colourgl import cli
from test_cli import CONTRACT_JOBS

ROOT = Path(__file__).resolve().parent.parent
PARENT = parent_cli.build_parser()
# argparse up to 3.12 reads a value as a negative number by this pattern
# (later versions take any text that starts like one, -1,0 included); the
# CLI keeps this grammar on every version, so the oracle is pinned to it
for parser in (PARENT, *PARENT._subparsers._group_actions[0].choices
               .values()):
    parser._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")


def base_argvs():
    pool = json.loads((ROOT / "perfbench" / "pool.json").read_text())
    argvs = [job["argv"] for slots in pool["workloads"].values()
             for slot in slots for job in slot["jobs"]]
    argvs += [[name, *argv] for name, argv in CONTRACT_JOBS.items()]
    readme = (ROOT / "README.md").read_text().splitlines()
    examples = [shlex.split(line)[1:] for line in readme
                if line.startswith("colourgl ")
                and line.split()[1] in cli.SUBCOMMANDS]
    assert len(examples) == 13
    unique = []
    for argv in argvs + examples:
        if argv not in unique:
            unique.append(argv)
    return unique


def pairs(argv):
    """The (flag, value) pairs of an argv of the corpus, each --flag value
    or --flag=value."""
    out, rest = [], list(argv[1:])
    while rest:
        flag = rest.pop(0)
        out.append(tuple(flag.split("=", 1)) if "=" in flag
                   else (flag, rest.pop(0)))
    return out


def join(command, flag_values, eq=False):
    return [command] + [t for f, v in flag_values
                        for t in ([f"{f}={v}"] if eq else [f, v])]


def variants(argv):
    command, given = argv[0], pairs(argv)
    options = cli.SUBCOMMANDS[command][1]
    flags = [*options, "--help"]
    yield argv
    yield join(command, given, eq=True)
    yield ["--timing", *argv]
    yield ["--tim", *argv]
    yield [*argv, "--timing"]
    yield [*argv, "--bogus", "1"]
    yield ["bogus", *argv[1:]]
    yield [command, "-h"]
    yield [*argv, "--help"]
    yield [*argv, "--bogus", "-h"]
    if given:
        yield argv[:-1]  # the last value is missing
    for i, (flag, value) in enumerate(given):
        kind = options[flag][0]
        # the shortest unique prefix, and an ambiguous one
        for n in range(3, len(flag)):
            prefix, matches = flag[:n], [f for f in flags
                                         if f.startswith(flag[:n])]
            if prefix not in flags and len(matches) > 1:
                yield join(command, [*given[:i], (prefix, value),
                                     *given[i + 1:]])
            if len(matches) == 1:
                yield join(command, [*given[:i], (prefix, value),
                                     *given[i + 1:]])
                break
        # repeated: the last value wins
        first = (next(c for c in kind if c != value)
                 if isinstance(kind, tuple) else "7")
        yield join(command, [(flag, first), *given])
        if kind is int:
            yield join(command, [*given[:i], (flag, "x"), *given[i + 1:]])
            yield join(command, [*given[:i], (flag, "-3"), *given[i + 1:]])
        if isinstance(kind, tuple):
            yield join(command, [*given[:i], (flag, "bogus"),
                                 *given[i + 1:]])


EDGES = [
    [], ["--timing"], ["-h"], ["--he"], ["--timing", "-h"],
    ["--timing=1", "presets"], ["--bogus", "presets"],
    ["--bogus", "presets", "-h"], ["presets", "x"], ["presets", "-hx"],
    ["presets", "--h"], ["presets", "--"], ["--", "presets"],
    ["schur-weyl", "--space", "super(1|1)", "--power", "-3"],
    ["schur-weyl", "--space", "super(1|1)", "--power=-3"],
    ["schur-weyl", "--space", "super(1|1)", "--power", "x", "-h"],
    ["typicality", "--space", "super(1|1)", "--weight", "-1,0"],
    ["typicality", "--space", "super(1|1)", "--weight", "-1 0"],
    ["typicality", "--space", "super(1|1)", "--weight", "-1"],
    ["typicality", "--space", "super(1|1)", "--weight", "-.5"],
    ["typicality", "--space", "super(1|1)", "--weight", "-1.5"],
    ["typicality", "--space", "-", "--weight", "1"],
    ["typicality", "--space=", "--weight", "--space"],
    ["typicality", "--space", "--weight", "1"],
    ["typicality", "--space=a=b", "--weight", "a=b"],
    ["tableaux", "-h", "--s", "3"],
    ["tableaux", "--space", "s", "--size", "3", "--format", "tsv",
     "--format=json"],
    ["verify", "--space", "s", "--seed", " 3 "],
    ["verify", "--space", "s", "--seed", "3_0"],
    ["verify", "--space", "s", "--seed", "-.5"],
    ["verify", "--space", "s", "--seed=-x"],
    ["verify", "--space", "x", "--"], ["verify", "--space", "--", "x"],
    ["verify", "--space", "s", "-space", "t"],
    ["verify", "--space", "s", "--=x"],
    ["verify", "--space", "s", "--timing=1"],
    ["glq-check", "--m", "1", "--n", "1", "--ma", "3", "--c", "2"],
    ["glq-check", "--m=1", "--n=-1"],
    ["gram", "--space", "s", "--weight", "1", "--depth", "-1"],
    ["casimir", "--space", "s"],
]


def corpus():
    out = []
    for argv in base_argvs():
        for variant in variants(argv):
            if variant not in out:
                out.append(variant)
    return out + EDGES


def outcome(parse, argv):
    """(the namespace as a dict, or the exit code), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_the_parser_matches_the_parent():
    differ, seen = [], Counter()
    for argv in corpus():
        parent, _, parent_err = outcome(PARENT.parse_args, argv)
        result, out, err = outcome(cli._parse, argv)
        seen["namespace" if isinstance(parent, dict) else parent] += 1
        if result != parent:
            differ.append((shlex.join(argv), parent, result))
        elif result == 2:
            first, message = err.splitlines()
            assert first.startswith("usage: colourgl"), argv
            assert message == parent_err.splitlines()[-1], argv
        elif result == 0:
            assert out.startswith("usage: colourgl") and not err, argv
        else:
            assert not out and not err, argv
    assert differ == []
    # 2731 namespaces, 1545 refusals and 596 helps when this was written
    assert min(seen["namespace"], seen[2], seen[0]) > 500, seen


def test_well_formed_argv_is_read_without_argparse():
    # every argv of the pool, of CONTRACT_JOBS and of the README is read in
    # one pass, so a fresh process that parses them all imports no argparse;
    # a prefix then imports it
    probe = ("import json, sys; from colourgl import cli\n"
             "for argv in json.load(sys.stdin): cli._parse(argv)\n"
             "print('argparse' in sys.modules)\n"
             "cli._parse(['--tim', 'presets'])\n"
             "print('argparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=60, check=True,
                         input=json.dumps(base_argvs()))
    assert out.stdout.split() == ["False", "True"]


def test_a_dash_led_value_is_read_by_the_pattern_of_python_3_12():
    # on every Python, as argparse read them up to 3.12: -3 is a negative
    # number, so a value; -1,0 is not, so --weight misses its value
    argv = ["schur-weyl", "--space", "super(1|1)", "--power", "-3"]
    assert cli._parse(argv).power == -3
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli._parse(["typicality", "--space", "super(1|1)", "--weight",
                    "-1,0"])
    assert exc.value.code == 2
