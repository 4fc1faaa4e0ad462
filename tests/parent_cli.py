"""Parent code of colourgl.cli, kept verbatim as an oracle.

build_parser as it was before the CLI read its grammar from the table
cli.SUBCOMMANDS with one pass of cli._parse: an argparse tree of 13
subparsers, built once per process.  tests/test_parser_oracle.py runs it
and _parse over the same argv and asks for the same namespace or the
same exit code.

load_space, its _space and _coordinate as they were before a space file
was read with one os.stat and one raw read, in place of pathlib's
exists(), is_file() and read_text(), and before a weight coordinate of at
most WEIGHT_DIGITS_CAP characters with no exponent went uncounted and
went to int() before the PEP 515 substitution.  tests/test_cli.py runs
them and the new ones on every pool space file, every preset and every
coordinate of tests/coordinate_table.py, and asks for the same space or
number, or the same exit code and error line."""

import argparse
import functools
import json
from fractions import Fraction
from pathlib import Path

from colourgl import presets
from colourgl.cli import (SPACES_KEPT, WEIGHT_DIGITS_CAP, _DIGIT_UNDERSCORE,
                          InputError)
from colourgl.gl import GradedSpace


def build_parser():
    parser = argparse.ArgumentParser(
        prog="colourgl",
        description="Exact colour gl(V) computations: dualities, Fock "
                    "spaces, typicality and unitarisability.")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
    sub = parser.add_subparsers(dest="command", required=True)
    add = sub.add_parser

    p = add("verify", help="run the invariant suites")
    p.add_argument("--space", required=True)
    p.add_argument("--level", choices=("quick", "full"), default="full")
    p.add_argument("--seed", type=int, default=0)

    p = add("schur-weyl", help="decomposition of V^r")
    p.add_argument("--space", required=True)
    p.add_argument("--power", type=int, required=True)

    p = add("howe-sweep",
            help="Fock space dimension sweep against the module sum")
    p.add_argument("--space", required=True)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = add("fft-check", help="invariant dimensions and z-span verification")
    p.add_argument("--space", required=True)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--dual-copies", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=2)

    p = add("glq-check", help="gl_q(m|n) relation families")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=4)

    p = add("typicality", help="chi(lambda) and typicality")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)

    p = add("kac-dim", help="dimension of the Kac module")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)

    p = add("casimir", help="Casimir eigenvalue / tensor-action defect")
    p.add_argument("--space", required=True)
    p.add_argument("--weight")
    p.add_argument("--partition")

    p = add("unitarisable", help="classify against a compact *-structure")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--type", choices=("I", "II"), default="I")

    p = add("gram", help="contravariant Gram matrices")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--depth", type=int, default=None)

    p = add("tableaux", help="hook tableaux table")
    p.add_argument("--space", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--copies", type=int, default=0)
    # the report is its rows alone, so TSV loses nothing of it
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = add("glvv", help="Howe duality for a pair of spaces")
    p.add_argument("--space", required=True)
    p.add_argument("--other-space", required=True)
    p.add_argument("--max-degree", type=int, default=2)

    add("presets", help="list built-in spaces")
    return parser


def load_space(spec):
    """A --space value: a preset name like super(2|1) or a JSON file path;
    a path that is not a regular file, a directory, a device or a FIFO,
    is bad input before it is opened, as is a file that cannot be read.  A
    process builds one space per preset name and one per (path, file
    text), so the jobs of a process share it and its lazy omega table, and
    an edited file gives a new space."""
    if presets.is_preset_name(spec):
        return _space(spec, None)
    path = Path(spec)
    if not path.exists():
        raise InputError(f"{spec!r} is neither a preset nor a file")
    if not path.is_file():
        raise InputError(f"cannot read {spec}: not a regular file")
    try:
        text = path.read_text()
    except OSError as exc:  # an unreadable file
        raise InputError(f"cannot read {spec}: {exc}") from exc
    return _space(spec, text)


@functools.lru_cache(maxsize=SPACES_KEPT)
def _space(spec, text):
    """The space of a preset name (text None) or of a file's text; a
    refusal is raised again on each call, as lru_cache keeps no exception."""
    if text is None:
        return presets.preset_space(spec)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {spec}: {exc}") from exc
    try:
        return GradedSpace.from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad space document {spec}: {exc}") from exc


def _coordinate(text):
    """The number text names: an int when int() reads it, Fraction(text)
    otherwise, its numerator when that is integral, so that the weight
    layer computes on ints wherever a coordinate is integral.  It is
    refused before it is built when it has more than WEIGHT_DIGITS_CAP
    digits, the value of its exponent included.  An underscore between two
    digits is taken out first, so Python 3.10 reads it as Fraction does
    from 3.11 on.  Every text that Fraction refuses gets one error line,
    which names the text as it was given: Fraction's own message differs
    by version (3.11 and 3.12 read a letter d after the point, then fail
    in int())."""
    mantissa, _, exponent = text.lower().partition("e")
    shift = exponent.lstrip("+-").replace("_", "").lstrip("0")
    size = sum(c.isdecimal() for c in mantissa)
    if shift.isdecimal():
        # an exponent of nine digits is past the bound already
        size += int(shift[:9])
    if size > WEIGHT_DIGITS_CAP:
        raise InputError(f"a weight coordinate has more than "
                         f"{WEIGHT_DIGITS_CAP} digits, its exponent "
                         "included")
    plain = _DIGIT_UNDERSCORE.sub("", text)
    try:
        return int(plain)
    except ValueError:
        pass
    try:
        value = Fraction(plain)
    except ValueError as exc:
        raise InputError("bad weight coordinate: Invalid literal for "
                         f"Fraction: {text!r}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"bad weight coordinate: {exc}") from exc
    return value.numerator if value.denominator == 1 else value
