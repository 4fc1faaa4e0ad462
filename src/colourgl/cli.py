"""Command line front end.

The CLI is a thin shell: it parses argv text, calls one public library
function per job and writes the report.  Every rule of the mathematics,
the refusal of a weight that is not dominant or of a shape that is not a
partition included, is the library's; what is here is about text alone:
reading options, weights and partitions, and writing numbers, rows and
records.  Its only bounds are on text: a weight coordinate is refused
past WEIGHT_DIGITS_CAP digits (_coordinate), and a number of the report
past REPORT_DIGITS_CAP digits (_printable, _too_long).  Every bound on a
computation, the tensor power of schur-weyl and casimir included, is the
library's, raised by gl.ResourceBoundExceeded.check; both kinds exit 2.
_coordinate reads an integral weight coordinate as an int and any other
as a Fraction, so the library's weight layer stays on ints for them.
The rows of partitions.hook_table, which schur-weyl and tableaux both
report, are written by _table_rows, and reps' UnitarisableVerdict and
GramReport by _verdict_json and _gram_json.
emit writes every report, a job's or an error's, as one line of JSON
with sorted keys, by json's C encoder, built once at import; tableaux,
whose report is nothing but its rows, takes --format tsv to write them
as TSV instead.
Each handler `cmd_*` returns (results, ok); only `main` builds the report,
with `kind` the subcommand name, and it exits 1 when ok is false.  The
table SUBCOMMANDS is the one statement of the grammar: each subcommand's
help and options, each option's type or choices, default or REQUIRED,
and help, and the least value of an option that counts something, which
check_counts reads.  `main` reads argv by it with _parse.  An argv that
one short pass of _read can read outright, --timing, the subcommand and
its exact flags as --opt value or --opt=value, imports no argparse; every
other argv, a prefix, -h/--help, a value that starts with -, or bad argv,
goes to _argparse, an argparse tree built from the same table at that
call.
It exits 2 after a one-line usage and argparse's message, as `colourgl
tableaux: error: ...`, or 0 after the help.  `main` calls the handler by
its name, `cmd_` plus the subcommand, at call time.
load_space reads a space file with one stat and one raw read to end of
file on every call, and keeps the spaces it builds, one per preset name
and one per (path, file bytes), the SPACES_KEPT most recently used, so
that the jobs of a process share each space and its lazy omega table;
the Fock algebras are weyl.fock_algebra's, shared by equal spaces.  A
path that is not a regular file is refused before it is opened.
Exit codes: 0 success, 1 a verification failed, 2 bad input or an
unsupported/over-budget request, 3 an internal error (any other exception,
reported as JSON rather than a traceback).  A reader that closes stdout
early changes no exit code: the job's code stands and nothing goes to
stderr.  Output is byte-deterministic for a given job; timing is opt-in
via --timing so the default report stays stable.
"""

import functools
import json
import os
import random
import re
import stat
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import presets
from .gl import GradedSpace, ResourceBoundExceeded
from .partitions import check_partition, dim_glN_floor_bits, hook_table
from .reps import (casimir_defect, casimir_eigenvalue, classify_unitarisable,
                   gram_report, is_finite_dimensional,
                   kac_dimension_floors, typicality)
from .tensor import schur_weyl_table
from .weyl import (fft_check, glq_relations_check, glvv_decomposition,
                   howe_dimension_sweep)
from .verify import run_verification

# most digits of a weight coordinate, the value of its exponent counted as
# digits: Fraction builds 10^k for an exponent k
WEIGHT_DIGITS_CAP = 1000
# an underscore between two digits of a number (PEP 515)
_DIGIT_UNDERSCORE = re.compile(r"(?<=\d)_(?=\d)")
# most digits of a number that a report writes, numerator and denominator
# each: Python converts at most 4300 digits of an int to text by default
REPORT_DIGITS_CAP = 4000
_TOO_LONG = 10 ** REPORT_DIGITS_CAP  # built once: it takes about 50 us
# most spaces that load_space keeps built, the least recently used dropped
SPACES_KEPT = 32
# the encoder of every JSON report, built once: json.dumps with these
# arguments builds a new one per call
_encode = json.JSONEncoder(sort_keys=True, default=str).encode


class InputError(ValueError):
    pass


def load_space(spec):
    """A --space value: a preset name like super(2|1) or a JSON file path.
    A path is read with one stat and then, when it names a regular file,
    its bytes to end of file, which json.loads decodes: UTF-8 with or
    without a BOM, UTF-16 or UTF-32; other bytes are malformed JSON, as a
    syntax error is.  It resolves as open() resolves it,
    so a path that cannot be stat'ed for any reason, '' and a file name
    followed by / included, is neither a preset nor a file; a path that is
    not a regular file, a directory, a device or a FIFO, is refused before
    it is opened, and a file that cannot be read is bad input too.  A
    process builds one space per preset name and one per (path, file
    bytes), so the jobs of a process share it and its lazy omega table,
    and an edited file gives a new space: the file is read on every call."""
    if presets.is_preset_name(spec):
        return _space(spec, None)
    try:
        mode = os.stat(spec).st_mode
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise InputError(f"{spec!r} is neither a preset nor a file") from exc
    if not stat.S_ISREG(mode):
        raise InputError(f"cannot read {spec}: not a regular file")
    try:
        fd = os.open(spec, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:  # an unreadable file
        raise InputError(f"cannot read {spec}: {exc}") from exc
    return _space(spec, b"".join(chunks))


@functools.lru_cache(maxsize=SPACES_KEPT)
def _space(spec, data):
    """The space of a preset name (data None) or of a file's bytes; a
    refusal is raised again on each call, as lru_cache keeps no exception."""
    if data is None:
        return presets.preset_space(spec)
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    digits, the value of its exponent included; a text of at most that
    many characters with no e or E cannot be, so its digits go uncounted
    (no other character lower-cases to an e).  int() reads an underscore
    between two digits itself; for Fraction it is taken out first, so
    Python 3.10 reads it as Fraction does from 3.11 on.  Every text that
    Fraction refuses gets one error line, which names the text as it was
    given: Fraction's own message differs by version (3.11 and 3.12 read
    a letter d after the point, then fail in int())."""
    if len(text) > WEIGHT_DIGITS_CAP or "e" in text or "E" in text:
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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = Fraction(_DIGIT_UNDERSCORE.sub("", text))
    except ValueError as exc:
        raise InputError("bad weight coordinate: Invalid literal for "
                         f"Fraction: {text!r}") from exc
    except ZeroDivisionError as exc:
        raise InputError(f"bad weight coordinate: {exc}") from exc
    return value.numerator if value.denominator == 1 else value


def parse_weight(text, dim):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != dim:
        raise InputError(f"weight needs {dim} coordinates, got {len(parts)}")
    return tuple(_coordinate(p) for p in parts)


def _space_and_weight(args):
    space = load_space(args.space)
    return space, parse_weight(args.weight, space.dim)


def _too_long():
    return ResourceBoundExceeded(
        "a number of the report", f"more than {REPORT_DIGITS_CAP}",
        REPORT_DIGITS_CAP, "digits")


def _printable(x):
    """x, an int or a Fraction, when its numerator and denominator have at
    most REPORT_DIGITS_CAP digits each; ResourceBoundExceeded otherwise."""
    if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        raise _too_long()
    return x


def _texts(values):
    return [str(_printable(x)) for x in values]


def _table_rows(rows):
    """Rows of partitions.hook_table as the schur-weyl and tableaux reports
    write them: lambda# as text, and every count checked by _printable."""
    return [{key: [str(c) for c in v] if key == "sharp"
             else list(v) if key == "partition" else _printable(v)
             for key, v in row.items()} for row in rows]


def _verdict_json(verdict):
    cert = {key: str(_printable(value)) if isinstance(value, Fraction)
            else _texts(value) if isinstance(value, tuple) else value
            for key, value in verdict.certificate.items()}
    return {"unitarisable": verdict.unitarisable,
            "star_type": verdict.star_type, "reason": verdict.reason,
            "certificate": cert}


def _gram_json(report):
    return {"weight": _texts(report.weight), "depth": report.depth,
            "verdict": report.verdict,
            "blocks": [{"level": level, "weight": _texts(wt),
                        "size": len(mat), "inertia": list(inertia),
                        "gram": [_texts(row) for row in mat]}
                       for level, wt, mat, inertia in report.blocks]}


def emit(report, args=None):
    """Write a job's report, or with no args an error's: one JSON line
    (json's C encoder runs only without indent), or TSV rows."""
    if getattr(args, "format", "json") == "tsv":
        rows = report["results"]["rows"]
        if rows:
            cols = sorted(rows[0])
            print("\t".join(cols))
            for row in rows:
                print("\t".join(str(row[c]) for c in cols))
        return
    print(_encode(report))


def make_report(args, results, ok):
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("timing", "format") and v is not None}
    return {"kind": args.command, "inputs": inputs, "ok": ok,
            "results": results}


def check_counts(args):
    """Refuse a count below the least value that its option's SUBCOMMANDS
    entry states, in the table's order: a negative count, or no copy of V
    or of its dual where a check needs one, would report a check that
    tested no relation."""
    for flag, (_, _, _, *least) in SUBCOMMANDS[args.command][1].items():
        value = getattr(args, _dest(flag))
        if least and value < least[0]:
            raise InputError(f"{flag} must be at least {least[0]}, got "
                             f"{value}")


# -- subcommand handlers: each returns (results, ok) ---------------------------

def cmd_verify(args):
    space = load_space(args.space)
    rng = random.Random(args.seed)
    suites = run_verification(space, level=args.level, rng=rng)
    ok = all(s["passed"] for s in suites if not s.get("skipped"))
    return {"suites": suites}, ok


def cmd_schur_weyl(args):
    space = load_space(args.space)
    rows = schur_weyl_table(space, args.power)
    return {"rows": _table_rows(rows),
            "checksum": sum(r["k"] * r["f"] for r in rows),
            "dimension": space.dim ** args.power}, True


def cmd_howe_sweep(args):
    space = load_space(args.space)
    rows = howe_dimension_sweep(space, args.copies, args.max_degree)
    # V* has the degrees -gamma_a, of the same parities as V's, since
    # omega(-g, -g) = omega(g, g): its sweep is this one
    return {"rows": rows, "dual_rows": rows}, all(r["equal"] for r in rows)


def cmd_fft_check(args):
    results = fft_check(load_space(args.space), args.copies,
                        args.dual_copies, args.max_degree)
    return results, (results["dual_pair_ok"]
                     and results["filtration_level_1_ok"])


def cmd_glq_check(args):
    result = glq_relations_check(args.m, args.n, args.copies,
                                 args.max_degree)
    return result, result["relations_hold"] and result["sweep_ok"]


def cmd_typicality(args):
    space, lam = _space_and_weight(args)
    typical, chi = typicality(space, lam)
    return {"weight": [str(x) for x in lam],
            "typical": typical, "chi": str(_printable(chi)),
            "finite_dimensional": is_finite_dimensional(space, lam)}, True


def cmd_kac_dim(args):
    space, lam = _space_and_weight(args)
    # no floor exceeds the dimension, so the first one too long to write
    # refuses the job before the rest of the product is formed
    for dim in kac_dimension_floors(space, lam):
        _printable(dim)
    return {"weight": [str(x) for x in lam], "kac_dimension": dim}, True


def cmd_casimir(args):
    space = load_space(args.space)
    results = {}
    if args.weight:
        lam = parse_weight(args.weight, space.dim)
        results["weight"] = [str(x) for x in lam]
        results["eigenvalue"] = str(_printable(
            casimir_eigenvalue(space, lam)))
    if args.partition:
        lam = check_partition(
            int(p) for p in args.partition.replace(",", " ").split())
        results["partition"] = list(lam)
        results["defect_zero"] = casimir_defect(space, lam).is_zero()
    if not results:
        raise InputError("casimir needs --weight and/or --partition")
    return results, results.get("defect_zero", True)


def cmd_unitarisable(args):
    space, lam = _space_and_weight(args)
    return _verdict_json(classify_unitarisable(space, lam, args.type)), True


def cmd_gram(args):
    space, lam = _space_and_weight(args)
    return _gram_json(gram_report(space, lam, args.depth)), True


def cmd_tableaux(args):
    space = load_space(args.space)
    # a space with a basis vector has a shape of every size, and each
    # shape's dim_glN is at least 2**bits >= _TOO_LONG: refused unbuilt
    if space.dim and dim_glN_floor_bits(
            args.size, args.copies) >= _TOO_LONG.bit_length():
        raise _too_long()
    return {"rows": _table_rows(hook_table(space.m_plus, space.m_minus,
                                           args.size, args.copies))}, True


def cmd_glvv(args):
    space_v = load_space(args.space)
    space_w = load_space(args.other_space)
    rows, pairs = glvv_decomposition(space_v, space_w, args.max_degree)
    ok = all(r["equal"] for r in rows)
    return {"rows": rows,
            "pairs": [{"partition": list(p["partition"]),
                       "sharp_v": [str(x) for x in p["sharp_v"]],
                       "sharp_w": [str(x) for x in p["sharp_w"]]}
                      for p in pairs]}, ok


def cmd_presets(args):
    return {"catalog": presets.builtin_spaces()}, True


# -- the grammar: one table, read in one pass or by argparse ------------------

REQUIRED = object()  # the default of an option that has to be given
_SPACE = (str, REQUIRED, "a preset like super(2|1), or a JSON space file")
_WEIGHT = (str, REQUIRED, "the coordinates, comma separated")
_COPIES = (int, REQUIRED, "copies of V", 1)
_DEGREE = (int, 2, "the highest degree", 0)
# subcommand -> (help, {option: (kind, default, help[, least])}), with kind
# int, str or the tuple of its choices, default REQUIRED when it has to be
# given, and least the smallest value of an option that counts something
SUBCOMMANDS = {
    "verify": ("run the invariant suites", {
        "--space": _SPACE,
        "--level": (("quick", "full"), "full", "the suites to run"),
        "--seed": (int, 0, "seed of the sampled checks")}),
    "schur-weyl": ("decomposition of V^r", {
        "--space": _SPACE, "--power": (int, REQUIRED, "the power r", 0)}),
    "howe-sweep": ("Fock space dimension sweep against the module sum", {
        "--space": _SPACE, "--copies": _COPIES,
        "--max-degree": (int, REQUIRED, _DEGREE[2], 0)}),
    "fft-check": ("invariant dimensions and z-span verification", {
        "--space": _SPACE, "--copies": _COPIES, "--max-degree": _DEGREE,
        "--dual-copies": (int, REQUIRED, "copies of the dual of V", 1)}),
    "glq-check": ("gl_q(m|n) relation families", {
        "--m": (int, REQUIRED, "the even dimension", 0),
        "--n": (int, REQUIRED, "the odd dimension", 0),
        "--copies": (int, 1, _COPIES[2], 1),
        "--max-degree": (int, 4, _DEGREE[2], 0)}),
    "typicality": ("chi(lambda) and typicality",
                   {"--space": _SPACE, "--weight": _WEIGHT}),
    "kac-dim": ("dimension of the Kac module",
                {"--space": _SPACE, "--weight": _WEIGHT}),
    "casimir": ("Casimir eigenvalue / tensor-action defect", {
        "--space": _SPACE, "--weight": (str, None, _WEIGHT[2]),
        "--partition": (str, None, "the parts, comma separated")}),
    "unitarisable": ("classify against a compact *-structure", {
        "--space": _SPACE, "--weight": _WEIGHT,
        "--type": (("I", "II"), "I", "the compact *-structure")}),
    "gram": ("contravariant Gram matrices", {
        "--space": _SPACE, "--weight": _WEIGHT,
        "--depth": (int, None, "the last level, all by default")}),
    "tableaux": ("hook tableaux table", {
        "--space": _SPACE,
        "--size": (int, REQUIRED, "the number of boxes", 0),
        "--copies": (int, 0, "copies of V for dim_glN, 0 for none", 0),
        # the report is its rows alone, so TSV loses nothing of it
        "--format": (("json", "tsv"), "json", "the report's format")}),
    "glvv": ("Howe duality for a pair of spaces", {
        "--space": _SPACE, "--other-space": (str, REQUIRED, "W, as --space"),
        "--max-degree": _DEGREE}),
    "presets": ("list built-in spaces", {}),
}
# the grammar before the subcommand, in the same form
_TOP = ("Exact colour gl(V) computations: dualities, Fock spaces, typicality "
        "and unitarisability.",
        {"--timing": (bool, False, "include wall-clock timing in the report")})
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number


def _dest(flag):
    return flag[2:].replace("-", "_")


def _parse(argv):
    """The namespace of argv (sys.argv[1:] when None) by the grammar of
    SUBCOMMANDS: read by _read when it can, by _argparse otherwise."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _read(argv) or _argparse(argv)


def _read(argv):
    """The namespace of an argv that one pass reads outright, or None: the
    flag --timing, the subcommand, then its exact flags, each --flag=value
    or --flag value with a value that does not start with -, every int
    and choice valid and every REQUIRED option given, the last of a
    repeated option winning."""
    timing = 0
    while argv[timing:timing + 1] == ["--timing"]:
        timing += 1
    command, *rest = argv[timing:] or [None]
    if command not in SUBCOMMANDS:
        return None
    options = SUBCOMMANDS[command][1]
    ns = {"timing": timing > 0, "command": command,
          **{_dest(flag): spec[1] for flag, spec in options.items()}}
    rest.reverse()
    while rest:
        flag, eq, value = rest.pop().partition("=")
        if flag not in options or not (eq or rest and rest[-1][:1] != "-"):
            return None
        kind, value = options[flag][0], value if eq else rest.pop()
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        ns[_dest(flag)] = value
    return None if REQUIRED in ns.values() else SimpleNamespace(**ns)


def _argparse(argv):
    """argv read by an argparse tree built from _TOP and SUBCOMMANDS, for
    every argv that _read leaves: a prefix of a flag, -h/--help, a value
    that starts with -, and bad argv, which exits 2 after a one-line usage
    and argparse's message, such as `colourgl tableaux: error: ...`.  A
    value that starts with - is a value when _NEGATIVE, argparse's pattern
    up to Python 3.12, reads it as a negative number.  Every subcommand
    gets a parser, for the choices and the top-level help, but only the
    one argv invokes, the first of its items that names a subcommand,
    gets its options and -h: the others are never parsed."""
    import argparse

    def tree(about, options, add=argparse.ArgumentParser, **names):
        parser = add(description=about, **names, formatter_class=(
            functools.partial(argparse.HelpFormatter, width=sys.maxsize)))
        parser._negative_number_matcher = _NEGATIVE
        for flag, (kind, default, what, *_) in options.items():
            if kind is bool:
                parser.add_argument(flag, action="store_true", help=what)
            else:
                parser.add_argument(
                    flag, type=int if kind is int else None,
                    choices=None if kind in (int, str) else kind,
                    default=default, required=default is REQUIRED,
                    help=what)
        return parser

    top = tree(*_TOP, prog="colourgl")
    sub = top.add_subparsers(dest="command", required=True)
    invoked = next((item for item in argv if item in SUBCOMMANDS), None)
    for name, (about, options) in SUBCOMMANDS.items():
        if name == invoked:
            tree(about, options, sub.add_parser, name=name, help=about)
        else:
            sub.add_parser(name, help=about, add_help=False)
    return SimpleNamespace(**vars(top.parse_args(argv)))


def main(argv=None):
    args = _parse(argv)
    start = time.time()
    code = 3
    try:
        try:
            check_counts(args)
            # looked up at call time, so a replaced handler is the one called
            handler = globals()["cmd_" + args.command.replace("-", "_")]
            results, ok = handler(args)
            report = make_report(args, results, ok)
            if args.timing:
                report["timing"] = {"seconds": round(time.time() - start, 3)}
            code = 0 if ok else 1
            emit(report, args)
        except BrokenPipeError:
            raise
        except (ValueError, KeyError, ResourceBoundExceeded) as exc:
            code = 2
            emit({"kind": "error", "ok": False, "error": str(exc)})
        except AssertionError as exc:
            # an internal invariant defect: the computation disproved itself
            code = 1
            emit({"kind": "verification-failure", "ok": False,
                  "error": str(exc)})
        except Exception as exc:  # the CLI boundary: a defect, not bad input
            code = 3
            emit({"kind": "internal-error", "ok": False,
                  "error": f"{type(exc).__name__}: {exc}"})
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the job's code stands, and stdout goes
        # to devnull so that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
