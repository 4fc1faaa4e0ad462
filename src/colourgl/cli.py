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
The rows of partitions.hook_table, which schur-weyl and tableaux both
report, are written by _table_rows, and reps' UnitarisableVerdict and
GramReport by _verdict_json and _gram_json.
emit writes every report, a job's or an error's, as one line of JSON
with sorted keys, by json's C encoder; tableaux, whose report is nothing
but its rows, takes --format tsv to write them as TSV instead.
Each handler `cmd_*` returns (results, ok); only `main` builds the report,
with `kind` the subcommand name, and it exits 1 when ok is false.  The
table SUBCOMMANDS is the one statement of the grammar: each subcommand's
help and options, each option's type or choices, default or REQUIRED,
and help.  `main` reads argv by it in one pass of _parse, with argparse's
rules (--opt value and --opt=value, a unique prefix, the last of a
repeated option, a leading - only on a negative number) and its exit
codes (2 for bad argv, 0 after -h/--help, which is written from the
table), and calls the handler by its name, `cmd_` plus the subcommand, at
call time.  load_space keeps the spaces it builds, one per preset name and
one per (path, file text), the SPACES_KEPT most recently used, so that
the jobs of a process share each space and its lazy omega and Fock tables.
Exit codes: 0 success, 1 a verification failed, 2 bad input or an
unsupported/over-budget request, 3 an internal error (any other exception,
reported as JSON rather than a traceback).  A reader that closes stdout
early changes no exit code: the job's code stands and nothing goes to
stderr.  Output is byte-deterministic for a given job; timing is opt-in
via --timing so the default report stays stable.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import presets
from .gl import GradedSpace, ResourceBoundExceeded
from .partitions import check_partition, dim_glN_floor_bits, hook_table
from .reps import (casimir_defect, casimir_eigenvalue, classify_unitarisable,
                   gram_report, is_finite_dimensional, kac_dimension,
                   typicality)
from .tensor import schur_weyl_table
from .weyl import (check_fft_bounds, glq_relations_check,
                   glvv_decomposition, howe_dimension_sweep,
                   invariant_dimensions, invariant_generators_check,
                   verify_dual_pair)
from .verify import require_dimension, run_verification

# most digits of a weight coordinate, the value of its exponent counted as
# digits: Fraction builds 10^k for an exponent k
WEIGHT_DIGITS_CAP = 1000
# most digits of a number that a report writes, numerator and denominator
# each: Python converts at most 4300 digits of an int to text by default
REPORT_DIGITS_CAP = 4000
_TOO_LONG = 10 ** REPORT_DIGITS_CAP  # built once: it takes about 50 us
# most spaces that load_space keeps built, the least recently used dropped
SPACES_KEPT = 32
# integer options that count something: negative values are bad input
COUNT_OPTIONS = ("power", "size", "copies", "dual_copies", "max_degree", "m",
                 "n")


class InputError(ValueError):
    pass


def load_space(spec):
    """A --space value: a preset name like super(2|1) or a JSON file path;
    a path that cannot be read as a file is bad input.  A process builds
    one space per preset name and one per (path, file text), so the jobs
    of a process share it and its lazy tables, and an edited file gives a
    new space."""
    if presets.is_preset_name(spec):
        return _space(spec, None)
    path = Path(spec)
    if not path.exists():
        raise InputError(f"{spec!r} is neither a preset nor a file")
    try:
        text = path.read_text()
    except OSError as exc:  # a directory or an unreadable file
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
    """Fraction(text), refused before it is built when it has more than
    WEIGHT_DIGITS_CAP digits, the value of its exponent included."""
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
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad weight coordinate: {exc}") from exc


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
    print(json.dumps(report, sort_keys=True, default=str))


def make_report(args, results, ok):
    inputs = {k: v for k, v in sorted(vars(args).items())
              if k not in ("timing", "format") and v is not None}
    return {"kind": args.command, "inputs": inputs, "ok": ok,
            "results": results}


def check_counts(args):
    """Refuse a negative count, a count of copies of V or of its dual
    below 1 (except tableaux's --copies, where 0 leaves out dim_glN), and
    glq-check without a basis vector: each would report a check that
    tested no relation."""
    for name in COUNT_OPTIONS:
        value = getattr(args, name, None)
        least = int(name in ("copies", "dual_copies")
                    and args.command != "tableaux")
        if value is not None and value < least:
            raise InputError(f"--{name.replace('_', '-')} must be at least "
                             f"{least}, got {value}")
    if args.command == "glq-check" and args.m + args.n < 1:
        raise InputError(f"--m + --n must be at least 1, got "
                         f"{args.m + args.n}")


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
    space = load_space(args.space)
    require_dimension(space, "fft-check")
    gl_copies = min(args.copies, 2)
    check_fft_bounds(space, args.copies, args.dual_copies, args.max_degree,
                     gl_copies)
    dims = invariant_dimensions(space, args.copies, args.dual_copies,
                                args.max_degree)
    results = {
        "invariant_dimensions": {str(d): n for d, n in dims.items()},
        "z_span_verified": True,
        "dual_pair_ok": verify_dual_pair(space, gl_copies),
        "filtration_level_1_ok": invariant_generators_check(space,
                                                             gl_copies),
    }
    ok = results["dual_pair_ok"] and results["filtration_level_1_ok"]
    return results, ok


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
    return {"weight": [str(x) for x in lam],
            "kac_dimension": _printable(kac_dimension(space, lam))}, True


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


# -- the grammar: one table, read in one pass ---------------------------------

REQUIRED = object()  # the default of an option that has to be given
_SPACE = (str, REQUIRED, "a preset like super(2|1), or a JSON space file")
_WEIGHT = (str, REQUIRED, "the coordinates, comma separated")
_COPIES = (int, REQUIRED, "copies of V")
_DEGREE = (int, 2, "the highest degree")
# subcommand -> (help, {option: (kind, default, help)}), with kind int, str
# or the tuple of its choices, and default REQUIRED when it has to be given
SUBCOMMANDS = {
    "verify": ("run the invariant suites", {
        "--space": _SPACE,
        "--level": (("quick", "full"), "full", "the suites to run"),
        "--seed": (int, 0, "seed of the sampled checks")}),
    "schur-weyl": ("decomposition of V^r", {
        "--space": _SPACE, "--power": (int, REQUIRED, "the power r")}),
    "howe-sweep": ("Fock space dimension sweep against the module sum", {
        "--space": _SPACE, "--copies": _COPIES,
        "--max-degree": (int, REQUIRED, _DEGREE[2])}),
    "fft-check": ("invariant dimensions and z-span verification", {
        "--space": _SPACE, "--copies": _COPIES, "--max-degree": _DEGREE,
        "--dual-copies": (int, REQUIRED, "copies of the dual of V")}),
    "glq-check": ("gl_q(m|n) relation families", {
        "--m": (int, REQUIRED, "the even dimension"),
        "--n": (int, REQUIRED, "the odd dimension"),
        "--copies": (int, 1, _COPIES[2]),
        "--max-degree": (int, 4, _DEGREE[2])}),
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
        "--space": _SPACE, "--size": (int, REQUIRED, "the number of boxes"),
        "--copies": (int, 0, "copies of V for dim_glN, 0 for none"),
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
_HELP = (None, None, "show this help and exit")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number


def _dest(flag):
    return flag[2:].replace("-", "_")


def _flags(command):
    """The options of command, or of the top level when None, and -h/--help."""
    options = SUBCOMMANDS.get(command, _TOP)[1]
    return {**options, "-h": _HELP, "--help": _HELP}


def _word(flag, kind):
    """An option as usage writes it: --timing, --power POWER, --type {I,II}."""
    return flag if kind is bool else f"{flag} " + (
        "{%s}" % ",".join(kind) if isinstance(kind, tuple)
        else _dest(flag).upper())


def _usage(command):
    words = [f"usage: colourgl {command or ''}".rstrip(), "[-h]"] + [
        _word(flag, kind) if default is REQUIRED else f"[{_word(flag, kind)}]"
        for flag, (kind, default, _) in SUBCOMMANDS.get(command, _TOP)[1]
        .items()]
    return " ".join(words if command else
                    [*words, "{%s} ..." % ",".join(SUBCOMMANDS)])


def _fail(command, message):
    print(f"{_usage(command)}\ncolourgl: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command):
    """Write the help of command, or of the top level when None, and exit
    0: its usage, what it does, and a line for each option and, at the top
    level, for each subcommand."""
    about, options = SUBCOMMANDS.get(command, _TOP)
    rows = [("-h, --help", _HELP[2])] + [
        (_word(flag, kind), what) for flag, (kind, _, what) in options.items()
    ] + [(name, what) for name, (what, _) in SUBCOMMANDS.items()
         if command is None]
    width = max(len(word) for word, _ in rows) + 2
    print(_usage(command), "", about, "",
          *(f"  {word:<{width}}{what}" for word, what in rows), sep="\n")
    raise SystemExit(0)


def _option(arg, flags, command):
    """(flag, the text after = or None) of an arg read as an option, flag
    None for an unknown one, or None for an arg read as a value, as argparse
    reads them: a unique prefix of a --flag stands for it."""
    name, eq, value = arg.partition("=")
    found = [name] if name in flags else [
        flag for flag in flags
        if name.startswith("--") and arg != "--" and flag.startswith(name)]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {arg} could match "
                       f"{', '.join(found)}")
    if found:
        return found[0], value if eq else None
    if arg.startswith("-") and arg != "-" and not _NEGATIVE.match(arg) \
            and " " not in arg:
        return None, None
    return None


def _parse(argv):
    """The namespace of argv (sys.argv[1:] when None) by the grammar of
    SUBCOMMANDS: timing, command and every option of the subcommand, with
    its default where it is not given.  As with argparse, the last of a
    repeated option wins, a bad value fails at once and an unknown option
    at the end, with exit 2 after a usage line on stderr; -h/--help exits
    0 after the help."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ns, unknown, command, flags = {"timing": False}, [], None, _flags(None)
    # each arg with its reading, redone by the subcommand's flags past it
    rest = [(arg, _option(arg, flags, None)) for arg in argv]
    while rest:
        arg, read = rest.pop(0)
        if read is None and command is None:  # the subcommand
            if arg not in SUBCOMMANDS:
                _fail(None, f"argument command: invalid choice: {arg!r}")
            command = ns["command"] = arg
            flags, options = _flags(command), SUBCOMMANDS[command][1]
            ns.update((_dest(flag), spec[1]) for flag, spec in options.items())
            rest = [(arg, _option(arg, flags, command)) for arg, _ in rest]
            continue
        flag, value = read or (None, None)
        if flag is None:
            unknown.append(arg)
            continue
        kind = flags[flag][0]
        if kind in (None, bool):  # -h/--help and --timing take no value
            if value is not None:
                _fail(command, f"argument {flag}: ignored explicit argument "
                               f"{value!r}")
            if kind is None:
                _help(command)
            ns[_dest(flag)] = True
            continue
        if value is None:
            if not rest or rest[0][1] is not None:
                _fail(command, f"argument {flag}: expected one argument")
            value = rest.pop(0)[0]
        try:
            ns[_dest(flag)] = int(value) if kind is int else value
        except ValueError:
            _fail(command, f"argument {flag}: invalid int value: {value!r}")
        if kind not in (int, str) and value not in kind:
            _fail(command, f"argument {flag}: invalid choice: {value!r}")
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [flag for flag in options if ns[_dest(flag)] is REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: "
                       f"{', '.join(missing)}")
    if unknown:
        _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**ns)


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
