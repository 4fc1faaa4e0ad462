"""Command line front end.

Every subcommand emits one JSON report (sorted keys); tableaux, whose
report is nothing but its rows, takes --format tsv to write them as TSV
instead.
Each handler `cmd_*` returns (results, ok); only `main` builds the report,
with `kind` the subcommand name, and it exits 1 when ok is false.  `main`
parses with one parser per process and calls the handler by its name,
`cmd_` plus the subcommand, at call time.
Exit codes: 0 success, 1 a verification failed, 2 bad input or an
unsupported/over-budget request, 3 an internal error (any other exception,
reported as JSON rather than a traceback).  A reader that closes stdout
early changes no exit code: the job's code stands and nothing goes to
stderr.  Output is byte-deterministic for a given job; timing is opt-in
via --timing so the default report stays stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import presets
from .gl import GradedSpace
from .partitions import (_count_hook, _count_standard, _dim_glN, _sharp,
                         hook_partitions)
from .reps import (_printable, casimir_defect, casimir_eigenvalue,
                   classify_unitarisable, gram_report, is_finite_dimensional,
                   kac_dimension, typicality)
from .tensor import schur_weyl_table
from .weyl import (ResourceBoundExceeded, _guard_invariant_basis,
                   glq_relations_check, glvv_decomposition,
                   howe_dimension_sweep, howe_dual_sweep, invariant_dimension,
                   invariant_generators_check, verify_dual_pair)
from .verify import require_dimension, run_verification

WORD_CAP = 10 ** 6
# most digits of a weight coordinate, the value of its exponent counted as
# digits: Fraction builds 10^k for an exponent k
WEIGHT_DIGITS_CAP = 1000
# integer options that count something: negative values are bad input
COUNT_OPTIONS = ("power", "size", "copies", "dual_copies", "max_degree", "m",
                 "n")


class InputError(ValueError):
    pass


def load_space(spec):
    """A --space value: a preset name like super(2|1) or a JSON file path."""
    if presets.is_preset_name(spec):
        return presets.preset_space(spec)
    path = Path(spec)
    if not path.exists():
        raise InputError(f"{spec!r} is neither a preset nor a file")
    try:
        doc = json.loads(path.read_text())
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


def _dominant_input(args):
    """The space and weight of args, or InputError when the weight is not
    dominant."""
    space = load_space(args.space)
    lam = parse_weight(args.weight, space.dim)
    if not is_finite_dimensional(space, lam):
        raise InputError(f"weight {args.weight} is not dominant")
    return space, lam


def parse_partition(text):
    parts = [int(p) for p in text.replace(",", " ").split() if p]
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or \
            any(p <= 0 for p in parts):
        raise InputError(f"{parts} is not a partition")
    return tuple(parts)


def emit(report, args):
    if getattr(args, "format", "json") == "tsv":
        rows = report["results"]["rows"]
        if rows:
            cols = sorted(rows[0])
            print("\t".join(cols))
            for row in rows:
                print("\t".join(str(row[c]) for c in cols))
        return
    print(json.dumps(report, sort_keys=True, indent=2, default=str))


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


def guard_words(space, power):
    size = space.dim ** power
    if size > WORD_CAP:
        raise ResourceBoundExceeded("tensor power", size, WORD_CAP)


# -- subcommand handlers: each returns (results, ok) ---------------------------

def cmd_verify(args):
    space = load_space(args.space)
    rng = random.Random(args.seed)
    suites = run_verification(space, level=args.level, rng=rng)
    ok = all(s["passed"] for s in suites if not s.get("skipped"))
    return {"suites": suites}, ok


def cmd_schur_weyl(args):
    space = load_space(args.space)
    guard_words(space, args.power)
    rows = schur_weyl_table(space, args.power)
    table = [{"partition": list(r["partition"]),
              "sharp": [str(c) for c in r["sharp"]],
              "k": r["k"], "f": r["f"]} for r in rows]
    checksum = sum(r["k"] * r["f"] for r in rows)
    return {"rows": table, "checksum": checksum,
            "dimension": space.dim ** args.power}, True


def cmd_howe_sweep(args):
    space = load_space(args.space)
    rows = howe_dimension_sweep(space, args.copies, args.max_degree)
    dual_rows = howe_dual_sweep(space, args.copies, args.max_degree)
    ok = all(r["equal"] for r in rows) and all(r["equal"] for r in dual_rows)
    return {"rows": rows, "dual_rows": dual_rows}, ok


def cmd_fft_check(args):
    space = load_space(args.space)
    require_dimension(space, "fft-check")
    _guard_invariant_basis(space, args.copies, args.dual_copies,
                           range(args.max_degree + 1))
    dims = {str(d): invariant_dimension(space, args.copies,
                                        args.dual_copies, d)
            for d in range(args.max_degree + 1)}
    results = {
        "invariant_dimensions": dims,
        "z_span_verified": True,
        "dual_pair_ok": verify_dual_pair(space, min(args.copies, 2)),
        "filtration_level_1_ok": invariant_generators_check(
            space, min(args.copies, 2)),
    }
    ok = results["dual_pair_ok"] and results["filtration_level_1_ok"]
    return results, ok


def cmd_glq_check(args):
    result = glq_relations_check(args.m, args.n, args.copies,
                                 args.max_degree)
    return result, result["relations_hold"] and result["sweep_ok"]


def cmd_typicality(args):
    space = load_space(args.space)
    lam = parse_weight(args.weight, space.dim)
    typical, chi = typicality(space, lam)
    return {"weight": [str(x) for x in lam],
            "typical": typical, "chi": str(_printable(chi)),
            "finite_dimensional": is_finite_dimensional(space, lam)}, True


def cmd_kac_dim(args):
    space, lam = _dominant_input(args)
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
        lam = parse_partition(args.partition)
        guard_words(space, sum(lam))
        defect = casimir_defect(space, lam)
        results["partition"] = list(lam)
        results["defect_zero"] = defect.is_zero()
    if not results:
        raise InputError("casimir needs --weight and/or --partition")
    return results, results.get("defect_zero", True)


def cmd_unitarisable(args):
    space = load_space(args.space)
    lam = parse_weight(args.weight, space.dim)
    return classify_unitarisable(space, lam, args.type).to_json(), True


def cmd_gram(args):
    space, lam = _dominant_input(args)
    return gram_report(space, lam, args.depth).to_json(), True


def cmd_tableaux(args):
    space = load_space(args.space)
    mp, mm = space.m_plus, space.m_minus
    rows = []
    for lam in hook_partitions(mp, mm, args.size, args.size):
        row = {"partition": list(lam),
               "k": _count_hook(lam, mp, mm),
               "f": _count_standard(lam),
               "sharp": [str(c) for c in _sharp(lam, mp, mm)]}
        if args.copies:
            row["dim_glN"] = _printable(_dim_glN(lam, args.copies))
        rows.append(row)
    return {"rows": rows}, True


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


@functools.cache
def _parser():
    """The parser of this process, built on the first call to main: every
    parse_args starts from a fresh namespace, so it is reused as is."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
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
            print(json.dumps({"kind": "error", "ok": False,
                              "error": str(exc)}, sort_keys=True, indent=2))
        except AssertionError as exc:
            # an internal invariant defect: the computation disproved itself
            code = 1
            print(json.dumps({"kind": "verification-failure", "ok": False,
                              "error": str(exc)}, sort_keys=True, indent=2))
        except Exception as exc:  # the CLI boundary: a defect, not bad input
            code = 3
            print(json.dumps({"kind": "internal-error", "ok": False,
                              "error": f"{type(exc).__name__}: {exc}"},
                             sort_keys=True, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the job's code stands, and stdout goes
        # to devnull so that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
