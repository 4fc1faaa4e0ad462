"""The parent CLI parser of colourgl.cli, kept verbatim as an oracle.

build_parser as it was before the CLI read its grammar from the table
cli.SUBCOMMANDS with one pass of cli._parse: an argparse tree of 13
subparsers, built once per process.  tests/test_parser_oracle.py runs it
and _parse over the same argv and asks for the same namespace or the
same exit code."""

import argparse


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
