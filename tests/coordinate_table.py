"""Weight coordinates with PEP 515 underscores, valid and not, and how
cli._coordinate reads each: a Fraction, or the error line.  The readings
are the same on every Python that colourgl supports; Fraction reads an
underscore between two digits itself only from 3.11 on, and on 3.11 and
3.12 its pattern reads a run of the letter d after the point (a `d*` in
place of a run of digits), so that its own error for 2.d comes from int()
there.  tests/test_cli.py checks the table under pytest.  To check it on
an interpreter that has no pytest, run

    PYTHONPATH=src python tests/coordinate_table.py

which needs only the standard library and exits 1 on any other reading.
"""

import sys
from fractions import Fraction

from colourgl import cli

BAD = "bad weight coordinate: Invalid literal for Fraction: "

COORDINATES = [
    ("1_0", Fraction(10)),
    ("-1_0_0", Fraction(-100)),
    ("+0_7", Fraction(7)),
    ("1_000/2_5", Fraction(40)),
    ("-1_0.2_5", Fraction(-41, 4)),
    (".5_5", Fraction(11, 20)),
    ("1_0e1_0", Fraction(10 ** 11)),
    ("1.5_0E-0_1", Fraction(3, 20)),
    ("١_٠", Fraction(10)),   # Arabic-Indic digits 1 and 0
    ("1_0/0", "bad weight coordinate: Fraction(10, 0)"),
    ("1e1_001", "a weight coordinate has more than 1000 digits, its "
                "exponent included"),
    ("_1", BAD + "'_1'"),
    ("1_", BAD + "'1_'"),
    ("1__0", BAD + "'1__0'"),
    ("_", BAD + "'_'"),
    ("-_1", BAD + "'-_1'"),
    ("1_.5", BAD + "'1_.5'"),
    ("1._5", BAD + "'1._5'"),
    ("1_e5", BAD + "'1_e5'"),
    ("1e_5", BAD + "'1e_5'"),
    ("1e-_5", BAD + "'1e-_5'"),
    ("1_/2", BAD + "'1_/2'"),
    ("1/_2", BAD + "'1/_2'"),
    ("1_0x", BAD + "'1_0x'"),
    ("1_0/2_", BAD + "'1_0/2_'"),
    # a letter d after the point, or alone
    ("2.d", BAD + "'2.d'"),
    ("2.dd", BAD + "'2.dd'"),
    ("1.d5", BAD + "'1.d5'"),
    ("d", BAD + "'d'"),
]


def reading(text):
    """cli._coordinate(text), or the line of the error it raises."""
    try:
        return cli._coordinate(text)
    except cli.InputError as exc:
        return str(exc)


def main():
    wrong = [(text, reading(text), want) for text, want in COORDINATES
             if reading(text) != want]
    for text, got, want in wrong:
        print(f"{text!r}: read {got!r}, expected {want!r}")
    print(f"{len(COORDINATES) - len(wrong)} of {len(COORDINATES)} "
          f"coordinates read as expected on Python {sys.version.split()[0]}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
