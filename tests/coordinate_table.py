"""Weight coordinates with PEP 515 underscores, valid and not, and how
cli._coordinate reads each: an int, a Fraction, or the error line, each
row stating the value and its type.  A text that int() reads is an int;
any other goes to Fraction and is an int when it is integral.  The
readings are the same on every Python that colourgl supports; Fraction
reads an underscore between two digits itself only from 3.11 on, and on
3.11 and 3.12 its pattern reads a run of the letter d after the point (a
`d*` in place of a run of digits), so that its own error for 2.d comes
from int() there.

Rows at WEIGHT_DIGITS_CAP digits and one past it, with and without
signs, underscores and an exponent, pin where the bound refuses: a text
of at most that many characters with no exponent has its digits left
uncounted, so these rows show that it still refuses exactly there.

sweep() backs the int read: over every text of up to four characters
from ALPHABET, with its digit underscores taken out as _coordinate takes
them out, wherever int() reads it Fraction reads the same number.

tests/test_cli.py checks both under pytest.  To check them on an
interpreter that has no pytest, run

    PYTHONPATH=src python tests/coordinate_table.py

which needs only the standard library and exits 1 on any other reading.
"""

import itertools
import sys
from fractions import Fraction

from colourgl import cli

BAD = "bad weight coordinate: Invalid literal for Fraction: "
CAP = cli.WEIGHT_DIGITS_CAP
TOO_MANY = (f"a weight coordinate has more than {CAP} digits, its exponent "
            "included")

COORDINATES = [
    ("1_0", 10),
    ("-1_0_0", -100),
    ("+0_7", 7),
    ("1_000/2_5", 40),
    ("-1_0.2_5", Fraction(-41, 4)),
    (".5_5", Fraction(11, 20)),
    ("1_0e1_0", 10 ** 11),
    ("1.5_0E-0_1", Fraction(3, 20)),
    ("١_٠", 10),   # Arabic-Indic digits 1 and 0
    # read by int()
    ("+7", 7),
    (" -3 ", -3),
    ("007", 7),
    ("1_000", 1000),
    ("١٢", 12),
    ("-0", 0),
    # read by Fraction, integral
    ("6/2", 3),
    ("3.0", 3),
    ("3e0", 3),
    ("1_0/0", "bad weight coordinate: Fraction(10, 0)"),
    ("1e1_001", TOO_MANY),
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
    # at the digit bound and one past it: a text of at most CAP characters
    # with no exponent is not counted, every other text is
    ("9" * CAP, int("9" * CAP)),
    ("9" * (CAP + 1), TOO_MANY),
    ("-" + "9" * (CAP - 1), -int("9" * (CAP - 1))),
    ("-" + "9" * CAP, -int("9" * CAP)),
    ("+" + "9" * (CAP + 1), TOO_MANY),
    ("1" + "_0" * (CAP - 1), 10 ** (CAP - 1)),
    ("1" + "_0" * CAP, TOO_MANY),
    ("-1" + "_0" * (CAP - 1), -10 ** (CAP - 1)),
    ("+1" + "_0" * CAP, TOO_MANY),
    ("1/" + "3" * (CAP - 1), Fraction(1, int("3" * (CAP - 1)))),
    ("1/" + "3" * CAP, TOO_MANY),
    ("1e999", 10 ** 999),
    ("-1E999", -10 ** 999),
    ("1e1000", TOO_MANY),
    ("1E+1000", TOO_MANY),
    ("1e-999", Fraction(1, 10 ** 999)),
    ("1e-1000", TOO_MANY),
]


# the characters of sweep's texts: digits, an Arabic-Indic one, signs,
# the marks of a fraction, a decimal and an exponent, and blanks
ALPHABET = "019_+- \t١/.e\u00a0\u3000"


def reading(text):
    """cli._coordinate(text) with the name of its type, or the line of the
    error it raises."""
    try:
        value = cli._coordinate(text)
    except cli.InputError as exc:
        return str(exc)
    return type(value).__name__, value


def expected(want):
    """A row's reading as reading() gives it."""
    return want if isinstance(want, str) else (type(want).__name__, want)


def texts(length=4):
    """Every text of 1 to length characters from ALPHABET."""
    for n in range(1, length + 1):
        for chars in itertools.product(ALPHABET, repeat=n):
            yield "".join(chars)


def sweep(length=4):
    """(texts tried, [each text where int() and Fraction disagree])."""
    count, wrong = 0, []
    for text in texts(length):
        count += 1
        text = cli._DIGIT_UNDERSCORE.sub("", text)
        try:
            value = int(text)
        except ValueError:
            continue
        try:
            if Fraction(text) != value:
                wrong.append(text)
        except ValueError:
            wrong.append(text)
    return count, wrong


def main():
    wrong = [(text, reading(text), expected(want))
             for text, want in COORDINATES if reading(text) != expected(want)]
    for text, got, want in wrong:
        print(f"{text!r}: read {got!r}, expected {want!r}")
    version = sys.version.split()[0]
    print(f"{len(COORDINATES) - len(wrong)} of {len(COORDINATES)} "
          f"coordinates read as expected on Python {version}")
    count, disagree = sweep()
    for text in disagree:
        print(f"{text!r}: int() and Fraction disagree")
    print(f"{count - len(disagree)} of {count} swept texts agree on Python "
          f"{version}")
    return 1 if wrong or disagree else 0


if __name__ == "__main__":
    sys.exit(main())
