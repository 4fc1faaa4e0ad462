"""Built-in grading/space presets.

Names accepted by the CLI, m, n and each d a run of decimal digits:
    super(m|n)      Z_2 grading, omega(a,b) = (-1)^(ab)
    z2z2(d1,..,dk)  Z_2 x Z_2 grading, omega(a,b) = (-1)^(a1 b2 + a2 b1),
                    k <= 4 dims for the degrees (0,0),(0,1),(1,0),(1,1) in
                    order; z2z2 and z2z2() are z2z2(1,1,1,1)
    glq(m|n)        Z^(m+n) with the sign form on the odd block and the
                    skew exponent form J (J_ij = 1 for i < j)
    green(n)        Z^n with omega(a,b) = (-1)^(sum a_i b_i)
Each family has one pattern, which is_preset_name and preset_space both
read: a text outside it is no preset name, so the CLI reads it as a file
path.  A count has at most 4300 digits, leading zeros included, the most
that int() reads by default, so int() reads every count the pattern
admits.
"""

import re

from .gl import GradedSpace, check_dimension
from .grading import CommutativeFactor, GradingGroup, superalgebra_factor


def super_space(m, n):
    factor = superalgebra_factor()
    degree = factor.group.degree
    comps = [(degree(g), d) for g, d in ((0, m), (1, n)) if d]
    return GradedSpace(factor, comps)


def z2z2_space(dims=(1, 1, 1, 1)):
    group = GradingGroup(0, 2)
    factor = CommutativeFactor(group, ((0, 1), (1, 0)), ((0, 0), (0, 0)))
    degrees = [(0, 0), (0, 1), (1, 0), (1, 1)]
    comps = [(group.degree(*deg), d)
             for deg, d in zip(degrees, dims) if d]
    return GradedSpace(factor, comps)


def _unit_space(n, sign_row, exp_row):
    """Z^n with one basis vector of each unit degree and the factor of the
    n x n forms whose rows i are sign_row(i) and exp_row(i), int tuples
    built a whole row at a time, refused past DIM_CAP before the forms
    are built."""
    check_dimension(n)
    group = GradingGroup(n, 0)
    comps = [(group.degree(_row(n, i, 0, 1, 0)), 1) for i in range(n)]
    forms = (tuple(map(row, range(n))) for row in (sign_row, exp_row))
    return GradedSpace(CommutativeFactor(group, *forms), comps)


def _row(n, i, before, at, after):
    """The n ints: i of before, then at, then after."""
    return (before,) * i + (at,) + (after,) * (n - 1 - i)


def glq_space(m, n):
    odd = (0,) * m + (1,) * n
    return _unit_space(m + n,
                       lambda i: odd if i >= m else (0,) * (m + n),
                       lambda i: _row(m + n, i, -1, 0, 1))


def green_space(n):
    return _unit_space(n, lambda i: _row(n, i, 0, 1, 0),
                       lambda i: (0,) * n)


# a count: int() reads at most 4300 digits by default, and a count past
# DIM_CAP is refused by its value when its space is built
_N = r"\d{1,4300}"
# one pattern per family, which both recognises a name and places its
# counts: the runs of digits after the family word
_FAMILIES = {
    "super": (rf"super\({_N}\|{_N}\)", "(m|n)", super_space),
    "glq": (rf"glq\({_N}\|{_N}\)", "(m|n)", glq_space),
    "z2z2": (rf"z2z2(?:\((?:{_N}(?:,{_N}){{0,3}})?\))?",
             "(d1,..,dk), k <= 4",
             lambda *dims: z2z2_space(dims) if dims else z2z2_space()),
    "green": (rf"green\({_N}\)", "(n)", green_space),
}


def builtin_spaces():
    """The preset catalog: name pattern -> description."""
    return {
        "super(m|n)": "Z_2 superalgebra grading with m even, n odd dims",
        "z2z2(d1,d2,d3,d4)": "Z_2 x Z_2 colour grading, dims per degree "
                             "(0,0),(0,1),(1,0),(1,1); default (1,1,1,1)",
        "glq(m|n)": "Z^(m+n) q-deformed grading of gl_q(m|n)",
        "green(n)": "Z^n sign grading (parastatistics ansatz), n odd lines",
    }


def preset_space(name):
    """The GradedSpace of a preset name, leading and trailing white space
    aside, or a KeyError naming the text for a name outside the grammar:
    int() reads only counts that the pattern of their family admits."""
    text = name.strip()
    family = text.partition("(")[0]
    if family not in _FAMILIES:
        raise KeyError(f"unknown preset {name!r}")
    pattern, shape, build = _FAMILIES[family]
    if not re.fullmatch(pattern, text):
        raise KeyError(f"{family} preset needs {shape}, got {name!r}")
    return build(*map(int, re.findall(r"\d+", text[len(family):])))


def is_preset_name(name):
    """True when name, leading and trailing white space aside, is in the
    grammar of its family."""
    text = name.strip()
    found = _FAMILIES.get(text.partition("(")[0])
    return bool(found and re.fullmatch(found[0], text))
