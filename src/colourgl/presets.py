"""Built-in grading/space presets.

Names accepted by the CLI:
    super(m|n)      Z_2 grading, omega(a,b) = (-1)^(ab)
    z2z2(d1,d2,..)  Z_2 x Z_2 grading, omega(a,b) = (-1)^(a1 b2 + a2 b1),
                    dims for the degrees (0,0),(0,1),(1,0),(1,1) in order
    glq(m|n)        Z^(m+n) with the sign form on the odd block and the
                    skew exponent form J (J_ij = 1 for i < j)
    green(n)        Z^n with omega(a,b) = (-1)^(sum a_i b_i)
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


_PRESET_RE = re.compile(
    r"^(?P<name>super|glq|z2z2|green)"
    r"(?:\((?P<args>[\d|,]*)\))?$")


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
    """Build a GradedSpace from a preset name, or raise KeyError."""
    m = _PRESET_RE.match(name.strip())
    if not m:
        raise KeyError(f"unknown preset {name!r}")
    kind, args = m.group("name"), m.group("args")
    if kind in ("super", "glq"):
        if not args or "|" not in args:
            raise KeyError(f"{kind} preset needs (m|n), got {name!r}")
        mm, nn = args.split("|")
        builder = super_space if kind == "super" else glq_space
        return builder(int(mm), int(nn))
    if kind == "z2z2":
        dims = tuple(int(x) for x in args.split(",")) if args else (1, 1, 1, 1)
        return z2z2_space(dims)
    if not args:  # green, the last kind of _PRESET_RE
        raise KeyError("green preset needs (n)")
    return green_space(int(args))


def is_preset_name(name):
    return bool(_PRESET_RE.match(name.strip()))
