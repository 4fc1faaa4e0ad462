"""Built-in grading/space presets.

Names accepted by the CLI:
    super(m|n)      Z_2 grading, omega(a,b) = (-1)^(ab)
    z2z2(d1,d2,..)  Z_2 x Z_2 grading, omega(a,b) = (-1)^(a1 b2 + a2 b1),
                    dims for the degrees (0,0),(0,1),(1,0),(1,1) in order
    glq(m|n)        Z^(m+n) with the sign form on the odd block and the
                    skew exponent form J (J_ij = 1 for i < j)
    green(n)        Z^n with omega(a,b) = (-1)^(sum a_i b_i)
"""

from __future__ import annotations

import re

from .gl import GradedSpace
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


def _unit_space(sign, exp):
    """Z^n, n = len(sign), with the factor of the forms sign and exp and one
    basis vector of each unit degree."""
    n = len(sign)
    group = GradingGroup(n, 0)
    comps = [(group.degree(*(int(j == i) for j in range(n))), 1)
             for i in range(n)]
    return GradedSpace(CommutativeFactor(group, sign, exp), comps)


def glq_space(m, n):
    total = m + n
    sign = tuple(tuple(1 if (i >= m and j >= m) else 0
                       for j in range(total)) for i in range(total))
    exp = tuple(tuple((j > i) - (j < i) for j in range(total))
                for i in range(total))
    return _unit_space(sign, exp)


def green_space(n):
    sign = tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))
    return _unit_space(sign, ((0,) * n,) * n)


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
    if kind == "green":
        if not args:
            raise KeyError("green preset needs (n)")
        return green_space(int(args))
    raise KeyError(f"unknown preset {name!r}")


def is_preset_name(name):
    return bool(_PRESET_RE.match(name.strip()))
