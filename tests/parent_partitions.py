"""The partition functions as they were before each public function
became one check_partition plus a private kernel, kept verbatim as oracles
for tests/test_partition_kernels.py.

Each of them converted and checked its shape, and they called one another,
so a shape was checked again at every call; dim_glN multiplied one
Fraction per box.  is_partition and check_partition are here as they were
too: check_partition truncated non-int parts and dropped every zero.
k(lambda) was read from the strip table, _strip_table and _grow_strip,
kept here verbatim as the oracle of the package's Giambelli determinant
and shape generator in tests/test_partition_kernels.py.

_dim_glN is the later integer kernel, the contents' product over the
hooks' product, kept verbatim: the package now reads dim L_lambda(gl_N)
as the hook count k(lambda) of the N|0 space, and tests/parent_weyl.py
and tests/test_partition_kernels.py read this one as its oracle.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, prod

from colourgl.partitions import _hooks


def is_partition(parts):
    parts = tuple(parts)
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts):
    parts = tuple(int(p) for p in parts if p)
    if not is_partition(parts):
        raise ValueError(f"{parts} is not a partition")
    return parts


def transpose(lam):
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def partitions_of(n, max_part=None):
    """All partitions of n with parts bounded by max_part, lexicographically
    decreasing."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def in_hook(lam, m_plus, m_minus):
    """Membership in P_{M+|M-}: lambda_{M+ + 1} <= M-."""
    lam = check_partition(lam)
    return len(lam) <= m_plus or lam[m_plus] <= m_minus


def lambda_sharp(lam, m_plus, m_minus):
    """The highest weight (lambda_1..lambda_{M+}, theta(lambda'_j - M+))
    attached to a hook partition."""
    lam = check_partition(lam)
    if not in_hook(lam, m_plus, m_minus):
        raise ValueError(f"{lam} is not in the {m_plus}|{m_minus} hook class")
    lamt = transpose(lam)
    plus = tuple(lam[i] if i < len(lam) else 0 for i in range(m_plus))
    minus = tuple(max((lamt[j] if j < len(lamt) else 0) - m_plus, 0)
                  for j in range(m_minus))
    return plus + minus


def hook_partitions(m_plus, m_minus, depth_bound, size):
    """All lambda of the given size in P_{M+|M-} with depth <= depth_bound,
    in the order of partitions_of.  They are the shapes of the strip table
    of that size, which holds every hook shape and no other."""
    return [lam for lam in sorted(_strip_table(size, m_plus, m_minus),
                                  reverse=True)
            if len(lam) <= depth_bound]


def hooks(lam):
    lam = check_partition(lam)
    lamt = transpose(lam)
    return [[lam[i] - j + lamt[j] - i - 1 for j in range(lam[i])]
            for i in range(len(lam))]


def count_standard_tableaux(lam):
    """f^lambda by the hook length formula."""
    lam = check_partition(lam)
    n = sum(lam)
    denom = 1
    for row in hooks(lam):
        for h in row:
            denom *= h
    value, rem = divmod(factorial(n), denom)
    assert rem == 0
    return value


def dim_glN(lam, n):
    """Dimension of the simple polynomial gl_N module:
    prod (N + j - i)/hook(i, j); zero when depth(lambda) > N."""
    lam = check_partition(lam)
    if len(lam) > n:
        return 0
    value = Fraction(1)
    for i, row in enumerate(hooks(lam)):
        for j, h in enumerate(row):
            value *= Fraction(n + j - i, h)
    assert value.denominator == 1
    return int(value)


def _dim_glN(lam, n):
    """The contents' product over the hooks' product, as two ints and one
    exact division: row i contributes N - i, ..., N - i + lambda_i - 1,
    all positive once depth(lambda) <= N."""
    if len(lam) > n:
        return 0
    contents = prod(prod(range(n - i, n - i + p)) for i, p in enumerate(lam))
    value, rem = divmod(contents, prod(map(prod, _hooks(lam))))
    if rem:
        raise AssertionError(f"dim_glN({lam}, {n}) leaves a remainder")
    return value


def count_hook_tableaux(lam, m_plus, m_minus):
    """k(lambda): the number of semistandard (M+, M-)-tableaux of shape
    lambda.  The cells holding letters <= t form a partition, each unprimed
    letter adds a horizontal strip and each primed letter a vertical strip,
    so k(lambda) counts the strip chains from () to lambda; the counts are
    read from the exhaustive transfer table of all shapes of that size,
    which holds no shape outside the hook."""
    lam = check_partition(lam)
    return _strip_table(sum(lam), m_plus, m_minus).get(lam, 0)


@lru_cache(maxsize=None)
def _strip_table(size, m_plus, m_minus):
    """Shape -> number of strip chains, for every shape of `size` cells
    reached by the m_plus unprimed and m_minus primed letters; the last
    letter's strip fills the shape to `size` cells."""
    letters = (False,) * m_plus + (True,) * m_minus
    counts = {(): 1}
    for t, vertical in enumerate(letters, 1):
        step = {}
        for shape, count in counts.items():
            for new in _grow_strip(shape, vertical, size - sum(shape),
                                   t == len(letters)):
                step[new] = step.get(new, 0) + count
        counts = step
    return {shape: count for shape, count in counts.items()
            if sum(shape) == size}


def _grow_strip(shape, vertical, budget, fill):
    """Every partition shape + strip with at most `budget` more cells,
    exactly `budget` when fill.  A vertical strip adds at most one cell per
    row: it lengthens the top t rows of each run of equal rows by one, and
    adds rows of length 1 below.  A horizontal strip adds at most one cell
    per column: it lengthens the top row of each run up to the part above
    it (the first without bound), and adds one row, no longer than the
    last, below.  The choices are made run by run, so a strip costs no
    call per row."""
    grown, above = [((), budget)], None  # (new rows so far, cells left)
    for p, run in groupby(shape):
        m = len(tuple(run))
        limit = m if vertical else budget if above is None else above - p
        grown = [(done + ((p + 1,) * c + (p,) * (m - c) if vertical
                          else (p + c,) + (p,) * (m - 1)), left - c)
                 for done, left in grown for c in range(min(limit, left) + 1)]
        above = p
    last = shape[-1] if shape and not vertical else budget
    return [done + ((1,) * c if vertical else (c,) if c else ())
            for done, left in grown
            for c in ((left,) if fill else range(left + 1)) if c <= last]
