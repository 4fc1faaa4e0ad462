"""Partitions, hook partitions and tableau counts.

Partitions are tuples of weakly decreasing positive integers.  k(lambda)
counts semistandard (M+, M-)-tableaux in the Berele-Regev convention:
letters 1 < ... < M+ < 1' < ... < M-', rows and columns weakly increasing,
unprimed letters strictly increasing down columns, primed letters strictly
increasing along rows.  The convention is pinned by the dimension identity
sum_lambda k(lambda) f^lambda = (M+ + M-)^r, which the tests enforce.

Each public function checks its shape once, by check_partition (and
hook membership once, by _hook_shape), and runs a private kernel on the
canonical tuple: _transpose, _in_hook, _sharp, _hooks, _count_standard,
_dim_glN and _count_hook.  Kernels check nothing and call only kernels.
A caller that already holds canonical shapes, as the shapes of
hook_partitions are, calls the kernels.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, prod


def is_partition(parts):
    parts = tuple(parts)
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts):
    """The canonical tuple of a partition given as ints, trailing zeros
    dropped; any other input, an interior zero or a part that is not an
    int included, is a ValueError."""
    parts = tuple(parts)
    if not all(isinstance(p, int) for p in parts):
        raise ValueError(f"{parts} is not a partition")
    end = len(parts)
    while end and not parts[end - 1]:
        end -= 1
    lam = tuple(map(int, parts[:end]))
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    return lam


def transpose(lam):
    return _transpose(check_partition(lam))


def _transpose(lam):
    """Column j holds the rows longer than j; the rows are read bottom up
    once, so a tall shape costs its rows plus its columns."""
    cols, depth = [], len(lam)
    for j in range(lam[0] if lam else 0):
        while lam[depth - 1] <= j:
            depth -= 1
        cols.append(depth)
    return tuple(cols)


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
    return _in_hook(check_partition(lam), m_plus, m_minus)


def _in_hook(lam, m_plus, m_minus):
    return len(lam) <= m_plus or lam[m_plus] <= m_minus


def hook_partitions(m_plus, m_minus, depth_bound, size):
    """All lambda of the given size in P_{M+|M-} with depth <= depth_bound,
    in the order of partitions_of.  They are the shapes of the strip table
    of that size, which holds every hook shape and no other."""
    return [lam for lam in sorted(_strip_table(size, m_plus, m_minus),
                                  reverse=True)
            if len(lam) <= depth_bound]


def _hook_shape(lam, m_plus, m_minus):
    """The canonical tuple of a partition in P_{M+|M-}; a ValueError for
    any other input."""
    lam = check_partition(lam)
    if not _in_hook(lam, m_plus, m_minus):
        raise ValueError(f"{lam} is not in the {m_plus}|{m_minus} hook class")
    return lam


def lambda_sharp(lam, m_plus, m_minus):
    """The highest weight (lambda_1..lambda_{M+}, theta(lambda'_j - M+))
    attached to a hook partition."""
    return _sharp(_hook_shape(lam, m_plus, m_minus), m_plus, m_minus)


def _sharp(lam, m_plus, m_minus):
    """The first M+ rows, then the first M- column lengths of the rows
    below them: those rows lie in the hook's M- columns, so only they are
    transposed, and a long first row costs nothing."""
    plus = lam[:m_plus]
    minus = _transpose(lam[m_plus:])[:m_minus]
    return (plus + (0,) * (m_plus - len(plus))
            + minus + (0,) * (m_minus - len(minus)))


def hooks(lam):
    return _hooks(check_partition(lam))


def _hooks(lam):
    lamt = _transpose(lam)
    return [[lam[i] - j + lamt[j] - i - 1 for j in range(lam[i])]
            for i in range(len(lam))]


def count_standard_tableaux(lam):
    """f^lambda by the hook length formula."""
    return _count_standard(check_partition(lam))


def _count_standard(lam):
    value, rem = divmod(factorial(sum(lam)), prod(map(prod, _hooks(lam))))
    assert rem == 0
    return value


def dim_glN(lam, n):
    """Dimension of the simple polynomial gl_N module:
    prod (N + j - i)/hook(i, j); zero when depth(lambda) > N."""
    return _dim_glN(check_partition(lam), n)


def _dim_glN(lam, n):
    """The contents' product over the hooks' product, as two ints and one
    exact division: row i contributes N - i, ..., N - i + lambda_i - 1,
    all positive once depth(lambda) <= N."""
    if len(lam) > n:
        return 0
    contents = prod(prod(range(n - i, n - i + p)) for i, p in enumerate(lam))
    value, rem = divmod(contents, prod(map(prod, _hooks(lam))))
    assert rem == 0
    return value


def count_hook_tableaux(lam, m_plus, m_minus):
    """k(lambda): the number of semistandard (M+, M-)-tableaux of shape
    lambda.  The cells holding letters <= t form a partition, each unprimed
    letter adds a horizontal strip and each primed letter a vertical strip,
    so k(lambda) counts the strip chains from () to lambda; the counts are
    read from the exhaustive transfer table of all shapes of that size,
    which holds no shape outside the hook."""
    return _count_hook(check_partition(lam), m_plus, m_minus)


def _count_hook(lam, m_plus, m_minus):
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
