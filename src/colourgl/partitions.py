"""Partitions, hook partitions and tableau counts.

Partitions are tuples of weakly decreasing positive integers.  k(lambda)
counts semistandard (M+, M-)-tableaux in the Berele-Regev convention:
letters 1 < ... < M+ < 1' < ... < M-', rows and columns weakly increasing,
unprimed letters strictly increasing down columns, primed letters strictly
increasing along rows.  The convention is pinned by the dimension identity
sum_lambda k(lambda) f^lambda = (M+ + M-)^r, which the tests enforce.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


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


def hook_partitions(m_plus, m_minus, depth_bound, size):
    """All lambda of the given size in P_{M+|M-} with depth <= depth_bound,
    in the order of partitions_of.  They are the shapes of the strip table
    of that size, which holds every hook shape and no other."""
    return [lam for lam in sorted(_strip_table(size, m_plus, m_minus),
                                  reverse=True)
            if len(lam) <= depth_bound]


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
    reached by the m_plus unprimed and m_minus primed letters."""
    counts = {(): 1}
    for vertical in (False,) * m_plus + (True,) * m_minus:
        step = {}
        for shape, count in counts.items():
            grown = []
            _grow_strip(shape, vertical, 0, (), size - sum(shape), grown)
            for new in grown:
                step[new] = step.get(new, 0) + count
        counts = step
    return {shape: count for shape, count in counts.items()
            if sum(shape) == size}


def _grow_strip(shape, vertical, i, rows, budget, out):
    """Append to out every partition shape + strip with at most `budget`
    more cells: a horizontal strip adds at most one cell per column, a
    vertical strip at most one per row.  rows holds the new rows < i."""
    old = shape[i] if i < len(shape) else 0
    if vertical:
        top = old + 1 if not i or rows[-1] > old else old
    elif i:
        top = shape[i - 1] if i <= len(shape) else 0
    else:
        top = old + budget
    for new in range(old, min(top, old + budget) + 1):
        left = budget - new + old
        if not new:
            out.append(rows)
        elif left:
            _grow_strip(shape, vertical, i + 1, rows + (new,), left, out)
        else:
            out.append(rows + (new,) + shape[i + 1:])
