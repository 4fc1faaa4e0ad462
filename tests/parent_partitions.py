"""The partition functions as they were before each public function
became one check_partition plus a private kernel, kept verbatim as oracles
for tests/test_partition_kernels.py.

Each of them converted and checked its shape, and they called one another,
so a shape was checked again at every call; dim_glN multiplied one
Fraction per box.  is_partition and check_partition are here as they were
too: check_partition truncated non-int parts and dropped every zero.
The strip table is unchanged and imported from the package.
"""

from fractions import Fraction
from math import factorial

from colourgl.partitions import _strip_table


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
