"""Partitions, hook partitions and tableau counts.

Partitions are tuples of weakly decreasing positive integers.  k(lambda)
counts semistandard (M+, M-)-tableaux in the Berele-Regev convention:
letters 1 < ... < M+ < 1' < ... < M-', rows and columns weakly increasing,
unprimed letters strictly increasing down columns, primed letters strictly
increasing along rows.  The convention is pinned by the dimension identity
sum_lambda k(lambda) f^lambda = (M+ + M-)^r, which the tests enforce.

k(lambda) is the hook Schur function hs_lambda(1^M+ / 1^M-) (Berele and
Regev, Adv. Math. 64, 1987).  _count_hook takes it by Giambelli's formula
(Macdonald, Symmetric Functions and Hall Polynomials, I.3), a determinant
over the Durfee square of lambda, whose entries are hook shapes read off
the series _series of dim S^n of the M+|M- and M-|M+ spaces; the Howe
sweeps of weyl count dim S^n by the same series.  A shape in the hook has
a Durfee square of side at most max(M+, M-), so the determinant, taken
by Bareiss elimination in _det, stays small however long the arm or leg.

k(lambda) is the one tableau count, for gl(V) and gl_N alike.  gl_N is
gl(C^N), C^N the space of N even and no odd basis vectors, whose
tableaux are the semistandard ones, so

    dim L_lambda(gl_N) = k_{N|0}(lambda) = _count_hook(lambda, N, 0),

which vanishes on a shape deeper than N.  hook_partitions lists the
shapes of one size directly, without recursion; partitions_of is its
case M+ = 0.  hook_table is the one builder of the hook table, a row of
(lambda, lambda#, k, f and dim_glN) per shape: the Schur-Weyl table of
tensor and the CLI's tableaux report both read it.  dim_glN_floor_bits
bounds every dim_glN of one size from below by bit lengths, so that a
count too long to print is refused unbuilt.

Each public function checks its shape once, by check_partition (and
hook membership once, by _hook_shape, or _check_hook on a checked
shape), and runs a private kernel on the canonical tuple: _transpose,
_in_hook, _sharp, _hooks, _count_standard and _count_hook.
Kernels check nothing and call only kernels.  A caller that already
holds canonical shapes, as the shapes of hook_partitions are, calls the
kernels.
"""

from functools import lru_cache
from itertools import combinations
from math import factorial, prod

# the hook counts and dimension series kept by _count_hook and _series, the
# least recently used dropped first: a round of the hook benchmark counts
# about 300 to 500 keys, the gl_N ones (lambda, N, 0) included, over about
# 45 series.  Keys are typed, so that a float count (3.0) never answers
# for the int one, whose values must stay ints.
COUNT_HOOK_KEPT = 1024
SERIES_KEPT = 128


def check_partition(parts):
    """The canonical tuple of a partition given as ints, trailing zeros
    dropped; any other input, an interior zero or a part that is not an
    int included, is a ValueError.  Each part is checked once: its type,
    then its order against the next part.  With the trailing zeros
    dropped, a weakly decreasing tuple is positive when its last part is
    not negative."""
    parts = tuple(parts)
    if not all(isinstance(p, int) for p in parts):
        raise ValueError(f"{parts} is not a partition")
    end = len(parts)
    while end and not parts[end - 1]:
        end -= 1
    lam = tuple(map(int, parts[:end]))
    if lam and lam[-1] < 0 or any(x < y for x, y in zip(lam, lam[1:])):
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
    yield from hook_partitions(0, n if max_part is None else max_part, n, n)


def in_hook(lam, m_plus, m_minus):
    """Membership in P_{M+|M-}: lambda_{M+ + 1} <= M-."""
    return _in_hook(check_partition(lam), m_plus, m_minus)


def _in_hook(lam, m_plus, m_minus):
    return len(lam) <= m_plus or lam[m_plus] <= m_minus


def hook_partitions(m_plus, m_minus, depth_bound, size):
    """All lambda of the given size in P_{M+|M-} with depth <= depth_bound,
    lexicographically decreasing, as partitions_of lists them.  A shape is
    filled greedily, each row as long as the row above, M- from row M+ on,
    and the cells left allow; the next shape cuts the last part that can
    shrink by one and fills again.  A part may shrink only if the rows
    below can still hold the cells left, so no prefix is a dead end and
    nothing recurses."""
    def room(i, last):  # the most cells rows i.. hold below a part `last`
        return (max(min(depth_bound, m_plus) - i, 0) * last
                + max(depth_bound - max(i, m_plus), 0) * min(last, m_minus))

    if size < 0 or depth_bound < 0 or size > room(0, size):
        return []
    shapes, lam, left = [], [], size
    while True:
        while left:
            lam.append(min(left, lam[-1] if lam else size,
                           m_minus if len(lam) >= m_plus else size))
            left -= lam[-1]
        shapes.append(tuple(lam))
        while lam and (lam[-1] == 1 or left >= room(len(lam), lam[-1] - 1)):
            left += lam.pop()
        if not lam:
            return shapes
        lam[-1], left = lam[-1] - 1, left + 1


def hook_table(m_plus, m_minus, size, copies=0):
    """Yield one row per lambda of the given size in P_{M+|M-}, in the
    order of hook_partitions: the partition, lambda#, k(lambda), f^lambda
    and, when copies > 0, the dimension of the gl_copies module of lambda.
    The shapes are canonical, so each row is the kernels' alone.  Rows
    come one at a time, so a reader that refuses a row, as the CLI refuses
    a number too long to print, computes none after it."""
    for lam in hook_partitions(m_plus, m_minus, size, size):
        row = {"partition": lam, "sharp": _sharp(lam, m_plus, m_minus),
               "k": _count_hook(lam, m_plus, m_minus),
               "f": _count_standard(lam)}
        if copies > 0:  # no shape deeper than N has a gl_N module
            row["dim_glN"] = 0 if len(lam) > copies else _count_hook(
                lam, copies, 0)
        yield row


def _hook_shape(lam, m_plus, m_minus):
    """The canonical tuple of a partition in P_{M+|M-}; a ValueError for
    any other input."""
    return _check_hook(check_partition(lam), m_plus, m_minus)


def _check_hook(lam, m_plus, m_minus):
    """The canonical partition lam, if it is in P_{M+|M-}; else a
    ValueError."""
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
    """f^lambda by Frobenius's formula or the hook length formula."""
    return _count_standard(check_partition(lam))


def _count_standard(lam):
    """n! over a denominator, by the cheaper of two formulas.  Frobenius's,
    n! prod_{i<j} (l_i - l_j) / prod_i l_i! over the r rows of the shorter
    of lambda and lambda' (f^lambda = f^lambda'), l_i = lambda_i + r - 1 -
    i, makes r(r - 1)/2 products and r factorials, so a long row costs one
    factorial; the hook length formula makes n products, fewer for a shape
    with many rows and many columns."""
    n = sum(lam)
    rows = _transpose(lam) if lam and lam[0] < len(lam) else lam
    r = len(rows)
    if r * (r - 1) // 2 < n:
        ls = [p + r - 1 - i for i, p in enumerate(rows)]
        num = factorial(n) * prod(a - b for a, b in combinations(ls, 2))
        den = prod(map(factorial, ls))
    else:
        num, den = factorial(n), prod(map(prod, _hooks(lam)))
    value, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"the formula for f^{lam} leaves a remainder")
    return value


def dim_glN(lam, n):
    """Dimension of the simple polynomial gl_N module: k(lambda) of the
    N|0 space; zero when depth(lambda) > N, for every N < 0 too."""
    lam = check_partition(lam)
    return 0 if len(lam) > n else _count_hook(lam, n, 0)


def dim_glN_floor_bits(size, n):
    """A b with dim_glN(lambda, n) >= 2**b for every lambda of the size,
    from bit lengths alone, with no product: once n >= size each content
    n + j - i is at least n - size + 1, and the hooks' product is at most
    size! < 2**(size * bitlen(size)).  0 when n < size."""
    if n < size:
        return 0
    return max(size * ((n - size + 1).bit_length() - 1 - size.bit_length()),
               0)


def count_hook_tableaux(lam, m_plus, m_minus):
    """k(lambda): the number of semistandard (M+, M-)-tableaux of shape
    lambda.  It is the hook Schur function hs_lambda(1^M+ / 1^M-)
    (Berele and Regev 1987), which vanishes off the hook, so every shape
    has a count and a shape outside P_{M+|M-} counts 0."""
    return _count_hook(check_partition(lam), m_plus, m_minus)


@lru_cache(maxsize=COUNT_HOOK_KEPT, typed=True)
def _count_hook(lam, m_plus, m_minus):
    """Giambelli's determinant det[hs_(a_i + 1, 1^b_k)] over the Durfee
    square of lambda, a_i = lambda_i - i - 1 and b_k = lambda'_k - k - 1
    (0-based).  A hook value is sum_j (-1)^j h_(a+1+j) e_(b-j), where h_n
    is dim S^n of the M+|M- space and e_n that of the M-|M+ space; every
    index is at most |lambda|, and the series run to the next power of two
    above it, which shapes of nearby sizes share."""
    n = 1 << sum(lam).bit_length()
    h, e = _series(m_plus, m_minus, n), _series(m_minus, m_plus, n)
    arms = [p - i - 1 for i, p in enumerate(lam) if p > i]
    legs = [c - k - 1 for k, c in enumerate(_transpose(lam)[:len(arms)])]
    return _det([[sum((-1) ** j * h[a + 1 + j] * e[b - j]
                      for j in range(b + 1)) for b in legs] for a in arms])


@lru_cache(maxsize=SERIES_KEPT, typed=True)
def _series(even, odd, n):
    """(dim S^k for k <= n) of a space with `even` even and `odd` odd basis
    vectors: the coefficients c_k of F = prod_even (1 - t)^-1 prod_odd
    (1 + t).  As (1 - t^2) F' = ((even + odd) + (even - odd) t) F,
    (k + 1) c_(k+1) = (even + odd) c_k + (even - odd + k - 1) c_(k-1),
    whatever the number of basis vectors."""
    coeffs = [1, even + odd]
    for k in range(1, n):
        coeffs.append(((even + odd) * coeffs[k]
                       + (even - odd + k - 1) * coeffs[k - 1]) // (k + 1))
    return tuple(coeffs[:n + 1])


def _det(rows):
    """The determinant of a square integer matrix by Bareiss's
    fraction-free elimination, each division by the last pivot exact.  A
    zero pivot is swapped with a lower row, changing the sign; a column
    with none gives 0."""
    m, sign, last = [list(row) for row in rows], 1, 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        m[k], m[p], sign = m[p], m[k], sign if p == k else -sign
        for i in range(k + 1, len(m)):
            m[i] = [(x * m[k][k] - m[i][k] * y) // last
                    for x, y in zip(m[i], m[k])]
        last = m[k][k]
    return sign * last
