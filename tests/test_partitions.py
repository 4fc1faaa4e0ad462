import time
from fractions import Fraction
from math import factorial

import pytest

from colourgl.partitions import (_count_hook, _count_standard, _series,
                                 check_partition, count_hook_tableaux,
                                 count_standard_tableaux, dim_glN,
                                 dim_glN_floor_bits, hooks, hook_partitions,
                                 in_hook, lambda_sharp, partitions_of,
                                 transpose)


def leaf_by_leaf_hook_tableaux(lam, m_plus, m_minus):
    """Independent k(lambda): fill the tableau cell by cell, row by row,
    and count every completed filling."""
    letters = m_plus + m_minus  # x <= m_plus unprimed, x > m_plus primed

    def fill_row(i, prev_row, row, j):
        if i == len(lam):
            return 1
        if j == lam[i]:
            return fill_row(i + 1, row, [], 0)
        above = prev_row[j] if prev_row is not None else 0
        left = row[j - 1] if j > 0 else 0
        count = 0
        for x in range(max(above, left, 1), letters + 1):
            if x == left and x > m_plus:
                continue  # primed letters strict along rows
            if x == above and above <= m_plus:
                continue  # unprimed letters strict down columns
            count += fill_row(i, prev_row, row + [x], j + 1)
        return count

    return fill_row(0, None, [], 0)


def brute_force_standard_tableaux(lam):
    """Independent SYT count: place 1..n one at a time."""
    if not lam:
        return 1
    rows = len(lam)

    def extend(filled):
        total = sum(len(r) for r in filled)
        if total == sum(lam):
            return 1
        count = 0
        for i in range(rows):
            j = len(filled[i])
            if j >= lam[i]:
                continue
            if i > 0 and len(filled[i - 1]) <= j:
                continue
            filled[i].append(total + 1)
            count += extend(filled)
            filled[i].pop()
        return count

    return extend([[] for _ in range(rows)])


def brute_force_ssyt(lam, n):
    """Independent SSYT count with letters 1..n (classical gl_n weights)."""
    if not lam:
        return 1

    def fill(i, j, rows):
        if i == len(lam):
            return 1
        if j == lam[i]:
            return fill(i + 1, 0, rows)
        lo = rows[i][j - 1] if j else 1
        if i and rows[i - 1][j] + 1 > lo:
            lo = rows[i - 1][j] + 1
        total = 0
        for x in range(lo, n + 1):
            rows[i].append(x)
            total += fill(i, j + 1, rows)
            rows[i].pop()
        return total

    return fill(0, 0, [[] for _ in lam])


def test_transpose():
    assert transpose((4, 3, 1)) == (3, 2, 2, 1)
    for lam in partitions_of(6):
        assert transpose(transpose(lam)) == lam


def test_partitions_of():
    assert list(partitions_of(0)) == [()]
    assert len(list(partitions_of(4))) == 5
    assert len(list(partitions_of(6))) == 11


def test_standard_tableaux_against_brute_force():
    assert count_standard_tableaux((2, 1)) == 2
    assert count_standard_tableaux((5,)) == 1
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert count_standard_tableaux(lam) == \
                brute_force_standard_tableaux(lam)


def test_specht_dimension_identity():
    # sum of squares over Sym_4 equals 4!, each side counted independently
    total = sum(brute_force_standard_tableaux(lam) ** 2
                for lam in partitions_of(4))
    assert total == factorial(4) == 24
    assert sum(count_standard_tableaux(lam) ** 2
               for lam in partitions_of(4)) == 24


def test_dim_glN_floor_bits_bounds_every_shape_of_the_size():
    for size in range(10):
        for n in [*range(size + 16), 10 ** 6, 2 ** 40 + 3, 10 ** 50]:
            bits = dim_glN_floor_bits(size, n)
            assert bits >= 0
            for lam in partitions_of(size):
                assert dim_glN(lam, n) >= 2 ** bits or len(lam) > n
    # it is a bound of use where n is far above the size
    assert dim_glN_floor_bits(8, 10 ** 50) > 8 * 150
    assert dim_glN_floor_bits(300, 10 ** 4000) > 10 ** 6


def test_dim_glN_examples_and_oracle():
    assert dim_glN((1,), 3) == 3
    assert dim_glN((2,), 2) == 3
    assert dim_glN((1, 1), 2) == 1
    assert dim_glN((1, 1, 1), 2) == 0
    for n in (1, 2, 3):
        for size in range(1, 5):
            for lam in partitions_of(size):
                assert dim_glN(lam, n) == brute_force_ssyt(lam, n)


def test_hook_membership():
    assert in_hook((4, 4, 1), 2, 1)
    assert not in_hook((4, 4, 2), 2, 1)
    assert in_hook((3,), 1, 0)
    assert not in_hook((1, 1), 1, 0)


def test_hook_tableaux_examples():
    assert count_hook_tableaux((2,), 1, 1) == 2
    assert count_hook_tableaux((1, 1, 1), 1, 0) == 0
    for d in range(1, 5):
        assert count_hook_tableaux((1,), max(d - 1, 1),
                                   d - max(d - 1, 1)) == d
    # reduces to classical SSYT when there are no primed letters
    for m in (1, 2, 3):
        for size in range(1, 5):
            for lam in partitions_of(size):
                assert count_hook_tableaux(lam, m, 0) == dim_glN(lam, m)


def test_hook_tableaux_against_leaf_by_leaf_oracle():
    for size in range(9):
        for lam in partitions_of(size):
            for m_plus in range(4):
                for m_minus in range(4):
                    assert count_hook_tableaux(lam, m_plus, m_minus) == \
                        leaf_by_leaf_hook_tableaux(lam, m_plus, m_minus), \
                        (lam, m_plus, m_minus)


def test_hook_tableaux_conjugation_symmetry():
    # swapping the roles of unprimed and primed letters transposes the shape
    for size in range(11):
        for lam in partitions_of(size):
            for m_plus in range(4):
                for m_minus in range(4):
                    assert count_hook_tableaux(lam, m_plus, m_minus) == \
                        count_hook_tableaux(transpose(lam), m_minus, m_plus)


def test_hook_tableaux_edge_cases():
    for m_plus, m_minus in [(0, 0), (1, 0), (0, 1), (3, 3)]:
        assert count_hook_tableaux((), m_plus, m_minus) == 1
    assert count_hook_tableaux((1,), 0, 0) == 0
    assert count_hook_tableaux((3, 3, 3), 1, 1) == 0  # outside the hook
    for bad in [(1, 2), (2, -1)]:
        with pytest.raises(ValueError):
            count_hook_tableaux(bad, 2, 2)


def test_dimension_identity_pins_the_convention():
    # sum_lambda k(lambda) f^lambda = (M+ + M-)^r: the arbiter for the
    # tableau convention
    for m_plus, m_minus in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
                            (4, 0), (0, 4), (3, 0), (2, 0)]:
        d = m_plus + m_minus
        for r in range(1, 6):
            total = sum(count_hook_tableaux(lam, m_plus, m_minus)
                        * count_standard_tableaux(lam)
                        for lam in partitions_of(r))
            assert total == d ** r, (m_plus, m_minus, r)


@pytest.mark.parametrize("m_plus, m_minus, r", [(2, 2, 30), (1, 3, 40)])
def test_dimension_identity_on_long_words(m_plus, m_minus, r):
    # every hook shape of 30 or 40 cells, tall ones included
    total = sum(_count_hook(lam, m_plus, m_minus) * _count_standard(lam)
                for lam in hook_partitions(m_plus, m_minus, r, r))
    assert total == (m_plus + m_minus) ** r


def test_a_shape_of_360_cells_counts_at_once():
    # three rows of 60 over sixty rows of 3 in the 3|3 hook; the
    # Jacobi-Trudi determinant of size 63 gives 512 too
    _count_hook.cache_clear()
    _series.cache_clear()
    start = time.perf_counter()
    assert count_hook_tableaux((60,) * 3 + (3,) * 60, 3, 3) == 512
    assert time.perf_counter() - start < 0.1


def skew_diagram_sharp(lam, m_plus, m_minus):
    """Independent route: lambda+ is the first M+ rows and lambda- is the
    transpose of the skew remainder lambda/lambda+."""
    plus = tuple(lam[i] if i < len(lam) else 0 for i in range(m_plus))
    skew = lam[m_plus:]
    minus = tuple(sum(1 for part in skew if part >= j)
                  for j in range(1, (skew[0] if skew else 0) + 1))
    minus = minus + (0,) * (m_minus - len(minus))
    return plus + minus[:m_minus]


def test_lambda_sharp():
    assert lambda_sharp((2, 1, 1), 1, 1) == (2, 2)
    assert lambda_sharp((3,), 2, 1) == (3, 0, 0)
    assert lambda_sharp((4, 3, 1), 2, 2) == (4, 3, 1, 0)
    # the theta formula agrees with the skew-diagram description
    for m_plus, m_minus in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for size in range(1, 7):
            for lam in partitions_of(size):
                if in_hook(lam, m_plus, m_minus):
                    assert lambda_sharp(lam, m_plus, m_minus) == \
                        skew_diagram_sharp(lam, m_plus, m_minus), lam
    with pytest.raises(ValueError):
        lambda_sharp((2, 2, 2), 1, 1)
    # both halves of lambda# are weakly decreasing
    for size in range(1, 6):
        for lam in partitions_of(size):
            if not in_hook(lam, 2, 2):
                continue
            sharp = lambda_sharp(lam, 2, 2)
            assert sharp[0] >= sharp[1] and sharp[2] >= sharp[3]


def test_hook_partitions_list():
    assert hook_partitions(1, 1, 1, 2) == [(2,)]
    assert hook_partitions(2, 2, 4, 0) == [()]
    assert hook_partitions(2, 0, 3, 3) == [(3,), (2, 1)]


def test_hook_partitions_match_the_filter():
    # the generated shapes are partitions_of filtered by the hook and depth
    for size in range(13):
        for m_plus in range(4):
            for m_minus in range(4):
                for depth in {0, 1, 2, 3, size}:
                    assert hook_partitions(m_plus, m_minus, depth, size) == \
                        [lam for lam in partitions_of(size)
                         if in_hook(lam, m_plus, m_minus)
                         and len(lam) <= depth], (size, m_plus, m_minus)


PUBLIC_CALLS = [check_partition, transpose, hooks, count_standard_tableaux,
                lambda lam: in_hook(lam, 2, 1),
                lambda lam: lambda_sharp(lam, 2, 1),
                lambda lam: dim_glN(lam, 3),
                lambda lam: count_hook_tableaux(lam, 2, 1)]


@pytest.mark.parametrize("bad", [
    (1, 2), (2, -1), (0, 1), (2.5, 1), (Fraction(5, 2), 1), (2, 1.0),
    ("2", "1"), (3, 0, 1), (2, 1, 0.0)])
def test_every_public_function_refuses_a_non_partition(bad):
    # a non-int part is refused, not truncated, and only trailing zeros
    # are dropped, so no input is answered for another shape
    for call in PUBLIC_CALLS:
        with pytest.raises(ValueError, match="is not a partition"):
            call(bad)


def test_trailing_zeros_are_dropped():
    assert check_partition((3, 1, 0, 0)) == (3, 1)
    assert check_partition([2, 2]) == (2, 2)
    assert check_partition((0, 0)) == check_partition(()) == ()
    assert dim_glN((2, 1, 0), 3) == dim_glN((2, 1), 3) == 8
