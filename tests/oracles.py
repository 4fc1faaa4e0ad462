"""Reference oracles for the tests, moved out of the package unchanged.

The package applies the Young symmetriser C_lambda = B_lambda A_lambda to
a word by block sums (tensor.young_symmetrize) and reads omega from the
integer pairs of GradedSpace._omega_pairs.  The versions here are the
direct ones: C_lambda as an element of the group algebra C[S_r], built
from the row and column groups of the canonical tableau and applied
through SymGroupElement; the total symmetrisers; the pairing of V* with V;
and the split of an operator into its homogeneous parts.
"""

import itertools
from fractions import Fraction

from colourgl.gl import GlElement
from colourgl.partitions import check_partition
from colourgl.scalars import ONE, ZERO
from colourgl.tensor import SymGroupElement, _rows_and_columns


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def total_symmetrizers(r):
    """(Sigma+(r), Sigma-(r)) = (sum (-1)^|s| s, sum s): the skew and total
    symmetrisers.  Sigma+ kills words with a repeated even letter and
    Sigma- kills words with a repeated odd letter."""
    plus, minus = {}, {}
    for perm in itertools.permutations(range(r)):
        sign = perm_sign(perm)
        plus[perm] = ONE if sign == 1 else -ONE
        minus[perm] = ONE
    return SymGroupElement(r, plus), SymGroupElement(r, minus)


def _block_group(blocks, r):
    """All permutations preserving each block of positions setwise."""
    perms = []
    for images in itertools.product(
            *(itertools.permutations(b) for b in blocks)):
        perm = list(range(r))
        for block, image in zip(blocks, images):
            for src, dst in zip(block, image):
                perm[src] = dst
        perms.append(tuple(perm))
    return perms


def young_symmetrizer(lam):
    """C_lambda = B_lambda A_lambda in the group algebra, for the canonical
    tableau: A the row sum over P_lambda, B the signed column sum over
    Q_lambda."""
    lam = check_partition(lam)
    r = sum(lam)
    row_group, col_group = _row_column_groups(lam)
    a_elt = SymGroupElement(r, {p: ONE for p in row_group})
    b_elt = SymGroupElement(
        r, {p: ONE if perm_sign(p) == 1 else -ONE for p in col_group})
    return b_elt * a_elt


def row_column_groups(lam):
    """(P_lambda, Q_lambda) as lists of permutation tuples."""
    return _row_column_groups(check_partition(lam))


def _row_column_groups(lam):
    rows, cols = _rows_and_columns(lam)
    return _block_group(rows, sum(lam)), _block_group(cols, sum(lam))


def dual_pairing(wbar, v):
    """<wbar, v> for v a rank-1 tensor vector (power 1)."""
    total = ZERO
    for (a,), coef in v.terms.items():
        c = wbar.get(a)
        if c:
            total = total + c * coef
    return total


def dual_weight_vector(space, a):
    """The weight of ebar_a, namely -eps_a."""
    return tuple(-Fraction(int(i == a)) for i in range(space.dim))


def homogeneous_parts(x):
    """The homogeneous decomposition {degree: part}, X = sum of its
    parts with every E_ab of a part of degree g_a - g_b.  The library
    walks X by matrix units and reads omega from integer pairs instead;
    the tests split X with this as an omega oracle."""
    parts = {}
    for (a, b), coef in x.terms.items():
        d = x.space.degrees[a] - x.space.degrees[b]
        parts.setdefault(d, {})[(a, b)] = coef
    return {d: GlElement(x.space, t) for d, t in parts.items()}
