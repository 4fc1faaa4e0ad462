"""Braided symmetric group action and gl(V)-action on tensor powers.

Basis words of V^(tensor r) are tuples of flat indices.  The adjacent
transposition s_i acts by swapping slots i, i+1 with the braiding factor
omega(d(v_i), d(v_{i+1})).  A general permutation sends a basis word to one
word times the product of omega(d(v_i), d(v_j)) over its inversions i < j.
That product is the one every reduced word of the permutation multiplies
out to: omega is a commutative factor, so the sigma_i satisfy the Coxeter
relations exactly and the action is well defined.  These products and the
coproduct factors of the gl(V)-action are sums of omega pairs (s, e).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .gl import (GlElement, LinearCombination, SpaceMismatch, _add_into,
                 basis_weight)
from .grading import omega_scalar
from .partitions import (check_partition, count_hook_tableaux,
                         count_standard_tableaux, hook_partitions, in_hook,
                         lambda_sharp)
from .scalars import ONE, ZERO


class TensorVector(LinearCombination):
    """A Scalar-linear combination of basis words of V^(tensor r)."""

    __slots__ = ("space", "power")

    def __init__(self, space, power, terms=None):
        self.space = space
        self.power = power
        super().__init__(terms)

    def _shape(self):
        return (self.space, self.power)

    @classmethod
    def basis_word(cls, space, word, coef=ONE):
        word = tuple(word)
        if any(not 0 <= a < space.dim for a in word):
            raise IndexError("word letter out of range")
        return cls(space, len(word), {word: coef})

    def weight(self):
        """The h*-weight if all words share one, else None."""
        wt = None
        for word in self.terms:
            w = word_weight(self.space, word)
            if wt is None:
                wt = w
            elif wt != w:
                return None
        return wt

    def __repr__(self):
        if not self.terms:
            return "TensorVector(0)"
        body = " + ".join(f"({c})*b{list(w)}"
                          for w, c in sorted(self.terms.items()))
        return f"TensorVector({body})"


def word_weight(space, word):
    coords = [0] * space.dim
    for a in word:
        coords[a] += 1
    return tuple(Fraction(c) for c in coords)


def braiding_apply(i, v):
    """sigma_i on V^(tensor r): swap slots i, i+1 (0-based) with the
    braiding factor omega(d(v_i), d(v_{i+1}))."""
    if not 0 <= i < v.power - 1:
        raise IndexError(f"sigma_{i} undefined on {v.power} tensor factors")
    space = v.space
    terms = {}
    for word, coef in v.terms.items():
        om = space.omega_flat(word[i], word[i + 1])
        swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
        _add_into(terms, swapped, om * coef)
    return TensorVector(space, v.power, terms)


def apply_permutation(perm, v):
    """nu_r(perm): the braided action of a permutation on a tensor vector.

    perm is a tuple with perm[i] the image of slot i: the letter in
    slot i moves to slot perm[i].  Each word picks up omega(d(w_i), d(w_j))
    over the inversions i < j, perm[i] > perm[j], summed as integer
    (sign, exponent) pairs into one factor (-1)^s q^e.  A word that is not
    r letters of range(dim V) raises ValueError."""
    r, dim = v.power, v.space.dim
    if sorted(perm) != list(range(r)):
        raise ValueError(f"{perm} is not a permutation of {r} slots")
    inversions = [(i, j) for i in range(r) for j in range(i + 1, r)
                  if perm[i] > perm[j]]
    pairs = v.space._omega_pairs
    terms = {}
    for word, coef in v.terms.items():
        if len(word) != r or (r and (min(word) < 0 or max(word) >= dim)):
            raise ValueError(f"{word} is not a word of {r} letters in "
                             f"range({dim})")
        out = [0] * r
        for i, a in enumerate(word):
            out[perm[i]] = a
        s = e = 0
        for i, j in inversions:
            si, ei = pairs[word[i]][word[j]]
            s ^= si
            e += ei
        _add_into(terms, tuple(out), omega_scalar(s, e, coef))
    return TensorVector(v.space, r, terms)


class SymGroupElement(LinearCombination):
    """A formal Scalar-linear combination of permutations of r slots."""

    __slots__ = ("power",)

    def __init__(self, power, terms=None):
        self.power = power
        super().__init__(terms)

    def _shape(self):
        return (self.power,)

    def __mul__(self, other):
        """Product in the group algebra: (p*q) acts as p after q."""
        self._check(other)
        terms = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                _add_into(terms, tuple(p[i] for i in q), cp * cq)
        return SymGroupElement(self.power, terms)

    def apply(self, v):
        if v.power != self.power:
            raise SpaceMismatch("group algebra element does not match power")
        terms = {}
        for perm, coef in self.terms.items():
            for word, c in apply_permutation(perm, v).terms.items():
                _add_into(terms, word, coef * c)
        return TensorVector(v.space, v.power, terms)

    def __repr__(self):
        return f"SymGroupElement({self.terms})"


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


def canonical_tableau(lam):
    """Rows of box positions 0..r-1, filled row by row."""
    rows, pos = [], 0
    for part in lam:
        rows.append(list(range(pos, pos + part)))
        pos += part
    return rows


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


def _row_column_sums(lam):
    """(A_lambda, B_lambda) for the canonical tableau: A the row sum over
    P_lambda, B the signed column sum over Q_lambda."""
    lam = check_partition(lam)
    r = sum(lam)
    row_group, col_group = row_column_groups(lam)
    a_elt = SymGroupElement(r, {p: ONE for p in row_group})
    b_elt = SymGroupElement(
        r, {p: ONE if perm_sign(p) == 1 else -ONE for p in col_group})
    return a_elt, b_elt


def young_symmetrizer(lam):
    """C_lambda = B_lambda A_lambda in the group algebra."""
    a_elt, b_elt = _row_column_sums(lam)
    return b_elt * a_elt


def row_column_groups(lam):
    """(P_lambda, Q_lambda) as lists of permutation tuples."""
    lam = check_partition(lam)
    r = sum(lam)
    rows = canonical_tableau(lam)
    cols = [[row[j] for row in rows if j < len(row)]
            for j in range(lam[0] if lam else 0)]
    return _block_group(rows, r), _block_group(cols, r)


def gl_act_tensor(x, v):
    """The gl(V)-action through the iterated coproduct:
    X(v_1 ... v_r) = sum_j omega(d(X), d(v_1..v_{j-1})) v_1..X(v_j)..v_r.
    For E_ab that factor multiplies omega(g_a, g_c) / omega(g_b, g_c) over
    the prefix letters c, summed as pairs from the rows pairs[a], pairs[b]."""
    if x.space != v.space:
        raise SpaceMismatch("operator and vector over different spaces")
    pairs = v.space._omega_pairs
    terms = {}
    for (a, b), xc in x.terms.items():
        row_a, row_b = pairs[a], pairs[b]
        for word, coef in v.terms.items():
            if b not in word:
                continue
            c = xc * coef
            s = e = 0
            for j, letter in enumerate(word):
                if letter == b:
                    _add_into(terms, word[:j] + (a,) + word[j + 1:],
                              omega_scalar(s, e, c))
                sa, ea = row_a[letter]
                sb, eb = row_b[letter]
                s ^= sa ^ sb
                e += ea - eb
    return TensorVector(v.space, v.power, terms)


def seed_word(space, lam):
    """The canonical filling: row i <= M+ gets b_i repeated lambda_i times,
    each lower row gets the leading odd vectors b_1bar, b_2bar, ..."""
    lam = check_partition(lam)
    mp = space.m_plus
    word = []
    for i, part in enumerate(lam):
        if i < mp:
            word.extend([i] * part)
        else:
            if part > space.m_minus:
                raise ValueError(f"{lam} does not fit the hook of {space}")
            word.extend(mp + j for j in range(part))
    return tuple(word)


def highest_weight_vector(space, lam):
    """C_lambda applied to the seed word: a nonzero gl(V)-highest weight
    vector of weight lambda# in V^(tensor |lambda|).  The row sum A acts
    first and the column sum B on its result, so the product B A with its
    |Q_lambda| |P_lambda| terms is never formed."""
    lam = check_partition(lam)
    if not in_hook(lam, space.m_plus, space.m_minus):
        raise ValueError(
            f"{lam} is not in the {space.m_plus}|{space.m_minus} hook class")
    a_elt, b_elt = _row_column_sums(lam)
    v = TensorVector.basis_word(space, seed_word(space, lam))
    return b_elt.apply(a_elt.apply(v))


def is_highest_weight(space, v):
    """True iff every strictly upper matrix unit kills v."""
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            if not gl_act_tensor(
                    GlElement.matrix_unit(space, a, b), v).is_zero():
                return False
    return True


def schur_weyl_table(space, r):
    """Rows (lambda, lambda#, k(lambda), f^lambda) over all lambda of r in
    the hook class; checks sum k*f = (dim V)^r and witnesses each lambda#
    by an explicit highest weight vector."""
    mp, mm = space.m_plus, space.m_minus
    rows = []
    total = 0
    for lam in hook_partitions(mp, mm, r, r):
        k = count_hook_tableaux(lam, mp, mm)
        f = count_standard_tableaux(lam)
        sharp = lambda_sharp(lam, mp, mm)
        total += k * f
        v = highest_weight_vector(space, lam)
        if v.is_zero():
            raise AssertionError(f"highest weight vector vanished: {lam}")
        wt = v.weight()
        expected = tuple(Fraction(c) for c in sharp)
        if wt != expected:
            raise AssertionError(
                f"weight of hwv({lam}) is {wt}, expected {expected}")
        if not is_highest_weight(space, v):
            raise AssertionError(f"hwv({lam}) is not annihilated by n+")
        rows.append({"partition": lam, "sharp": sharp, "k": k, "f": f})
    if total != space.dim ** r:
        raise AssertionError(
            f"sum k(lambda) f^lambda = {total} != (dim V)^r = {space.dim**r}")
    return rows


# -- the dual module ---------------------------------------------------------

def dual_act(x, wbar):
    """Action on V*: for homogeneous X, <X.wbar, v> = omega(d(X), d(wbar))
    <wbar, S(X).v> with S(X) = -X.  wbar maps flat indices to Scalars,
    ebar_a having weight -eps_a and degree -gamma_a.  E_ab sends ebar_a to
    -omega(g_a - g_b, -g_a) ebar_b, whose pair is that of
    omega(g_b, g_a) / omega(g_a, g_a) with the minus sign folded into s."""
    pairs = x.space._omega_pairs
    out = {}
    for (a, b), coef in x.terms.items():
        c = wbar.get(a)
        if c:
            (s1, e1), (s2, e2) = pairs[b][a], pairs[a][a]
            _add_into(out, b, omega_scalar(1 ^ s1 ^ s2, e1 - e2, coef * c))
    return out


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
    return tuple(-x for x in basis_weight(space, a))
