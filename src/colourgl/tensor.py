"""Braided symmetric group action and gl(V)-action on tensor powers.

Basis words of V^(tensor r) are tuples of flat indices.  The adjacent
transposition s_i acts by swapping slots i, i+1 with the braiding factor
omega(d(v_i), d(v_{i+1})), and _swap is the one statement of that rule.
A general permutation acts by a reduced word in the sigma_i, which sends
a basis word to one word times the product of omega(d(v_i), d(v_j)) over
its inversions i < j: omega is a commutative factor, so the sigma_i
satisfy the Coxeter relations exactly and the action is well defined.
braiding_apply, apply_permutation and SymGroupElement.apply fold _swap
over a sigma word (_apply_sigmas), and verify's coxeter-braid suite
follows one term through a sigma word with it.  These products and the
coproduct factors of the gl(V)-action are sums of omega pairs (s, e); the
pair over the inversions of a word is that of sorting it by grading._merge,
and that of its letter-pair inversion counts by grading._inversion_pair.

The Young symmetriser C_lambda = B_lambda A_lambda is applied to a word
block by block: A_lambda row by row, then B_lambda column by column.  The
stabiliser of a word in a block's symmetric group acts on it by the
character sending a swap of equal letters a to omega(a, a) = +-1.  So a
block sum is zero when a repeated letter has the wrong parity (omega(a, a)
= -1 in a row, +1 in a column), and otherwise prod_a m_a! times a sum over
the distinct arrangements of the block's letters, each taken by one
permutation acting with the omega product over the inversions of the whole
slot permutation (young_symmetrize).  The block sums read nothing of omega
but the parity bits of the letters, so the spaces of one parity pattern
share them: _young_table keeps, per (parity bits, lambda, word), each
result word with its integer and its letter-pair inversion counts, and
each space weights it by Psi(word) / Psi(w), the pair of those counts
(grading._inversion_pair), with no sort.  The tables and the arrangements
of _arrangements live in one process-wide memo, _KEPT, which holds at most
TERMS_KEPT terms, the least recently used dropped first.

The gl(V)-action through the iterated coproduct is stated once, in _act:
E_ab on {(word, e): n}, the terms n q^e word, with the pair of each
prefix letter read from the rows _omega_pairs[a] and [b], as
gl._bracket_pair reads its pairs, and the sign folded into n.  The
Schur-Weyl and Casimir checks run it on the integer witness of C_lambda,
the Young table, each word taking the pair Psi(seed) / Psi(word)
(_young_terms); it drops what cancels, so a witness is killed exactly when
its image is empty.  gl_act_tensor runs it on Scalar coefficients.  A
TensorVector is built only where a public function returns one, by
gl._to_scalars.  check_tensor_power is the one bound on the dim V ** r
words of V^(tensor r), for schur_weyl_table and reps.casimir_defect,
decided from r and the bits of dim V before the power is formed.
"""

import itertools
import math
from fractions import Fraction

from .gl import (SIZE_TEXT_BITS, LinearCombination, ResourceBoundExceeded,
                 SpaceMismatch, _add_into, _dual_pair, _Kept, _to_scalars)
from .grading import _inversion_pair
from .partitions import _hook_shape, check_partition, hook_table
from .scalars import ONE, omega_scalar

# most basis words of V^(tensor r) that schur_weyl_table and
# reps.casimir_defect accept, dim V ** r, before any witness is built
WORD_CAP = 10 ** 6
# most terms that the Young tables and the arrangements kept in _KEPT hold
# together, the least recently used dropped first: those of every parity
# pattern of dim V <= 3 at r <= 6 fit together (1159), and 2048 words of
# 15 letters, with their counts, take about 0.6 MB.  Arrangements are kept
# under tuples of letters and tables under (odd, lam, word), which never
# meet.
TERMS_KEPT = 2048
_KEPT = _Kept(TERMS_KEPT)


class TensorVector(LinearCombination):
    """A Scalar-linear combination of basis words of V^(tensor r)."""

    __slots__ = ("space", "power")

    @classmethod
    def basis_word(cls, space, word, coef=ONE):
        word = tuple(word)
        if any(not 0 <= a < space.dim for a in word):
            raise IndexError("word letter out of range")
        return cls(space, len(word), {word: coef})

    def weight(self):
        """The h*-weight if all words share one, else None."""
        return self._common(lambda word: word_weight(self.space, word))


def word_weight(space, word):
    coords = [0] * space.dim
    for a in word:
        coords[a] += 1
    return tuple(Fraction(c) for c in coords)


def _swap(pairs, i, term):
    """sigma_i on the term (s, e, word), the basis word times (-1)^s q^e:
    slots i, i+1 swapped and the pair of omega(d(w_i), d(w_{i+1})) from a
    space's _omega_pairs added on.  This is the one swap rule:
    _apply_sigmas folds it over a sigma word for braiding_apply,
    apply_permutation and SymGroupElement.apply, and the coxeter-braid
    suite follows one term through a sigma word with it."""
    s, e, word = term
    a, b = word[i], word[i + 1]
    sab, eab = pairs[a][b]
    return s ^ sab, e + eab, word[:i] + (b, a) + word[i + 2:]


def _apply_sigmas(sigmas, v):
    """The sigma word sigmas, its letters acting in order, on v: each
    word of v checked once, then _swap folded over sigmas on the term
    (0, 0, word) and its pair applied to the coefficient.  A word that is
    not r letters of range(dim V) raises ValueError."""
    r, dim = v.power, v.space.dim
    pairs = v.space._omega_pairs
    terms = {}
    for word, coef in v.terms.items():
        if len(word) != r or (r and (min(word) < 0 or max(word) >= dim)):
            raise ValueError(f"{word} is not a word of {r} letters in "
                             f"range({dim})")
        term = 0, 0, word
        for i in sigmas:
            term = _swap(pairs, i, term)
        s, e, swapped = term
        _add_into(terms, swapped, omega_scalar(s, e, coef))
    return TensorVector(v.space, r, terms)


def braiding_apply(i, v):
    """sigma_i on V^(tensor r): swap slots i, i+1 (0-based) with the
    braiding factor omega(d(v_i), d(v_{i+1}))."""
    if not 0 <= i < v.power - 1:
        raise IndexError(f"sigma_{i} undefined on {v.power} tensor factors")
    return _apply_sigmas((i,), v)


def apply_permutation(perm, v):
    """nu_r(perm): the braided action of a permutation on a tensor vector.

    perm is a tuple with perm[i] the image of slot i: the letter in
    slot i moves to slot perm[i].  It acts by a reduced sigma word, the
    exchanges of a bubble sort of the targets perm: each inverted pair of
    slots i < j, perm[i] > perm[j], is exchanged once with the letter of
    slot i on the left, so each word picks up omega(d(w_i), d(w_j)) over
    the inversions of perm."""
    r = v.power
    if sorted(perm) != list(range(r)):
        raise ValueError(f"{perm} is not a permutation of {r} slots")
    targets, sigmas = list(perm), []
    for end in range(r - 1, 0, -1):
        for i in range(end):
            if targets[i] > targets[i + 1]:
                targets[i], targets[i + 1] = targets[i + 1], targets[i]
                sigmas.append(i)
    return _apply_sigmas(sigmas, v)


class SymGroupElement(LinearCombination):
    """A formal Scalar-linear combination of permutations of r slots."""

    __slots__ = ("power",)

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


def canonical_tableau(lam):
    """Rows of box positions 0..r-1, filled row by row."""
    rows, pos = [], 0
    for part in lam:
        rows.append(list(range(pos, pos + part)))
        pos += part
    return rows


def _rows_and_columns(lam):
    """The rows and the columns of the canonical tableau."""
    rows = canonical_tableau(lam)
    cols = [[row[j] for row in rows if j < len(row)]
            for j in range(lam[0] if lam else 0)]
    return rows, cols


def gl_act_tensor(x, v):
    """The gl(V)-action through the iterated coproduct:
    X(v_1 ... v_r) = sum_j omega(d(X), d(v_1..v_{j-1})) v_1..X(v_j)..v_r.
    One _act per matrix unit E_ab of X, on the terms (word, 0) with the
    Scalar coefficients X_ab v_word; the q^e it collects is folded in
    afterwards."""
    if x.space != v.space:
        raise SpaceMismatch("operator and vector over different spaces")
    pairs = v.space._omega_pairs
    terms = {}
    for (a, b), xc in x.terms.items():
        for (word, e), c in _act(pairs, a, b, {
                (word, 0): xc * coef for word, coef in v.terms.items()
                if b in word}).items():
            _add_into(terms, word, omega_scalar(0, e, c))
    return TensorVector(v.space, v.power, terms)


def _seed_word(space, lam):
    """The canonical filling of the hook shape lam: row i <= M+ gets b_i
    repeated lambda_i times, each lower row gets the leading odd vectors
    b_1bar, b_2bar, ..."""
    mp = space.m_plus
    word = []
    for i, part in enumerate(lam):
        if i < mp:
            word.extend([i] * part)
        else:
            word.extend(mp + j for j in range(part))
    return tuple(word)


def _arrangements(letters):
    """The distinct arrangements of a sorted tuple of letters, each with
    the parity of its number of inversions, kept in _KEPT under letters
    with their number as size.  They grow one position at a time, in
    lexicographic order: each distinct letter x left adds the parity of
    the k letters left below it, so that no call recurses."""
    found = _KEPT.get(letters)
    if found is None:
        grown = [((), letters, 0)]  # (word so far, letters left, parity)
        for _ in letters:
            grown = [(word + (x,), left[:k] + left[k + 1:], k & 1 ^ par)
                     for word, left, par in grown
                     for k, x in enumerate(left) if not k or left[k - 1] != x]
        found = _KEPT.put(letters, [(word, par) for word, _, par in grown],
                          len(grown))
    return found


def _block_sums(odd, blocks, terms, column):
    """The row sums (column False) or the signed column sums (column True)
    of the blocks, one block after the other, on the integer coefficients
    of Psi-normalised words (see young_symmetrize).  odd[a] is the parity
    bit of omega(a, a), the only part of omega that they read."""
    column = int(column)
    factors = {}  # sorted letters -> (prod m_a! or 0, their arrangements)
    for block in blocks:
        if len(block) < 2:
            continue
        inside = set(block)
        out = {}
        for word, coef in terms.items():
            letters = tuple(word[s] for s in block)
            key = tuple(sorted(letters))
            found = factors.get(key)
            if found is None:
                mult = 1
                for a, run in itertools.groupby(key):
                    m = len(tuple(run))
                    if m > 1:
                        mult *= math.factorial(m) if odd[a] == column else 0
                found = factors[key] = mult, mult and _arrangements(key)
            mult, arranged = found
            if not mult:
                continue
            # crossing[t][a]: the parity of the odd letters a outside the
            # block before its t-th slot.  The block's a's jump the outside
            # a's between their slots in w and in w', each jump a factor
            # omega(a, a) = -1, so the sign of w -> w' is the sign bits of
            # w (flip: crossings, and inversions in a column) XOR those of
            # w'.
            crossing, seen = [], [0] * len(odd)
            for i, a in enumerate(word):
                if i in inside:
                    crossing.append(tuple(seen))
                elif odd[a]:
                    seen[a] ^= 1
            flip = column and sum(a > b for p, b in enumerate(letters)
                                  for a in letters[:p]) & 1
            for c, x in zip(crossing, letters):
                flip ^= c[x]
            base = list(word)
            for u, par in arranged:
                sign = flip ^ par & column
                for s, x, c in zip(block, u, crossing):
                    base[s] = x
                    sign ^= c[x]
                w = tuple(base)
                out[w] = out.get(w, 0) + (-mult * coef if sign & 1
                                          else mult * coef)
        terms = {w: c for w, c in out.items() if c}
    return terms


def _letter_pairs(word):
    """The pairs (h, g), h > g, of the distinct letters of word."""
    letters = sorted(set(word))
    return [(h, g) for i, h in enumerate(letters) for g in letters[:i]]


def _inversions(letter_pairs, word):
    """The letter-pair inversion counts inv_hg(word) = #{i < j : word_i =
    h > word_j = g}, one per pair (h, g) of letter_pairs, in their order:
    each g adds the number of h's before it."""
    out = []
    for h, g in letter_pairs:
        seen = count = 0
        for x in word:
            if x == h:
                seen += 1
            elif x == g:
                count += seen
        out.append(count)
    return tuple(out)


def _young_table(odd, lam, word):
    """C_lambda on word over the parity bits odd of the letters alone, kept
    in _KEPT under (odd, lam, word) with its number of terms as size: the
    block sums read no other part of omega, so the spaces of one parity
    pattern share it.  It is (letter_pairs, inv, terms): the pairs (h, g),
    h > g, of the letters of word; its inversion counts over them
    (_inversions); and, in the order of the block sums, each result word w
    with its integer n and its inversion counts."""
    key = odd, lam, word
    table = _KEPT.get(key)
    if table is None:
        rows, cols = _rows_and_columns(lam)
        terms = _block_sums(odd, rows, {word: 1}, False)
        terms = _block_sums(odd, cols, terms, True)
        letter_pairs = _letter_pairs(word)
        table = _KEPT.put(key, (
            letter_pairs, _inversions(letter_pairs, word),
            [(w, n, _inversions(letter_pairs, w))
             for w, n in terms.items()]), len(terms))
    return table


def young_symmetrize(space, lam, word):
    """C_lambda = B_lambda A_lambda applied to one basis word of
    V^(tensor |lambda|), summed block by block over distinct arrangements.

    P_lambda and Q_lambda are the direct products of the symmetric groups
    of the rows and of the columns of the canonical tableau, and nu is a
    representation of S_r: so A_lambda acts one row at a time and B_lambda
    one column at a time.  On a word w, the stabiliser of w in a block's
    group permutes equal letters, and nu restricts to it as the character
    sending a swap of two letters a to omega(a, a) = +-1 (its q-exponent
    vanishes, the exponent form being skew-symmetric).  So a block sum on
    w is zero when a repeated letter a has omega(a, a) = -1 in a row or +1
    in a column, and otherwise prod_a m_a! times the sum, over the distinct
    arrangements w' of the block's letters, of one coset representative:
    the one that keeps equal letters in their order, times its sign in a
    column.

    The representative acts by the omega product over the inversions of
    the whole slot permutation, the slots outside the block that a moved
    letter jumps over included.  Distinct letters are inverted exactly when
    they change order, which gives Psi(w) / Psi(w'), Psi being the omega
    product over the letter inversions i < j, w_i > w_j, of the whole word;
    an odd letter a jumping an equal letter outside the block adds
    omega(a, a) = -1.  The Psi's telescope: the block sums run on integer
    coefficients, with those jumps and the column signs as signs, and each
    word w of the result takes the one factor Psi(word) / Psi(w)."""
    lam = check_partition(lam)
    word = tuple(word)
    if len(word) != sum(lam) or any(not 0 <= a < space.dim for a in word):
        raise ValueError(f"{word} is not a word of {sum(lam)} letters in "
                         f"range({space.dim})")
    return TensorVector(space, len(word),
                        _to_scalars([(ONE, _young_terms(space, lam, word))]))


def _young_terms(space, lam, word):
    """C_lambda on word as an integer witness {(w, e): n}, the term
    n q^e w: the Young table of the space's parity bits, 0 on its first
    M+ letters and 1 on the rest by the space's order, then Psi(word) /
    Psi(w) on each word w, its sign folded into n, Psi being the pair of
    the inversion counts (grading._inversion_pair)."""
    pairs = space._omega_pairs
    letter_pairs, inv, terms = _young_table(
        (0,) * space.m_plus + (1,) * space.m_minus, lam, word)
    s0, e0 = _inversion_pair(letter_pairs, inv, pairs)
    out = {}
    for w, n, inv in terms:
        s, e = _inversion_pair(letter_pairs, inv, pairs)
        out[w, e0 - e] = -n if s0 ^ s else n
    return out


def _act(pairs, a, b, terms):
    """E_ab on {(word, e): n}, the terms n q^e word, through the iterated
    coproduct: the package's one statement of it.  E_ab replaces a letter
    b at slot j by a, with the factor omega(g_a - g_b, d(prefix)): over
    the prefix letters c, the pairs pairs[a][c] - pairs[b][c], the sign
    folded into n.  n is an int or a Scalar (gl_act_tensor).  Zero
    coefficients are dropped, so the image is zero iff empty.  Only the
    pairs of the letters of the words that hold b are read."""
    row_a, row_b = pairs[a], pairs[b]
    out = {}
    for (word, e), n in terms.items():
        if b not in word:
            continue
        s = 0
        for j, letter in enumerate(word):
            if letter == b:
                key = word[:j] + (a,) + word[j + 1:], e
                out[key] = out.get(key, 0) + (-n if s else n)
            (sa, ea), (sb, eb) = row_a[letter], row_b[letter]
            s ^= sa ^ sb
            e += ea - eb
    return {key: n for key, n in out.items() if n}


def highest_weight_vector(space, lam):
    """C_lambda applied to the seed word: a nonzero gl(V)-highest weight
    vector of weight lambda# in V^(tensor |lambda|).  young_symmetrize
    applies A_lambda row by row and then B_lambda column by column, each
    block sum over the distinct arrangements of its letters: zero when a
    repeated letter has the wrong parity, else prod m_a! times one
    representative per arrangement, acting by the omega product over the
    inversions of its whole slot permutation."""
    lam = _hook_shape(lam, space.m_plus, space.m_minus)
    return TensorVector(space, sum(lam),
                        _to_scalars([(ONE, _witness(space, lam))]))


def _witness(space, lam):
    """The integer witness of the highest weight vector of lam: C_lambda on
    the seed word."""
    return _young_terms(space, lam, _seed_word(space, lam))


def _check_witness(space, lam, sharp, terms):
    """The checks of schur_weyl_table on the integer witness of lam: it is
    nonzero, every word has the letters of the seed word, whose letter
    counts are lambda#, and every strictly upper E_ab kills it: those whose
    b is a letter of the seed are applied, and the rest are zero on every
    word by the definition of the action."""
    if not terms:
        raise AssertionError(f"highest weight vector vanished: {lam}")
    seed = _seed_word(space, lam)
    letters = sorted(seed)
    if any(sorted(w) != letters for w, _ in terms):
        raise AssertionError(f"hwv({lam}) has words of more than one weight")
    counts = tuple(map(seed.count, range(space.dim)))
    if counts != sharp:
        raise AssertionError(
            f"weight of hwv({lam}) is {counts}, expected {sharp}")
    pairs = space._omega_pairs
    for b in sorted(set(seed)):
        for a in range(b):
            if _act(pairs, a, b, terms):
                raise AssertionError(f"hwv({lam}) is not annihilated by n+")


def check_tensor_power(space, r):
    """ResourceBoundExceeded.check on the dim V ** r words of V^(tensor r),
    for schur_weyl_table and reps.casimir_defect, decided before the power
    is formed: dim V ** r >= 2 ** low for low = r (bits of dim V - 1), so
    past low = SIZE_TEXT_BITS the power is past WORD_CAP and too long to
    write out, and 2 ** SIZE_TEXT_BITS, below it, is refused in its
    place.  Up to there the power has at most 2 low bits."""
    low = r * (space.dim.bit_length() - 1)
    size = space.dim ** r if low <= SIZE_TEXT_BITS else 1 << SIZE_TEXT_BITS
    ResourceBoundExceeded.check("tensor power", size, WORD_CAP)


def schur_weyl_table(space, r):
    """The rows of partitions.hook_table over all lambda of r in the hook
    class; checks sum k*f = (dim V)^r and witnesses each lambda#
    by an explicit highest weight vector, checked on its integer terms.
    V^r is refused past WORD_CAP words before any row is built."""
    check_tensor_power(space, r)
    rows = list(hook_table(space.m_plus, space.m_minus, r))
    for row in rows:
        lam = row["partition"]
        _check_witness(space, lam, row["sharp"], _witness(space, lam))
    total = sum(row["k"] * row["f"] for row in rows)
    if total != space.dim ** r:
        raise AssertionError(
            f"sum k(lambda) f^lambda = {total} != (dim V)^r = {space.dim**r}")
    return rows


# -- the dual module ---------------------------------------------------------

def dual_act(x, wbar):
    """Action on V*: for homogeneous X, <X.wbar, v> = omega(d(X), d(wbar))
    <wbar, S(X).v> with S(X) = -X.  wbar maps flat indices to Scalars,
    ebar_a having weight -eps_a and degree -gamma_a.  E_ab sends ebar_a to
    -omega(g_a - g_b, -g_a) ebar_b, the pair of gl._dual_pair."""
    pairs = x.space._omega_pairs
    out = {}
    for (a, b), coef in x.terms.items():
        c = wbar.get(a)
        if c:
            _add_into(out, b, omega_scalar(*_dual_pair(pairs, a, b),
                                           coef * c))
    return out
