"""The Schur-Weyl and Casimir witnesses as they were before they were
checked on integer omega pairs, kept verbatim as oracles for
tests/test_tensor_witness.py.

_young_symmetrize turned the integer block sums into one Scalar per word,
schur_weyl_table checked the Scalar witness by TensorVector.weight and
is_highest_weight, which applies every upper E_ab through gl_act_tensor,
and casimir_defect applied casimir_apply, gl_act_tensor twice per (a, b),
and subtracted the eigenvalue times v as Scalars.  gl_act_tensor is the
package's Scalar prefix walk from before it ran through tensor._act, so
that comparing _act with it stays a comparison of two walks, and
_block_sums and _arrangements are the package's block sums from before
they ran on parity bits into a process-wide Young table, so that the
witness too stays a comparison of two implementations.

_check_witness is the integer witness check as it was before it applied
only the E_ab whose b is a letter of the seed: it ran over all
dim V (dim V - 1) / 2 strictly upper matrix units.

_act is the integer prefix walk as it was before it read the pairs of
each letter it passes from the rows pairs[a] and pairs[b]: on the first
word that holds b it built the list of the dim V pair differences
pairs[a][c] - pairs[b][c] over every c.  _check_witness applies it.

braiding_apply and apply_permutation are the braided action nu_r as it was
before both became sigma words folded through tensor._swap:
apply_permutation formed the omega product over the inversions of perm in
a loop of its own, and braiding_apply checked no word.  They are kept for
tests/test_one_swap_rule.py.

The other helpers they call are unchanged and imported from the package.
"""

import itertools
import math
from fractions import Fraction

from colourgl.gl import GlElement, SpaceMismatch, _add_into
from colourgl.grading import _merge
from colourgl.partitions import (_count_hook, _count_standard, _hook_shape,
                                 _sharp, hook_partitions)
from colourgl.reps import casimir_eigenvalue
from colourgl.scalars import ONE, Scalar, omega_scalar
from colourgl.tensor import (TensorVector, _rows_and_columns, _seed_word,
                             _swap)


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


def _arrangements(letters, memo):
    """The distinct arrangements of a sorted tuple of letters, each with
    the parity of its number of inversions, memoised in memo.  They grow
    one position at a time, in lexicographic order: each distinct letter
    x left adds the parity of the k letters left below it, so that no
    call recurses."""
    found = memo.get(letters)
    if found is None:
        grown = [((), letters, 0)]  # (word so far, letters left, parity)
        for _ in letters:
            grown = [(word + (x,), left[:k] + left[k + 1:], k & 1 ^ par)
                     for word, left, par in grown
                     for k, x in enumerate(left) if not k or left[k - 1] != x]
        found = memo[letters] = [(word, par) for word, _, par in grown]
    return found


def _block_sums(pairs, blocks, terms, column, memo):
    """The row sums (column False) or the signed column sums (column True)
    of the blocks, one block after the other, on the integer coefficients
    of Psi-normalised words (see young_symmetrize)."""
    odd = [row[a][0] for a, row in enumerate(pairs)]
    column = int(column)
    factors = {}
    for block in blocks:
        if len(block) < 2:
            continue
        inside = set(block)
        out = {}
        for word, coef in terms.items():
            letters = tuple(word[s] for s in block)
            key = tuple(sorted(letters))
            mult = factors.get(key)
            if mult is None:
                mult = 1
                for a, run in itertools.groupby(key):
                    m = len(tuple(run))
                    if m > 1:
                        mult *= math.factorial(m) if odd[a] == column else 0
                factors[key] = mult
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
            flip = column & sum(a > b for p, b in enumerate(letters)
                                for a in letters[:p])
            for c, x in zip(crossing, letters):
                flip ^= c[x]
            base = list(word)
            for u, par in _arrangements(key, memo):
                sign = flip ^ par & column
                for s, x, c in zip(block, u, crossing):
                    base[s] = x
                    sign ^= c[x]
                w = tuple(base)
                out[w] = out.get(w, 0) + (-mult * coef if sign & 1
                                          else mult * coef)
        terms = {w: c for w, c in out.items() if c}
    return terms


def _young_symmetrize(space, lam, word):
    pairs = space._omega_pairs
    rows, cols = _rows_and_columns(lam)
    memo = {}
    terms = _block_sums(pairs, rows, {word: 1}, False, memo)
    terms = _block_sums(pairs, cols, terms, True, memo)
    # Psi(w) is the pair of sorting w, with no letter odd to _merge: words
    # of V^(tensor r) may repeat odd letters
    s0, e0, _ = _merge((), word, (), pairs)
    out = {}
    for w, n in terms.items():
        s, e, _ = _merge((), w, (), pairs)
        out[w] = omega_scalar(s0 ^ s, e0 - e, Scalar.from_rational(n))
    return TensorVector(space, len(word), out)


def _highest_weight_vector(space, lam):
    return _young_symmetrize(space, lam, _seed_word(space, lam))


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
        k = _count_hook(lam, mp, mm)
        f = _count_standard(lam)
        sharp = _sharp(lam, mp, mm)
        total += k * f
        v = _highest_weight_vector(space, lam)
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


def casimir_apply(space, v):
    """The quadratic Casimir sum_ab omega(g_b, g_b) E_ab E_ba on a tensor
    vector."""
    out = TensorVector(space, v.power)
    for a in range(space.dim):
        for b in range(space.dim):
            inner = gl_act_tensor(GlElement.matrix_unit(space, b, a), v)
            term = gl_act_tensor(GlElement.matrix_unit(space, a, b), inner)
            if space.parities[b] == -1:
                term = term.scale(-ONE)
            out = out + term
    return out


def casimir_defect(space, lam):
    """Omega v - (lambda# + 2 rho, lambda#) v on the highest weight vector
    of a hook partition; zero because the central element Omega acts on a
    highest weight module by exactly that scalar."""
    lam = _hook_shape(lam, space.m_plus, space.m_minus)
    v = _highest_weight_vector(space, lam)
    sharp = _sharp(lam, space.m_plus, space.m_minus)
    scalar = casimir_eigenvalue(space, tuple(Fraction(c) for c in sharp))
    return casimir_apply(space, v) - v.scale(Scalar.from_rational(scalar))


def _check_witness(space, lam, sharp, terms):
    """The checks of schur_weyl_table on the integer witness of lam: it is
    nonzero, every word has the letters of the seed word, whose letter
    counts are lambda#, and every strictly upper E_ab kills it."""
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
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            if _act(pairs, a, b, terms):
                raise AssertionError(f"hwv({lam}) is not annihilated by n+")


def _act(pairs, a, b, terms):
    """E_ab on {(word, e): n}, the terms n q^e word, through the iterated
    coproduct: the package's one statement of it.  E_ab replaces a letter
    b at slot j by a, with the factor omega(g_a - g_b, d(prefix)): over
    the prefix letters c, the pairs pairs[a][c] - pairs[b][c], the sign
    folded into n.  n is an int or a Scalar (gl_act_tensor).  Zero
    coefficients are dropped, so the image is zero iff empty.  The O(dim)
    list of those pairs is built on the first word that holds b, so an
    E_ab whose b occurs in no word costs one scan of the words."""
    step = None
    out = {}
    for (word, e), n in terms.items():
        if b not in word:
            continue
        if step is None:
            step = [(sa ^ sb, ea - eb)
                    for (sa, ea), (sb, eb) in zip(pairs[a], pairs[b])]
        s = 0
        for j, letter in enumerate(word):
            if letter == b:
                key = word[:j] + (a,) + word[j + 1:], e
                out[key] = out.get(key, 0) + (-n if s else n)
            ds, de = step[letter]
            s ^= ds
            e += de
    return {key: n for key, n in out.items() if n}


def braiding_apply(i, v):
    """sigma_i on V^(tensor r): swap slots i, i+1 (0-based) with the
    braiding factor omega(d(v_i), d(v_{i+1}))."""
    if not 0 <= i < v.power - 1:
        raise IndexError(f"sigma_{i} undefined on {v.power} tensor factors")
    pairs = v.space._omega_pairs
    terms = {}
    for word, coef in v.terms.items():
        s, e, swapped = _swap(pairs, i, (0, 0, word))
        _add_into(terms, swapped, omega_scalar(s, e, coef))
    return TensorVector(v.space, v.power, terms)


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
