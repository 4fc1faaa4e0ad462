import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colourgl.gl import GlElement
from colourgl.grading import _merge
from colourgl.partitions import (check_partition, count_hook_tableaux,
                                 count_standard_tableaux, dim_glN,
                                 hook_partitions, partitions_of)
from colourgl.presets import glq_space, green_space, super_space, z2z2_space
from colourgl.scalars import MINUS_ONE, ONE, Scalar
from colourgl.tensor import (SymGroupElement, TensorVector, apply_permutation,
                             braiding_apply, canonical_tableau, dual_act,
                             gl_act_tensor, highest_weight_vector,
                             schur_weyl_table, word_weight, young_symmetrize,
                             _seed_word)
from colourgl.weyl import rank_of_rows
from oracles import (dual_pairing, dual_weight_vector, homogeneous_parts,
                     row_column_groups, total_symmetrizers, young_symmetrizer)
from parent_tensor import is_highest_weight
from test_random_spaces import random_space


def oracle_bubble_word(perm):
    """Adjacent transposition indices whose left-to-right application
    realises perm as an action on words (apply s_j for j in the list)."""
    line = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(line) - 1):
            if line[j] > line[j + 1]:
                line[j], line[j + 1] = line[j + 1], line[j]
                word.append(j)
                changed = True
    return word


def oracle_apply_permutation(perm, v):
    """nu_r(perm): the braided action of a permutation on a tensor vector.

    perm is a tuple with perm[i] the image of slot i: the letter in
    slot i moves to slot perm[i]."""
    for j in oracle_bubble_word(perm):
        v = braiding_apply(j, v)
    return v


def oracle_apply(elt, v):
    """SymGroupElement.apply through the chain of adjacent braidings."""
    total = TensorVector(v.space, v.power)
    for perm, coef in elt.terms.items():
        total = total + oracle_apply_permutation(perm, v).scale(coef)
    return total


def test_braiding_on_odd_vector():
    space = super_space(0, 1)
    v = TensorVector.basis_word(space, (0, 0))
    assert braiding_apply(0, v) == v.scale(MINUS_ONE)


def test_braiding_matches_operator_p(super21, glq11):
    # P = sum omega(beta,beta) E(a,b)_ij x E(b,a)_ji acting by the twisted
    # tensor-product rule reproduces the braiding on every basis word
    for space in (super21, glq11):
        for w in itertools.product(range(space.dim), repeat=2):
            v = TensorVector.basis_word(space, w)
            direct = braiding_apply(0, v)
            total = TensorVector(space, 2)
            for a in range(space.dim):
                for b in range(space.dim):
                    # (A x B)(v0 x v1) = omega(d(B), d(v0)) A v0 x B v1
                    x1, x2 = w
                    if b != x1 or a != x2:
                        continue
                    coef = space.omega(space.degrees[b] - space.degrees[a],
                                       space.degrees[x1])
                    par = space.omega_flat(b, b)
                    total = total + TensorVector.basis_word(
                        space, (a, b)).scale(par * coef)
            assert direct == total


def test_braid_relation_random(glq21):
    rng = random.Random(21)
    for _ in range(30):
        word = tuple(rng.randrange(glq21.dim) for _ in range(4))
        v = TensorVector.basis_word(glq21, word)
        lhs = braiding_apply(0, braiding_apply(1, braiding_apply(0, v)))
        rhs = braiding_apply(1, braiding_apply(0, braiding_apply(1, v)))
        assert lhs == rhs
        assert braiding_apply(2, braiding_apply(0, v)) == \
            braiding_apply(0, braiding_apply(2, v))


def test_braiding_range_error(super11):
    v = TensorVector.basis_word(super11, (0, 1))
    with pytest.raises(IndexError):
        braiding_apply(1, v)


def test_permutation_action_is_homomorphism(super21):
    rng = random.Random(4)
    perms = list(itertools.permutations(range(3)))
    for _ in range(40):
        p, q = rng.choice(perms), rng.choice(perms)
        word = tuple(rng.randrange(super21.dim) for _ in range(3))
        v = TensorVector.basis_word(super21, word)
        comp = tuple(p[q[i]] for i in range(3))
        assert apply_permutation(comp, v) == \
            apply_permutation(p, apply_permutation(q, v))


Q = Scalar.q_power(1)
LAURENT = [ONE, MINUS_ONE, Q, -Q.inverse(), Q.inverse() + ONE,
           Scalar.parse("2 - q^2"), Scalar.parse("q^3 - 1/2")]
PERM_SPACES = [super_space(2, 1), super_space(1, 2), z2z2_space((1, 1, 1, 1)),
               glq_space(2, 1), glq_space(1, 2), green_space(3),
               *(random_space(random.Random(seed)) for seed in range(6))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_apply_permutation_matches_the_braiding_chain(data):
    space = data.draw(st.sampled_from(PERM_SPACES))
    r = data.draw(st.integers(1, 6))
    perm = tuple(data.draw(st.permutations(range(r))))
    word = st.tuples(*[st.integers(0, space.dim - 1)] * r)
    v = TensorVector(space, r, {
        data.draw(word): data.draw(st.sampled_from(LAURENT))
        for _ in range(data.draw(st.integers(1, 4)))})
    assert apply_permutation(perm, v) == oracle_apply_permutation(perm, v)


@pytest.mark.parametrize("bad", [(1, 1, 0), (1, 0), (0, 1, 2, 3),
                                 (0, 1, 3), [2, 0, 0]])
def test_apply_permutation_rejects_non_permutations(super21, bad):
    v = TensorVector.basis_word(super21, (0, 2, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        apply_permutation(bad, v)


@pytest.mark.parametrize("word", [(0, 1), (0, 1, 0, 1), (1, -1, 0),
                                  (0, 2, 1)])
def test_apply_permutation_rejects_malformed_words(super11, word):
    # super(1|1) has the letters 0 and 1; a power-3 vector needs 3 of them
    v = TensorVector(super11, 3, {word: ONE})
    with pytest.raises(ValueError, match="not a word of 3 letters"):
        apply_permutation((1, 0, 2), v)


def test_group_element_rejects_non_permutations(super11):
    v = TensorVector.basis_word(super11, (0, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        SymGroupElement(2, {(5, 0): ONE}).apply(v)


@pytest.mark.parametrize("space", [super_space(1, 1), super_space(2, 1),
                                   super_space(1, 2), super_space(2, 2),
                                   glq_space(2, 1), z2z2_space((1, 1, 1, 1)),
                                   green_space(3)],
                         ids=["super11", "super21", "super12", "super22",
                              "glq21", "z2z2", "green3"])
def test_highest_weight_vector_matches_the_old_symmetrizer(space):
    for r in range(1, 6):
        for lam in hook_partitions(space.m_plus, space.m_minus, r, r):
            seed = TensorVector.basis_word(space, _seed_word(space, lam))
            expected = oracle_apply(young_symmetrizer(lam), seed)
            assert highest_weight_vector(space, lam) == expected, lam


def repeated_parities(space, blocks, word):
    """The parities omega(a, a) of the letters a repeated in some block."""
    return {space.parities[word[i]] for block in blocks for i in block
            if sum(word[j] == word[i] for j in block) > 1}


def test_young_symmetrize_matches_the_oracle_on_random_factors():
    # the block sums against the sum over every permutation of C_lambda, on
    # the seed word and on random words, so that rows and columns repeat
    # even and odd letters
    rng = random.Random(2025)
    spaces = [random_space(rng) for _ in range(8)]
    assert sum(not s.factor.is_sign_valued() for s in spaces) >= 3
    symmetrizers = {}
    seen = set()
    for space in spaces:
        for r in range(1, 6):
            for lam in hook_partitions(space.m_plus, space.m_minus, r, r):
                c = symmetrizers.get(lam)
                if c is None:
                    c = symmetrizers[lam] = young_symmetrizer(lam)
                rows = canonical_tableau(lam)
                cols = [[row[j] for row in rows if j < len(row)]
                        for j in range(lam[0])]
                words = [_seed_word(space, lam)] + [
                    tuple(rng.randrange(space.dim) for _ in range(r))
                    for _ in range(3)]
                for word in words:
                    expected = oracle_apply(
                        c, TensorVector.basis_word(space, word))
                    assert young_symmetrize(space, lam, word) == expected, \
                        (space, lam, word)
                    seen |= {("row", p) for p in
                             repeated_parities(space, rows, word)}
                    seen |= {("column", p) for p in
                             repeated_parities(space, cols, word)}
    assert seen == {("row", 1), ("row", -1), ("column", 1), ("column", -1)}


def test_young_symmetrize_rejects_malformed_words(super11):
    for word in [(0, 1), (0, 1, 2), (0, -1, 1)]:
        with pytest.raises(ValueError, match="not a word of 3 letters"):
            young_symmetrize(super11, (2, 1), word)


def test_diagonal_action_counts_occurrences(super11):
    v = TensorVector.basis_word(super11, (0, 0, 1))
    h0 = GlElement.matrix_unit(super11, 0, 0)
    assert gl_act_tensor(h0, v) == v.scale(ONE + ONE)
    assert word_weight(super11, (0, 0)) == (2, 0)


def test_gl_action_commutes_with_braiding(super21, glq11):
    rng = random.Random(17)
    for space in (super21, glq11):
        for _ in range(25):
            word = tuple(rng.randrange(space.dim) for _ in range(3))
            v = TensorVector.basis_word(space, word)
            a, b = rng.randrange(space.dim), rng.randrange(space.dim)
            x = GlElement.matrix_unit(space, a, b)
            for i in (0, 1):
                assert braiding_apply(i, gl_act_tensor(x, v)) == \
                    gl_act_tensor(x, braiding_apply(i, v))


def test_young_groups_431():
    rows, cols = row_column_groups((4, 3, 1))
    assert len(rows) == 24 * 6  # Sym{0..3} x Sym{4..6}
    assert len(cols) == 6 * 2 * 2  # Sym{0,4,7} x Sym{1,5} x Sym{2,6}
    for p in rows:
        assert set(p[:4]) == {0, 1, 2, 3} and set(p[4:7]) == {4, 5, 6}
    for p in cols:
        assert set(p[i] for i in (0, 4, 7)) == {0, 4, 7}


def test_row_symmetrizer_is_total_symmetrizer():
    plus, minus = total_symmetrizers(3)
    c = young_symmetrizer((3,))
    assert c == minus
    assert len(plus.terms) == 6


def test_symmetrizers_kill_repeats(super11):
    plus, minus = total_symmetrizers(2)
    even = TensorVector.basis_word(super11, (0, 0))
    odd = TensorVector.basis_word(super11, (1, 1))
    assert plus.apply(even).is_zero()
    assert not plus.apply(odd).is_zero()
    assert minus.apply(odd).is_zero()
    assert not minus.apply(even).is_zero()


def test_seed_word(super21):
    assert _seed_word(super21, check_partition((3, 1, 1))) == \
        (0, 0, 0, 1, 2)
    # row below M+ takes the leading odd vectors
    assert _seed_word(super_space(1, 2), check_partition((2, 2, 0))) == \
        (0, 0, 1, 2)


def test_highest_weight_vectors_gl11(super11):
    v = highest_weight_vector(super11, (2,))
    assert not v.is_zero()
    assert v.weight() == (2, 0)
    assert is_highest_weight(super11, v)
    w = highest_weight_vector(super11, (1, 1))
    assert not w.is_zero()
    assert w.weight() == (1, 1)
    assert is_highest_weight(super11, w)


def test_highest_weight_vector_domain_error():
    space = super_space(1, 0)
    with pytest.raises(ValueError):
        highest_weight_vector(space, (1, 1))


def test_schur_weyl_table_gl11(super11):
    rows = schur_weyl_table(super11, 2)
    assert rows == [
        {"partition": (2,), "sharp": (2, 0), "k": 2, "f": 1},
        {"partition": (1, 1), "sharp": (1, 1), "k": 2, "f": 1},
    ]
    assert sum(r["k"] * r["f"] for r in rows) == 4


def test_schur_weyl_r1(super21):
    rows = schur_weyl_table(super21, 1)
    assert len(rows) == 1
    assert rows[0]["partition"] == (1,)
    assert rows[0]["sharp"] == (1, 0, 0)


def test_schur_weyl_reduces_to_classical(super20):
    rows = schur_weyl_table(super20, 3)
    for row in rows:
        assert row["k"] == dim_glN(row["partition"], 2)


def test_sym_isotypic_dimension(super11):
    # dim of the Sym_r-span of the highest weight vector equals f^lambda
    for r in (2, 3, 4):
        for lam in partitions_of(r):
            if count_hook_tableaux(lam, 1, 1) == 0:
                continue
            v = highest_weight_vector(super11, lam)
            vectors = [apply_permutation(p, v)
                       for p in itertools.permutations(range(r))]
            words = sorted({w for vec in vectors for w in vec.terms})
            index = {w: i for i, w in enumerate(words)}
            rows = [{index[w]: c for w, c in vec.terms.items()}
                    for vec in vectors if not vec.is_zero()]
            assert rank_of_rows(rows) == count_standard_tableaux(lam)


def test_dual_action(super21):
    space = super21
    # highest weight of V* is (0, ..., 0, -1): ebar_last is killed by all
    # raising operators
    last = space.dim - 1
    wbar = {last: ONE}
    assert dual_weight_vector(space, last) == (0, 0, -1)
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            x = GlElement.matrix_unit(space, a, b)
            assert dual_act(x, wbar) == {}
    # diagonal action: E_aa . ebar_a = -ebar_a
    for a in range(space.dim):
        h = GlElement.matrix_unit(space, a, a)
        image = dual_act(h, {a: ONE})
        assert image == {a: MINUS_ONE}


def test_pairing_invariance(super21, glq11):
    # <X.wbar, v> + omega(d(X), d(wbar)) <wbar, X.v> = 0
    for space in (super21, glq11):
        for a in range(space.dim):
            for b in range(space.dim):
                x = GlElement.matrix_unit(space, a, b)
                deg = space.degrees[a] - space.degrees[b]
                for c in range(space.dim):
                    wbar = {c: ONE}
                    for d in range(space.dim):
                        v = TensorVector.basis_word(space, (d,))
                        lhs = dual_pairing(dual_act(x, wbar), v)
                        om = space.omega(deg, -space.degrees[c])
                        rhs = om * dual_pairing(wbar, gl_act_tensor(x, v))
                        assert (lhs + rhs).is_zero()


def test_canonical_invariant(super21, glq11):
    # X . sum_a e_a x ebar_a = 0 under the coproduct action
    for space in (super21, glq11):
        for p in range(space.dim):
            for r in range(space.dim):
                x = GlElement.matrix_unit(space, p, r)
                deg = space.degrees[p] - space.degrees[r]
                total = {}
                for a in range(space.dim):
                    v = TensorVector.basis_word(space, (a,))
                    xv = gl_act_tensor(x, v)
                    for (idx,), coef in xv.terms.items():
                        key = (idx, a)
                        total[key] = total.get(key, ONE - ONE) + coef
                    om = space.omega(deg, space.degrees[a])
                    for idx, coef in dual_act(x, {a: ONE}).items():
                        key = (a, idx)
                        total[key] = total.get(key, ONE - ONE) + om * coef
                assert all(c.is_zero() for c in total.values())


def test_group_algebra_product():
    a = SymGroupElement(3, {(1, 0, 2): ONE})
    b = SymGroupElement(3, {(0, 2, 1): ONE})
    prod = a * b
    assert prod.terms == {(1, 2, 0): ONE}


def test_gl_act_inhomogeneous_extension(super21):
    # inhomogeneous operators act through their homogeneous parts
    x = GlElement.matrix_unit(super21, 0, 2) + \
        GlElement.matrix_unit(super21, 1, 1)
    v = TensorVector.basis_word(super21, (2, 1))
    total = gl_act_tensor(x, v)
    split = TensorVector(super21, 2)
    for part in homogeneous_parts(x).values():
        split = split + gl_act_tensor(part, v)
    assert total == split


def test_dual_action_is_representation(super21, glq11):
    # X(Y wbar) - omega(dX, dY) Y(X wbar) = [X, Y] wbar
    from colourgl.gl import bracket
    for space in (super21, glq11):
        for a in range(space.dim):
            for b in range(space.dim):
                for c in range(space.dim):
                    for d in range(space.dim):
                        x = GlElement.matrix_unit(space, a, b)
                        y = GlElement.matrix_unit(space, c, d)
                        om = space.omega(space.degrees[a] - space.degrees[b],
                                         space.degrees[c] - space.degrees[d])
                        for e in range(space.dim):
                            wbar = {e: ONE}
                            lhs = dual_act(x, dual_act(y, wbar))
                            for k, coef in dual_act(
                                    y, dual_act(x, wbar)).items():
                                cur = lhs.get(k, ONE - ONE) - om * coef
                                if cur:
                                    lhs[k] = cur
                                else:
                                    lhs.pop(k, None)
                            rhs = dual_act(bracket(x, y), wbar)
                            lhs = {k: v for k, v in lhs.items() if v}
                            rhs = {k: v for k, v in rhs.items() if v}
                            assert lhs == rhs, (a, b, c, d, e)


# -- the inversion sum that _merge((), w, (), pairs) replaced ---------------
# Kept verbatim as an oracle for Psi(w) in young_symmetrize.

def oracle_inversion_pair(pairs, word):
    """Psi(word): the omega pairs (s, e) of its letter inversions, summed
    over the slots i < j with word[i] > word[j]."""
    s = e = 0
    for j in range(1, len(word)):
        b = word[j]
        for a in word[:j]:
            if a > b:
                sa, ea = pairs[a][b]
                s ^= sa
                e += ea
    return s, e


def test_sorting_pair_matches_the_inversion_sum():
    # the empty odd set lets words repeat odd letters, as tensor words do
    rng = random.Random(1979)
    repeated_odd = 0
    for space in (super_space(2, 2), glq_space(2, 1), z2z2_space((1, 1, 1, 1)),
                  green_space(3)):
        pairs = space._omega_pairs
        for _ in range(200):
            word = tuple(rng.randrange(space.dim)
                         for _ in range(rng.randint(0, 8)))
            repeated_odd += any(space.parities[a] == -1 and word.count(a) > 1
                                for a in word)
            s, e, ordered = _merge((), word, (), pairs)
            assert (s, e) == oracle_inversion_pair(pairs, word), (space, word)
            assert ordered == tuple(sorted(word))
    assert repeated_odd > 100
