"""Highest-weight module analytics for gl(V).

Everything here works with exact rational weights in the flat eps-basis.
The contravariant-form machinery realises the parabolically induced module
U(vbar) x L0 concretely (odd lowering words, sorted by grading._merge on
the odd set and omega pairs that CommutativeFactor._table builds over the
degrees g_rb - g_i of the lowering pairs, over explicit sl2 strings per
parity block) and computes Gram matrices by moving *-conjugated
operators across with the graded commutation relations.  The strings
are one table, KacModule._strings, (f, lambda_f - lambda_{f+1}) per
parity block f, f+1 of size 2, the difference an int, which the string
lengths n_plus and n_minus, weight, _act_l0 and _norms read.  _norms,
the L0 norm of each (k+, k-) from two prefix products along the strings,
is built whole with the module, as level 0 of a Gram report reads every
entry.  KacModule.gram_blocks builds each level of a Gram report from the
level below, <F_s F_S' w, v> = <F_S' w, E_s v>: an entry is one memoised
act of the raising E_s on v, dotted with the built row of (S', k+, k-).
KacModule.form, the whole E-chain of *(F_S) applied at once, is the
independent route.  act applies a Cartan E_aa by the element's weight.
Gram blocks and their inertia run on ints after one positive rescaling.

Each public weight function reads its weight once, by _as_weight: an
integral coordinate as an int, any other as a Fraction, so Fractions
enter only where lambda has a non-integral coordinate.  It then runs
private kernels on that tuple, as partitions does for shapes: _dominant,
_chi, _casimir and _dual_weight, which call no public weight function.
Type II classifies lambda* through one more _as_weight, lambda* being
another weight.  rho enters only through gl._two_rho, the integral 2 rho,
taken once per call: (lambda + rho, eps_i - eps_rbar) by _odd_root and
the Casimir eigenvalue by _casimir.  chi, the Casimir eigenvalue, the dual
weight and the numbers of a certificate are Fractions, each converted
once where it is returned.  The decomposition
lambda = a*E + mu# - b*E+ is stated once, in _decompose, for both
branches of classify_unitarisable (b lifts
a typical lambda_1 - a to an integer, and is 0 on an atypical weight)
and for dual_weight (b = 0).  Dual weights are closed form: the
Kac-module lowest weight for a typical lambda, the Berele-Regev
transpose for an atypical a*E + mu#; no module is built for either.
The tensor power of casimir_defect is refused by
tensor.check_tensor_power, as in schur_weyl_table.  casimir_defect runs
on the integer witness of tensor._witness: the Casimir by tensor._act,
summed by gl._add_ints, and one Scalar per word at the end, by
gl._to_scalars.  KacModule.act takes the bracket of E_ab with a lowering
pair from gl._unit_bracket.  Nothing here writes a report: the records
UnitarisableVerdict and GramReport hold exact values, and the CLI turns
them into text.
"""

import itertools
import math
import operator
from fractions import Fraction

from .gl import (ResourceBoundExceeded, _add_ints, _add_into, _bracket_pair,
                 _to_scalars, _two_rho, _unit_bracket)
from .grading import _Record, _merge
from .partitions import (_check_hook, _in_hook, _sharp, _transpose,
                         check_partition)
from .scalars import Scalar
from .tensor import TensorVector, _act, _witness, check_tensor_power

# most basis elements of a Kac module (2^(M+ M-) n+ n-, n+- the lengths of
# the sl2 strings of L0) that KacModule accepts.  A Gram entry holds a
# norm of about ((n - 1)!)^2 for a string of length n, which at n = 800
# has 3954 digits, under the 4300 that Python converts to text by
# default; the largest benchmark job builds 160
GRAM_BASIS_CAP = 800
# most parts of the partition mu that a unitarisability certificate or a
# dual weight builds: mu has a part per unit of the leading odd coordinate,
# and the report writes each one
CERTIFICATE_PARTS_CAP = 10 ** 4


class UnsupportedFactor(ValueError):
    """The commutative factor is q-valued where a *-structure is needed."""


class UnsupportedSpace(ValueError):
    """The graded space is outside the supported block sizes."""


class DualWeightUnsupported(ValueError):
    """lambda* is not computable by the implemented rules."""


def _weight_text(lam):
    """A weight as the CLI reads it: 0,0,1,0."""
    return ",".join(map(str, lam))


def _rational(x):
    """A weight coordinate: an int as it is, anything else as Fraction(x),
    its numerator when that is integral; a float is refused, as it is not
    exact."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"not an int or a Fraction: {x!r}")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _as_weight(space, lam):
    lam = tuple(map(_rational, lam))
    if len(lam) != space.dim:
        raise ValueError(f"weight needs {space.dim} coordinates")
    return lam


def _odd_root(lam, two_rho, i, rb):
    """(lambda + rho, eps_i - eps_rbar) for the indices i < M+ <= rb of
    lam, with the integer rho_i + rho_rbar halved from two_rho, the
    space's gl._two_rho."""
    return lam[i] + lam[rb] + (two_rho[i] + two_rho[rb]) // 2


def _blocks(space, lam):
    mp = space.m_plus
    return lam[:mp], lam[mp:]


def _dominant_weight(space, lam):
    """lam as a weight of space; a ValueError when it is not dominant."""
    lam = _as_weight(space, lam)
    if not _dominant(space, lam):
        raise ValueError(f"{_weight_text(lam)} is not dominant")
    return lam


def is_finite_dimensional(space, lam):
    """Dominance: within each parity block, consecutive coordinate
    differences are non-negative integers (the odd/even blocks are not
    compared with each other)."""
    return _dominant(space, _as_weight(space, lam))


def _dominant(space, lam):
    for block in _blocks(space, lam):
        for x, y in zip(block, block[1:]):
            d = x - y
            if d < 0 or d.denominator != 1:
                return False
    return True


def typicality(space, lam):
    """(is_typical, chi) with chi = prod over odd positive roots of
    (lambda + rho, eps_i - eps_rbar), each factor taken by _odd_root; chi
    is a Fraction."""
    chi = _chi(space, _as_weight(space, lam), _two_rho(space))
    return chi != 0, chi


def _chi(space, lam, two_rho):
    mp = space.m_plus
    return Fraction(math.prod(_odd_root(lam, two_rho, i, rb)
                              for i in range(mp)
                              for rb in range(mp, space.dim)))


def kac_dimension(space, lam):
    """2^(M+ M-) * dim L0(lambda), the last of kac_dimension_floors."""
    for dim in kac_dimension_floors(space, lam):
        pass
    return dim


def kac_dimension_floors(space, lam):
    """Lower bounds of kac_dimension, none less than the one before, the
    last of them the dimension: 2^(M+ M-), then that times each parity
    block's L0 factor column by column.  Over its first m coordinates b a
    block's factor is dim L(b_1..b_m) of gl_m by the Weyl dimension
    formula prod_{i<j<=m} (b_i - b_j + j - i)/(j - i), an integer that by
    the branching rule never decreases in m; each is formed from the one
    before with one exact division.  A pair with b_i = b_j has the factor
    1 and is left out: those i are the run of equal coordinates that ends
    at j, so a column whose run starts the block is not yielded."""
    lam = _dominant_weight(space, lam)
    total = 2 ** (space.m_plus * space.m_minus)
    yield total
    for block in _blocks(space, lam):
        # ints: the coordinates of a dominant block differ by integers
        b = [int(x - block[-1]) for x in block]
        dim, run = 1, 0
        for j in range(1, len(b)):
            if b[j] != b[j - 1]:
                run = j
            if run:
                dim, rem = divmod(
                    dim * math.prod(b[i] - b[j] + j - i for i in range(run)),
                    math.perm(j, run))
                if rem:
                    raise AssertionError(
                        f"the Weyl dimension of {_weight_text(block)} "
                        "leaves a remainder")
                yield total * dim
        total *= dim


def casimir_eigenvalue(space, lam):
    """(lambda + 2 rho, lambda) under the signed inner product, a Fraction,
    on the integral 2 rho of gl._two_rho."""
    return _casimir(space, _as_weight(space, lam))


def _casimir(space, lam):
    return Fraction(sum(s * (x + t) * x for s, x, t in zip(
        space.parities, lam, _two_rho(space))))


def casimir_defect(space, lam):
    """Omega v - (lambda# + 2 rho, lambda#) v on the highest weight vector
    of a hook partition; zero because the central element Omega acts on a
    highest weight module by exactly that scalar.  V^(tensor |lambda|) is
    refused by tensor.check_tensor_power, before the hook class is
    checked."""
    lam = check_partition(lam)
    check_tensor_power(space, sum(lam))
    lam = _check_hook(lam, space.m_plus, space.m_minus)
    return _casimir_defect(space, lam, _witness(space, lam))


def _casimir_defect(space, lam, terms):
    """casimir_defect on the integer witness {(word, e): n} of v: with the
    eigenvalue N/D, D Omega v - N v on ints, Omega = sum_ab omega(g_b, g_b)
    E_ab E_ba applied by tensor._act, then divided by D as Scalars.  Only
    the a that are letters of the witness give a nonzero E_ba v, so a runs
    over those alone: |letters| dim V pairs, not dim V ** 2."""
    value = _casimir(space, _sharp(lam, space.m_plus, space.m_minus))
    num, den = value.numerator, value.denominator
    pairs = space._omega_pairs
    out = {key: -num * n for key, n in terms.items()}
    for a in sorted({g for word, _ in terms for g in word}):
        for b in range(space.dim):
            _add_ints(out, _act(pairs, a, b, _act(pairs, b, a, terms)),
                      -den if space.parities[b] == -1 else den)
    return TensorVector(space, sum(lam), _to_scalars(
        [(Scalar.from_rational(Fraction(1, den)),
          {key: n for key, n in out.items() if n})]))


# -- unitarisability classification ------------------------------------------

class UnitarisableVerdict(_Record):
    __slots__ = ("unitarisable", "star_type", "reason", "certificate")

    def __init__(self, unitarisable, star_type, reason, certificate=None):
        self.unitarisable = unitarisable
        self.star_type = star_type
        self.reason = reason
        self.certificate = {} if certificate is None else certificate


def _sharp_to_partition(space, sharp):
    """Reconstruct the hook partition mu with mu# = sharp, or None.  sharp
    is a uniform shift of a dominant weight in each parity block, so each
    block is weakly decreasing.  mu has a part per positive entry of the
    even block and per unit of the leading odd entry: past
    CERTIFICATE_PARTS_CAP parts it is refused before it is built."""
    mp, mm = space.m_plus, space.m_minus
    plus, minus = sharp[:mp], sharp[mp:]
    if any(x.denominator != 1 or x < 0 for x in plus + minus):
        return None
    plus = tuple(int(x) for x in plus)
    minus = tuple(int(x) for x in minus)
    size = sum(1 for p in plus if p) + (minus[0] if minus else 0)
    ResourceBoundExceeded.check("the partition mu", size,
                                CERTIFICATE_PARTS_CAP, "parts")
    tail = tuple(sum(1 for x in minus if x >= j)
                 for j in range(1, (minus[0] if minus else 0) + 1))
    # positive ints: once weakly decreasing, mu is a canonical shape
    mu = tuple(p for p in plus + tail if p)
    if not all(x >= y for x, y in zip(mu, mu[1:])):
        return None
    if not _in_hook(mu, mp, mm) or _sharp(mu, mp, mm) != plus + minus:
        return None
    return mu


def _decompose(space, lam, b):
    """(a, mu) with lambda = a*E + mu# - b*E+, mu a hook partition, or
    (a, None) when no mu fits: E = sum eps_i - sum eps_rbar, E+ = sum eps_i,
    and a = -lambda_{M-bar}, which makes mu#'s last coordinate 0.  The one
    statement of the decomposition, for both branches of
    classify_unitarisable and for dual_weight."""
    mp, t = space.m_plus, lam[-1]
    return -t, _sharp_to_partition(
        space, tuple(x + t + b for x in lam[:mp]) +
        tuple(x - t for x in lam[mp:]))


def classify_unitarisable(space, lam, star_type="I"):
    """Classification against the compact *-structures.

    Type I: dominant real weight, and either typical with
    (lambda+rho, eps_{M+} - eps_{M-bar}) > 0, or atypical with some r
    satisfying (lambda+rho, eps_{M+} - eps_rbar) = 0 and
    lambda_rbar = lambda_{M-bar}.  The certificate carries the
    a*E + mu# - b*E+ decomposition when unitarisable: b lifts lambda_1 - a
    to an integer on a typical weight and is 0 on an atypical one.

    Type II: holds iff the dual weight lambda* passes type I."""
    if not space.factor.is_sign_valued():
        raise UnsupportedFactor(
            "unitarisability needs a sign-valued commutative factor")
    if star_type not in ("I", "II"):
        raise ValueError(f"unknown *-structure type {star_type!r}")
    lam = _as_weight(space, lam)
    if star_type == "II":
        # lambda* is another weight, read by one more _as_weight
        dual = _dual_weight(space, lam)
        inner = classify_unitarisable(space, dual, "I")
        cert = dict(inner.certificate)
        cert["dual_weight"] = dual
        return UnitarisableVerdict(inner.unitarisable, "II",
                                   f"dual weight: {inner.reason}", cert)

    if not _dominant(space, lam):
        return UnitarisableVerdict(False, "I", "weight is not dominant")
    mp, mm = space.m_plus, space.m_minus
    if mp == 0 or mm == 0:
        return UnitarisableVerdict(
            True, "I", "colour algebra: every dominant real weight works",
            {"branch": "colour"})
    two_rho = _two_rho(space)
    chi = _chi(space, lam, two_rho)
    if chi:
        edge = _odd_root(lam, two_rho, mp - 1, space.dim - 1)
        if edge <= 0:
            return UnitarisableVerdict(
                False, "I",
                "typical with (lambda+rho, eps_{M+}-eps_{M-bar}) <= 0",
                {"edge": Fraction(edge), "chi": chi})
        top = lam[0] + lam[-1]
        b = math.ceil(top) - top
        reason = "typical with positive edge product"
        cert = {"branch": "typical", "chi": chi}
    else:
        ridx = next((ridx for ridx in range(mm)
                     if _odd_root(lam, two_rho, mp - 1, mp + ridx) == 0
                     and lam[mp + ridx] == lam[-1]), None)
        if ridx is None:
            return UnitarisableVerdict(
                False, "I", "atypical with no admissible vanishing odd root",
                {"chi": chi})
        b = 0
        reason = f"atypical with vanishing root r={ridx + 1}"
        cert = {"branch": "atypical", "r": ridx + 1}
    a, mu = _decompose(space, lam, b)
    if mu is None:
        raise AssertionError(f"{cert['branch']} unitarisable weight "
                             f"{_weight_text(lam)} produced no partition")
    cert.update(a=Fraction(a), mu=mu, b=Fraction(b))
    return UnitarisableVerdict(True, "I", reason, cert)


# -- dual weights -------------------------------------------------------------

def dual_weight(space, lam):
    """The highest weight of the dual module L_lambda^*: minus the lowest
    weight of L_lambda.

    Typical lambda: exact through the Kac-module lowest weight.  Otherwise
    lambda must be a*E + mu# for a hook partition mu, and the lowest weight
    of L_{mu#} is closed form: L_{mu#} has the hook Schur character
    hs_mu(x/y) = hs_mu'(y/x) (Berele-Regev), so its lowest weight is mu'#
    for the Borel with the odd block first, reversed within each block.
    Anything else raises DualWeightUnsupported."""
    return _dual_weight(space, _as_weight(space, lam))


def _dual_weight(space, lam):
    if not _dominant(space, lam):
        raise DualWeightUnsupported(f"{_weight_text(lam)} is not dominant")
    mp, mm = space.m_plus, space.m_minus
    if _chi(space, lam, _two_rho(space)):
        plus, minus = _blocks(space, lam)
        return tuple(Fraction(mm - x) for x in reversed(plus)) + \
            tuple(Fraction(-mp - x) for x in reversed(minus))
    a, mu = _decompose(space, lam, 0)
    if mu is None:
        raise DualWeightUnsupported(
            f"{_weight_text(lam)} is atypical and not of the form "
            "a*E + mu#")
    # lowest(a*E + mu#) = a*E + lowest(mu#), and lambda* is minus that.  mu'
    # is in the M-|M+ hook as mu is in the M+|M- one, and its sharp is the
    # first M- column lengths of mu, then mu's first M+ rows past column
    # M-: mu is transposed only within its first M- columns
    cols = _transpose(tuple(min(p, mm) for p in mu))
    rows = tuple(max(p - mm, 0) for p in mu[:mp])
    low = (rows + (0,) * (mp - len(rows)))[::-1] + \
        (cols + (0,) * (mm - len(cols)))[::-1]
    return tuple(Fraction(-a - x) for x in low[:mp]) + \
        tuple(Fraction(a - x) for x in low[mp:])


# -- the contravariant form on parabolically induced modules ------------------

class KacModule:
    """U(vbar) x L0 with basis (S, k+, k-): S a sorted word of odd lowering
    pairs, k+- positions along the sl2 strings of the parity blocks.

    The generator action is computed by straightening with the matrix-unit
    commutation relations; the contravariant form moves *(F_S) = E-chains
    across and pairs in L0."""

    def __init__(self, space, lam):
        if not space.factor.is_sign_valued():
            raise UnsupportedFactor(
                "the contravariant form needs a sign-valued factor")
        if space.m_plus > 2 or space.m_minus > 2:
            raise UnsupportedSpace(
                "gram machinery supports parity blocks of size <= 2")
        self.space = space
        # integral coordinates are ints, so that the action and the form
        # stay on ints wherever lambda allows it
        self.lam = _dominant_weight(space, lam)
        mp, mm = space.m_plus, space.m_minus
        self.mp, self.mm = mp, mm
        self.pairs = [(i, rb) for i in range(mp)
                      for rb in range(mp, space.dim)]
        # the sl2 string of each parity block, even then odd: (f, d) with
        # d = lambda_f - lambda_{f+1}, an int as lambda is dominant, for a
        # block f, f+1 of size 2, None for a block of size 0 or 1, whose
        # string has length 1.  Position k = 0..d along it has weight
        # lambda - k (eps_f - eps_{f+1}), E_{f,f+1} takes it to k - 1 with
        # coefficient k (d - k + 1), and E_{f+1,f} to k + 1 with
        # coefficient 1
        self._strings = tuple((f, int(self.lam[f] - self.lam[f + 1]))
                              if size == 2 else None
                              for f, size in ((0, mp), (mp, mm)))
        self.n_plus, self.n_minus = (1 if string is None else string[1] + 1
                                     for string in self._strings)
        size = 2 ** len(self.pairs) * self.n_plus * self.n_minus
        ResourceBoundExceeded.check("the Kac module", size, GRAM_BASIS_CAP)
        # (odd, om) for _merge over the lowering pairs F_s of degree
        # g_rb - g_i: every F_s is odd, so F_s F_S = 0 when s is in S
        degrees = space.degrees
        self._odd, self._om = space.factor._table(
            [degrees[rb] - degrees[i] for i, rb in self.pairs])
        # the index of each lowering pair (i, rb), read by act
        self._sids = {pair: sid for sid, pair in enumerate(self.pairs)}
        # act results by argument; callers never mutate them
        self._act_memo = {}
        # the L0 norm of (kp, km), _norms[kp][km]: the product of the
        # raising coefficients t (d - t + 1), t = 1..k, down each string,
        # read whole by level 0 of every Gram report
        plus, minus = (
            list(itertools.accumulate(
                (t * (string[1] - t + 1) for t in range(1, n)),
                operator.mul, initial=1))
            for string, n in zip(self._strings, (self.n_plus, self.n_minus)))
        self._norms = [[p * m for m in minus] for p in plus]

    def basis(self, max_level=None):
        top = len(self.pairs) if max_level is None else max_level
        out = []
        for level in range(top + 1):
            for S in itertools.combinations(range(len(self.pairs)), level):
                for kp in range(self.n_plus):
                    for km in range(self.n_minus):
                        out.append((S, kp, km))
        return out

    def weight(self, el):
        S, kp, km = el
        coords = list(self.lam)
        for sid in S:
            i, rb = self.pairs[sid]
            coords[i] -= 1
            coords[rb] += 1
        for string, k in zip(self._strings, (kp, km)):
            if k:  # k > 0 only on a block of size 2
                coords[string[0]] -= k
                coords[string[0] + 1] += k
        return tuple(coords)

    def _prepend_pair(self, sid, vec):
        """Left multiplication by F_{sid} on a coefficient vector."""
        out = {}
        for (S, kp, km), coef in vec.items():
            merged = _merge((sid,), S, self._odd, self._om)
            if merged is not None:
                s, _, word = merged
                _add_into(out, (word, kp, km), -coef if s else coef)
        return out

    def _act_l0(self, a, b, kp, km):
        """The k-action on the L0 basis vector (kp, km) of E_ab, a != b of
        one parity (act sends the others elsewhere), along the string of
        its block."""
        out = {}
        odd = int(a >= self.mp)
        f, d = self._strings[odd]
        # phi = omega(g_a - g_b, g_1 - g_0) ** kp on the odd block; kp > 0
        # only when mp == 2
        phi = -1 if odd and kp % 2 and _bracket_pair(
            self.space._omega_pairs, a, b, 1, 0)[0] else 1
        ks = [kp, km]
        k = ks[odd]
        if a == f:  # raising
            if k:
                ks[odd] = k - 1
                out[((), *ks)] = phi * k * (d - k + 1)
        elif k < d:  # lowering, to the string's end at k = d
            ks[odd] = k + 1
            out[((), *ks)] = phi
        return out

    def act(self, a, b, el):
        """E_ab applied to a basis element; returns {element: coefficient},
        each coefficient an int, or a Fraction where lambda has a
        non-integral coordinate.  Computed once per module and shared, so
        it must not be mutated."""
        key = (a, b, el)
        out = self._act_memo.get(key)
        if out is not None:
            return out
        S, kp, km = el
        mp = self.mp
        if a == b or not S:
            if a == b:  # every basis element is a weight vector
                coord = self.weight(el)[a]
                out = {el: coord} if coord else {}
            elif a < mp <= b:
                out = {}
            elif b < mp <= a:
                out = self._prepend_pair(self._sids[b, a], {((), kp, km): 1})
            else:
                out = self._act_l0(a, b, kp, km)
            self._act_memo[key] = out
            return out
        sid = S[0]
        rest = (S[1:], kp, km)
        i, rb = self.pairs[sid]
        pairs = self.space._omega_pairs
        # om = omega(deg E_ab, deg F_sid) = omega(g_a - g_b, g_rb - g_i)
        om = (-1) ** _bracket_pair(pairs, a, b, rb, i)[0]
        out = {}
        # bracket term [E_ab, E_{rb,i}], by gl's rule; a sign-valued factor
        # has every exponent 0
        for c, d, s, _ in _unit_bracket(pairs, a, b, rb, i):
            for k, coef in self.act(c, d, rest).items():
                _add_into(out, k, -coef if s else coef)
        # pass-through term om F_{sid} (E_ab rest)
        inner = self.act(a, b, rest)
        for k, coef in self._prepend_pair(
                sid, {k: om * c for k, c in inner.items()}).items():
            _add_into(out, k, coef)
        self._act_memo[key] = out
        return out

    def act_vector(self, a, b, vec):
        out = {}
        for el, coef in vec.items():
            for key, c in self.act(a, b, el).items():
                _add_into(out, key, coef * c)
        return out

    def form(self, el1, el2):
        """The contravariant form <F_S w, F_T w'> for the type I compact
        *-structure, by applying *(F_S) = E_{s_k}..E_{s_1} to el2."""
        S, kp, km = el1
        vec = {el2: 1}
        for sid in S:  # rightmost factor of the E-chain acts first
            i, rb = self.pairs[sid]
            vec = self.act_vector(i, rb, vec)
            if not vec:
                return 0
        total = 0
        for (T, lp, lm), coef in vec.items():
            if not T and (lp, lm) == (kp, km):
                total += coef * self._norms[kp][km]
        return total

    def gram_blocks(self, depth):
        """[(level, weight, els, mat)], one per (level, weight) block of the
        basis to the given level, sorted: mat[i][j] = form(els[i], els[j]),
        built level by level.  Level 0 is the diagonal of _norms.  At level
        k > 0, <F_s F_S' w, v> = <F_S' w, E_s v> for s = S[0] and E_s the
        raising E_{i rb} of the pair s: one act on v, dotted with the level
        k - 1 row of (S', k+, k-), whose block holds every term of E_s v."""
        groups = {}
        for el in self.basis(max_level=depth):
            groups.setdefault((len(el[0]), self.weight(el)), []).append(el)
        pos = {}  # el: its index in its block's els
        rows = {}  # el: its row of its block's mat, read by the level above
        blocks = []
        for (level, wt), els in sorted(groups.items()):
            pos.update((el, j) for j, el in enumerate(els))
            mat = []
            for e1 in els:
                S, kp, km = e1
                if S:
                    i, rb = self.pairs[S[0]]
                    below = rows[S[1:], kp, km]
                    # int 0 where the terms cancel, as the E-chain of form
                    row = [sum(c * below[pos[el]]
                               for el, c in self.act(i, rb, e2).items()) or 0
                           for e2 in els]
                else:
                    row = [self._norms[kp][km] if e2 == e1 else 0
                           for e2 in els]
                rows[e1] = row
                mat.append(row)
            blocks.append((level, wt, els, mat))
        return blocks


class GramReport(_Record):
    __slots__ = ("weight", "depth", "blocks", "verdict")

    def __init__(self, weight, depth, blocks, verdict):
        self.weight = weight
        self.depth = depth
        self.blocks = blocks
        self.verdict = verdict

    @property
    def unitarisable(self):
        return self.verdict != "indefinite"


def symmetric_inertia(mat):
    """(positive, negative, zero) eigenvalue counts of an exact symmetric
    matrix, by congruence diagonalisation (Sylvester's law) on ints.  The
    matrix is scaled once by the lcm of its denominators; a pivot d turns
    the alive block into |d| times its Schur complement, which keeps the
    inertia, dividing exactly by the previous |d| (Bareiss)."""
    n = len(mat)
    scale = math.lcm(*(x.denominator for row in mat for x in row))
    work = [[x.numerator * (scale // x.denominator) for x in row]
            for row in mat]
    alive = list(range(n))
    pos = neg = zero = 0
    prev = 1
    while alive:
        pivot = next((i for i in alive if work[i][i] != 0), None)
        if pivot is None:
            hyper = None
            for i in alive:
                for j in alive:
                    if i != j and work[i][j] != 0:
                        hyper = (i, j)
                        break
                if hyper:
                    break
            if hyper is None:
                zero += len(alive)
                break
            i, j = hyper
            for k in range(n):
                work[i][k] += work[j][k]
            for k in range(n):
                work[k][i] += work[k][j]
            continue
        d = work[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(pivot)
        sign = 1 if d > 0 else -1
        d = abs(d)
        pivot_row = work[pivot]
        for i in alive:
            row = work[i]
            f = sign * pivot_row[i]
            for k in alive:
                row[k] = (d * row[k] - f * pivot_row[k]) // prev
        prev = d
    return pos, neg, zero


def gram_report(space, lam, depth=None):
    """Gram matrices of the contravariant form on the induced module, per
    (level, weight) block down to the requested depth (default: full)."""
    module = KacModule(space, lam)
    d_max = len(module.pairs)
    if depth is None:
        depth = d_max
    if not 0 <= depth <= d_max:
        raise ValueError(f"depth must lie in 0..{d_max}")
    blocks = []
    worst_pos = True
    singular = False
    for level, wt, els, mat in module.gram_blocks(depth):
        for i in range(len(els)):
            for j in range(len(els)):
                if mat[i][j] != mat[j][i]:
                    raise AssertionError("gram matrix is not symmetric")
        inertia = symmetric_inertia(mat)
        blocks.append((level, wt, mat, inertia))
        if inertia[1]:
            worst_pos = False
        if inertia[2]:
            singular = True
    if not worst_pos:
        verdict = "indefinite"
    elif singular:
        verdict = "positive-semidefinite"
    else:
        verdict = "positive-definite"
    return GramReport(module.lam, depth, blocks, verdict)
