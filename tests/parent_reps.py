"""Parent routines of colourgl.reps, kept verbatim as oracles.

kac_dimension as it was before it took the Weyl dimension formula
directly, the oracle of tests/test_rules_once.py: it shifted each parity
block to a partition and called dim_glN, which forms the factorials of
the coordinates, so a coordinate of 10^6 ran for over a minute.  Only its
refusal's text changed since, to print the weight as the CLI reads it,
as the package's refusals do.

classify_unitarisable and dual_weight as they were before reps stated the
decomposition lambda = a*E + mu# - b*E+ once, with the weight E of
_script_e, the oracles of tests/test_unitarity_oracle.py: each branch wrote
out the decomposition itself.

_casimir_defect as it was before it ran a over the letters of the
witness alone: it applied E_ab E_ba over all dim V ** 2 ordered pairs.

kac_pair_table is the (odd, om) that KacModule passed to _merge before it
took both from CommutativeFactor._table over the degrees of its lowering
pairs: every pair counted odd, and the pairs built from gl._bracket_pair.

l0_norm is the loop of KacModule._l0_norm before the module built its L0
norms whole as the table _norms: for each (k+, k-) on its first read, the
product of the raising coefficients t (d - t + 1), t = 1..k, down each
string, one factor at a time.  It reads the module's _strings, as the
method did.

_as_weight, is_finite_dimensional, typicality and casimir_eigenvalue as
they were before reps kept integral coordinates on ints: every coordinate
a Fraction, and rho entering as half-integral Fractions through rho and
gl.weight_inner.  rho as gl had it before it halved gl._two_rho, the one
statement of 2 rho that the package's weight layer reads: the coordinates
written out one by one.  The routines above call these copies, so that the
oracles stay the parent's when the package's weight layer changes.

The other helpers they call are unchanged and imported from the package."""

import math
from fractions import Fraction

from colourgl.gl import _add_ints, _bracket_pair, _to_scalars, weight_inner
from colourgl.partitions import _sharp, _transpose, dim_glN
from colourgl.reps import (DualWeightUnsupported, UnitarisableVerdict,
                           UnsupportedFactor, _blocks, _sharp_to_partition,
                           _weight_text)
from colourgl.scalars import Scalar
from colourgl.tensor import TensorVector, _act


def rho(space):
    """The half-sum rho = rho_0 - rho_1 in coordinates:
    rho_i = (M+ - M- - 2i + 1)/2 on the even block (i = 1..M+),
    rho_r = (M+ + M- - 2r + 1)/2 on the odd block (r = 1..M-)."""
    mp, mm = space.m_plus, space.m_minus
    coords = []
    for i in range(1, mp + 1):
        coords.append(Fraction(mp - mm - 2 * i + 1, 2))
    for r in range(1, mm + 1):
        coords.append(Fraction(mp + mm - 2 * r + 1, 2))
    return tuple(coords)


def _as_weight(space, lam):
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != space.dim:
        raise ValueError(f"weight needs {space.dim} coordinates")
    return lam


def is_finite_dimensional(space, lam):
    """Dominance: within each parity block, consecutive coordinate
    differences are non-negative integers (the odd/even blocks are not
    compared with each other)."""
    lam = _as_weight(space, lam)
    for block in _blocks(space, lam):
        for x, y in zip(block, block[1:]):
            d = x - y
            if d < 0 or d.denominator != 1:
                return False
    return True


def typicality(space, lam):
    """(is_typical, chi) with chi = prod over odd positive roots of
    (lambda + rho, eps_i - eps_rbar)."""
    lam = _as_weight(space, lam)
    r = rho(space)
    shifted = tuple(x + y for x, y in zip(lam, r))
    chi = Fraction(1)
    for i in range(space.m_plus):
        for rb in range(space.m_plus, space.dim):
            chi *= shifted[i] + shifted[rb]
    return chi != 0, chi


def casimir_eigenvalue(space, lam):
    """(lambda + 2 rho, lambda) under the signed inner product."""
    lam = _as_weight(space, lam)
    r = rho(space)
    shifted = tuple(x + 2 * y for x, y in zip(lam, r))
    return weight_inner(space, shifted, lam)


def kac_dimension(space, lam):
    """2^(M+ M-) * dim L0(k), the L0 factor through the classical Weyl
    dimension formula per parity block after removing the constant twist."""
    lam = _as_weight(space, lam)
    if not is_finite_dimensional(space, lam):
        raise ValueError(f"{_weight_text(lam)} is not dominant")
    total = 2 ** (space.m_plus * space.m_minus)
    for block in _blocks(space, lam):
        if not block:
            continue
        shifted = tuple(int(x - block[-1]) for x in block)
        part = tuple(p for p in shifted if p)
        total *= dim_glN(part, len(block)) if part else 1
    return total


def _script_e(space):
    """The weight E = sum eps_i - sum eps_rbar."""
    return tuple(Fraction(1) if a < space.m_plus else Fraction(-1)
                 for a in range(space.dim))


def classify_unitarisable(space, lam, star_type="I"):
    """Classification against the compact *-structures.

    Type I: dominant real weight, and either typical with
    (lambda+rho, eps_{M+} - eps_{M-bar}) > 0, or atypical with some r
    satisfying (lambda+rho, eps_{M+} - eps_rbar) = 0 and
    lambda_rbar = lambda_{M-bar}.  The certificate carries the
    a*E + mu# - b*E+ decomposition when unitarisable.

    Type II: holds iff the dual weight lambda* passes type I."""
    if not space.factor.is_sign_valued():
        raise UnsupportedFactor(
            "unitarisability needs a sign-valued commutative factor")
    if star_type not in ("I", "II"):
        raise ValueError(f"unknown *-structure type {star_type!r}")
    lam = _as_weight(space, lam)
    if star_type == "II":
        dual = dual_weight(space, lam)
        inner = classify_unitarisable(space, dual, "I")
        cert = dict(inner.certificate)
        cert["dual_weight"] = dual
        return UnitarisableVerdict(inner.unitarisable, "II",
                                   f"dual weight: {inner.reason}", cert)

    if not is_finite_dimensional(space, lam):
        return UnitarisableVerdict(False, "I", "weight is not dominant")
    mp, mm = space.m_plus, space.m_minus
    if mp == 0 or mm == 0:
        return UnitarisableVerdict(
            True, "I", "colour algebra: every dominant real weight works",
            {"branch": "colour"})
    r = rho(space)
    shifted = tuple(x + y for x, y in zip(lam, r))
    typical, chi = typicality(space, lam)
    escript = _script_e(space)
    if typical:
        edge = shifted[mp - 1] + shifted[-1]
        if edge <= 0:
            return UnitarisableVerdict(
                False, "I",
                "typical with (lambda+rho, eps_{M+}-eps_{M-bar}) <= 0",
                {"edge": edge, "chi": chi})
        t = lam[-1]
        ring = tuple(x + t * e for x, e in zip(lam, escript))
        b = Fraction(math.ceil(ring[0])) - ring[0]
        sharp = tuple(x + b for x in ring[:mp]) + ring[mp:]
        mu = _sharp_to_partition(space, sharp)
        if mu is None:
            raise AssertionError(
                f"typical unitarisable weight {_weight_text(lam)} "
                "produced no partition")
        return UnitarisableVerdict(
            True, "I", "typical with positive edge product",
            {"branch": "typical", "a": -t, "mu": mu, "b": b, "chi": chi})
    for ridx in range(mm):
        rb = mp + ridx
        if shifted[mp - 1] + shifted[rb] == 0 and lam[rb] == lam[-1]:
            t = lam[rb]
            ring = tuple(x + t * e for x, e in zip(lam, escript))
            mu = _sharp_to_partition(space, ring)
            if mu is None:
                raise AssertionError(
                    f"atypical unitarisable weight {_weight_text(lam)} "
                    "gave no partition")
            return UnitarisableVerdict(
                True, "I", f"atypical with vanishing root r={ridx + 1}",
                {"branch": "atypical", "r": ridx + 1, "a": -t, "mu": mu,
                 "b": Fraction(0)})
    return UnitarisableVerdict(
        False, "I", "atypical with no admissible vanishing odd root",
        {"chi": chi})


def dual_weight(space, lam):
    """The highest weight of the dual module L_lambda^*: minus the lowest
    weight of L_lambda.

    Typical lambda: exact through the Kac-module lowest weight.  Otherwise
    lambda must be a*E + mu# for a hook partition mu, and the lowest weight
    of L_{mu#} is closed form: L_{mu#} has the hook Schur character
    hs_mu(x/y) = hs_mu'(y/x) (Berele-Regev), so its lowest weight is mu'#
    for the Borel with the odd block first, reversed within each block.
    Anything else raises DualWeightUnsupported."""
    lam = _as_weight(space, lam)
    if not is_finite_dimensional(space, lam):
        raise DualWeightUnsupported(f"{_weight_text(lam)} is not dominant")
    mp, mm = space.m_plus, space.m_minus
    typical, _ = typicality(space, lam)
    if typical:
        plus, minus = _blocks(space, lam)
        return tuple(mm - x for x in reversed(plus)) + \
            tuple(-mp - x for x in reversed(minus))
    t = lam[-1]
    escript = _script_e(space)
    ring = tuple(x + t * e for x, e in zip(lam, escript))
    mu = _sharp_to_partition(space, ring)
    if mu is None:
        raise DualWeightUnsupported(
            f"{_weight_text(lam)} is atypical and not of the form "
            "a*E + mu#")
    # lambda = -t*E + mu#, so lowest(lambda) = -t*E + lowest(mu#).  mu' is
    # in the M-|M+ hook as mu is in the M+|M- one, and its sharp is the
    # first M- column lengths of mu, then mu's first M+ rows past column
    # M-: mu is transposed only within its first M- columns
    cols = _transpose(tuple(min(p, mm) for p in mu))
    rows = tuple(max(p - mm, 0) for p in mu[:mp])
    low = (rows + (0,) * (mp - len(rows)))[::-1] + \
        (cols + (0,) * (mm - len(cols)))[::-1]
    return tuple(t * e - x for e, x in zip(escript, low))


def _casimir_defect(space, lam, terms):
    """casimir_defect on the integer witness {(word, e): n} of v: with the
    eigenvalue N/D, D Omega v - N v on ints, Omega = sum_ab omega(g_b, g_b)
    E_ab E_ba applied by tensor._act, then divided by D as Scalars."""
    sharp = _sharp(lam, space.m_plus, space.m_minus)
    value = casimir_eigenvalue(space, tuple(Fraction(c) for c in sharp))
    num, den = value.numerator, value.denominator
    pairs = space._omega_pairs
    out = {key: -num * n for key, n in terms.items()}
    for a in range(space.dim):
        for b in range(space.dim):
            _add_ints(out, _act(pairs, a, b, _act(pairs, b, a, terms)),
                      -den if space.parities[b] == -1 else den)
    return TensorVector(space, sum(lam), _to_scalars(
        [(Scalar.from_rational(Fraction(1, den)),
          {key: n for key, n in out.items() if n})]))


def kac_pair_table(space, pairs):
    """(odd, om) for _merge over the lowering pairs (i, rb) of a Kac
    module: F_sid F_S = 0 when sid is in S, and om[s][t] = the pair (sign
    bit, 0) of omega(deg F_s, deg F_t)."""
    odd = range(len(pairs))
    om = [[(_bracket_pair(space._omega_pairs, rb, i, rb2, i2)[0], 0)
           for i2, rb2 in pairs] for i, rb in pairs]
    return odd, om


def l0_norm(module, kp, km):
    # the product of the raising coefficients down each string
    value = 1
    for string, k in zip(module._strings, (kp, km)):
        for t in range(1, k + 1):
            value *= t * (string[1] - t + 1)
    return value
