"""Highest-weight module analytics for gl(V).

Everything here works with exact rational weights in the flat eps-basis.
The contravariant-form machinery realises the parabolically induced module
U(vbar) x L0 concretely (odd lowering words over explicit sl2 strings per
parity block) and computes Gram matrices by moving *-conjugated operators
across with the graded commutation relations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .gl import GlElement, _add_into, rho, weight_inner
from .partitions import check_partition, dim_glN, in_hook, lambda_sharp
from .scalars import ONE, Scalar
from .tensor import TensorVector, gl_act_tensor, highest_weight_vector
from .weyl import _reduce, rank_of_rows


class UnsupportedFactor(ValueError):
    """The commutative factor is q-valued where a *-structure is needed."""


class UnsupportedSpace(ValueError):
    """The graded space is outside the supported block sizes."""


class DualWeightUnsupported(ValueError):
    """lambda* is not computable by the implemented rules."""


def _as_weight(space, lam):
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != space.dim:
        raise ValueError(f"weight needs {space.dim} coordinates")
    return lam


def _blocks(space, lam):
    mp = space.m_plus
    return lam[:mp], lam[mp:]


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


def kac_dimension(space, lam):
    """2^(M+ M-) * dim L0(k), the L0 factor through the classical Weyl
    dimension formula per parity block after removing the constant twist."""
    lam = _as_weight(space, lam)
    if not is_finite_dimensional(space, lam):
        raise ValueError(f"{lam} is not dominant")
    total = 2 ** (space.m_plus * space.m_minus)
    for block in _blocks(space, lam):
        if not block:
            continue
        shifted = tuple(int(x - block[-1]) for x in block)
        part = tuple(p for p in shifted if p)
        total *= dim_glN(part, len(block)) if part else 1
    return total


def casimir_eigenvalue(space, lam):
    """(lambda + 2 rho, lambda) under the signed inner product."""
    lam = _as_weight(space, lam)
    r = rho(space)
    shifted = tuple(x + 2 * y for x, y in zip(lam, r))
    return weight_inner(space, shifted, lam)


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
    lam = check_partition(lam)
    v = highest_weight_vector(space, lam)
    sharp = lambda_sharp(lam, space.m_plus, space.m_minus)
    scalar = casimir_eigenvalue(space, tuple(Fraction(c) for c in sharp))
    return casimir_apply(space, v) - v.scale(Scalar.from_rational(scalar))


# -- unitarisability classification ------------------------------------------

@dataclass
class UnitarisableVerdict:
    unitarisable: bool
    star_type: str
    reason: str
    certificate: dict = field(default_factory=dict)

    def to_json(self):
        cert = {}
        for key, value in self.certificate.items():
            if isinstance(value, Fraction):
                cert[key] = str(value)
            elif isinstance(value, tuple):
                cert[key] = [str(x) for x in value]
            else:
                cert[key] = value
        return {"unitarisable": self.unitarisable, "star_type": self.star_type,
                "reason": self.reason, "certificate": cert}


def _script_e(space):
    """The weight E = sum eps_i - sum eps_rbar."""
    return tuple(Fraction(1) if a < space.m_plus else Fraction(-1)
                 for a in range(space.dim))


def _sharp_to_partition(space, sharp):
    """Reconstruct the hook partition mu with mu# = sharp, or None."""
    mp, mm = space.m_plus, space.m_minus
    plus, minus = sharp[:mp], sharp[mp:]
    if any(x.denominator != 1 or x < 0 for x in plus + minus):
        return None
    plus = tuple(int(x) for x in plus)
    minus = tuple(int(x) for x in minus)
    if any(x < y for x, y in zip(plus, plus[1:])) or \
            any(x < y for x, y in zip(minus, minus[1:])):
        return None
    tail = tuple(sum(1 for x in minus if x >= j)
                 for j in range(1, (minus[0] if minus else 0) + 1))
    mu = tuple(p for p in plus + tail if p)
    if not all(x >= y for x, y in zip(mu, mu[1:])):
        return None
    if not in_hook(mu, mp, mm):
        return None
    if lambda_sharp(mu, mp, mm) != tuple(int(x) for x in plus + minus):
        return None
    return mu


def classify_unitarisable(space, lam, star_type="I"):
    """Classification against the compact *-structures.

    Type I: dominant real weight, and either typical with
    (lambda+rho, eps_{M+} - eps_{M-bar}) > 0, or atypical with some r
    satisfying (lambda+rho, eps_{M+} - eps_rbar) = 0 and
    lambda_rbar = lambda_{M-bar}.  The certificate carries the
    a*E + mu# - b*E+ decomposition when unitarisable.

    Type II: holds iff the dual weight lambda* passes type I."""
    if not space.factor.has_unit_modulus_property():
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
                f"typical unitarisable weight {lam} produced no partition")
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
                    f"atypical unitarisable weight {lam} gave no partition")
            return UnitarisableVerdict(
                True, "I", f"atypical with vanishing root r={ridx + 1}",
                {"branch": "atypical", "r": ridx + 1, "a": -t, "mu": mu,
                 "b": Fraction(0)})
    return UnitarisableVerdict(
        False, "I", "atypical with no admissible vanishing odd root",
        {"chi": chi})


# -- dual weights -------------------------------------------------------------

# largest |mu| whose L_{mu#} dual_weight realises inside V^(tensor |mu|)
TENSOR_SIZE_BOUND = 6


def dual_weight(space, lam):
    """The highest weight of the dual module L_lambda^*.

    Typical lambda: exact through the Kac-module lowest weight.  Otherwise
    lambda must be a*E + mu# for a hook partition mu with |mu| small enough
    to realise L_{mu#} inside a tensor power; anything else raises
    DualWeightUnsupported."""
    lam = _as_weight(space, lam)
    if not is_finite_dimensional(space, lam):
        raise DualWeightUnsupported(f"{lam} is not dominant")
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
            f"{lam} is atypical and not of the form a*E + mu#")
    if sum(mu) > TENSOR_SIZE_BOUND:
        raise DualWeightUnsupported(
            f"hook partition {mu} too large for the tensor realisation")
    # lambda = -t*E + mu#, so lowest(lambda) = -t*E + lowest(mu#)
    low = _tensor_module_lowest_weight(space, mu)
    return tuple(t * e - x for e, x in zip(escript, low))


def _tensor_module_lowest_weight(space, mu):
    """Lowest weight of the simple tensor module generated by the highest
    weight vector of the hook partition mu inside V^(tensor |mu|)."""
    mu = check_partition(mu)
    start = highest_weight_vector(space, mu)
    by_weight = {}
    queue = [start]
    _reduce(by_weight.setdefault(start.weight(), {}), start.terms)
    gens = [GlElement.matrix_unit(space, a, b)
            for a in range(space.dim) for b in range(space.dim) if a != b]
    while queue:
        current = queue.pop()
        for gen in gens:
            image = gl_act_tensor(gen, current)
            if image.is_zero():
                continue
            reduced = _reduce(by_weight.setdefault(image.weight(), {}),
                              image.terms)
            if reduced is not None:
                queue.append(TensorVector(space, start.power, reduced))
    lowering = [GlElement.matrix_unit(space, a, b)
                for a in range(space.dim) for b in range(space.dim) if a > b]
    lowest = []
    for weight, echelon in by_weight.items():
        columns = {}
        for j, row in enumerate(echelon.values()):
            vec = TensorVector(space, start.power, row)
            for gen in lowering:
                image = gl_act_tensor(gen, vec)
                for word, coef in image.terms.items():
                    columns.setdefault((id(gen), word), {})[j] = coef
        if len(echelon) - rank_of_rows(columns.values()) > 0:
            lowest.append(weight)
    if len(lowest) != 1:
        raise AssertionError(f"lowest weight not unique: {lowest}")
    return lowest[0]


# -- the contravariant form on parabolically induced modules ------------------

class KacModule:
    """U(vbar) x L0 with basis (S, k+, k-): S a sorted word of odd lowering
    pairs, k+- positions along the sl2 strings of the parity blocks.

    The generator action is computed by straightening with the matrix-unit
    commutation relations; the contravariant form moves *(F_S) = E-chains
    across and pairs in L0."""

    def __init__(self, space, lam):
        if not space.factor.has_unit_modulus_property():
            raise UnsupportedFactor(
                "the contravariant form needs a sign-valued factor")
        if space.m_plus > 2 or space.m_minus > 2:
            raise UnsupportedSpace(
                "gram machinery supports parity blocks of size <= 2")
        lam = _as_weight(space, lam)
        if not is_finite_dimensional(space, lam):
            raise ValueError(f"{lam} is not dominant")
        self.space = space
        self.lam = lam
        mp, mm = space.m_plus, space.m_minus
        self.mp, self.mm = mp, mm
        self.pairs = [(i, rb) for i in range(mp)
                      for rb in range(mp, space.dim)]
        self.pair_degree = [space.degrees[rb] - space.degrees[i]
                            for i, rb in self.pairs]
        self.n_plus = int(lam[0] - lam[1]) + 1 if mp == 2 else 1
        self.n_minus = int(lam[mp] - lam[mp + 1]) + 1 if mm == 2 else 1
        self.plus_root_degree = (space.degrees[1] - space.degrees[0]
                                 if mp == 2 else None)
        self.minus_root_degree = (space.degrees[mp + 1] - space.degrees[mp]
                                  if mm == 2 else None)

    def _sign(self, d1, d2):
        return -1 if self.space.factor._pairings(d1, d2)[0] else 1

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
        if self.mp == 2:
            coords[0] -= kp
            coords[1] += kp
        if self.mm == 2:
            coords[self.mp] -= km
            coords[self.mp + 1] += km
        return tuple(coords)

    def _prepend_pair(self, sid, vec):
        """Left multiplication by F_{sid} on a coefficient vector."""
        out = {}
        deg = self.pair_degree[sid]
        for (S, kp, km), coef in vec.items():
            if sid in S:
                continue
            sign = 1
            pos = 0
            while pos < len(S) and S[pos] < sid:
                sign *= self._sign(deg, self.pair_degree[S[pos]])
                pos += 1
            _add_into(out, (S[:pos] + (sid,) + S[pos:], kp, km), sign * coef)
        return out

    def _act_l0(self, a, b, kp, km):
        """The k-action on the L0 basis vector (kp, km)."""
        mp = self.mp
        lam = self.lam
        out = {}
        if a == b:
            coords = self.weight(((), kp, km))
            if coords[a]:
                out[((), kp, km)] = coords[a]
            return out
        if a < mp and b < mp:
            if (a, b) == (0, 1):  # raising in the even block
                if kp:
                    out[((), kp - 1, km)] = kp * (lam[0] - lam[1] - kp + 1)
            else:  # lowering
                if kp + 1 < self.n_plus:
                    out[((), kp + 1, km)] = Fraction(1)
            return out
        if a >= mp and b >= mp:
            deg = (self.space.degrees[a] - self.space.degrees[b])
            phi = 1
            if kp and self.plus_root_degree is not None:
                phi = self._sign(deg, self.plus_root_degree) ** kp
            if (a, b) == (mp, mp + 1):
                if km:
                    out[((), kp, km - 1)] = phi * km * (
                        lam[mp] - lam[mp + 1] - km + 1)
            else:
                if km + 1 < self.n_minus:
                    out[((), kp, km + 1)] = Fraction(phi)
            return out
        raise AssertionError("mixed-parity generator reached the L0 action")

    def act(self, a, b, el):
        """E_ab applied to a basis element; returns {element: Fraction}."""
        space = self.space
        S, kp, km = el
        mp = self.mp
        if not S:
            if a < mp <= b:
                return {}
            if b < mp <= a:
                sid = self.pairs.index((b, a))
                return self._prepend_pair(sid, {((), kp, km): Fraction(1)})
            return self._act_l0(a, b, kp, km)
        sid = S[0]
        rest = (S[1:], kp, km)
        i, rb = self.pairs[sid]
        deg_x = space.degrees[a] - space.degrees[b]
        out = {}
        # bracket term [E_ab, E_{rb,i}] = delta_{b,rb} E_{a,i}
        #   - omega(deg_x, deg_F) delta_{i,a} E_{rb,b}
        if b == rb:
            for key, coef in self.act(a, i, rest).items():
                _add_into(out, key, coef)
        if a == i:
            om = self._sign(deg_x, self.pair_degree[sid])
            for key, coef in self.act(rb, b, rest).items():
                _add_into(out, key, -om * coef)
        # pass-through term omega(deg_x, deg_F) F_{sid} (E_ab rest)
        om = self._sign(deg_x, self.pair_degree[sid])
        inner = self.act(a, b, rest)
        for key, coef in self._prepend_pair(
                sid, {k: om * c for k, c in inner.items()}).items():
            _add_into(out, key, coef)
        return out

    def act_vector(self, a, b, vec):
        out = {}
        for el, coef in vec.items():
            for key, c in self.act(a, b, el).items():
                _add_into(out, key, coef * c)
        return out

    def _l0_norm(self, kp, km):
        value = Fraction(1)
        if self.mp == 2:
            for t in range(1, kp + 1):
                value *= t * (self.lam[0] - self.lam[1] - t + 1)
        if self.mm == 2:
            for t in range(1, km + 1):
                value *= t * (self.lam[self.mp] - self.lam[self.mp + 1]
                              - t + 1)
        return value

    def form(self, el1, el2):
        """The contravariant form <F_S w, F_T w'> for the type I compact
        *-structure, by applying *(F_S) = E_{s_k}..E_{s_1} to el2."""
        S, kp, km = el1
        vec = {el2: Fraction(1)}
        for sid in S:  # rightmost factor of the E-chain acts first
            i, rb = self.pairs[sid]
            vec = self.act_vector(i, rb, vec)
            if not vec:
                return Fraction(0)
        total = Fraction(0)
        for (T, lp, lm), coef in vec.items():
            if not T and (lp, lm) == (kp, km):
                total += coef * self._l0_norm(kp, km)
        return total


@dataclass
class GramReport:
    weight: tuple
    depth: int
    blocks: list
    verdict: str

    @property
    def unitarisable(self):
        return self.verdict != "indefinite"

    @property
    def degenerate(self):
        """True iff some Gram block has a nontrivial radical."""
        return any(inertia[2] for _, _, _, inertia in self.blocks)

    def to_json(self):
        return {
            "weight": [str(x) for x in self.weight],
            "depth": self.depth,
            "verdict": self.verdict,
            "blocks": [
                {"level": level, "weight": [str(x) for x in wt],
                 "size": len(mat),
                 "inertia": list(inertia),
                 "gram": [[str(x) for x in row] for row in mat]}
                for level, wt, mat, inertia in self.blocks
            ],
        }


def symmetric_inertia(mat):
    """(positive, negative, zero) eigenvalue counts of an exact symmetric
    matrix, by congruence diagonalisation (Sylvester's law)."""
    n = len(mat)
    work = [[Fraction(x) for x in row] for row in mat]
    alive = list(range(n))
    pos = neg = zero = 0
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
        for i in alive:
            factor = work[i][pivot] / d
            if factor:
                for k in range(n):
                    work[i][k] -= factor * work[pivot][k]
                for k in range(n):
                    work[k][i] -= factor * work[k][pivot]
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
    groups = {}
    for el in module.basis(max_level=depth):
        key = (len(el[0]), module.weight(el))
        groups.setdefault(key, []).append(el)
    blocks = []
    worst_pos = True
    singular = False
    for (level, wt), els in sorted(groups.items()):
        mat = [[module.form(e1, e2) for e2 in els] for e1 in els]
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
    return GramReport(tuple(_as_weight(space, lam)), depth, blocks, verdict)
