"""Grading groups Z^k + Z_2^l and commutative factors on them.

A commutative factor is a bicharacter omega: Gamma x Gamma -> C* with
omega(a,b) omega(b,a) = 1.  We realise the family

    omega(a, b) = (-1)^(a^T S b) * q^(a^T B b)

with S symmetric mod 2 and B integer skew-symmetric, B vanishing on the
torsion coordinates (so q-exponents are well defined on Z_2 summands).
This covers every grading used downstream: Z_2 superalgebras, Z_2 x Z_2
colour algebras, Z^n sign gradings and the Z^(m+n) q-deformed factor.

omega(a, b) is read as the integer pair (s, e) = (a^T S b mod 2, a^T B b).
As omega is a bicharacter, omega between sums and differences of degrees
is the pair of XOR-ed signs and summed (or subtracted) exponents, so the
graded space keeps one pair per two basis indices and the algorithms sum
pairs.  omega_scalar is the one place a pair becomes a Scalar factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import ONE, Scalar


def omega_scalar(s, e, coef=ONE):
    """coef * (-1)^s q^e, with no multiplication when (s, e) = (0, 0)."""
    if e:
        q_e = Scalar.q_power(e)
        coef = q_e if coef is ONE else coef * q_e
    return -coef if s else coef


class ShapeError(ValueError):
    """Dimension mismatch between degrees and bilinear forms."""


@dataclass(frozen=True)
class GradingGroup:
    """The abelian group Z^free_rank + Z_2^torsion2_rank."""

    free_rank: int
    torsion2_rank: int

    def __post_init__(self):
        if self.free_rank < 0 or self.torsion2_rank < 0:
            raise ValueError("ranks must be non-negative")

    @property
    def rank(self):
        return self.free_rank + self.torsion2_rank

    def degree(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ShapeError(
                f"degree needs {self.rank} coordinates, got {len(coords)}")
        return Degree(self, self._reduce(coords))

    def zero(self):
        return self.degree(*(0,) * self.rank)

    def _reduce(self, coords):
        k = self.free_rank
        return tuple(int(c) if i < k else int(c) % 2
                     for i, c in enumerate(coords))


@dataclass(frozen=True)
class Degree:
    """An element of a grading group; torsion coordinates live mod 2."""

    group: GradingGroup
    coords: tuple

    def _check(self, other):
        if not isinstance(other, Degree) or other.group != self.group:
            raise ShapeError("degrees belong to different grading groups")

    def __add__(self, other):
        self._check(other)
        return Degree(self.group, self.group._reduce(
            tuple(a + b for a, b in zip(self.coords, other.coords))))

    def __sub__(self, other):
        self._check(other)
        return Degree(self.group, self.group._reduce(
            tuple(a - b for a, b in zip(self.coords, other.coords))))

    def __neg__(self):
        return Degree(self.group, self.group._reduce(
            tuple(-a for a in self.coords)))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"Degree{self.coords}"


def _as_matrix(rows, rank, name):
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise ShapeError(f"{name} must be a {rank}x{rank} integer matrix")
    return mat


@dataclass(frozen=True)
class CommutativeFactor:
    """The bicharacter (-1)^(a^T S b) q^(a^T B b) on a grading group.

    S is read mod 2 and must be symmetric mod 2; B must be skew-symmetric
    with zero rows and columns on the torsion coordinates.  Those two
    conditions make omega a bicharacter with omega(a,b) omega(b,a) = 1 and
    omega(a,a) in {+1,-1} by construction.
    """

    group: GradingGroup
    sign_form: tuple
    exp_form: tuple

    def __post_init__(self):
        r = self.group.rank
        object.__setattr__(self, "sign_form",
                           _as_matrix(self.sign_form, r, "sign_form"))
        object.__setattr__(self, "exp_form",
                           _as_matrix(self.exp_form, r, "exp_form"))
        S, B = self.sign_form, self.exp_form
        for i in range(r):
            for j in range(r):
                if (S[i][j] - S[j][i]) % 2:
                    raise ValueError("sign_form must be symmetric mod 2")
                if B[i][j] != -B[j][i]:
                    raise ValueError("exp_form must be skew-symmetric")
        k = self.group.free_rank
        for i in range(r):
            for j in range(k, r):
                if B[i][j] or B[j][i]:
                    raise ValueError(
                        "exp_form must vanish on torsion coordinates")

    @classmethod
    def trivial(cls, group):
        r = group.rank
        zero = tuple((0,) * r for _ in range(r))
        return cls(group, zero, zero)

    def _pairings(self, a, b):
        if a.group != self.group or b.group != self.group:
            raise ShapeError("degree does not belong to this factor's group")
        s = e = 0
        for i, ai in enumerate(a.coords):
            if not ai:
                continue
            Si, Bi = self.sign_form[i], self.exp_form[i]
            for j, bj in enumerate(b.coords):
                if bj:
                    s += ai * Si[j] * bj
                    e += ai * Bi[j] * bj
        return s % 2, e

    def omega(self, a, b):
        """omega(a, b) as an exact Scalar."""
        return omega_scalar(*self._pairings(a, b))

    def parity(self, a):
        """omega(a, a) as an integer sign, +1 or -1."""
        s, _ = self._pairings(a, a)
        return -1 if s else 1

    def is_sign_valued(self):
        return all(all(x == 0 for x in row) for row in self.exp_form)

    def has_unit_modulus_property(self):
        """True iff omega(a,b)* = omega(a,b)^(-1) holds identically in q.

        Formally this forces the q-exponent form to vanish: |q| = 1 is not
        expressible for an indeterminate, so only sign-valued factors
        qualify.
        """
        return self.is_sign_valued()

    # -- JSON interface ------------------------------------------------------

    def to_json(self):
        return {
            "free_rank": self.group.free_rank,
            "torsion2_rank": self.group.torsion2_rank,
            "sign_form": [list(row) for row in self.sign_form],
            "exp_form": [list(row) for row in self.exp_form],
        }

    @classmethod
    def from_json(cls, doc):
        try:
            group = GradingGroup(int(doc["free_rank"]),
                                 int(doc["torsion2_rank"]))
            return cls(group, doc["sign_form"], doc["exp_form"])
        except KeyError as exc:
            raise ValueError(f"factor document missing field {exc}") from exc


@lru_cache(maxsize=None)
def superalgebra_factor():
    """Gamma = Z_2 with omega(a, b) = (-1)^(ab): the superalgebra case."""
    group = GradingGroup(0, 1)
    return CommutativeFactor(group, ((1,),), ((0,),))


def omega_eval(factor, a, b):
    return factor.omega(a, b)


def omega_parity(factor, a):
    return factor.parity(a)


def has_unit_modulus_property(factor):
    return factor.has_unit_modulus_property()
