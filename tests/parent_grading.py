"""The degree arithmetic, the factor's form checks and the omega table
builder of colourgl.grading as they were before they worked on whole
tuples, kept verbatim as oracles for tests/test_grading_kernels.py.

GradingGroup and Degree reduced each coordinate by int(c) % 2 in a
generator and set their fields through object.__setattr__;
CommutativeFactor.__init__ checked its forms entry by entry (check_forms);
_table took one _pairings call per pair of distinct degrees.  _table is a
function of the package's factor here, whose _pairings is unchanged.
"""

from colourgl.grading import ShapeError, _as_matrix, _FrozenRecord


class GradingGroup(_FrozenRecord):
    """The abelian group Z^free_rank + Z_2^torsion2_rank."""

    __slots__ = ("free_rank", "torsion2_rank")

    def __init__(self, free_rank, torsion2_rank):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion2_rank", torsion2_rank)
        if free_rank < 0 or torsion2_rank < 0:
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


class Degree(_FrozenRecord):
    """An element of a grading group; torsion coordinates live mod 2."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)

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



def check_forms(group, sign_form, exp_form):
    """The checks of CommutativeFactor.__init__ on its two forms."""
    r = group.rank
    S = _as_matrix(sign_form, r, "sign_form")
    B = _as_matrix(exp_form, r, "exp_form")
    for i in range(r):
        for j in range(r):
            if (S[i][j] - S[j][i]) % 2:
                raise ValueError("sign_form must be symmetric mod 2")
            if B[i][j] != -B[j][i]:
                raise ValueError("exp_form must be skew-symmetric")
    k = group.free_rank
    for i in range(r):
        for j in range(k, r):
            if B[i][j] or B[j][i]:
                raise ValueError(
                    "exp_form must vanish on torsion coordinates")


def _table(self, degrees):
    """(odd, om) for _merge over generators of the given degrees: the
    set of odd generators, and om[g][h] = the pair (s, e) of
    omega(degrees[g], degrees[h]).  It takes one _pairings call per
    pair of distinct degrees and shares one row per distinct degree;
    it is the one builder of the omega tables of the package."""
    index = {}
    kinds = [index.setdefault(d, len(index)) for d in degrees]
    pairs = [[self._pairings(d, e) for e in index] for d in index]
    rows = [tuple(row[k] for k in kinds) for row in pairs]
    return (frozenset(g for g, k in enumerate(kinds) if pairs[k][k][0]),
            tuple(rows[k] for k in kinds))
