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
pairs.  CommutativeFactor._table is the one builder of such tables, for
the basis of a graded space, the generators of an algebra and the
lowering pairs of a Kac module alike, scalars.omega_scalar the one place
a pair becomes a Scalar factor (CommutativeFactor.omega applies it), and
_merge the one place a reordering of a graded word becomes a pair.
_inversion_pair is the same pair read from the word's letter-pair
inversion counts instead of a sort: tensor weights its Young tables,
which keep the counts, by it.

A Degree is made by one constructor, _degree, which sets its two slots
unchecked: group.degree checks and reduces the coordinates it is given
first, and the sums, differences and negatives work on whole reduced
coordinate tuples.  Degree itself takes no arguments.  _table reads each
distinct degree once, as the row pair (a^T S, a^T B), and forms each pair
over the other degree's nonzero coordinates, so a table over unit degrees
costs O(1) an entry, not the O(rank) of _pairings.

A JSON document is read by _json_object, field by field, each value by
its reader: _json_int, _json_list, _json_rows or a document's own, such
as CommutativeFactor.from_json; a missing field, or a value of another
JSON type, is refused by a line that names the field and the type found
(_json_refusal), never the value, and no value is coerced.

_Record gives equality and repr by its fields to a class whose fields are
its __slots__ and then those of its bases: the groups, degrees and
factors here, the report records of reps and the sparse containers of
gl.
"""

from functools import lru_cache
from itertools import count, repeat
from operator import add, attrgetter, getitem, mul, neg, sub

from .scalars import omega_scalar

_BIT = (1).__and__  # c & 1, the residue of an int c mod 2


def _merge(w1, w2, odd, om):
    """The product w1 * w2 of sorted graded-commutative words, as the pair
    (s, e) of its factor (-1)^s q^e and the sorted word: (s, e, word), or
    None when a letter of odd repeats.  Each letter g of w2 enters from
    the right and passes the larger letters h before it, each pass adding
    the pair om[h][g]."""
    s, e, word = 0, 0, w1
    for g in w2:
        if g in odd and g in word:
            return None
        pos = len(word)
        while pos and word[pos - 1] > g:
            pos -= 1
            sh, eh = om[word[pos]][g]
            s ^= sh
            e += eh
        word = word[:pos] + (g,) + word[pos:]
    return s, e, word


def _inversion_pair(letter_pairs, counts, om):
    """The pair sum_i counts[i] om[h][g] over the letter pairs (h, g) of
    letter_pairs: the sign the parity of the counted signs, the exponent
    their sum.  On the inversion counts inv_hg(w) = #{i < j : w_i = h >
    w_j = g} of a word w over every pair h > g of its letters it is the
    (s, e) of _merge((), w, (), om), each letter g passing every larger
    letter h before it once; omega being a bicharacter, counts may be
    differences of such counts, giving the pair of a quotient."""
    s = e = 0
    for (h, g), k in zip(letter_pairs, counts):
        sh, eh = om[h][g]
        s ^= k & sh
        e += k * eh
    return s, e


class ShapeError(ValueError):
    """Dimension mismatch between degrees and bilinear forms."""


class _Record:
    """A record whose fields are the __slots__ of its class and then those
    of its bases: equal to a record of its own class with equal fields,
    and shown as Name(field=value, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = tuple(name for klass in cls.__mro__
                      for name in vars(klass).get("__slots__", ()))
        if names:
            cls._names = names
            cls._fields = attrgetter(*names)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._names)
        return f"{type(self).__name__}({fields})"


class _FrozenRecord(_Record):
    """A _Record that is hashed by its fields and refuses assignment; its
    __init__ sets the fields through object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
            coords = coords[0]
        return _degree(self, self._checked(coords))

    def zero(self):
        return _degree(self, (0,) * self.rank)

    def _checked(self, coords):
        """The reduced int tuple of a degree with the given coordinates, or
        a ShapeError when they are not rank many."""
        coords = tuple(map(int, coords))
        if len(coords) != self.rank:
            raise ShapeError(
                f"degree needs {self.rank} coordinates, got {len(coords)}")
        return self._reduce(coords)

    def _reduce(self, coords):
        """The tuple of int coords with each torsion coordinate taken & 1,
        its residue mod 2."""
        k = self.free_rank
        if self.torsion2_rank:
            return coords[:k] + tuple(map(_BIT, coords[k:]))
        return coords


class Degree(_FrozenRecord):
    """An element of a grading group; torsion coordinates live mod 2.
    Made from outside by group.degree(...), which checks and reduces the
    coordinates; group.degree and the arithmetic build their reduced
    results by _degree, unchecked."""

    __slots__ = ("group", "coords")

    def _group(self, other):
        """The group of self and other, or a ShapeError."""
        group = self.group
        if not isinstance(other, Degree) or (
                other.group is not group and other.group != group):
            raise ShapeError("degrees belong to different grading groups")
        return group

    def __add__(self, other):
        group = self._group(other)
        return _degree(group, group._reduce(
            tuple(map(add, self.coords, other.coords))))

    def __sub__(self, other):
        group = self._group(other)
        return _degree(group, group._reduce(
            tuple(map(sub, self.coords, other.coords))))

    def __neg__(self):
        # -c = c mod 2, so the torsion coordinates stay as they are
        k = self.group.free_rank
        coords = self.coords
        return _degree(self.group, tuple(map(neg, coords[:k])) + coords[k:])

    def is_zero(self):
        return not any(self.coords)

    def __repr__(self):
        return f"Degree{self.coords}"


def _degree(group, coords, new=object.__new__,
            set_group=Degree.group.__set__, set_coords=Degree.coords.__set__):
    """The Degree of group with the reduced int tuple coords, its two slots
    set directly: the one constructor behind group.degree, zero and the
    degree arithmetic, which neither checks nor reduces."""
    degree = new(Degree)
    set_group(degree, group)
    set_coords(degree, coords)
    return degree


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list",
               int: "a JSON integer", str: "a JSON string",
               float: "a JSON float", bool: "a JSON boolean",
               type(None): "JSON null"}


def _json_refusal(value, field, wanted):
    """The ValueError for a value of field that is not a JSON wanted.  It
    names the type found, never the value, so the line is short however
    long the value."""
    found = _JSON_TYPES.get(type(value), f"a Python {type(value).__name__}")
    return ValueError(f"{field}: {found} is not a JSON {wanted}")


def _json_int(value, field):
    """value when it is a JSON integer; a ValueError naming field for a
    float, a bool, a string or anything else, which int() would coerce."""
    if type(value) is not int:
        raise _json_refusal(value, field, "integer")
    return value


def _json_object(doc, name, **readers):
    """The fields of doc, the JSON object called name, in the order of
    readers, each value read by readers[field](value, field); a ValueError
    naming name when doc is not a JSON object, or naming the first field
    of readers that it lacks."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} is not a JSON object")
    for field in readers:
        if field not in doc:
            raise ValueError(f"{name} missing field {field!r}")
    return [read(doc[field], field) for field, read in readers.items()]


def _json_list(value, field, read=_json_int):
    """A JSON list as a tuple, each entry read by read(entry, field); a
    ValueError naming field for anything else."""
    if not isinstance(value, list):
        raise _json_refusal(value, field, "list")
    return tuple(read(x, field) for x in value)


def _json_rows(value, field):
    """A JSON list of JSON lists of JSON integers, as a tuple of tuples."""
    return _json_list(value, field, _json_list)


def _combination(rows, support, width):
    """The sum of c * rows[j] over the (j, c) of support, a tuple of width
    ints."""
    out = None
    for j, c in support:
        row = rows[j] if c == 1 else tuple(map(mul, rows[j], repeat(c)))
        out = row if out is None else tuple(map(add, out, row))
    return (0,) * width if out is None else out


def _as_matrix(rows, rank, name):
    mat = tuple(tuple(map(int, row)) for row in rows)
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise ShapeError(f"{name} must be a {rank}x{rank} integer matrix")
    return mat


class CommutativeFactor(_FrozenRecord):
    """The bicharacter (-1)^(a^T S b) q^(a^T B b) on a grading group.

    S is read mod 2 and must be symmetric mod 2; B must be skew-symmetric
    with zero rows and columns on the torsion coordinates.  Those two
    conditions make omega a bicharacter with omega(a,b) omega(b,a) = 1 and
    omega(a,a) in {+1,-1} by construction.
    """

    __slots__ = ("group", "sign_form", "exp_form")

    def __init__(self, group, sign_form, exp_form):
        r = group.rank
        S = _as_matrix(sign_form, r, "sign_form")
        B = _as_matrix(exp_form, r, "exp_form")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "sign_form", S)
        object.__setattr__(self, "exp_form", B)
        # S mod 2 against its transpose and B against minus its transpose,
        # a whole row at a time; entry by entry only in a row that differs,
        # so the first fault in row order is the one reported
        S2 = tuple(tuple(map(_BIT, row)) for row in S)
        for rows in zip(S2, zip(*S2), B,
                        (tuple(map(neg, column)) for column in zip(*B))):
            if rows[0] != rows[1] or rows[2] != rows[3]:
                for s, s_t, b, minus_b_t in zip(*rows):
                    if s != s_t:
                        raise ValueError("sign_form must be symmetric mod 2")
                    if b != minus_b_t:
                        raise ValueError("exp_form must be skew-symmetric")
        k = group.free_rank
        if any(any(row[k:]) for row in B):  # B skew: its rows >= k too
            raise ValueError("exp_form must vanish on torsion coordinates")

    def _pairings(self, a, b):
        group = self.group
        if (a.group is not group and a.group != group
                or b.group is not group and b.group != group):
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

    def _table(self, degrees):
        """(odd, om) for _merge over generators of the given degrees: the
        set of odd generators, and om[g][h] = the pair (s, e) of
        omega(degrees[g], degrees[h]).  Each distinct degree a is read once,
        as the row pair (a^T S, a^T B); the pair of (a, b) is the dot
        product of a's rows with b over b's nonzero coordinates, formed a
        column b at a time over every a: O(k^2 nnz) for k distinct
        degrees.  It is the one builder of the omega tables of the
        package."""
        index = {}
        kinds = [index.setdefault(d, len(index)) for d in degrees]
        group = self.group
        for d in index:
            if d.group is not group and d.group != group:
                raise ShapeError(
                    "degree does not belong to this factor's group")
        r = group.rank
        supports = [[(j, c) for j, c in enumerate(d.coords) if c]
                    for d in index]
        # row j of S_T is column j of the rows a^T S over every a
        S_T, B_T = (tuple(zip(*(_combination(form, support, r)
                                 for support in supports)))
                    for form in (self.sign_form, self.exp_form))
        width = len(index)
        columns = [zip(map(_BIT, _combination(S_T, support, width)),
                       _combination(B_T, support, width))
                   for support in supports]
        pairs = list(zip(*columns))  # pairs[a][b]
        rows = [tuple(map(row.__getitem__, kinds)) for row in pairs]
        return (frozenset(g for g, k in enumerate(kinds) if pairs[k][k][0]),
                tuple(map(rows.__getitem__, kinds)))

    def omega(self, a, b):
        """omega(a, b) as an exact Scalar."""
        return omega_scalar(*self._pairings(a, b))

    def parity(self, a):
        """omega(a, a) as an integer sign, +1 or -1: (-1)^(a^T S a), read
        from the diagonal of S alone, as a^T S a = sum_i a_i S_ii mod 2:
        a_i^2 = a_i mod 2, and S_ij + S_ji is even for i != j."""
        if a.group is not self.group and a.group != self.group:
            raise ShapeError("degree does not belong to this factor's group")
        diagonal = map(getitem, self.sign_form, count())
        return -1 if sum(map(mul, diagonal, a.coords)) & 1 else 1

    def is_sign_valued(self):
        """True iff the q-exponent form vanishes, the factors for which
        omega(a,b)* = omega(a,b)^(-1) holds identically in q: |q| = 1 is
        not expressible for an indeterminate."""
        return all(all(x == 0 for x in row) for row in self.exp_form)

    # -- JSON interface ------------------------------------------------------

    def to_json(self):
        return {
            "free_rank": self.group.free_rank,
            "torsion2_rank": self.group.torsion2_rank,
            "sign_form": [list(row) for row in self.sign_form],
            "exp_form": [list(row) for row in self.exp_form],
        }

    @classmethod
    def from_json(cls, doc, name="factor"):
        """The factor of the JSON object doc, called name in a refusal,
        which must hold JSON integers where the constructor takes ints: no
        value is coerced."""
        free, torsion, *forms = _json_object(
            doc, name, free_rank=_json_int, torsion2_rank=_json_int,
            sign_form=_json_rows, exp_form=_json_rows)
        return cls(GradingGroup(free, torsion), *forms)


@lru_cache(maxsize=None)
def superalgebra_factor():
    """Gamma = Z_2 with omega(a, b) = (-1)^(ab): the superalgebra case."""
    group = GradingGroup(0, 1)
    return CommutativeFactor(group, ((1,),), ((0,),))

