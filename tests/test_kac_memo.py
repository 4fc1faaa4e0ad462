"""KacModule.act is memoised per module and its signs come from the sign
bits of the space's omega pairs.  The un-memoised action it replaced is kept
here verbatim as an oracle, with omega read from Degree arithmetic through
the factor, and compared with the module on every (a, b, element) of the
modules behind the gram-d4 and gram-small jobs of the benchmark pool, and
of seeded colour spaces whose signs a superspace never shows."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from colourgl import presets
from colourgl.gl import GradedSpace, _add_into
from colourgl.grading import CommutativeFactor, GradingGroup
from colourgl.reps import KacModule

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


class OracleAction:
    """The generator action as computed before the memo and sign tables."""

    def __init__(self, module):
        space = module.space
        self.module = module
        self.space = space
        self.pairs = module.pairs
        self.lam = module.lam
        self.mp = module.mp
        self.n_plus, self.n_minus = module.n_plus, module.n_minus
        self.pair_degree = [space.degrees[rb] - space.degrees[i]
                            for i, rb in self.pairs]
        self.plus_root_degree = (space.degrees[1] - space.degrees[0]
                                 if self.mp == 2 else None)

    def _sign(self, d1, d2):
        return -1 if self.space.factor._pairings(d1, d2)[0] else 1

    def _prepend_pair(self, sid, vec):
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
        mp = self.mp
        lam = self.lam
        out = {}
        if a == b:
            coords = self.module.weight(((), kp, km))
            if coords[a]:
                out[((), kp, km)] = coords[a]
            return out
        if a < mp and b < mp:
            if (a, b) == (0, 1):
                if kp:
                    out[((), kp - 1, km)] = kp * (lam[0] - lam[1] - kp + 1)
            else:
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
        if b == rb:
            for key, coef in self.act(a, i, rest).items():
                _add_into(out, key, coef)
        if a == i:
            om = self._sign(deg_x, self.pair_degree[sid])
            for key, coef in self.act(rb, b, rest).items():
                _add_into(out, key, -om * coef)
        om = self._sign(deg_x, self.pair_degree[sid])
        inner = self.act(a, b, rest)
        for key, coef in self._prepend_pair(
                sid, {k: om * c for k, c in inner.items()}).items():
            _add_into(out, key, coef)
        return out


def _gram_modules():
    """(space spec, weight) of every gram-d4 and gram-small pool job."""
    pool = json.loads(POOL.read_text())
    cases = []
    for slot in pool["workloads"]["hook"]:
        if slot["name"] not in ("gram-d4", "gram-small"):
            continue
        for job in slot["jobs"]:
            argv = job["argv"]
            spec = argv[argv.index("--space") + 1]
            weight = next(a for a in argv if a.startswith("--weight="))
            cases.append((spec, weight[len("--weight="):]))
    return pool["spaces"], cases


SPACES, CASES = _gram_modules()


def _module(spec, weight):
    if spec.startswith("@space:"):
        space = GradedSpace.from_json(SPACES[spec[len("@space:"):]])
    else:
        space = presets.preset_space(spec)
    return KacModule(space, tuple(Fraction(x) for x in weight.split(",")))


def _colour_modules(count=6):
    """Kac modules over seeded sign-valued factors on Z2^3, blocks of size
    up to 2|2: there an odd E_ab can twist the even sl2 string, and two odd
    lowering pairs need not anticommute as they do in a superspace."""
    rng = random.Random(3141)
    group = GradingGroup(0, 3)
    zero = ((0,) * 3,) * 3
    # the first: even (0,0,0), (1,0,0) and odd (0,0,1), (0,1,1), where
    # omega((0,1,0), (1,0,0)) = -1 twists the even string
    factor = CommutativeFactor(group, ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                               zero)
    first = GradedSpace(factor, [(group.degree(*c), 1) for c in
                                 ((0, 0, 0), (1, 0, 0), (0, 0, 1),
                                  (0, 1, 1))])
    cells = list(itertools.product((0, 1), repeat=3))
    out = []
    while len(out) < count:
        if out:
            sign = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    sign[i][j] = sign[j][i] = rng.randint(0, 1)
            factor = CommutativeFactor(group, tuple(map(tuple, sign)), zero)
            degrees = [group.degree(*c) for c in cells]
            even = [d for d in degrees if factor.parity(d) == 1]
            odd = [d for d in degrees if factor.parity(d) == -1]
            mp, mm = rng.choice(((2, 2), (2, 2), (2, 1), (1, 2)))
            if len(even) < mp or len(odd) < mm:
                continue
            space = GradedSpace(factor, [(d, 1) for d in
                                         rng.sample(even, mp)
                                         + rng.sample(odd, mm)])
        else:
            space, mp, mm = first, 2, 2
        lam = []
        for size in (mp, mm):
            top = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            lam += [top, top - rng.randint(0, 2)][:size]
        out.append(KacModule(space, tuple(lam)))
    return out


COLOUR_MODULES = _colour_modules()


def _all_args(module):
    dim = module.space.dim
    return [(a, b, el) for el in module.basis()
            for a in range(dim) for b in range(dim)]


def test_pool_covers_both_gram_slots():
    # 5 gram-d4 and 23 gram-small jobs, on presets and on space files
    assert len(CASES) == 28
    assert {spec.startswith("@space:") for spec, _ in CASES} == {True, False}


def test_colour_modules_twist_the_even_string():
    # omega(g_a - g_b, g_1 - g_0) = -1 for some odd a, b: the sign phi of
    # the L0 action is not always 1 in this family
    twisted = False
    for module in COLOUR_MODULES:
        space = module.space
        if module.mp != 2:
            continue
        root = space.degrees[1] - space.degrees[0]
        for a, b in itertools.permutations(range(2, space.dim), 2):
            om = space.factor.omega(space.degrees[a] - space.degrees[b], root)
            twisted |= om.as_fraction() == -1
    assert twisted


def test_colour_modules_keep_half_integral_coordinates():
    # KacModule stores the integral coordinates of lambda as ints and the
    # others as Fractions; OracleAction reads module.lam, so the oracle
    # comparisons below cover both kinds
    kinds = set()
    for module in COLOUR_MODULES:
        for x in module.lam:
            assert type(x) is int or x.denominator != 1, module.lam
            kinds.add(type(x))
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("spec,weight", CASES)
def test_memoised_act_matches_the_unmemoised_oracle(spec, weight):
    module = _module(spec, weight)
    oracle = OracleAction(module)
    for a, b, el in _all_args(module):
        assert module.act(a, b, el) == oracle.act(a, b, el), (a, b, el)


@pytest.mark.parametrize("index", range(len(COLOUR_MODULES)))
def test_memoised_act_matches_the_oracle_on_colour_spaces(index):
    module = COLOUR_MODULES[index]
    oracle = OracleAction(module)
    for a, b, el in _all_args(module):
        assert module.act(a, b, el) == oracle.act(a, b, el), (a, b, el)


@pytest.mark.parametrize("spec,weight", CASES)
def test_gram_pass_leaves_every_cached_action_unchanged(spec, weight):
    module = _module(spec, weight)
    oracle = OracleAction(module)
    args = _all_args(module)
    held = {key: module.act(*key) for key in args}
    # the pass gram_report makes, each entry from one act and a row of the
    # level below
    module.gram_blocks(len(module.pairs))
    for key, value in held.items():
        assert module.act(*key) is value
        assert value == oracle.act(*key), key
