"""gram_report builds each Gram level from the level below, by
KacModule.gram_blocks: one raising act per entry, dotted with a row of the
level below.  KacModule.form stays the independent route, the whole E-chain
of its first argument applied to its second.  The two are compared entry
by entry on every Gram module of the benchmark pool, on the seeded colour
modules of test_kac_memo and on every dominant weight of the half-integral
grids of test_unitarity_gram."""

import itertools

import pytest

from colourgl.presets import preset_space
from colourgl.reps import KacModule, gram_report, is_finite_dimensional
from test_kac_memo import CASES, COLOUR_MODULES, _module
from test_unitarity_gram import GRIDS, HALF


def _assert_levels_match_the_chain(module):
    blocks = module.gram_blocks(len(module.pairs))
    groups = {}
    for el in module.basis():
        groups.setdefault((len(el[0]), module.weight(el)), []).append(el)
    assert [(level, wt) for level, wt, _, _ in blocks] == sorted(groups)
    for level, wt, els, mat in blocks:
        assert els == groups[level, wt]
        expected = [[module.form(e1, e2) for e2 in els] for e1 in els]
        assert mat == expected, (level, wt)
        # a zero is the int 0, as the chain writes it, so each entry also
        # reads as the chain's text
        assert [[str(x) for x in row] for row in mat] == \
            [[str(x) for x in row] for row in expected], (level, wt)
        assert all(type(x) is int for row in mat for x in row if not x)


@pytest.mark.parametrize("spec,weight", CASES)
def test_levels_match_the_chain_on_pool_modules(spec, weight):
    _assert_levels_match_the_chain(_module(spec, weight))


@pytest.mark.parametrize("index", range(len(COLOUR_MODULES)))
def test_levels_match_the_chain_on_colour_modules(index):
    _assert_levels_match_the_chain(COLOUR_MODULES[index])


@pytest.mark.parametrize("name", [name for name, values in GRIDS
                                  if values is HALF])
def test_levels_match_the_chain_on_half_integral_grids(name):
    space = preset_space(name)
    count = 0
    for lam in itertools.product(HALF, repeat=space.dim):
        if is_finite_dimensional(space, lam):
            _assert_levels_match_the_chain(KacModule(space, lam))
            count += 1
    assert count


def test_a_shallow_report_reads_the_first_levels_of_the_full_one():
    spec, weight = CASES[0]
    module = _module(spec, weight)
    lam = module.lam
    full = gram_report(module.space, lam).blocks
    for depth in range(len(module.pairs) + 1):
        shallow = gram_report(module.space, lam, depth).blocks
        assert shallow == [blk for blk in full if blk[0] <= depth]
