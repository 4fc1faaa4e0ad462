"""weyl.fft_check, the fft-check job as one call, runs its two gl(V)
checks on one memo of word products.  Its fields must equal those of
separate calls, each of which forms its products afresh:
invariant_dimension per degree, verify_dual_pair and
invariant_generators_check at min(N, 2) copies, on presets and seeded
random colour spaces, and also when one check is made to fail.  Degree 0
forms no z-product, so it lists no z-word: thousands of copies run in a
fraction of a second, where listing the N N' z-words ran out of memory."""

import random

import pytest

from colourgl import weyl
from colourgl.presets import preset_space, super_space
from test_random_spaces import random_space
from test_refusal_rule import run_module

_rng = random.Random(4242)
SPACES = {name: preset_space(name) for name in (
    "super(1|1)", "super(2|1)", "super(1|2)", "super(0|2)", "glq(1|1)",
    "green(2)", "z2z2(1,1,0,0)", "z2z2(0,1,1,1)")}
SPACES.update((f"random {i}", random_space(_rng)) for i in range(4))
# (copies, dual copies, max degree)
SHAPES = ((1, 1, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1))


def separate_calls(space, copies, dual_copies, max_degree):
    gl_copies = min(copies, 2)
    return {
        "invariant_dimensions": {
            str(d): weyl.invariant_dimension(space, copies, dual_copies, d)
            for d in range(max_degree + 1)},
        "z_span_verified": True,
        "dual_pair_ok": weyl.verify_dual_pair(space, gl_copies),
        "filtration_level_1_ok": weyl.invariant_generators_check(space,
                                                                 gl_copies),
    }


@pytest.mark.parametrize("name", sorted(SPACES))
def test_fft_check_equals_its_checks_called_apart(name):
    space = SPACES[name]
    for shape in SHAPES:
        got = weyl.fft_check(space, *shape)
        assert got == separate_calls(space, *shape), shape
        assert got["dual_pair_ok"] and got["filtration_level_1_ok"], shape


@pytest.mark.parametrize("unit", [(0, 1), (1, 0)])
def test_fft_check_equals_its_checks_when_a_product_is_wrong(monkeypatch,
                                                             unit):
    # x(a,0) d(b,0) times x(b,0) d(a,0), wrong by one vacuum term: a
    # product of Ecal words that both gl(V) checks form at N = 1
    a, b = unit
    pair = (((a,), (b,)), ((b,), (a,)))
    right = weyl._word_product

    def wrong(alg, xs1, ds1, xs2, ds2):
        out = right(alg, xs1, ds1, xs2, ds2)
        if ((xs1, ds1), (xs2, ds2)) == pair:
            out[(((), ()), 0)] = out.get((((), ()), 0), 0) + 1
        return out

    monkeypatch.setattr(weyl, "_word_product", wrong)
    space = preset_space("super(1|1)")
    got = weyl.fft_check(space, 1, 1, 1)
    assert got == separate_calls(space, 1, 1, 1)
    assert got["dual_pair_ok"] is False


def test_each_public_check_forms_its_own_products(monkeypatch):
    # a separate call shares no memo with another: each forms every
    # product it needs, where fft_check forms the shared ones once
    space = preset_space("super(2|1)")
    counts = []
    right = weyl._word_product

    def counted(*args):
        counts[-1] += 1
        return right(*args)

    monkeypatch.setattr(weyl, "_word_product", counted)
    for check in (weyl.verify_dual_pair, weyl.invariant_generators_check,
                  weyl.verify_dual_pair):
        counts.append(0)
        assert check(space, 1) is True
    assert counts[0] == counts[2] > 0
    counts.append(0)
    weyl.fft_check(space, 1, 1, 0)
    shared = counts[-1]
    assert max(counts[:2]) <= shared < counts[0] + counts[1]


def test_degree_0_lists_no_z_word():
    # the parent listed all 9 * 10^6 z-words of 3000 x 3000 copies at
    # degree 0, where no product is formed, and ended in MemoryError
    # (exit 3) after about 22 s in the child's 3 GB address space
    code, doc, seconds = run_module(
        "fft-check", "--space", "super(1|0)", "--copies", "3000",
        "--dual-copies", "3000", "--max-degree", "0")
    assert code == 0, doc
    assert doc["results"]["invariant_dimensions"] == {"0": 1}
    assert seconds < 2
    assert weyl.invariant_dimension(super_space(1, 0), 10 ** 4,
                                    10 ** 4 - 1, 0) == 1
