import itertools
import re

import pytest

import parent_presets
from colourgl.presets import (builtin_spaces, glq_space, green_space,
                              is_preset_name, preset_space, super_space,
                              z2z2_space)
from colourgl.scalars import MINUS_ONE, ONE, Q


def test_super_preset():
    space = preset_space("super(1|1)")
    assert space == super_space(1, 1)
    assert space.factor.group.torsion2_rank == 1
    assert [(d.coords, m) for d, m in space.components] == \
        [((0,), 1), ((1,), 1)]


def test_glq_preset_forms():
    space = preset_space("glq(1|1)")
    assert space == glq_space(1, 1)
    factor = space.factor
    # sign form lives on the odd block, exponent form is the skew J
    assert factor.sign_form == ((0, 0), (0, 1))
    assert factor.exp_form == ((0, 1), (-1, 0))
    assert factor.omega(space.degrees[0], space.degrees[1]) == Q
    big = glq_space(2, 1)
    J = big.factor.exp_form
    assert all(J[i][j] == (1 if i < j else (-1 if i > j else 0))
               for i in range(3) for j in range(3))


def test_z2z2_preset():
    space = preset_space("z2z2")
    assert space == z2z2_space((1, 1, 1, 1))
    S = space.factor.sign_form
    assert S[0][1] == S[1][0] == 1 and S[0][0] == S[1][1] == 0
    a, b = space.degrees[1], space.degrees[2]  # (0,1) and (1,0)
    assert space.factor.omega(a, b) == MINUS_ONE
    assert all(p == 1 for p in space.parities)
    small = preset_space("z2z2(1,1)")
    assert small.dim == 2


def test_green_preset():
    space = preset_space("green(3)")
    assert space == green_space(3)
    assert all(p == -1 for p in space.parities)
    assert space.factor.omega(space.degrees[0], space.degrees[1]) == ONE


def test_catalog_and_errors():
    catalog = builtin_spaces()
    assert any(k.startswith("super") for k in catalog)
    assert is_preset_name("glq(3|2)")
    assert not is_preset_name("gl11.json")
    with pytest.raises(KeyError):
        preset_space("super")
    with pytest.raises(KeyError):
        preset_space("mystery(1)")


# family words and argument texts whose products the parent and the
# grammar both read; "\u0663" is ARABIC-INDIC DIGIT THREE, which both \d and
# int() read as 3
WORDS = ["super", "glq", "z2z2", "green", "mystery", ""]
ARGS = ["", "()", "(0)", "(1)", "(3)", "(0|0)", "(1|1)", "(2|0)", "(0|3)",
        "(007|1)", "(\u0663|1)", "(1,1)", "(1,0,1)", "(1,1,1,1)",
        "(0,2,0,1)", "(1,1,1,1,1)", "(1,1,1,1,1,1)", "(1|1|1)", "(|1)",
        "(1|)", "(1,,1)", "(,1)", "(1,)", "(1|2,3)", "(1|1", "(1|1))",
        "( 1|1)", "(+1|1)", "(-1)", "(1_0)", "(1e1)", "(1.0)", "x"]
NAMES = [pad + word + args + pad
         for word, args in itertools.product(WORDS, ARGS)
         for pad in ("", " ")] + ["super(1|1)\n", "\tgreen(2)"]


def parent_space(name):
    try:
        return parent_presets.preset_space(name)
    except (KeyError, ValueError):
        return None


def test_every_name_the_parent_built_builds_the_same_space():
    # but a z2z2 of more than four dims, whose extra dims the parent dropped
    built = 0
    for name in NAMES:
        old = parent_space(name)
        if old is None or name.strip().startswith("z2z2(1,1,1,1,1"):
            assert not is_preset_name(name), name
            with pytest.raises(KeyError, match=re.escape(repr(name))):
                preset_space(name)
        else:
            assert is_preset_name(name), name
            assert preset_space(name) == old, name
            built += 1
    assert built == 50


@pytest.mark.parametrize("name, shape", [
    ("z2z2(1,1,1,1,1)", "(d1,..,dk), k <= 4"), ("super(1|1|1)", "(m|n)"),
    ("z2z2(1,,1)", "(d1,..,dk), k <= 4"), ("glq(|1)", "(m|n)"),
    ("green(1|2)", "(n)"), ("green(" + "7" * 5000 + ")", "(n)"),
    ("green(" + "0" * 4300 + "1)", "(n)")],
    ids=["five-dims", "three-counts", "empty-dim", "empty-m", "two-counts",
         "5000-digits", "4301-digits"])
def test_a_malformed_name_is_no_preset_and_is_refused_naming_it(name, shape):
    # the parent built z2z2(1,1,1,1) from the first and refused the others
    # with int()'s or the unpacking's message, the last two after int()
    # read 5000 or 4301 digits
    family = name.partition("(")[0]
    assert not is_preset_name(name)
    with pytest.raises(KeyError) as exc:
        preset_space(name)
    assert exc.value.args == (f"{family} preset needs {shape}, got {name!r}",)


def test_a_count_of_4300_digits_is_read():
    # Python's int() reads 4300 digits by default, leading zeros included
    assert preset_space("green(" + "0" * 4299 + "2)") == green_space(2)
