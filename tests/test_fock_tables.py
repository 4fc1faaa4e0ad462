"""The fock-module suite builds its products and images as tables before
its loops, where the parent filled one _Images dict per word on lookup
(parent_verify.suite_fock_images).  Both read every entry of those
tables on a passing space, so the tables hold what the dicts held: the
same verdict and detail on every small preset and on 16 random colour
spaces of dim V <= 4, at one and two copies; the same number of calls of
_word_on_monomial and of _word_product, each (word, monomial) formed
once; and a planted wrong image of one product word is refused by both
with "module axiom failed"."""

import random
from collections import Counter

import pytest

import parent_verify
from colourgl import verify
from colourgl.presets import preset_space
from colourgl.weyl import _word_on_monomial, _word_product
from test_laurent_kernels import small_presets
from test_random_spaces import random_space

PRESETS = small_presets()
_rng = random.Random(5151)
RANDOM_SPACES = {f"random {i}": random_space(_rng, max_dim=4)
                 for i in range(16)}
# passing spaces whose calls are counted, dim V from 1 to 4
COUNTED = ["super(1|1)", "super(2|1)", "super(2|2)", "glq(2|1)", "green(3)",
           "green(4)", "super(0|3)", "z2z2(1,1,1,0)"]


def both(space, copies):
    return (verify.suite_fock(space, random.Random(0), copies),
            parent_verify.suite_fock_images(space, random.Random(0), copies))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_small_preset_gets_the_parent_verdict(name):
    for copies in (1, 2):
        new, old = both(PRESETS[name], copies)
        assert new == old and new[0] is True, (name, copies)


@pytest.mark.parametrize("name", sorted(RANDOM_SPACES))
def test_every_random_colour_space_gets_the_parent_verdict(name):
    space = RANDOM_SPACES[name]
    assert 1 <= space.dim <= 4
    for copies in (1, 2):
        new, old = both(space, copies)
        assert new == old, (name, copies)


def counted_calls(monkeypatch, module, suite, space, copies):
    images, products = Counter(), []

    def on_monomial(alg, xs, ds, mono):
        images[(xs, ds), mono] += 1
        return _word_on_monomial(alg, xs, ds, mono)

    def product(alg, *words):
        products.append(words)
        return _word_product(alg, *words)

    with monkeypatch.context() as patch:
        patch.setattr(module, "_word_on_monomial", on_monomial)
        patch.setattr(module, "_word_product", product)
        assert suite(space, random.Random(0), copies)[0] is True
    return images, products


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("name", COUNTED)
def test_each_image_and_product_is_formed_as_often_as_the_parent(
        monkeypatch, name, copies):
    space = preset_space(name)
    new_images, new_products = counted_calls(
        monkeypatch, verify, verify.suite_fock, space, copies)
    old_images, old_products = counted_calls(
        monkeypatch, parent_verify, parent_verify.suite_fock_images, space,
        copies)
    assert new_images == old_images
    assert set(new_images.values()) == {1}
    gens = 2 * space.dim * copies
    assert len(new_products) == len(old_products) == gens * gens
    assert sorted(new_products) == sorted(old_products)


@pytest.mark.parametrize("name", ["super(1|1)", "super(2|1)", "green(3)",
                                  "z2z2(1,1,1,0)"])
def test_a_wrong_image_of_a_product_word_is_refused_by_both(monkeypatch,
                                                           name):
    # x_0 x_1 is a product word and no generator; every image it has is
    # doubled, and no other word's
    space = preset_space(name)
    target = ((0, 1), ())

    def doubled(alg, xs, ds, mono):
        image = _word_on_monomial(alg, xs, ds, mono)
        if (xs, ds) == target:
            return {key: 2 * c for key, c in image.items()}
        return image

    monkeypatch.setattr(verify, "_word_on_monomial", doubled)
    monkeypatch.setattr(parent_verify, "_word_on_monomial", doubled)
    for copies in (1, 2):
        new, old = both(space, copies)
        assert new == old == (False, "module axiom failed"), copies
