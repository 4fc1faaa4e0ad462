"""The unitarity classification against the inertia of the Gram matrices.

Under the type I *-structure, L(lambda) is unitarisable exactly when the
contravariant form on the Kac module is positive semidefinite.
classify_unitarisable answers from the closed-form classification and
gram_report from Sylvester's law on the exact Gram blocks: two independent
routes, compared on every dominant weight of each grid."""

import itertools
from fractions import Fraction

import pytest

from colourgl.presets import preset_space
from colourgl.reps import (classify_unitarisable, gram_report,
                           is_finite_dimensional)

INTEGRAL = {"super(1|1)": 4, "super(2|1)": 3, "super(1|2)": 3,
            "super(2|2)": 2}
HALF = [Fraction(x, 2) for x in range(-5, 6)]
GRIDS = ([(name, [Fraction(x) for x in range(-k, k + 1)])
          for name, k in INTEGRAL.items()]
         + [(name, HALF) for name in ("super(2|1)", "super(1|2)",
                                      "z2z2(1,0,1,0)", "z2z2(1,1,0,0)",
                                      "z2z2(0,1,1,0)", "green(2)")])


@pytest.mark.parametrize("name, values", GRIDS,
                         ids=[f"{name}-{'half' if values is HALF else 'int'}"
                              for name, values in GRIDS])
def test_classification_agrees_with_gram_inertia(name, values):
    space = preset_space(name)
    verdicts = set()
    for lam in itertools.product(values, repeat=space.dim):
        if not is_finite_dimensional(space, lam):
            continue
        unitarisable = classify_unitarisable(space, lam, "I").unitarisable
        verdict = gram_report(space, lam).verdict
        assert unitarisable == (verdict != "indefinite"), lam
        verdicts.add(verdict)
    if space.m_plus and space.m_minus:
        assert verdicts == {"indefinite", "positive-semidefinite",
                            "positive-definite"}
    else:
        # a colour algebra: every dominant real weight is unitarisable
        assert verdicts == {"positive-definite"}
