"""kac_dimension as it was before it took the Weyl dimension formula
directly, kept verbatim as the oracle of tests/test_rules_once.py: it
shifted each parity block to a partition and called dim_glN, which forms
the factorials of the coordinates, so a coordinate of 10^6 ran for over a minute.
The helpers it calls are unchanged and imported from the package.  Only
its refusal's text changed since, to print the weight as the CLI reads it,
as the package's refusals do."""

from colourgl.partitions import dim_glN
from colourgl.reps import (_as_weight, _blocks, _weight_text,
                           is_finite_dimensional)


def kac_dimension(space, lam):
    """2^(M+ M-) * dim L0(k), the L0 factor through the classical Weyl
    dimension formula per parity block after removing the constant twist."""
    lam = _as_weight(space, lam)
    if not is_finite_dimensional(space, lam):
        raise ValueError(f"{_weight_text(lam)} is not dominant")
    total = 2 ** (space.m_plus * space.m_minus)
    for block in _blocks(space, lam):
        if not block:
            continue
        shifted = tuple(int(x - block[-1]) for x in block)
        part = tuple(p for p in shifted if p)
        total *= dim_glN(part, len(block)) if part else 1
    return total
