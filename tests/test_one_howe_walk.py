"""dim L_lambda(gl_N) is the hook count k(lambda) of C^N, the N|0 space,
and the two Howe sweeps, howe_dimension_sweep and glvv_decomposition,
read one walk over the hook shapes.  Each is compared with the parent's,
kept verbatim in tests/parent_partitions.py (_dim_glN, the contents over
the hooks) and tests/parent_weyl.py (howe_dimension_sweep and
glvv_decomposition_depth_d, which walked V's hook shapes to depth d
even when W is purely even): on every small preset, on seeded random
colour spaces and on purely even spaces W.  glvv_decomposition meets the
parent's on every pair of small presets in tests/test_rules_once.py.
The walk keeps the shapes of V's hook that lie in W's hook, by
partitions._in_hook, and counts only those: every _count_hook call it
makes is on a shape inside the hook it counts."""

import itertools
import random

import pytest

import parent_weyl
from colourgl import partitions, weyl
from colourgl.gl import GradedSpace, ResourceBoundExceeded, SpaceMismatch
from colourgl.partitions import (count_hook_tableaux, dim_glN, hook_table,
                                 partitions_of)
from colourgl.presets import glq_space, super_space
from colourgl.weyl import glvv_decomposition, howe_dimension_sweep
from parent_partitions import _dim_glN
from test_laurent_kernels import small_presets
from test_random_spaces import random_space
from test_refusal_rule import calls_by_function, trees


def outcome(f, *args):
    """f(*args), or the type and message of the refusal it raised."""
    try:
        return f(*args)
    except (ResourceBoundExceeded, SpaceMismatch, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_dim_glN_keeps_the_parent_values_on_every_count():
    # n < 0 and n = 0 included: the parent's guard len(lambda) > n gave 0
    # for every shape at n < 0, the empty one too
    for size in range(11):
        for lam in partitions_of(size):
            for n in range(-2, 7):
                assert dim_glN(lam, n) == _dim_glN(lam, n), (lam, n)
    assert dim_glN((), -1) == 0 and dim_glN((1,), -1) == 0
    assert dim_glN((), 0) == 1


def test_the_hook_count_at_negative_counts_is_unchanged():
    # count_hook_tableaux keeps no early 0 off the hook: the parent's
    # values at negative counts stand, and () at -1 raises nothing
    assert count_hook_tableaux((), -1, 0) == 1
    assert [count_hook_tableaux(lam, -2, 0)
            for lam in [(1,), (2,), (1, 1), (2, 1)]] == [-2, 1, 3, -2]
    assert count_hook_tableaux((1,), -1, 2) == 1


def test_a_float_count_never_answers_for_the_int_one():
    # the memos keyed 3.0 and 3 alike, so a float call left its float for
    # every later int call, and dim_glN, now a hook count, would read it
    partitions._count_hook.cache_clear()
    partitions._series.cache_clear()
    assert count_hook_tableaux((2, 1), 3.0, 0) == 8.0
    assert type(count_hook_tableaux((2, 1), 3, 0)) is int
    assert type(dim_glN((2, 1), 3)) is int


@pytest.mark.parametrize("m_plus, m_minus, size, copies", [
    (2, 1, 5, 2), (1, 1, 6, 3), (4, 4, 8, 3), (0, 2, 4, 1), (3, 0, 6, 5)])
def test_the_tableaux_column_matches_the_parent(m_plus, m_minus, size,
                                                copies):
    for row in hook_table(m_plus, m_minus, size, copies):
        assert row["dim_glN"] == _dim_glN(row["partition"], copies)


def test_the_howe_sweep_matches_the_parent_on_every_small_preset():
    for name, space in small_presets().items():
        for copies in range(5):
            assert howe_dimension_sweep(space, copies, 6) == \
                parent_weyl.howe_dimension_sweep(space, copies, 6), \
                (name, copies)


def random_partner(rng, factor, max_dim=4):
    """A space of one to max_dim unit components on factor."""
    group = factor.group
    degrees = {group.degree(
        *(tuple(rng.randint(-2, 2) for _ in range(group.free_rank))
          + tuple(rng.randint(0, 1) for _ in range(group.torsion2_rank))))
        for _ in range(rng.randint(1, max_dim))}
    return GradedSpace(factor, [(d, 1) for d in
                                sorted(degrees, key=lambda d: d.coords)])


def test_both_sweeps_match_the_parent_on_random_colour_spaces():
    rng = random.Random(5252)
    for trial in range(16):
        space = random_space(rng, max_dim=4)
        for copies in range(1, 5):
            assert outcome(howe_dimension_sweep, space, copies, 8) == \
                outcome(parent_weyl.howe_dimension_sweep, space, copies,
                        8), (trial, copies)
        other = random_partner(rng, space.factor)
        for v, w in [(space, other), (other, space), (space, space)]:
            assert outcome(glvv_decomposition, v, w, 8) == outcome(
                parent_weyl.glvv_decomposition_depth_d, v, w, 8), trial


def even_partners(v):
    """Purely even spaces of 0 to 3 dimensions on the factor of v: the
    super(wp|0) on the super factor, and else wp copies of the degree of
    v's first basis vector, which is even in the glq presets."""
    if v.factor == super_space(0, 1).factor:
        return [super_space(wp, 0) for wp in range(4)]
    return [GradedSpace(v.factor, [(v.degrees[0], wp)]) for wp in (1, 2, 3)]


def test_the_walk_stops_at_depth_wp_when_W_is_purely_even():
    # a purely even W: no shape deeper than wp is in its hook, so the walk
    # lists none, and rows and pairs are the parent's, which walked to d
    for v in [super_space(1, 1), super_space(0, 1), super_space(2, 2),
              super_space(3, 1), glq_space(1, 2), glq_space(2, 1)]:
        for w in even_partners(v):
            assert (w.m_plus, w.m_minus) == (w.dim, 0)
            rows, pairs = glvv_decomposition(v, w, 7)
            assert (rows, pairs) == parent_weyl.glvv_decomposition_depth_d(
                v, w, 7), (v, w)
            assert all(row["equal"] for row in rows)
            assert all(len(p["partition"]) <= w.dim for p in pairs)


def test_glvv_at_an_even_W_is_the_howe_sweep():
    # S_omega(V^N) is the case W = C^N of S_omega(V* x W)
    for v in [super_space(2, 1), super_space(1, 2), super_space(0, 3)]:
        for n in range(4):
            rows, _ = glvv_decomposition(v, super_space(n, 0), 6)
            sweep = howe_dimension_sweep(v, n, 6)
            assert [(r["degree"], r["algebra_dimension"], r["module_sum"])
                    for r in rows] == [
                (r["degree"], r["fock_dimension"], r["module_sum"])
                for r in sweep]


def test_one_walk_lists_the_hook_shapes_of_both_sweeps():
    tree = trees()
    assert sorted(calls_by_function(tree["weyl.py"], "hook_partitions")) \
        == ["_howe_walk", "_invariant_dimension"]
    assert sorted(calls_by_function(tree["weyl.py"], "_howe_walk")) == [
        "glvv_decomposition", "howe_dimension_sweep"]


def test_no_second_gl_N_dimension_formula():
    # dim L_lambda(gl_N) is read as _count_hook(lambda, N, 0) only
    names = {node.name for module in trees().values()
             for node in module.body if hasattr(node, "name")}
    assert "_dim_glN" not in names


def hook_count_calls(monkeypatch):
    """The (shape, M+, M-) of every _count_hook call that weyl makes."""
    calls = []

    def record(lam, m_plus, m_minus):
        calls.append((lam, m_plus, m_minus))
        return partitions._count_hook(lam, m_plus, m_minus)

    monkeypatch.setattr(weyl, "_count_hook", record)
    return calls


def test_the_walk_counts_only_shapes_inside_both_hooks(monkeypatch):
    calls = hook_count_calls(monkeypatch)
    spaces = small_presets()
    for v, w in itertools.product(spaces.values(), repeat=2):
        if v.factor == w.factor:
            assert glvv_decomposition(v, w, 4) == \
                parent_weyl.glvv_decomposition_depth_d(v, w, 4), (v, w)
    for space in spaces.values():
        howe_dimension_sweep(space, 3, 4)
    assert calls
    assert all(partitions._in_hook(*call) for call in calls)


@pytest.mark.parametrize("v, w", [((3, 3), (1, 1)), ((2, 0), (0, 2)),
                                  ((0, 2), (2, 0))])
def test_the_walk_counts_inside_both_hooks_to_degree_8(monkeypatch, v, w):
    space_v, space_w = super_space(*v), super_space(*w)
    expected = parent_weyl.glvv_decomposition_depth_d(space_v, space_w, 8)
    calls = hook_count_calls(monkeypatch)
    assert glvv_decomposition(space_v, space_w, 8) == expected
    assert calls and all(partitions._in_hook(*call) for call in calls)


def test_glvv_of_super_3_3_and_super_1_1_makes_158_hook_counts(monkeypatch):
    # 193 of V's 272 hook shapes to degree 12 are off W's hook, and the
    # parent counted k_V and k_W on each of all 272 shapes: 544 calls
    space_v, space_w = super_space(3, 3), super_space(1, 1)
    expected = parent_weyl.glvv_decomposition_depth_d(space_v, space_w, 12)
    calls = hook_count_calls(monkeypatch)
    assert glvv_decomposition(space_v, space_w, 12) == expected
    assert len(calls) == 158
