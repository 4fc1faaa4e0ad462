"""Rules stated once, against the routines that stated them twice.

glvv_decomposition walks the hook shapes of each degree once and takes a
paired weight exactly where k_W is nonzero; parent_weyl keeps the version
that walked them twice, and glvv_decomposition_depth_d, which walked them
once but to depth d even when W is purely even.  kac_dimension applies the Weyl dimension formula
to each parity block; parent_reps keeps the version that went through
dim_glN.  The factor of E_ab on V* is gl._dual_pair, which dual_act
applies to Scalars, and the Laurent polynomials of the integer kernels
become Scalars by Scalar.from_laurent.  The hook table is built once, by
partitions.hook_table: the Schur-Weyl table is its rows, and its counts
are those of the public functions.  The Kac module takes the bracket of
two matrix units from gl._unit_bracket.  Each process memo is owned by the
code that fills it: an lru_cache on the one function it serves, bounded by
its number of entries, or tensor's _Kept, bounded by summed sizes; a
GradedSpace keeps none but its lazy omega table.  Each option of the CLI
that counts something states its least value in its own SUBCOMMANDS
entry, and cli.check_counts reads them there, naming no option itself.
An empty space is refused by weyl.require_dimension alone, for verify,
fft-check and glq-check."""

import ast
import inspect
import itertools
import random
from fractions import Fraction

import pytest

import parent_reps
import parent_weyl
from colourgl import cli, grading, partitions, reps, tensor, weyl
from colourgl.gl import (GlElement, SpaceMismatch, _dual_pair, _Kept,
                         _unit_bracket)
from colourgl.partitions import (count_hook_tableaux, count_standard_tableaux,
                                 dim_glN, hook_partitions, hook_table,
                                 lambda_sharp)
from colourgl.presets import preset_space
from colourgl.reps import gram_report, kac_dimension
from colourgl.scalars import ZERO, Scalar, omega_scalar
from colourgl.tensor import dual_act, schur_weyl_table
from colourgl.weyl import glvv_decomposition
from test_laurent_kernels import small_presets
from test_refusal_rule import calls_by_function, trees


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_glvv_matches_the_parent_on_every_pair_of_small_presets():
    spaces = small_presets()
    shared = 0
    for (v_name, v), (w_name, w) in itertools.product(spaces.items(),
                                                      repeat=2):
        if v.factor != w.factor:
            with pytest.raises(SpaceMismatch):
                glvv_decomposition(v, w, 4)
            continue
        shared += 1
        assert glvv_decomposition(v, w, 4) == \
            parent_weyl.glvv_decomposition(v, w, 4) == \
            parent_weyl.glvv_decomposition_depth_d(v, w, 4), (v_name, w_name)
    assert shared > 100


KAC_PRESETS = ("super(1|1)", "super(2|1)", "super(1|2)", "super(2|2)",
               "super(3|0)", "super(0|3)", "super(3|1)", "z2z2(1,1,1,1)",
               "glq(2|1)")


def random_weight(rng, space):
    """A weight with coordinates in [-6, 6], halves included; dominant
    three times in four."""
    if rng.random() < 0.25:
        return tuple(Fraction(rng.randint(-12, 12), 2)
                     for _ in range(space.dim))
    lam = []
    for size in (space.m_plus, space.m_minus):
        x = Fraction(rng.randint(-12, 12), 2)
        for _ in range(size):
            lam.append(x)
            x -= rng.randint(0, 3)
    return tuple(lam)


@pytest.mark.parametrize("name", KAC_PRESETS)
def test_kac_dimension_matches_the_parent(name):
    space = preset_space(name)
    rng = random.Random(name)
    for _ in range(120):
        lam = random_weight(rng, space)
        assert outcome(kac_dimension, space, lam) == \
            outcome(parent_reps.kac_dimension, space, lam), lam


@pytest.mark.parametrize("name", ["super(2|1)", "glq(2|1)", "green(3)",
                                  "z2z2(1,1,1,1)"])
def test_dual_act_applies_the_dual_pair(name):
    space = preset_space(name)
    pairs = space._omega_pairs
    coef = Scalar.parse("2*q-3")
    for a, b in itertools.product(range(space.dim), repeat=2):
        # -omega(g_a - g_b, -g_a), read from the factor
        om = space.omega(space.degrees[a] - space.degrees[b],
                         -space.degrees[a])
        assert omega_scalar(*_dual_pair(pairs, a, b)) == -om
        x = GlElement.matrix_unit(space, a, b, coef)
        assert dual_act(x, {a: coef}) == {b: -om * coef * coef}


def test_from_laurent_is_the_sum_of_its_terms():
    rng = random.Random(7)
    for _ in range(300):
        terms = {e: rng.randint(-3, 3) for e in
                 rng.sample(range(-4, 5), rng.randint(0, 4))}
        expected = sum((c * Scalar.q_power(e) for e, c in terms.items()),
                       ZERO)
        got = Scalar.from_laurent(terms)
        assert got == expected, terms
        # the stored form is the canonical one, so str and parse agree
        assert Scalar.parse(str(got)) == got


def test_hook_table_rows_are_the_schur_weyl_rows():
    for name, space in small_presets().items():
        for r in range(4):
            assert list(hook_table(space.m_plus, space.m_minus, r)) == \
                schur_weyl_table(space, r), (name, r)


@pytest.mark.parametrize("m_plus, m_minus", [(0, 1), (1, 1), (2, 1), (0, 3)])
def test_hook_table_counts_are_the_public_ones(m_plus, m_minus):
    for size in range(7):
        for copies in range(4):
            rows = list(hook_table(m_plus, m_minus, size, copies))
            shapes = hook_partitions(m_plus, m_minus, size, size)
            assert [row["partition"] for row in rows] == shapes
            for lam, row in zip(shapes, rows):
                expected = {
                    "partition": lam,
                    "sharp": lambda_sharp(lam, m_plus, m_minus),
                    "k": count_hook_tableaux(lam, m_plus, m_minus),
                    "f": count_standard_tableaux(lam)}
                if copies:
                    expected["dim_glN"] = dim_glN(lam, copies)
                assert row == expected, (lam, copies)


def test_the_kac_module_takes_its_bracket_from_gl(monkeypatch):
    space = preset_space("super(2|1)")
    before = gram_report(space, (2, 1, 0))
    calls = []

    def counted(*args):
        calls.append(args)
        return _unit_bracket(*args)

    monkeypatch.setattr(reps, "_unit_bracket", counted)
    assert gram_report(space, (2, 1, 0)) == before
    assert calls


def test_the_process_memos_are_the_lru_caches_and_tensors_kept():
    cached = set()
    for module, tree in trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):
                        decorator = decorator.func
                    if getattr(decorator, "id", getattr(
                            decorator, "attr", None)) in ("lru_cache", "cache"):
                        cached.add((module, node.name))
    assert cached == {("cli.py", "_space"), ("weyl.py", "_fock_algebra"),
                      ("partitions.py", "_count_hook"),
                      ("partitions.py", "_series"),
                      ("grading.py", "superalgebra_factor")}
    # each is bounded by a number of entries, but the one factor of a
    # function of no argument
    for memo in (cli._space, weyl._fock_algebra, partitions._count_hook,
                 partitions._series):
        assert isinstance(memo.cache_info().maxsize, int), memo
    assert grading.superalgebra_factor.cache_info().maxsize is None
    assert not inspect.signature(grading.superalgebra_factor).parameters
    # one _Kept, built at module level in tensor
    built = [(module, where) for module, tree in trees().items()
             for where in calls_by_function(tree, "_Kept")]
    assert built == [("tensor.py", None)]
    assert isinstance(tensor._KEPT, _Kept)


def test_a_space_holds_its_fields_and_its_omega_table_only(capsys):
    for argv in (["fft-check", "--space", "super(1|1)", "--copies", "2",
                  "--dual-copies", "1", "--max-degree", "2"],
                 ["verify", "--space", "super(1|1)", "--level", "quick"]):
        assert cli.main(argv) == 0, capsys.readouterr().out
    capsys.readouterr()
    assert set(vars(cli.load_space("super(1|1)"))) == {
        "factor", "components", "m_plus", "m_minus", "dim", "degrees",
        "parities", "_omega_pairs"}


# (subcommand, option) -> the least value that cli.check_counts admits
LEAST = {("schur-weyl", "--power"): 0,
         ("howe-sweep", "--copies"): 1, ("howe-sweep", "--max-degree"): 0,
         ("fft-check", "--copies"): 1, ("fft-check", "--max-degree"): 0,
         ("fft-check", "--dual-copies"): 1,
         ("glq-check", "--m"): 0, ("glq-check", "--n"): 0,
         ("glq-check", "--copies"): 1, ("glq-check", "--max-degree"): 0,
         ("tableaux", "--size"): 0, ("tableaux", "--copies"): 0,
         ("glvv", "--max-degree"): 0}


def test_each_count_states_its_least_value_in_the_table():
    stated = {(command, flag): spec[3]
              for command, (_, options) in cli.SUBCOMMANDS.items()
              for flag, spec in options.items() if len(spec) > 3}
    assert stated == LEAST
    # the int options that count nothing: a seed, and gram's last level
    assert {(command, flag)
            for command, (_, options) in cli.SUBCOMMANDS.items()
            for flag, spec in options.items()
            if spec[0] is int and len(spec) == 3} == {
        ("verify", "--seed"), ("gram", "--depth")}
    # check_counts names no option and no subcommand: it reads the table
    check, = [node for node in trees()["cli.py"].body
              if isinstance(node, ast.FunctionDef)
              and node.name == "check_counts"]
    names = {command for command in cli.SUBCOMMANDS} | {
        text for _, flag in LEAST for text in (flag, flag[2:],
                                                cli._dest(flag))}
    texts = {node.value for node in ast.walk(check)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    read = {node.attr for node in ast.walk(check)
            if isinstance(node, ast.Attribute)}
    assert not (texts | read) & names
    assert [node.attr for node in ast.walk(check)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "args"] == ["command"]


def test_an_empty_space_is_refused_by_require_dimension_alone():
    found = sorted((module, where) for module, tree in trees().items()
                   for where in calls_by_function(tree, "require_dimension"))
    assert found == [("verify.py", "run_verification"),
                     ("weyl.py", "fft_check"),
                     ("weyl.py", "glq_relations_check")]
    with pytest.raises(ValueError) as exc:
        weyl.glq_relations_check(0, 0, 1)
    assert str(exc.value) == ("glq-check needs a space of dimension at "
                              "least 1; this one has dim V = 0")
