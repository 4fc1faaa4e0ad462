"""The partition kernels against the functions they replaced, which
parent_partitions keeps verbatim: every public function of partitions and
its kernel agree with the parent on every partition of n <= 14, for
M+, M- <= 3 and N <= 6.  So Giambelli's k(lambda) agrees with the strip
table on all 8128 pairs of a shape and a hook class, shapes off the hook
included, and the shape generator lists the strip table's shapes.  A
public call checks its shape exactly once, and the CLI jobs that walk
hook_partitions check no shape per report row."""

import itertools
import json
import random
import sys
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest

import parent_partitions as parent
import parent_weyl
from colourgl import cli, partitions, tensor
from colourgl.partitions import (_count_hook, _count_standard, _det,
                                 _dim_glN, _hooks, _in_hook, _series, _sharp,
                                 _transpose, count_hook_tableaux,
                                 count_standard_tableaux, dim_glN,
                                 hook_partitions, hooks, in_hook,
                                 lambda_sharp, partitions_of, transpose)
from colourgl.presets import super_space

SHAPES = [lam for n in range(15) for lam in parent.partitions_of(n)]
HOOK_CLASSES = list(itertools.product(range(4), repeat=2))
SPACE = super_space(2, 1)
WORD = tensor.seed_word(SPACE, (3, 2, 1))


def test_transpose_hooks_and_standard_counts_match_the_parent():
    for lam in SHAPES:
        # a list with trailing zeros is the same shape to both
        padded = list(lam) + [0, 0]
        assert transpose(padded) == _transpose(lam) == \
            parent.transpose(padded), lam
        assert hooks(padded) == _hooks(lam) == parent.hooks(padded), lam
        assert count_standard_tableaux(padded) == _count_standard(lam) == \
            parent.count_standard_tableaux(padded), lam


def test_hook_class_sharp_and_hook_counts_match_the_parent():
    for lam in SHAPES:
        for mp, mm in HOOK_CLASSES:
            inside = parent.in_hook(lam, mp, mm)
            assert in_hook(lam, mp, mm) == _in_hook(lam, mp, mm) == inside
            if inside:
                assert lambda_sharp(lam, mp, mm) == _sharp(lam, mp, mm) == \
                    parent.lambda_sharp(lam, mp, mm), (lam, mp, mm)
            else:
                with pytest.raises(ValueError, match="hook class"):
                    lambda_sharp(lam, mp, mm)
                with pytest.raises(ValueError, match="hook class"):
                    parent.lambda_sharp(lam, mp, mm)
            assert count_hook_tableaux(lam, mp, mm) == \
                _count_hook(lam, mp, mm) == \
                parent.count_hook_tableaux(lam, mp, mm), (lam, mp, mm)


def test_shape_generator_matches_the_strip_table():
    for n in range(15):
        for mp, mm in HOOK_CLASSES:
            for depth in (0, 1, 2, 3, 99):
                assert hook_partitions(mp, mm, depth, n) == \
                    parent.hook_partitions(mp, mm, depth, n), (mp, mm, n)
        for max_part in (None, 0, 1, 2, 3):
            assert list(partitions_of(n, max_part)) == \
                list(parent.partitions_of(n, max_part)), (n, max_part)


def test_the_generator_refuses_what_no_shape_fits():
    # the strip table answered hook_partitions(1, 0, 1, -2) with (-2,)
    assert hook_partitions(2, 2, -1, 0) == []
    assert hook_partitions(1, 0, 1, -2) == list(partitions_of(-2)) == []


def leibniz(rows):
    n = len(rows)
    return sum(perm_sign(p) * prod(rows[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def perm_sign(p):
    return (-1) ** sum(p[i] > p[j] for i, j in
                       itertools.combinations(range(len(p)), 2))


def test_bareiss_determinant_matches_leibniz():
    rng = random.Random(7)
    for n in range(6):
        for _ in range(40):
            # many zeros, so that pivots vanish and rows are swapped
            rows = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)]
                    for _ in range(n)]
            assert _det(rows) == leibniz(rows), rows
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[0, 0], [0, 1]]) == 0
    assert _det([]) == 1


def test_series_matches_the_running_sums():
    # the recurrence of (1 - t^2) F' against one pass per generator
    for even in range(5):
        for odd in range(5):
            alg = SimpleNamespace(parities=[1] * even + [-1] * odd)
            assert list(_series(even, odd, 30)) == \
                parent_weyl._series_counts(alg, 30), (even, odd)


def test_integer_dim_glN_matches_the_parent_fractions():
    for lam in SHAPES:
        for n in range(7):
            value = dim_glN(lam, n)
            assert type(value) is int
            assert value == _dim_glN(lam, n) == parent.dim_glN(lam, n), \
                (lam, n)


def test_the_parent_answered_for_another_shape():
    # the bug the new check_partition refuses: a truncated part, a string
    # part and a dropped interior zero each gave another shape's answer
    assert parent.dim_glN((2.5, 1), 3) == parent.dim_glN((2, 1), 3)
    assert parent.dim_glN((Fraction(5, 2), 1), 3) == 8
    assert parent.transpose(("2", "1")) == (2, 1)
    assert parent.transpose((3, 0, 1)) == (2, 1, 1)
    for bad in [(2.5, 1), (Fraction(5, 2), 1), ("2", "1"), (3, 0, 1)]:
        with pytest.raises(ValueError):
            dim_glN(bad, 3)


@pytest.fixture
def check_calls(monkeypatch):
    """Count check_partition calls, in every module namespace holding it."""
    calls = []
    original = partitions.check_partition

    def counted(parts):
        calls.append(parts)
        return original(parts)

    for name, module in list(sys.modules.items()):
        if name.startswith("colourgl") and \
                getattr(module, "check_partition", None) is original:
            monkeypatch.setattr(module, "check_partition", counted)
    return calls


@pytest.mark.parametrize("call", [
    lambda lam: transpose(lam),
    lambda lam: in_hook(lam, 2, 1),
    lambda lam: lambda_sharp(lam, 2, 1),
    lambda lam: hooks(lam),
    lambda lam: count_standard_tableaux(lam),
    lambda lam: dim_glN(lam, 4),
    lambda lam: count_hook_tableaux(lam, 2, 1),
    lambda lam: tensor.seed_word(SPACE, lam),
    lambda lam: tensor.young_symmetrize(SPACE, lam, WORD),
    lambda lam: tensor.highest_weight_vector(SPACE, lam),
])
def test_a_public_call_checks_its_shape_once(check_calls, call):
    call((3, 2, 1))
    assert len(check_calls) == 1


JOBS = {
    "tableaux": (["tableaux", "--space", "super(2|1)", "--size", "3",
                  "--copies", "3"],
                 ["tableaux", "--space", "super(2|1)", "--size", "9",
                  "--copies", "3"]),
    "howe-sweep": (["howe-sweep", "--space", "super(1|1)", "--copies", "2",
                    "--max-degree", "2"],
                   ["howe-sweep", "--space", "super(1|1)", "--copies", "2",
                    "--max-degree", "7"]),
    "glvv": (["glvv", "--space", "super(1|1)", "--other-space",
              "super(2|1)", "--max-degree", "2"],
             ["glvv", "--space", "super(1|1)", "--other-space",
              "super(2|1)", "--max-degree", "6"]),
    "schur-weyl": (["schur-weyl", "--space", "super(1|1)", "--power", "2"],
                   ["schur-weyl", "--space", "super(1|1)", "--power", "5"]),
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_checks_do_not_grow_with_the_report_rows(check_calls, capsys, job):
    counts, rows = [], []
    for argv in JOBS[job]:
        del check_calls[:]
        assert cli.main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        counts.append(len(check_calls))
        rows.append(len(results["rows"]) + len(results.get("pairs", ())))
    assert rows[0] < rows[1]
    assert counts[0] == counts[1], (job, counts, rows)
