"""weyl.fft_check, the fft-check job as one call, runs its two gl(V)
checks on one memo of word products.  Its fields must equal those of
separate calls, each of which forms its products afresh:
invariant_dimension per degree, verify_dual_pair and
invariant_generators_check at min(N, 2) copies, on presets and seeded
random colour spaces, and also when one check is made to fail.  Degree 0
forms no z-product, so it lists no z-word: thousands of copies run in a
fraction of a second, where listing the N N' z-words ran out of memory.
Every entry point bounds every degree up to its last, invariant_dimension
called alone too, and a negative degree reads 0; each such call runs in a
child process with a timeout, as a walk with no bound never returns.
Each call makes one bound pass and then runs the unbounded kernel
_invariant_dimension, where invariant_dimensions once bounded degrees
0..d again inside each degree d; both entry points match those parent
copies, kept verbatim in tests/parent_weyl.py, values and refusals."""

import json
import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest

import parent_weyl as parent
from colourgl import weyl
from colourgl.gl import ResourceBoundExceeded
from colourgl.presets import preset_space, super_space
from test_laurent_kernels import COPY_PAIRS, small_presets
from test_random_spaces import random_space
from test_refusal_rule import SRC, limit_address_space, run_module

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


def run_child(code):
    """What `code`, run by a fresh interpreter with the package on its
    path and run_module's address-space limit, prints as JSON; a call
    that does not return within 10 s fails by the timeout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_invariant_dimension_bounds_the_degrees_below_its_own():
    # degree 13's basis on super(0|1) is empty, so its own bound reads 0:
    # bounded by that alone, the walk took the products of 144 z's past
    # 20 s, where fft-check refuses degree 3's C(12, 3)^2 = 48400 basis
    # elements
    code, doc, _ = run_module(
        "fft-check", "--space", "super(0|1)", "--copies", "12",
        "--dual-copies", "12", "--max-degree", "13")
    assert code == 2 and doc["kind"] == "error"
    error, seconds = run_child("""if True:
        import json, time
        from colourgl import ResourceBoundExceeded, weyl
        from colourgl.presets import super_space
        start = time.perf_counter()
        try:
            weyl.invariant_dimension(super_space(0, 1), 12, 12, 13)
            error = None
        except ResourceBoundExceeded as exc:
            error = str(exc)
        print(json.dumps([error, time.perf_counter() - start]))""")
    assert error == doc["error"] == ("invariant_dimension needs 48400 basis "
                                     "elements, above the bound 20000")
    assert seconds < 2


def test_a_negative_degree_reads_0():
    # with the z-words listed at a negative degree, their walk never ends:
    # no product has a negative number of factors
    dims, seconds = run_child("""if True:
        import json, time
        from colourgl import weyl
        from colourgl.presets import preset_space
        start = time.perf_counter()
        dims = [weyl.invariant_dimension(preset_space(name), n, n2, d)
                for name in ("super(1|0)", "super(2|1)", "glq(1|1)")
                for n, n2 in ((1, 1), (2, 1)) for d in (-1, -3)]
        print(json.dumps([dims, time.perf_counter() - start]))""")
    assert dims == [0] * 12
    assert seconds < 2
    assert weyl.invariant_dimensions(super_space(1, 0), 1, 1, -1) == {}


def test_each_call_makes_one_bound_pass(monkeypatch):
    # the parent bounded degrees 0..d again inside each degree d of
    # invariant_dimensions: about 41000 closed-form counts to degree 200
    counted = []
    right = weyl._count_monomials

    def counting(*args):
        counted[-1] += 1
        return right(*args)

    monkeypatch.setattr(weyl, "_count_monomials", counting)
    for entry in (weyl.fft_check, weyl.invariant_dimensions):
        counted.append(0)
        entry(super_space(0, 1), 1, 1, 200)
    assert max(counted) <= 4 * 201, counted


def test_a_long_sweep_is_linear_in_its_degree():
    # 27.3 s at the parent, one subprocess run: every degree re-bounded
    # the degrees below it
    code, doc, seconds = run_module(
        "fft-check", "--space", "super(0|1)", "--copies", "1",
        "--dual-copies", "1", "--max-degree", "4000")
    assert code == 0, doc
    assert doc["results"]["invariant_dimensions"] == {
        str(d): int(d <= 1) for d in range(4001)}
    assert seconds < 2


def outcome(f, *args):
    """f(*args), or the type and message of the refusal it raised."""
    try:
        return f(*args)
    except ResourceBoundExceeded as exc:
        return type(exc).__name__, str(exc)


def entry_points_match_the_parent(space, copies, dual_copies, degrees):
    """Both entry points against the parent copies at each of `degrees`;
    the parent's sweep to the last degree answers invariant_dimension at
    each degree >= 0, as it calls the parent's invariant_dimension there."""
    args = (space, copies, dual_copies)
    want = outcome(parent.invariant_dimensions, *args, degrees[-1])
    assert outcome(weyl.invariant_dimensions, *args, degrees[-1]) == want
    for d in degrees:
        got = outcome(weyl.invariant_dimension, *args, d)
        if d < 0:
            assert got == outcome(parent.invariant_dimension_nested_bounds,
                                  *args, d) == 0
            assert weyl.invariant_dimensions(*args, d) == \
                parent.invariant_dimensions(*args, d) == {}
        else:
            assert got == want[d]


@pytest.fixture
def one_kernel_run(monkeypatch):
    """The kernel with one run per argument tuple, so that the two entry
    points share each degree's run: the kernel is a function of its
    arguments, and a wrong degree or size in either entry point is a new
    tuple, run afresh."""
    monkeypatch.setattr(weyl, "_invariant_dimension",
                        lru_cache(maxsize=None)(weyl._invariant_dimension))


def test_both_entry_points_match_the_parent_on_every_small_preset(
        one_kernel_run):
    for name, space in small_presets().items():
        for pair in COPY_PAIRS:
            entry_points_match_the_parent(space, *pair, range(-3, 4))


def test_both_entry_points_match_the_parent_on_random_spaces(
        one_kernel_run):
    rng = random.Random(5555)
    for _ in range(16):
        space = random_space(rng)
        for pair in COPY_PAIRS:
            entry_points_match_the_parent(space, *pair, range(-3, 3))


@pytest.mark.parametrize("space, copies, dual_copies, degree", [
    ("super(0|1)", 12, 12, 13), ("super(14|14)", 2, 1, 5)])
def test_both_entry_points_refuse_as_the_parent(space, copies, dual_copies,
                                                degree):
    args = (preset_space(space), copies, dual_copies, degree)
    want = outcome(parent.invariant_dimension_nested_bounds, *args)
    assert want[0] == "ResourceBoundExceeded"
    assert outcome(weyl.invariant_dimension, *args) == want
    assert outcome(weyl.invariant_dimensions, *args) == \
        outcome(parent.invariant_dimensions, *args) == want
