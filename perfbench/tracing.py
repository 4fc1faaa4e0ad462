"""Per-layer tracing for the traced benchmark run, installed from outside.

The layers are the package modules.  For the span layers (gl, tensor,
weyl, partitions, reps, verify, cli) every public module-level function is
wrapped, in every module namespace that holds it (``from ... import``
copies the name, e.g. ``bracket`` into ``weyl`` and ``schur_weyl_table``
into ``cli``), together with the public methods listed in SPAN_METHODS.
A call records a span: its name, the job id, the parent span, its start
and end.  Spans stay in memory, in flat arrays, until the run ends.  The
self time of a span is its duration minus that of its child spans, so a
layer's self time includes the Scalar and omega work done directly in it.

Scalar arithmetic (scalars) and omega (grading) run millions of times per
job, so they get aggregated counts and busy time instead of spans; only the
outermost Scalar operation of a nest is counted.  Generator functions
(``partitions_of``) are counted, not timed, because their body runs while
the caller consumes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from fractions import Fraction

SPAN_LAYERS = ("gl", "tensor", "weyl", "partitions", "reps", "verify", "cli")
ALL_MODULES = ("scalars", "grading", "gl", "partitions", "presets", "tensor",
               "weyl", "reps", "verify", "cli")
SPAN_METHODS = {
    "gl": {"GlElement": ("compose",)},
    "tensor": {"SymGroupElement": ("apply", "__mul__")},
    "weyl": {"OmegaPolyAlgebra": ("monomials", "multiply",
                                  "derivation_apply")},
    "reps": {"KacModule": ("basis", "act", "act_vector", "form")},
}
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "inverse", "__eq__")
VERIFY_SUITES = ("bicharacter", "scalar_field", "jacobi", "coxeter",
                 "equivariance", "forms", "fock", "dual_pair")

# per-layer metric -> unit; every traced run reports all of them
PER_LAYER = {
    "scalars.ops": "count",
    "scalars.self_s": "s",
    "scalars.monomial_share": "ratio",
    "scalars.fraction_share": "ratio",
    "grading.omega_calls": "count",
    "grading.omega_self_s": "s",
    "gl.omega_flat_calls": "count",
    "grading.omega_table_share": "ratio",
    "gl.bracket_calls": "count",
    "gl.self_s": "s",
    "tensor.braiding_apply_calls": "count",
    "tensor.apply_permutation_calls": "count",
    "tensor.symmetrizer_terms": "count",
    "tensor.gl_act_tensor_calls": "count",
    "tensor.terms_out": "count",
    "tensor.self_s": "s",
    "weyl.weyl_multiply_calls": "count",
    "weyl.fock_apply_calls": "count",
    "weyl.derivation_apply_calls": "count",
    "weyl.monomials_out": "count",
    "weyl.self_s": "s",
    "weyl.rank_of_rows_calls": "count",
    "weyl.rank_of_rows_rows": "count",
    "weyl.rank_of_rows_nnz": "count",
    "weyl.rank_yield": "ratio",
    "weyl.rank_of_rows_self_s": "s",
    "partitions.count_hook_tableaux_calls": "count",
    "partitions.self_s": "s",
    "reps.symmetric_inertia_calls": "count",
    "reps.gram_entries": "count",
    "reps.self_s": "s",
    **{f"verify.{suite}_s": "s" for suite in VERIFY_SUITES},
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def _operand_kind(x, scalar_cls):
    """(is a signed monomial +-q^e, is a true fraction with den != 1)."""
    if isinstance(x, scalar_cls):
        if len(x.den) != 1:
            return False, True
        num = x.num
        return len(num) == 1 and (num[0] == 1 or num[0] == -1), False
    if isinstance(x, (int, Fraction)):
        return x == 1 or x == -1, False
    return False, False


class Tracer:
    """Spans in flat arrays plus the aggregated scalar and omega counters."""

    def __init__(self):
        self.parent = array("q")
        self.job = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.names = []            # name id -> (layer, qualified name)
        self.stack = []
        self.job_id = -1
        self.counts = Counter()    # count-only wrappers and result counters
        self.scalar_busy = 0.0
        self.omega_busy = 0.0
        self.in_scalar = False

    # -- wrappers ----------------------------------------------------------

    def span(self, layer, qualname, fn):
        if inspect.isgeneratorfunction(fn):
            return self.counted(f"{layer}.{qualname}", fn)
        name_id = len(self.names)
        self.names.append((layer, qualname))
        parent, job, names = self.parent, self.job, self.name
        start, end, stack = self.start, self.end, self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            names.append(name_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def scalar_op(self, fn, scalar_cls, on_result=False):
        tracer, counts, perf = self, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.in_scalar:
                return fn(*args)
            tracer.in_scalar = True
            t0 = perf()
            try:
                result = fn(*args)
            finally:
                tracer.scalar_busy += perf() - t0
                tracer.in_scalar = False
            counts["scalars.ops"] += 1
            mono, frac = True, False
            for x in ((result,) if on_result else args):
                m, f = _operand_kind(x, scalar_cls)
                mono, frac = mono and m, frac or f
            counts["scalars.monomial_ops"] += mono
            counts["scalars.fraction_ops"] += frac
            return result
        return wrapper

    def omega(self, fn):
        tracer, counts, perf = self, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf()
            try:
                return fn(*args)
            finally:
                tracer.omega_busy += perf() - t0
                counts["grading.omega_calls"] += 1
        return wrapper

    def adding(self, key, fn, measure):
        """Wrap fn so that counts[key] grows by measure(result)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += measure(result)
            return result
        return wrapper

    # -- results -------------------------------------------------------------

    def totals(self):
        """Additive totals of one traced process: counts and seconds."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = Counter(self.counts)
        out["spans"] = n
        out["scalars.self_s"] = self.scalar_busy
        out["grading.omega_self_s"] = self.omega_busy
        for i in range(n):
            dur = end[i] - start[i]
            layer, qualname = self.names[self.name[i]]
            out[f"{layer}.self_s"] += dur - child[i]
            out[f"self_s:{layer}.{qualname}"] += dur - child[i]
            out[f"total_s:{layer}.{qualname}"] += dur
            out[f"calls:{layer}.{qualname}"] += 1
        return dict(out)


def layer_metrics(totals):
    """Every per-layer metric except trace.overhead, from the totals of the
    traced processes of one run."""
    t = Counter()
    for part in totals:
        t.update(part)

    def share(num, den):
        return t[num] / den if den else 0.0

    omega_all = t["grading.omega_calls"] + t["gl.omega_flat_calls"]
    out = {
        "scalars.ops": t["scalars.ops"],
        "scalars.self_s": t["scalars.self_s"],
        "scalars.monomial_share": share("scalars.monomial_ops",
                                        t["scalars.ops"]),
        "scalars.fraction_share": share("scalars.fraction_ops",
                                        t["scalars.ops"]),
        "grading.omega_calls": t["grading.omega_calls"],
        "grading.omega_self_s": t["grading.omega_self_s"],
        "gl.omega_flat_calls": t["gl.omega_flat_calls"],
        "grading.omega_table_share": share("gl.omega_flat_calls", omega_all),
        "gl.bracket_calls": t["calls:gl.bracket"],
        "tensor.braiding_apply_calls": t["calls:tensor.braiding_apply"],
        "tensor.apply_permutation_calls": t["calls:tensor.apply_permutation"],
        "tensor.symmetrizer_terms": t["tensor.symmetrizer_terms"],
        "tensor.gl_act_tensor_calls": t["calls:tensor.gl_act_tensor"],
        "tensor.terms_out": t["tensor.terms_out"],
        "weyl.weyl_multiply_calls": t["calls:weyl.weyl_multiply"],
        "weyl.fock_apply_calls": t["calls:weyl.fock_apply"],
        "weyl.derivation_apply_calls":
            t["calls:weyl.OmegaPolyAlgebra.derivation_apply"],
        "weyl.monomials_out": t["weyl.monomials_out"],
        "weyl.rank_of_rows_calls": t["calls:weyl.rank_of_rows"],
        "weyl.rank_of_rows_rows": t["weyl.rank_of_rows_rows"],
        "weyl.rank_of_rows_nnz": t["weyl.rank_of_rows_nnz"],
        "weyl.rank_yield": share("weyl.rank_of_rows_rank",
                                 t["weyl.rank_of_rows_rows"]),
        "weyl.rank_of_rows_self_s": t["self_s:weyl.rank_of_rows"],
        "partitions.count_hook_tableaux_calls":
            t["calls:partitions.count_hook_tableaux"],
        "reps.symmetric_inertia_calls": t["calls:reps.symmetric_inertia"],
        "reps.gram_entries": t["reps.gram_entries"],
    }
    for layer in ("gl", "tensor", "weyl", "partitions", "reps", "cli"):
        out[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = t[f"total_s:verify.suite_{suite}"]
    return out


def _rank_counter(tracer, fn):
    """rank_of_rows with its rows, nonzeros and rank counted; the rows are
    materialised first because callers may pass a one-shot iterable."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(rows):
        rows = list(rows)
        counts["weyl.rank_of_rows_rows"] += len(rows)
        counts["weyl.rank_of_rows_nnz"] += sum(len(r) for r in rows)
        rank = fn(rows)
        counts["weyl.rank_of_rows_rank"] += rank
        return rank
    return wrapper


def _inertia_counter(tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(mat):
        counts["reps.gram_entries"] += len(mat) ** 2
        return fn(mat)
    return wrapper


def install(tracer):
    """Wrap the colourgl modules in place.  Call once, in a process that
    runs nothing untraced afterwards."""
    mods = {name: importlib.import_module(f"colourgl.{name}")
            for name in ALL_MODULES}
    namespaces = [importlib.import_module("colourgl"), *mods.values()]
    TensorVector = mods["tensor"].TensorVector

    def tensor_terms(result):
        return len(result.terms) if isinstance(result, TensorVector) else 0

    specials = {
        ("weyl", "rank_of_rows"): lambda fn: _rank_counter(tracer, fn),
        ("reps", "symmetric_inertia"): lambda fn: _inertia_counter(tracer, fn),
        ("tensor", "young_symmetrizer"): lambda fn: tracer.adding(
            "tensor.symmetrizer_terms", fn, lambda r: len(r.terms)),
    }
    replace = {}
    for layer in SPAN_LAYERS:
        mod = mods[layer]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or inspect.isclass(obj) or \
                    not callable(obj) or \
                    getattr(obj, "__module__", None) != mod.__name__:
                continue
            fn = obj
            if (layer, name) in specials:
                fn = specials[(layer, name)](fn)
            if layer == "tensor":
                fn = tracer.adding("tensor.terms_out", fn, tensor_terms)
            replace[id(obj)] = (obj, tracer.span(layer, name, fn))
        for cls_name, methods in SPAN_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                if (cls_name, meth) == ("OmegaPolyAlgebra", "monomials"):
                    fn = tracer.adding("weyl.monomials_out", fn, len)
                setattr(cls, meth, tracer.span(layer, f"{cls_name}.{meth}",
                                               fn))
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(ns, attr, hit[1])

    Scalar = mods["scalars"].Scalar
    for op in SCALAR_OPS:
        setattr(Scalar, op, tracer.scalar_op(Scalar.__dict__[op], Scalar))
    parse = Scalar.__dict__["parse"].__func__
    Scalar.parse = classmethod(tracer.scalar_op(parse, Scalar, on_result=True))
    factor_cls = mods["grading"].CommutativeFactor
    factor_cls.omega = tracer.omega(factor_cls.__dict__["omega"])
    space_cls = mods["gl"].GradedSpace
    space_cls.omega_flat = tracer.counted("gl.omega_flat_calls",
                                          space_cls.__dict__["omega_flat"])
