"""Self-tests of the benchmark's tracing, against ``design.json``.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 1 if any check fails.

1. Every public function of a span layer is wrapped in every colourgl
   namespace that holds it, including names copied by ``from ... import``.
2. Every wrapper fires on the workload meant to exercise it: each per-layer
   metric in the prediction table is nonzero on its ``nonzero`` workloads,
   exactly zero on its ``zero`` workloads, and at most ``near_zero_max`` of
   the largest value on its ``near_zero`` workloads.
3. Counts are exact claims: every count and share metric repeats exactly
   for one seed across two traced runs of each workload.

The file is not named test_*.py so that the package's own pytest run does
not collect it: it starts sixteen traced worker processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
ROUNDS = 2


def traced_layers(workload, rounds):
    """Per-layer metrics of the first rounds of one seed, traced."""
    totals = []
    for k in range(rounds):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(SEED), "--round", str(k), "--trace"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"traced {workload} round failed:\n"
                             f"{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            raise SystemExit(f"traced {workload} round had failed jobs:\n"
                             f"{proc.stderr}")
        totals.append(result["layers"])
    return tracing.layer_metrics(totals)


def check_namespaces():
    """Names of span-layer functions left unwrapped after install()."""
    import importlib
    sys.path.insert(0, str(ROOT / "src"))
    tracing.install(tracing.Tracer())
    layer_modules = {f"colourgl.{layer}" for layer in tracing.SPAN_LAYERS}
    errors = []
    for name in ("colourgl", *(f"colourgl.{m}"
                               for m in tracing.ALL_MODULES)):
        for attr, val in vars(importlib.import_module(name)).items():
            code = getattr(val, "__code__", None)
            if callable(val) and not isinstance(val, type) and \
                    getattr(val, "__module__", None) in layer_modules and \
                    not attr.startswith("_") and \
                    (code is None or code.co_filename != tracing.__file__):
                errors.append(f"{name}.{attr} is not wrapped")
    return errors


def exact_metrics():
    return [name for name, unit in tracing.PER_LAYER.items()
            if unit in ("count", "ratio") and name != "trace.overhead"]


def check_predictions(design, runs):
    errors = []
    for name, pred in design["predictions"].items():
        if name == "trace.overhead":
            continue  # a ratio of two timed runs, made by run.py
        values = {w: runs[w][name] for w in runs}
        for w in pred.get("nonzero", ()):
            if not values[w] > 0:
                errors.append(f"{name} is {values[w]} on {w}, predicted > 0")
        for w in pred.get("zero", ()):
            if values[w] != 0:
                errors.append(f"{name} is {values[w]} on {w}, predicted 0")
        top = max(values.values())
        for w in pred.get("near_zero", ()):
            if values[w] > design["near_zero_max"] * top:
                errors.append(f"{name} is {values[w]} on {w}, predicted "
                              f"about 0 (largest {top})")
    return errors


def check_repeat(first, second):
    return [f"{w}: {name} was {first[w][name]}, then {second[w][name]}"
            for w in first for name in exact_metrics()
            if first[w][name] != second[w][name]]


def main():
    with open(HERE / "design.json") as fh:
        design = json.load(fh)
    missing = set(tracing.PER_LAYER) ^ set(design["predictions"])
    if missing:
        raise SystemExit(f"prediction table and PER_LAYER differ: {missing}")
    first = {w: traced_layers(w, ROUNDS) for w in workloads.WORKLOADS}
    second = {w: traced_layers(w, ROUNDS) for w in workloads.WORKLOADS}
    failures = check_namespaces() + check_predictions(design, first) + \
        check_repeat(first, second)
    for line in failures:
        print("FAIL", line)
    if failures:
        return 1
    print(f"ok: {len(design['predictions'])} predictions on "
          f"{len(first)} workloads, {len(exact_metrics())} exact metrics "
          f"repeated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
