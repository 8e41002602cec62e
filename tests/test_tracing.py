"""The benchmark's tracer must find every function it wraps in the package,
and read the fields it counts from what those functions return; and the
package imports no name it neither uses nor keeps for the tracer to wrap."""

import ast
import importlib
import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np

from pdcont import persistence, solver
from pdcont.cli import apply_jitter, fibonacci_sphere
from pdcont.filtration import build_alpha
from pdcont.geometry import Configuration, to_gauge_frame

from helpers import random_cloud

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_site_resolves():
    tracing = _load_tracing()
    missing = [
        (module, attr)
        for module, attr, _ in tracing.SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"


def test_traced_diagram_counts_columns_and_pairs():
    tracing = _load_tracing()
    config = Configuration(random_cloud(np.random.RandomState(0), 20), gauge=False)
    size = len(build_alpha(config).entries)
    tracer = tracing.Tracer()
    tracer.start()
    try:
        start = perf_counter()
        persistence.diagram(config, "alpha", 1)
        wall_s = perf_counter() - start
    finally:
        tracer.stop()
    assert tracer.counts["persistence.columns"] == size
    assert tracer.counts["persistence.pairs"] > 0
    layers = tracing.layer_metrics(tracer.sites, tracer.spans, tracer.counts, wall_s)
    assert abs(layers["self_sum_error_s"]) <= 1e-9


def test_traced_continuation_counts_the_stacked_solves(monkeypatch):
    """Every Newton system with tie rows stacked below the Jacobian is solved
    by the public pseudo-inverse, which the tracer counts."""
    tracing = _load_tracing()
    config = to_gauge_frame(apply_jitter(fibonacci_sphere(20), seed=0, magnitude=1e-6))
    v0 = persistence.diagram(config, "alpha", 2, 1e-3).vector(include_essential=False)
    stacked, tie_rows = [], solver._tie_rows

    def recorded(*args):
        out = tie_rows(*args)
        stacked.append(out[0].shape[0] > 0)
        return out

    monkeypatch.setattr(solver, "_tie_rows", recorded)
    tracer = tracing.Tracer()
    tracer.start()
    try:
        start = perf_counter()
        solver.continue_cloud(config, "alpha", 2, 1e-3, v0 * 1.02, n_steps=2, tie_window=1.0)
        wall_s = perf_counter() - start
    finally:
        tracer.stop()
    layers = tracing.layer_metrics(tracer.sites, tracer.spans, tracer.counts, wall_s)
    assert layers["solver.pinv_calls"] == sum(stacked) > 0


def _unused_imports(source, wrapped):
    """Names that ``source`` imports (``__future__`` aside) and never reads,
    other than those in ``wrapped``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - wrapped)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom .a import b, c as d\nsys.exit(d)\n"
    assert _unused_imports(source, set()) == ["b", "os"]
    assert _unused_imports(source, {"b"}) == ["os"]


def test_every_import_is_used():
    sites = _load_tracing().SITES
    unused = {}
    for path in sorted((ROOT / "src" / "pdcont").glob("*.py")):
        if path.name == "__init__.py":
            continue
        wrapped = {attr for module, attr, _ in sites if module == f"pdcont.{path.stem}"}
        names = _unused_imports(path.read_text(), wrapped)
        if names:
            unused[path.name] = names
    assert not unused, f"imports that are neither used nor wrapped by perfbench/tracing.py: {unused}"
