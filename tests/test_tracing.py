"""The benchmark's tracer must find every function it wraps in the package,
see the package call it, and read the fields it counts from what those
functions return; and the package imports no name it does not use."""

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


def _traced(tracing, run):
    """The tracer and the per-layer metrics of one traced call of ``run``."""
    tracer = tracing.Tracer()
    tracer.start()
    try:
        start = perf_counter()
        run()
        wall_s = perf_counter() - start
    finally:
        tracer.stop()
    return tracer, tracing.layer_metrics(tracer.sites, tracer.spans, tracer.counts, wall_s)


def _alpha_continuation(**options):
    """A short alpha continuation of a jittered 20-point sphere, ready to run."""
    config = to_gauge_frame(apply_jitter(fibonacci_sphere(20), seed=0, magnitude=1e-6))
    v0 = persistence.diagram(config, "alpha", 2, 1e-3).vector(include_essential=False)
    return lambda: solver.continue_cloud(config, "alpha", 2, 1e-3, v0 * 1.02, n_steps=2, **options)


def test_traced_diagram_counts_columns_and_pairs():
    tracing = _load_tracing()
    config = Configuration(random_cloud(np.random.RandomState(0), 20), gauge=False)
    size = len(build_alpha(config).entries)
    tracer, layers = _traced(tracing, lambda: persistence.diagram(config, "alpha", 1))
    assert tracer.counts["persistence.columns"] == size
    assert tracer.counts["persistence.pairs"] > 0
    assert abs(layers["self_sum_error_s"]) <= 1e-9


def test_traced_runs_reach_the_geometric_passes():
    """The alpha sphere pass and its gradients, and the Rips birth pass, run
    under the names the tracer wraps, so the geometry layer is timed."""
    tracing = _load_tracing()
    rips = Configuration(random_cloud(np.random.RandomState(0), 8), gauge=False)
    runs = {
        "alpha": (_alpha_continuation(), {"geometry.circumradius", "geometry.circumradius_gradient"}),
        "rips": (lambda: persistence.diagram(rips, "rips", 1), {"geometry.rips_birth_radius"}),
    }
    for kind, (run, sites) in runs.items():
        tracer, layers = _traced(tracing, run)
        seen = {tracer.sites[span[0]] for span in tracer.spans}
        assert sites <= seen, (kind, sites - seen)
        assert layers["geometry.busy_s"] > 0.0, kind
        # the Rips diagram takes no gradient
        assert (layers["geometry.gradient_calls"] > 0) == (kind == "alpha")


def test_traced_continuation_counts_the_stacked_solves(monkeypatch):
    """Every Newton system with tie rows stacked below the Jacobian is solved
    by the public pseudo-inverse, which the tracer counts."""
    tracing = _load_tracing()
    run = _alpha_continuation(tie_window=1.0)
    stacked, tie_rows = [], solver._tie_rows

    def recorded(*args):
        out = tie_rows(*args)
        stacked.append(out[0].shape[0] > 0)
        return out

    monkeypatch.setattr(solver, "_tie_rows", recorded)
    _, layers = _traced(tracing, run)
    assert layers["solver.pinv_calls"] == sum(stacked) > 0


def _unused_imports(source):
    """Names that ``source`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom .a import b, c as d\nsys.exit(d)\n"
    assert _unused_imports(source) == ["b", "os"]


def test_every_import_is_used():
    """No module imports a name only for the tracer to wrap."""
    unused = {}
    for path in sorted((ROOT / "src" / "pdcont").glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(path.read_text())
        if names:
            unused[path.name] = names
    assert not unused, f"imports that are never used: {unused}"
