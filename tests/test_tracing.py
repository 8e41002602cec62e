"""The benchmark's tracer must find every function it wraps in the package,
and read the fields it counts from what those functions return."""

import importlib
import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np

from pdcont import persistence
from pdcont.filtration import build_alpha
from pdcont.geometry import Configuration

from helpers import random_cloud

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
