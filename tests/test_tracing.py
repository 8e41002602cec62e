"""The benchmark's tracer must find every function it wraps in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr, _ in tracing.SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"perfbench/tracing.py wraps names the package lacks: {missing}"
