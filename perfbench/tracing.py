"""Spans around pdcont's layer boundaries, recorded from outside the package.

Each wrapped function is replaced, in the module namespace its caller looks it
up in, by a wrapper that records a span (site, start, end, parent) in memory.
Layers are the package modules; a site is ``<layer>.<function>``. A span's
self time is its duration minus the durations of its direct children, so the
self times of all spans add up to the durations of the root spans, and the
traced wall time minus those root durations is the time no layer accounts for.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

LAYERS = ("geometry", "delaunay", "filtration", "persistence", "diffmap", "solver", "metrics")

# A pseudo-inverse of a matrix whose larger side exceeds this goes to LAPACK
# instead of the one-sided Jacobi SVD (solver._JACOBI_SIZE_LIMIT).
LAPACK_PINV_SIDE = 64

# (namespace the caller looks the name up in, attribute, site). The private
# helpers solver._newton_core, solver._tie_rows and delaunay._verify_empty are
# wrapped because no public function marks those boundaries.
SITES = (
    ("pdcont.diffmap", "circumradius_gradient", "geometry.circumradius_gradient"),
    ("pdcont.filtration", "circumradius", "geometry.circumradius"),
    ("pdcont.filtration", "rips_birth_radius", "geometry.rips_birth_radius"),
    ("pdcont.delaunay", "delaunay3", "delaunay.delaunay3"),
    ("pdcont.delaunay", "_verify_empty", "delaunay._verify_empty"),
    ("pdcont.delaunay", "insphere_exact", "delaunay.insphere_exact"),
    ("pdcont.persistence", "build", "filtration.build"),
    ("pdcont.solver", "build", "filtration.build"),
    ("pdcont.persistence", "diagram", "persistence.diagram"),
    ("pdcont.persistence", "boundary_matrix", "persistence.boundary_matrix"),
    ("pdcont.solver", "boundary_matrix", "persistence.boundary_matrix"),
    ("pdcont.persistence", "reduce_boundary", "persistence.reduce_boundary"),
    ("pdcont.solver", "reduce_boundary", "persistence.reduce_boundary"),
    ("pdcont.persistence", "persistence_data", "persistence.persistence_data"),
    ("pdcont.solver", "persistence_data", "persistence.persistence_data"),
    ("pdcont.solver", "jacobian", "diffmap.jacobian"),
    ("pdcont.solver", "continue_cloud", "solver.continue_cloud"),
    ("pdcont.solver", "_newton_core", "solver._newton_core"),
    ("pdcont.solver", "svd", "solver.svd"),
    ("pdcont.solver", "pinv_apply", "solver.pinv_apply"),
    ("pdcont.solver", "_tie_rows", "solver._tie_rows"),
    ("pdcont.solver", "match_to_layout", "solver.match_to_layout"),
    ("pdcont.solver", "linear_sum_assignment", "solver.linear_sum_assignment"),
    ("pdcont.metrics", "bottleneck", "metrics.bottleneck"),
    ("pdcont.metrics", "hausdorff", "metrics.hausdorff"),
)


def _count_tets(counts, args, out):
    counts["delaunay.tets"] += len(out.tetrahedra)


def _count_simplices(counts, args, out):
    counts["filtration.simplices"] += len(out.entries)


def _count_columns(counts, args, out):
    counts["persistence.columns"] += out.size


def _count_pairs(counts, args, out):
    counts["persistence.pairs"] += len(out.pairs)


def _count_converged(counts, args, out):
    counts["solver.converged_solves"] += bool(out[1].converged)


def _count_lapack(counts, args, out):
    counts["solver.pinv_lapack_calls"] += max(args[0].shape) > LAPACK_PINV_SIDE


def _count_tie_rows(counts, args, out):
    counts["solver.tie_rows"] += out[0].shape[0]


HOOKS = {
    "delaunay.delaunay3": _count_tets,
    "filtration.build": _count_simplices,
    "persistence.boundary_matrix": _count_columns,
    "persistence.reduce_boundary": _count_pairs,
    "solver._newton_core": _count_converged,
    "solver.pinv_apply": _count_lapack,
    "solver._tie_rows": _count_tie_rows,
}

HOOK_COUNTS = (
    "delaunay.tets", "filtration.simplices", "persistence.columns", "persistence.pairs",
    "solver.converged_solves", "solver.pinv_lapack_calls", "solver.tie_rows",
)


class Tracer:
    """Collects spans and counts between start() and stop().

    The wrappers are installed only while tracing, so untraced repetitions run
    the package's own functions.
    """

    def __init__(self):
        self.sites = []
        self.site_index = {}
        self.spans = []
        self.stack = []
        self.counts = {}
        self._originals = []

    def start(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(HOOK_COUNTS, 0)
        for module_name, attr, site in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, site))

    def stop(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _site_id(self, site):
        if site not in self.site_index:
            self.site_index[site] = len(self.sites)
            self.sites.append(site)
        return self.site_index[site]

    def _wrap(self, fn, site):
        sid = self._site_id(site)
        hook = HOOKS.get(site)
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            span = [sid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples, candidates=(50, 75, 90, 95, 99, 99.9)):
    """Highest candidate percentile with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in candidates:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def _inside_layer(spans, layer_of, parent, layer):
    while parent >= 0:
        sid, _, _, parent_of_parent = spans[parent]
        if layer_of[sid] == layer:
            return True
        parent = parent_of_parent
    return False


def layer_metrics(sites, spans, counts, wall_s):
    """Per-layer metrics of one traced repetition that took ``wall_s``."""
    n = len(spans)
    child_s = [0.0] * n
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    layer_of = [site.split(".", 1)[0] for site in sites]
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy_s = dict.fromkeys(LAYERS, 0.0)
    site_s = [0.0] * len(sites)
    site_calls = [0] * len(sites)
    solve_ms = []
    index = {site: i for i, site in enumerate(sites)}
    newton_site = index["solver._newton_core"]
    root_s = 0.0
    for idx, (sid, start, end, parent) in enumerate(spans):
        dur = end - start
        layer = layer_of[sid]
        self_s[layer] += dur - child_s[idx]
        site_s[sid] += dur
        site_calls[sid] += 1
        if parent < 0:
            root_s += dur
        if not _inside_layer(spans, layer_of, parent, layer):
            busy_s[layer] += dur
        if sid == newton_site:
            solve_ms.append(dur * 1e3)

    def s(site):
        return site_s[index[site]]

    def calls(site):
        return site_calls[index[site]]

    solves = calls("solver._newton_core")
    solve_ms.sort()
    tail = tail_percentile(solve_ms)
    out = {
        "delaunay.busy_s": busy_s["delaunay"],
        "delaunay.verify_s": s("delaunay._verify_empty"),
        "delaunay.exact_calls": calls("delaunay.insphere_exact"),
        "delaunay.exact_s": s("delaunay.insphere_exact"),
        "delaunay.tets": counts["delaunay.tets"],
        "delaunay.exact_per_tet": (
            calls("delaunay.insphere_exact") / counts["delaunay.tets"]
            if counts["delaunay.tets"] else 0.0
        ),
        "filtration.calls": calls("filtration.build"),
        "filtration.self_s": self_s["filtration"],
        "filtration.simplices": counts["filtration.simplices"],
        "persistence.boundary_s": s("persistence.boundary_matrix"),
        "persistence.reduce_s": s("persistence.reduce_boundary"),
        "persistence.reduce_calls": calls("persistence.reduce_boundary"),
        "persistence.columns": counts["persistence.columns"],
        "persistence.extract_s": s("persistence.persistence_data"),
        "persistence.pairs": counts["persistence.pairs"],
        "geometry.busy_s": busy_s["geometry"],
        "geometry.gradient_calls": calls("geometry.circumradius_gradient"),
        "geometry.gradient_s": s("geometry.circumradius_gradient"),
        "diffmap.jacobian_calls": calls("diffmap.jacobian"),
        "diffmap.jacobian_self_s": self_s["diffmap"],
        "solver.newton_solves": solves,
        "solver.unconverged_solves": solves - counts["solver.converged_solves"],
        "solver.solve_success_ratio": (
            counts["solver.converged_solves"] / solves if solves else 1.0
        ),
        "solver.solve_ms.p50": _percentile(solve_ms, 50) if solve_ms else 0.0,
        "solver.solve_ms.tail": _percentile(solve_ms, tail) if tail is not None else 0.0,
        "solver.solve_ms.tail_percentile": f"p{tail:g}" if tail is not None else None,
        "solver.svd_calls": calls("solver.svd"),
        "solver.svd_s": s("solver.svd"),
        "solver.pinv_calls": calls("solver.pinv_apply"),
        "solver.pinv_lapack_calls": counts["solver.pinv_lapack_calls"],
        "solver.pinv_s": s("solver.pinv_apply"),
        "solver.tie_rows_s": s("solver._tie_rows"),
        "solver.tie_rows": counts["solver.tie_rows"],
        "solver.match_s": s("solver.match_to_layout"),
        "solver.assignment_fallbacks": calls("solver.linear_sum_assignment"),
        "metrics.bottleneck_s": s("metrics.bottleneck"),
        "metrics.bottleneck_calls": calls("metrics.bottleneck"),
        "metrics.hausdorff_s": s("metrics.hausdorff"),
        "traced_run_s": wall_s,
        "unattributed_s": wall_s - root_s,
        "spans": n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    # the identity the traced run must satisfy: self times + rest = wall time
    out["self_sum_error_s"] = sum(self_s.values()) + out["unattributed_s"] - wall_s
    return out
