"""Filtered complexes: Vietoris-Rips and 3D alpha, ordered for matrix reduction.

Every simplex carries its birth radius and the attaching simplex that realizes
it (the argmax edge for Rips, the smallest attaching coface for alpha). The
simplex order is (birth radius, dimension, vertex tuple), which makes every
prefix a subcomplex and is fully deterministic under ties.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import delaunay as _delaunay
from .geometry import Configuration, circumspheres, rips_birth_radius
from .geometry import circumradius  # unused here; perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class FiltEntry:
    key: tuple
    dim: int
    radius: float
    attaching: tuple


@dataclass(frozen=True)
class FilteredComplex:
    kind: str                  # "rips" | "alpha"
    config: Configuration
    entries: tuple             # FiltEntry sorted by (radius, dim, key)
    saturation_radius: float

    def __len__(self):
        return len(self.entries)

    @cached_property
    def attaching_radii(self) -> tuple:
        """(radius, key) of every attaching simplex of dimension >= 1, sorted."""
        return tuple(sorted(
            (e.radius, e.key) for e in self.entries if e.key == e.attaching and e.dim >= 1
        ))

    def index_of(self):
        return {e.key: i for i, e in enumerate(self.entries)}

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("dim,vertices,birth_radius,attaching_vertices\n")
        for e in self.entries:
            buf.write(
                f"{e.dim},{' '.join(map(str, e.key))},{e.radius:.9g},"
                f"{' '.join(map(str, e.attaching))}\n"
            )
        return buf.getvalue()


def _sorted_entries(entries):
    entries.sort(key=lambda e: (e.radius, e.dim, e.key))
    return tuple(entries)


def build_rips(config: Configuration, max_dim: int = 3) -> FilteredComplex:
    """Rips filtration with all simplices up to dimension ``max_dim``."""
    m = config.n_points
    entries = []
    for k in range(1, min(max_dim + 1, m) + 1):
        for key in itertools.combinations(range(m), k):
            birth = rips_birth_radius(key, config)
            attaching = birth.edge if len(key) > 1 else key
            entries.append(FiltEntry(key, k - 1, birth.radius, attaching))
    ordered = _sorted_entries(entries)
    return FilteredComplex("rips", config, ordered, ordered[-1].radius)


def alpha_on(config: Configuration, dc: _delaunay.DelaunayComplex) -> FilteredComplex:
    """Alpha filtration on the Delaunay complex ``dc`` of ``config``.

    Birth radius of a simplex is the smallest circumradius among its attaching
    cofaces (itself included when attaching); the realizing coface is stored
    as the attaching simplex.
    """
    pts = config.points
    birth = {key: 0.0 for key in dc.simplices(0)}
    realizer = {key: key for key in dc.simplices(0)}
    for dim in (1, 2, 3):
        keys = dc.simplices(dim)
        if not keys:
            continue
        centers, radii, _, _ = circumspheres(pts[np.array(keys)])
        flags = _delaunay.attaching_flags(dc, keys, centers, radii)
        for key, radius, flag in zip(keys, radii.tolist(), flags.tolist()):
            if flag:
                birth[key] = radius
                realizer[key] = key
    for key in sorted(birth, key=lambda k: -len(k)):
        r = birth[key]
        for dim in range(len(key) - 1):
            for face in itertools.combinations(key, dim + 1):
                if face not in birth or r < birth[face]:
                    birth[face] = r
                    realizer[face] = key

    entries = [
        FiltEntry(key, len(key) - 1, birth[key], realizer[key])
        for key in dc.all_simplices()
    ]
    ordered = _sorted_entries(entries)
    return FilteredComplex("alpha", config, ordered, ordered[-1].radius)


def build_alpha(config: Configuration) -> FilteredComplex:
    """Alpha filtration of the cloud; see ``alpha_on``."""
    return alpha_on(config, _delaunay.delaunay3(config))


def build(config: Configuration, kind: str, max_dim: int = 3) -> FilteredComplex:
    kind = kind.lower()
    if kind in ("rips", "vr"):
        return build_rips(config, max_dim=max_dim)
    if kind == "alpha":
        return build_alpha(config)
    raise ValueError(f"unknown filtration kind {kind!r}")
