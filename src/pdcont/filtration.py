"""Filtered complexes: Vietoris-Rips and 3D alpha, ordered for matrix reduction.

Every simplex carries its birth radius and the attaching simplex that realizes
it (the argmax edge for Rips, the smallest attaching coface for alpha). The
simplex order is (birth radius, dimension, vertex tuple), which makes every
prefix a subcomplex and is fully deterministic under ties. An alpha complex
keeps the circumspheres its build computed, so gradients read them instead
of solving them again, and its Delaunay complex, whose skeleton the build of a
nearby cloud can share.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
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
class Circumspheres:
    """The ``circumspheres`` output for one dimension's simplices, row by row."""

    keys: tuple
    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray        # barycentric weights of the centers
    degenerate: np.ndarray

    @cached_property
    def row_of(self) -> dict:
        return {key: i for i, key in enumerate(self.keys)}


@dataclass(frozen=True)
class FilteredComplex:
    kind: str                  # "rips" | "alpha"
    config: Configuration
    entries: tuple             # FiltEntry sorted by (radius, dim, key)
    saturation_radius: float
    spheres: dict = field(default_factory=dict)  # dim -> Circumspheres (alpha)
    delaunay: _delaunay.DelaunayComplex | None = field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.entries)

    @cached_property
    def keys(self) -> tuple:
        """The simplex keys in filtration order."""
        return tuple(e.key for e in self.entries)

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
    as the attaching simplex. Ties go to the simplex itself, then to
    tetrahedra before triangles, then to the smaller key. The circumspheres of
    every simplex of dimension 1 to 3 are kept on the complex.
    """
    pts = config.points
    skeleton = dc.skeleton
    spheres = {}
    # each simplex's radius as a birth candidate: inf where it is not attaching
    candidate = np.zeros(len(skeleton.keys))
    for dim in (1, 2, 3):
        verts = skeleton.vertices.get(dim)
        if verts is None:
            continue
        kept = spheres[dim] = Circumspheres(dc.by_dim[dim], *circumspheres(pts[verts]))
        flags = _delaunay.attaching_flags(dc, dim, kept.centers, kept.radii)
        at = skeleton.offsets[dim]
        candidate[at:at + len(verts)] = np.where(flags, kept.radii, np.inf)
    cofaces, faces, first = skeleton.faces
    radii = candidate[cofaces]
    # the earliest candidate at each simplex's smallest radius
    hits = np.flatnonzero(radii == np.minimum.reduceat(radii, first)[faces])
    best = hits[np.searchsorted(hits, first)]
    birth, realizer = radii[best], cofaces[best]
    order = np.argsort(birth, kind="stable")  # global index order is (dim, key) order
    keys, dims = skeleton.keys, skeleton.dims
    entries = tuple(
        FiltEntry(keys[i], dims[i], r, keys[a])
        for i, r, a in zip(order.tolist(), birth[order].tolist(), realizer[order].tolist())
    )
    return FilteredComplex("alpha", config, entries, entries[-1].radius, spheres, dc)


def build_alpha(config: Configuration, previous=None) -> FilteredComplex:
    """Alpha filtration of the cloud; see ``alpha_on``. ``previous`` is the
    Delaunay complex of a nearby cloud, whose skeleton is shared when the
    tetrahedra agree."""
    return alpha_on(config, _delaunay.delaunay3(config, previous))


def build(
    config: Configuration, kind: str, max_dim: int = 3, previous: FilteredComplex | None = None
) -> FilteredComplex:
    """Rips or alpha filtration; an alpha build shares the Delaunay skeleton
    of ``previous``, the filtration of a nearby cloud, when it still holds."""
    kind = kind.lower()
    if kind in ("rips", "vr"):
        return build_rips(config, max_dim=max_dim)
    if kind == "alpha":
        return build_alpha(config, previous.delaunay if previous is not None else None)
    raise ValueError(f"unknown filtration kind {kind!r}")
