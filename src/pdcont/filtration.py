"""Filtered complexes: Vietoris-Rips and 3D alpha, ordered for matrix reduction.

Every simplex carries its birth radius and the attaching simplex that realizes
it (the argmax edge for Rips, the smallest attaching coface for alpha). The
simplex order is (birth radius, dimension, vertex tuple), which makes every
prefix a subcomplex and is fully deterministic under ties. Both kinds number
their simplices and facets in a ``delaunay.Skeleton`` (the Delaunay closure
for alpha, all subsets up to ``max_dim + 1`` points for Rips) and keep it with
the filtration order, from which the boundary matrix is read. An alpha complex
keeps the circumspheres its build computed, so gradients read them instead
of solving them again, and its Delaunay complex, whose skeleton the build of a
nearby cloud can share.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import delaunay as _delaunay
from .errors import PdcontError
from .geometry import Configuration, circumspheres, rips_birth_radius
from .geometry import circumradius  # unused here; perfbench/tracing.py wraps this name

# Rips complexes with more simplices are refused: a 50-point Rips diagram in
# dimension 2 (251,175 simplices) takes 10 s and 231 MB peak RSS on a 2-vCPU
# Xeon, about 40 us and 0.6 KB a simplex, so this bound is about 40 s, 700 MB.
RIPS_MAX_SIMPLICES = 1_000_000


class FiltEntry(NamedTuple):
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
    skeleton: _delaunay.Skeleton = field(compare=False, repr=False)
    order: np.ndarray = field(compare=False, repr=False)  # global index of each entry
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("dim,vertices,birth_radius,attaching_vertices\n")
        for e in self.entries:
            buf.write(
                f"{e.dim},{' '.join(map(str, e.key))},{e.radius:.9g},"
                f"{' '.join(map(str, e.attaching))}\n"
            )
        return buf.getvalue()


def _filtered(kind, config, skeleton, birth, realizer, **alpha) -> FilteredComplex:
    """The filtration of ``skeleton`` by each simplex's ``birth`` radius,
    realized by the simplex ``realizer``, both in global index order; a stable
    sort keeps that order, which is (dim, key) order, among equal radii."""
    order = np.argsort(birth, kind="stable")
    keys = skeleton.keys
    entries = tuple(
        FiltEntry(keys[i], len(keys[i]) - 1, r, keys[a])
        for i, r, a in zip(order.tolist(), birth[order].tolist(), realizer[order].tolist())
    )
    return FilteredComplex(kind, config, entries, skeleton, order, **alpha)


def build_rips(config: Configuration, max_dim: int = 3) -> FilteredComplex:
    """Rips filtration with all simplices up to dimension ``max_dim``.

    Raises PdcontError, before allocating anything, when the complex would
    have more than ``RIPS_MAX_SIMPLICES`` simplices.
    """
    m = config.n_points
    k = min(max_dim + 1, m)
    size = sum(math.comb(m, j) for j in range(1, k + 1))
    if size > RIPS_MAX_SIMPLICES:
        raise PdcontError(
            f"a Rips complex of {m} points up to dimension {k - 1} has {size} simplices, "
            f"more than {RIPS_MAX_SIMPLICES}"
        )
    skeleton = _delaunay._skeleton(np.array(list(itertools.combinations(range(m), k))), m)
    # a birth is realized by its longest edge, a vertex's by the vertex itself
    index = {key: i for i, key in enumerate(skeleton.keys[:skeleton.offsets.get(2)])}
    birth, realizer = np.empty(len(skeleton.keys)), np.empty(len(skeleton.keys), dtype=int)
    for i, key in enumerate(skeleton.keys):
        b = rips_birth_radius(key, config)
        birth[i], realizer[i] = b.radius, index[b.edge]
    return _filtered("rips", config, skeleton, birth, realizer)


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
    return _filtered(
        "alpha", config, skeleton, radii[best], cofaces[best], spheres=spheres, delaunay=dc
    )


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
