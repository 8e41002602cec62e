"""Filtered complexes: Vietoris-Rips and 3D alpha, ordered for matrix reduction.

Every simplex carries its birth radius and the attaching simplex that realizes
it (the argmax edge for Rips, the smallest attaching coface for alpha). The
simplex order is (birth radius, dimension, vertex tuple), which makes every
prefix a subcomplex and is fully deterministic under ties. Both kinds number
their simplices and facets in a ``delaunay.Skeleton`` (the Delaunay closure
for alpha, all subsets up to ``max_dim + 1`` points for Rips), which the
build of a nearby cloud can share, and a filtration is arrays over that
numbering: each simplex's birth and realizer by global index, and the
attaching radii sorted in one array. Each kind has one geometric pass over
its skeleton, in the cloud's frame, and ``geometry._unframe`` scales the
births back: ``rips_birth_radius`` gives the Rips births from the edge
lengths, ``circumradius`` the alpha circumspheres. An alpha complex keeps
those circumspheres, in the frame and by global index, so gradients read
them instead of solving them again; its degenerate mask is made only when
read. Only ``entries`` and, for reports and messages,
``Skeleton.vertex_tuples`` make vertex tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import delaunay as _delaunay
from .errors import PdcontError
from .geometry import Configuration, _circumspheres, _degenerate, _unframe

_OVERFLOW = "radii overflow: a radius of the cloud exceeds the float range"

# Rips complexes with more simplices are refused. On a 2-vCPU Xeon a 50-point
# Rips diagram in dimension 2 (251,175 simplices) takes 0.55 s and 170 MB peak
# RSS; with 70 points (974,120 simplices) the build takes 1.1 s and the diagram
# 1.7 s, 0.5 s of it in the reduction, and 394 MB (`pdcont diagram --no-gauge`).
# Memory, about 0.4 KB a simplex, is what bounds the size: this bound is about
# 400 MB.
RIPS_MAX_SIMPLICES = 1_000_000


class FiltEntry(NamedTuple):
    key: tuple
    dim: int
    radius: float
    attaching: tuple


class Circumspheres(NamedTuple):
    """The circumspheres of an alpha complex's simplices by global index, in
    the frame of its cloud (``Configuration.frame``); weights are zero on the
    pad slots of ``Skeleton.padded``, vertex rows zero."""

    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray        # barycentric weights of the centers


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """The filtration of ``skeleton`` by each simplex's ``birth`` radius,
    realized by the simplex ``realizer``, both by global index; the rest are
    views made on first use."""

    kind: str                  # "rips" | "alpha"
    config: Configuration
    skeleton: _delaunay.Skeleton = field(repr=False)
    birth: np.ndarray = field(repr=False)
    realizer: np.ndarray = field(repr=False)
    spheres: Circumspheres | None = field(default=None, repr=False)  # alpha only

    def __len__(self):
        return len(self.order)

    @cached_property
    def order(self) -> np.ndarray:
        """The global index of each simplex in filtration order; a stable sort
        keeps global index order, which is (dim, key) order, among equal radii."""
        return np.argsort(self.birth, kind="stable")

    @cached_property
    def degenerate(self) -> np.ndarray | None:
        """Whether each simplex of an alpha complex is degenerate
        (``geometry._degenerate``), by global index, made when first read:
        only radius gradients and the general-position report read it. None
        for Rips."""
        if self.spheres is None:
            return None
        skeleton, at = self.skeleton, self.skeleton.n_points
        out = np.zeros(len(skeleton), dtype=bool)
        out[at:] = _degenerate(self.config.frame[1], skeleton.padded[at:], skeleton.blocks,
                               skeleton.size_edges)
        return out

    @cached_property
    def entries(self) -> tuple:
        """FiltEntry per simplex, sorted by (radius, dim, vertex tuple)."""
        rows = map(self.skeleton.vertices.get, sorted(self.skeleton.vertices))
        keys = tuple(itertools.chain.from_iterable(map(tuple, v.tolist()) for v in rows))
        order = self.order
        birth, realizer = self.birth[order].tolist(), self.realizer[order].tolist()
        return tuple(
            FiltEntry(keys[i], len(keys[i]) - 1, r, keys[a])
            for i, r, a in zip(order.tolist(), birth, realizer)
        )

    @cached_property
    def attaching(self) -> tuple:
        """(radii, global indices) of every attaching simplex of dimension >= 1,
        by radius, then global index."""
        at = np.flatnonzero(self.realizer == np.arange(len(self.realizer)))
        at = at[at >= self.skeleton.n_points]  # vertices are the global indices 0...n-1
        at = at[np.argsort(self.birth[at], kind="stable")]
        return self.birth[at], at

    def attaching_within(self, radii, tol) -> tuple:
        """The windows (lo, hi) of ``attaching`` within ``tol`` of each of ``radii``."""
        attaching = self.attaching[0]
        return attaching.searchsorted(radii - tol), attaching.searchsorted(radii + tol, "right")


def build_rips(
    config: Configuration, max_dim: int = 3, previous: _delaunay.Skeleton | None = None
) -> FilteredComplex:
    """Rips filtration with all simplices up to dimension ``max_dim``; a simplex
    is born at half its first longest edge in ``combinations`` order, which
    realizes it. ``previous`` is the skeleton of a Rips complex, shared when
    it has as many points and dimensions. Raises PdcontError, before
    allocating anything, above ``RIPS_MAX_SIMPLICES`` simplices.
    """
    m = config.n_points
    k = min(max_dim + 1, m)
    size = sum(math.comb(m, j) for j in range(1, k + 1))
    if size > RIPS_MAX_SIMPLICES:
        raise PdcontError(
            f"a Rips complex of {m} points up to dimension {k - 1} has {size} simplices, "
            f"more than {RIPS_MAX_SIMPLICES}"
        )
    skeleton = previous
    if skeleton is None or skeleton.n_points != m or len(skeleton.vertices) != k:
        skeleton = _delaunay._skeleton(np.array(list(itertools.combinations(range(m), k))), m)
    return FilteredComplex("rips", config, skeleton, *rips_birth_radius(config, skeleton))


def rips_birth_radius(config: Configuration, skeleton: _delaunay.Skeleton) -> tuple:
    """(birth, realizer) by global index of the Rips complex of ``config`` on
    ``skeleton``: an edge is born at half its length and realizes itself, and
    a higher simplex is born at, and realized by, its first longest edge in
    ``combinations`` order. Lengths are found in the frame, one norm call per
    edge, which gives the bits of the scalar norm of each edge."""
    birth, realizer = np.zeros(len(skeleton)), np.arange(len(skeleton))
    if 1 not in skeleton.vertices:
        return birth, realizer
    (e, pts), at, edges = config.frame, skeleton.offsets[1], skeleton.vertices[1].tolist()
    length = np.array([np.linalg.norm(pts[i] - pts[j]) for i, j in edges])
    birth[at:at + len(length)] = _unframe(length, e - 1, _OVERFLOW)
    for dim in range(2, len(skeleton.vertices)):
        rows = skeleton.edge_rows(dim)
        longest = at + rows[np.arange(len(rows)), np.argmax(length[rows], axis=1)]
        first = skeleton.offsets[dim]
        birth[first:first + len(rows)] = birth[longest]
        realizer[first:first + len(rows)] = longest
    return birth, realizer


def build_alpha(config: Configuration, previous=None) -> FilteredComplex:
    """Alpha filtration on the Delaunay skeleton of the cloud; ``previous`` is
    the skeleton of a nearby cloud, shared when the tetrahedra agree.

    Birth radius of a simplex is the smallest circumradius among its attaching
    cofaces (itself included when attaching); the realizing coface is stored
    as the attaching simplex. Ties go to the simplex itself, then to
    tetrahedra before triangles, then to the smaller key. One kernel pass
    (``circumradius``) gives the circumspheres, kept on the complex by global
    index, and one pass of the attachment rule over every cofacet tests the
    candidates.
    """
    (e, pts), skeleton = config.frame, _delaunay.delaunay3(config, previous)
    spheres = circumradius(config, skeleton)
    # each simplex's radius as a birth candidate: inf where it is not attaching
    flags = _delaunay.attaching_flags(pts, skeleton, spheres.centers, spheres.radii)
    candidate = np.where(flags, spheres.radii, np.inf)
    cofaces, faces, first = skeleton.faces
    radii = candidate[cofaces]
    # the earliest candidate at each simplex's smallest radius
    hits = np.flatnonzero(radii == np.minimum.reduceat(radii, first)[faces])
    best = hits[np.searchsorted(hits, first)]
    birth = _unframe(radii[best], e, _OVERFLOW)
    return FilteredComplex("alpha", config, skeleton, birth, cofaces[best], spheres)


def circumradius(config: Configuration, skeleton: _delaunay.Skeleton) -> Circumspheres:
    """The circumspheres of every simplex of ``skeleton`` in the frame of
    ``config``, by global index, from one kernel pass: each simplex of
    dimension 1 to 3 by its padded vertex row, in one size block per
    dimension; the vertex rows stay zero."""
    pts, n, at = config.frame[1], len(skeleton), skeleton.n_points
    spheres = Circumspheres(np.zeros((n, 3)), np.zeros(n), np.zeros((n, len(skeleton.vertices))))
    kernel = _circumspheres(pts, skeleton.padded[at:], skeleton.blocks)
    for kept, out in zip(spheres, kernel):
        kept[at:] = out
    return spheres


def build(
    config: Configuration, kind: str, max_dim: int = 3, previous: FilteredComplex | None = None
) -> FilteredComplex:
    """Rips or alpha filtration; the build shares the skeleton of
    ``previous``, the filtration of a nearby cloud of the same kind, when it
    still holds."""
    skeleton = previous.skeleton if previous is not None and previous.kind == kind else None
    if kind == "rips":
        return build_rips(config, max_dim=max_dim, previous=skeleton)
    if kind == "alpha":
        return build_alpha(config, skeleton)
    raise ValueError(f"unknown filtration kind {kind!r}")
