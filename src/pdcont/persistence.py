"""Boundary matrices over Z/2, the persistence pairing, and persistence diagrams.

The pairing of a filtration is computed in three parts, each giving the pairs
the standard column reduction gives, since the pairing of a total order is
unique:

- H0, alpha and Rips: a union-find over the edges in filtration order. By the
  elder rule an edge that joins two components kills the younger one, whose
  oldest vertex comes later; an edge within one component is a cycle.
- H2 of an alpha complex: the complex is a subcomplex of a triangulation of
  the 3-sphere (its Delaunay triangulation closed by one outside node), so by
  Alexander duality its voids are the components of the complement taken in
  reverse order (Delfinado & Edelsbrunner, An incremental algorithm for Betti
  numbers of simplicial complexes on the 3-sphere, 1995; Edelsbrunner &
  Harer, Computational Topology, 2010). A union-find over the dual graph, the
  tetrahedra and the outside node joined across the triangles, takes the
  triangles from last to first; a triangle that joins two components is
  paired with the younger one's latest tetrahedron.
- The dimensions between, H1 of an alpha complex and every dimension above
  H0 of a Rips complex (which is not embedded): a sparse column reduction
  with clearing (Chen & Kerber, Persistent homology computation with a
  twist, 2011; Bauer, Kerber, Reininghaus & Wagner, Phat, 2017), in the
  direction whose clearing is at hand. Alpha H1 is reduced by homology: the
  columns are the triangles, less those the dual union-find pairs as void
  births. Where no dual union-find runs (Rips, or alpha without tetrahedra),
  dimension d = 1, 2, ... is reduced by cohomology (de Silva, Morozov &
  Vejdemo-Johansson, Dualities in persistent (co)homology, 2011; Bauer,
  Ripser, 2021): the columns are the d-simplices, youngest first, less those
  that killed a (d-1)-class; the rows are their cofaces, and the pivot is
  the oldest. One reducer serves both, fed the coboundary anti-transposed.
  A column whose pivot is free is kept as its number, and its rows are read
  again only if another column reaches that pivot; a reduced column is the
  tuple of its rows; only the column under reduction is a working set.

The coefficient field is Z/2. Alpha complexes are subcomplexes of a
triangulation of R^3, whose homology is torsion-free, so their pairing is the
same over Z/2 and over Q. Rips flag complexes can carry torsion; their
diagrams are the Z/2 diagrams, as in standard persistence software.

Zero-length pairs (equal birth and death radius) correspond to trivial
summands of the structure decomposition and are never reported as diagram
points.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .filtration import FilteredComplex, build
from .geometry import Configuration


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """The boundary map over Z/2 of a filtration, as arrays per dimension.

    ``positions[d]`` holds the filtration positions of the d-simplices,
    ascending; a d-simplex's rank is its place in that array. ``facets[d]``
    holds, row by rank, the ranks of each d-simplex's facets, ascending.
    ``cofaces`` holds, row by rank, the ranks of the two tetrahedra on either
    side of each triangle of an alpha complex, where ``len(positions[3])``
    is the outside; it is None for a Rips complex, which is not embedded, and
    for a complex without tetrahedra.
    """

    size: int
    positions: tuple
    facets: tuple
    cofaces: np.ndarray | None


def boundary_matrix(fc: FilteredComplex) -> BoundaryMatrix:
    """Matrix of the boundary map over Z/2, read off the facet and coface rows
    of the complex's skeleton in its filtration order."""
    skeleton, order, n = fc.skeleton, fc.order, len(fc.order)
    starts, dims = [*skeleton.offsets.values(), n], skeleton.dim[:-1]
    # positions, grouped by dimension: a radix sort of the labels as uint8
    grouped = dims[order].astype(np.uint8).argsort(kind="stable")
    simplex = order[grouped]
    # grouping keeps each dimension where the global numbering has it
    first = np.array(starts)[dims]
    row = simplex - first  # the skeleton row of each simplex, grouped
    # each simplex's rank among its dimension's, by global index; the extra
    # last entry is the outside of a triangulation
    rank = np.empty(n + 1, dtype=np.intp)
    rank[simplex] = np.arange(n) - first
    rank[n] = n - starts[-2]
    positions, facets = [grouped[:starts[1]]], [np.zeros((starts[1], 0), dtype=np.intp)]
    for dim in range(1, len(starts) - 1):
        below, lo, hi = starts[dim - 1:dim + 2]
        positions.append(grouped[lo:hi])
        ranks = rank[below:lo][skeleton.facets[dim][row[lo:hi]]]
        ranks.sort(axis=1)
        facets.append(ranks)
    cofaces = None
    if fc.kind == "alpha" and len(facets) == 4:
        lo, tet = starts[2:4]
        cofaces = rank[tet:][skeleton.cofaces[row[lo:tet]]]
    return BoundaryMatrix(n, tuple(positions), tuple(facets), cofaces)


@dataclass(frozen=True, eq=False)
class Reduction:
    """The persistence pairing, by rank among each dimension's simplices as in
    the boundary matrix: for each dimension d below the top, the ``born[d]``
    d-simplices are paired, in order, with the ``killer[d]`` (d+1)-simplices.
    """

    positions: tuple    # the boundary matrix's
    born: tuple         # arrays of ranks, per dimension
    killer: tuple
    _dimensions: dict = field(default_factory=dict, init=False, repr=False)

    def dimension(self, dim: int) -> tuple:
        """(positions, P): the positions of the births of the P pairs of
        dimension ``dim``, then of their deaths, then of the ``dim``-simplices
        in no pair."""
        if dim not in self._dimensions:
            pos, none = self.positions, np.zeros(0, dtype=np.intp)
            own = pos[dim] if dim < len(pos) else none
            born = self.born[dim] if dim < len(self.born) else none
            deaths = pos[dim + 1][self.killer[dim]] if len(born) else none
            killed = self.killer[dim - 1] if 0 < dim <= len(self.killer) else none
            live = np.ones(len(own), dtype=bool)
            live[born] = live[killed] = False
            self._dimensions[dim] = np.concatenate([own[born], deaths, own[live]]), len(born)
        return self._dimensions[dim]

    @cached_property
    def pairs(self) -> tuple:
        """Every pair ``(i, j)`` of positions, sorted by j."""
        pairs = []
        for dim in range(len(self.born)):
            at, n = self.dimension(dim)
            pairs.extend(zip(at[:n].tolist(), at[n:2 * n].tolist()))
        return tuple(sorted(pairs, key=lambda ij: ij[1]))

    @cached_property
    def essentials(self) -> tuple:
        """The positions in no pair, ascending."""
        unpaired = (at[2 * n:].tolist() for at, n in map(self.dimension, range(len(self.positions))))
        return tuple(sorted(i for part in unpaired for i in part))


def _merges(ends, n_nodes):
    """Union-find over the graph on ``n_nodes`` nodes whose edges, the rows of
    ``ends``, arrive in row order: the nodes that die and the rows that kill
    them. A component is named by its least node, and when two components
    merge the one with the greater name dies (the elder rule)."""
    root = list(range(n_nodes))
    dead, killer = [], []
    for e, (u, v) in enumerate(ends.tolist()):
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            if u < v:
                u, v = v, u
            root[u] = v
            dead.append(u)
            killer.append(e)
    return np.array(dead, dtype=np.intp), np.array(killer, dtype=np.intp)


def _reduce(column, pivots, names):
    """Column reduction over Z/2: the pivot row and the name of each pair's
    column. Column c, named ``names[c]``, holds the rows ``column(c)``,
    ascending, at least one, and ``pivots[c]`` is its pivot, its largest
    row. A column is kept by its number, and its rows are read again only
    when another column reaches its pivot; a reduced column keeps the tuple
    of its rows; only the column under reduction is a working set."""
    owner, reduced = {}, {}  # pivot row -> column number; column number -> reduced rows
    for c, piv in enumerate(pivots):
        other = owner.get(piv)
        if other is None:
            owner[piv] = c
            continue
        col = set(column(c))
        while other is not None:
            col.symmetric_difference_update(reduced.get(other) or column(other))
            piv = max(col, default=None)
            other = owner.get(piv)
        if piv is not None:
            owner[piv] = c
            reduced[c] = tuple(col)
    # a pivot is owned once, so the dict's order is the order of the pairs
    at = np.fromiter(owner.values(), dtype=np.intp, count=len(owner))
    return np.fromiter(owner, dtype=np.intp, count=len(owner)), names.take(at)


def _live(n, cleared):
    """The ranks below ``n`` that are not ``cleared``, ascending."""
    live = np.ones(n, dtype=bool)
    live[cleared] = False
    return live.nonzero()[0]


def _cohomology(cofacets, n, cleared):
    """Reduce the coboundary of the ``n`` simplices of one dimension whose
    cofaces have the facet rows ``cofacets``, youngest first, skipping the
    ranks ``cleared``: the (born, killer) ranks of each pair.

    The coboundary is anti-transposed, so that the youngest simplex is column
    0 and the oldest coface, the pivot, is the largest row."""
    m, width = cofacets.shape
    column = (n - 1 - cofacets[::-1]).ravel()  # entry k lies in row k // width
    bounds = np.append(0, np.bincount(column, minlength=n).cumsum())
    rows = column.argsort(kind="stable")
    del column  # as large as the coboundary, and not needed from here on
    rows //= width  # grouped by column, ascending within each
    live = _live(n, n - 1 - cleared)
    live = live[bounds[live + 1] > bounds[live]]  # an empty column pairs with nothing
    starts, ends = bounds[live], bounds[live + 1]
    last = rows[ends - 1].tolist()
    starts, ends = starts.tolist(), ends.tolist()
    pivots, owners = _reduce(lambda c: rows[starts[c]:ends[c]].tolist(), last, live)
    return n - 1 - owners, m - 1 - pivots


def reduce_boundary(b: BoundaryMatrix) -> Reduction:
    """The pairing of the filtration: H0 and an alpha complex's H2 by
    union-find, the dimensions between by a sparse column reduction with
    clearing, of the boundary for an alpha H1 and of the coboundary
    otherwise."""
    top = len(b.positions) - 1
    born, killer = [None] * top, [None] * top
    if top:
        born[0], killer[0] = _merges(b.facets[1], len(b.positions[0]))
    if b.cofaces is not None:
        # the dual graph, with the outside as node 0 and the triangles from
        # last to first, so that a lesser node is older
        n_tet, n_tri = len(b.positions[3]), len(b.positions[2])
        tet, tri = _merges((n_tet - b.cofaces)[::-1], n_tet + 1)
        born[2], killer[2] = n_tri - 1 - tri, n_tet - tet
        live = _live(n_tri, born[2])  # the triangles that are no void's birth
        first, second, pivot = b.facets[2][live].T.tolist()
        born[1], killer[1] = _reduce(lambda c: (first[c], second[c], pivot[c]), pivot, live)
    else:
        for dim in range(1, top):
            born[dim], killer[dim] = _cohomology(b.facets[dim + 1], len(b.positions[dim]), killer[dim - 1])
    return Reduction(b.positions, tuple(born), tuple(killer))


# --- diagram extraction ---------------------------------------------------------

@dataclass(frozen=True)
class FinitePair:
    birth: float
    death: float
    birth_key: int           # simplices by ``Skeleton.names``, the same in every cloud
    death_key: int
    birth_attaching: int
    death_attaching: int

    @property
    def persistence(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class EssentialClass:
    birth: float
    birth_key: int
    birth_attaching: int


def _values(finite, essential=()):
    """The diagram coordinates (b1, d1, b2, d2, ..., then the essential
    births) of the ``FinitePair``s ``finite`` and ``EssentialClass``es ``essential``."""
    return np.array([x for p in finite for x in (p.birth, p.death)] + [e.birth for e in essential])


@dataclass(frozen=True)
class PersistenceData:
    """Diagram of one homology dimension, truncated at distance eps from the diagonal."""

    kind: str
    dim: int
    epsilon: float
    finite: tuple        # FinitePair, sorted by (birth, death) on construction
    essential: tuple     # EssentialClass

    @property
    def m(self) -> int:
        return 2 * len(self.finite) + len(self.essential)

    def vector(self, include_essential: bool = True) -> np.ndarray:
        return _values(self.finite, self.essential if include_essential else ())

    def pairs(self):
        return [(p.birth, p.death) for p in self.finite]

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "epsilon": float(f"{self.epsilon:.9g}"),
                "pairs": [
                    [float(f"{p.birth:.9g}"), float(f"{p.death:.9g}")]
                    for p in self.finite
                ],
                "essential": [float(f"{e.birth:.9g}") for e in self.essential],
            }
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("birth,death\n")
        for p in self.finite:
            buf.write(f"{p.birth:.9g},{p.death:.9g}\n")
        for e in self.essential:
            buf.write(f"{e.birth:.9g},inf\n")
        return buf.getvalue()


def persistence_data(
    reduction: Reduction, fc: FilteredComplex, dim: int, epsilon: float = 0.0
) -> PersistenceData:
    """Select the dimension-``dim`` pairs, dropping those within eps of the diagonal."""
    if dim < 0 or not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"need dim >= 0 and a finite epsilon >= 0, got {dim}, {epsilon!r}")
    at, n = reduction.dimension(dim)
    simplex = fc.order[at]
    radius, attaching = fc.birth[simplex], fc.realizer[simplex]
    b, d = radius[:n], radius[n:2 * n]
    # zero-length intervals are trivial summands; a gap of at least
    # epsilon > 0 drops them too
    kept = ((d - b) / 2.0 >= epsilon if epsilon else b < d).tolist()
    simplex, attaching = fc.skeleton.names.take([simplex, attaching]).tolist()  # by name
    radius = radius.tolist()
    # a pair's birth and death lie n apart; compress stops after the pairs
    rows = compress(zip(radius, radius[n:], simplex, simplex[n:], attaching, attaching[n:]), kept)
    finite = [FinitePair(*row) for row in rows]
    finite.sort(key=lambda p: (p.birth, p.death, p.birth_key))
    rows = zip(radius[2 * n:], simplex[2 * n:], attaching[2 * n:])
    essential = [EssentialClass(*row) for row in rows]
    essential.sort(key=lambda e: (e.birth, e.birth_key))
    return PersistenceData(fc.kind, dim, epsilon, tuple(finite), tuple(essential))


def diagram(config: Configuration, kind: str, dim: int, epsilon: float = 0.0) -> PersistenceData:
    """Build the filtration up to dimension ``dim + 1``, reduce, and extract
    the dimension-``dim`` diagram in one call."""
    fc = build(config, kind, max_dim=dim + 1)
    red = reduce_boundary(boundary_matrix(fc))
    return persistence_data(red, fc, dim, epsilon)

