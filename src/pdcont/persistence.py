"""Boundary matrices, column reduction over Z/2, and persistence diagrams.

A column under reduction is a Python ``int`` bitset over the simplices one
dimension down, so adding one column to another is a single XOR. The
reduction runs with clearing (Chen & Kerber, Persistent homology computation
with a twist, 2011; Bauer, Kerber & Reininghaus, Clear and compress, 2014):
dimensions are reduced from the top down, and a column whose index already is
a pivot row is a known cycle and is skipped. A dimension's bitsets are
dropped before the next dimension is reduced, so memory stays bounded by the
reduced columns of one dimension; bitsets of every column kept at once grow
with the product of two dimensions' simplex counts.

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
from dataclasses import dataclass

import numpy as np

from .filtration import FilteredComplex, build
from .geometry import Configuration


@dataclass(frozen=True)
class BoundaryMatrix:
    """Boundary of each simplex over Z/2, in filtration order.

    Rows are numbered within each dimension: ``columns[j]`` holds the ranks r
    of the facets of a d-simplex j, and ``rows[d - 1][r]`` is the index of
    that facet. The reduction turns a column into an ``int`` bitset over
    these ranks only when it reduces it.
    """

    size: int
    columns: tuple      # facet ranks per simplex, ascending
    rows: tuple         # rows[d]: indices of the d-simplices, ascending


def boundary_matrix(fc: FilteredComplex) -> BoundaryMatrix:
    """Matrix of the boundary map over Z/2, read off the facet rows of the
    complex's skeleton in its filtration order."""
    skeleton, position = fc.skeleton, np.argsort(fc.order)
    columns, rows = [()] * len(position), []
    for dim, simplices in sorted(skeleton.vertices.items()):
        pos = position[skeleton.offsets[dim]:][:len(simplices)]
        by_pos = np.argsort(pos)  # this dimension's rows in filtration order
        rows.append(tuple(pos[by_pos].tolist()))
        if dim:
            facet_ranks = np.sort(rank[skeleton.facets[dim][by_pos]], axis=1)
            # read through ``ints`` so that the columns share one int per rank
            for j, col in zip(rows[-1], ints[facet_ranks].tolist()):
                columns[j] = tuple(col)
        rank = np.argsort(by_pos)  # each row's rank among its dimension's
        ints = np.arange(len(rank), dtype=object)
    return BoundaryMatrix(len(position), tuple(columns), tuple(rows))


@dataclass(frozen=True)
class Reduction:
    pairs: tuple        # (i, j) pivot pairs, i < j, sorted by j
    essentials: tuple   # unpaired indices, ascending


def reduce_boundary(b: BoundaryMatrix) -> Reduction:
    """Column reduction with clearing; yields the standard reduction's pairs."""
    pairs = []
    cleared = set()
    for dim in range(len(b.rows) - 1, 0, -1):
        below = b.rows[dim - 1]
        owner_col = {}  # pivot rank -> reduced column that owns it
        for j in b.rows[dim]:
            if j in cleared:
                continue  # a pivot row is a known cycle
            col = sum(1 << r for r in b.columns[j])
            while col:
                piv = col.bit_length() - 1
                other = owner_col.get(piv)
                if other is None:
                    owner_col[piv] = col
                    pairs.append((below[piv], j))
                    cleared.add(below[piv])
                    break
                col ^= other
    pairs.sort(key=lambda ij: ij[1])
    used = set(i for p in pairs for i in p)
    essentials = tuple(i for i in range(b.size) if i not in used)
    return Reduction(tuple(pairs), essentials)


# --- diagram extraction ---------------------------------------------------------

@dataclass(frozen=True)
class FinitePair:
    birth: float
    death: float
    birth_index: int
    death_index: int
    birth_key: tuple
    death_key: tuple
    birth_attaching: tuple
    death_attaching: tuple

    @property
    def persistence(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class EssentialClass:
    birth: float
    birth_index: int
    birth_key: tuple
    birth_attaching: tuple


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
        v = []
        for p in self.finite:
            v.extend((p.birth, p.death))
        if include_essential:
            v.extend(e.birth for e in self.essential)
        return np.array(v)

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
    if dim < 0 or epsilon < 0:
        raise ValueError("dim and epsilon must be nonnegative")
    keys, offsets = fc.skeleton.keys, fc.skeleton.offsets
    birth, realizer, order = fc.birth.tolist(), fc.realizer.tolist(), fc.order.tolist()
    lo, hi = offsets.get(dim, len(keys)), offsets.get(dim + 1, len(keys))  # dim's global indices
    finite = []
    for i, j in reduction.pairs:
        s, t = order[i], order[j]
        if not lo <= s < hi:
            continue
        b, d = birth[s], birth[t]
        if b >= d:
            continue  # zero-length interval: trivial summand
        if (d - b) / 2.0 < epsilon:
            continue
        finite.append(
            FinitePair(b, d, i, j, keys[s], keys[t], keys[realizer[s]], keys[realizer[t]])
        )
    finite.sort(key=lambda p: (p.birth, p.death, p.birth_key))
    essential = [
        EssentialClass(birth[order[i]], i, keys[order[i]], keys[realizer[order[i]]])
        for i in reduction.essentials
        if lo <= order[i] < hi
    ]
    essential.sort(key=lambda e: (e.birth, e.birth_key))
    return PersistenceData(fc.kind, dim, epsilon, tuple(finite), tuple(essential))


def diagram(
    config: Configuration,
    kind: str,
    dim: int,
    epsilon: float = 0.0,
    max_dim: int | None = None,
) -> PersistenceData:
    """Build the filtration, reduce, and extract one diagram in one call."""
    if max_dim is None:
        max_dim = dim + 1
    fc = build(config, kind, max_dim=max_dim)
    red = reduce_boundary(boundary_matrix(fc))
    return persistence_data(red, fc, dim, epsilon)


def betti_numbers(config: Configuration, kind: str, up_to_dim: int = 2):
    """Betti numbers of the saturated complex (essential-class counts)."""
    fc = build(config, kind, max_dim=up_to_dim + 1)
    red = reduce_boundary(boundary_matrix(fc))
    out = []
    for dim in range(up_to_dim + 1):
        pd = persistence_data(red, fc, dim, 0.0)
        out.append(len(pd.essential))
    return tuple(out)
