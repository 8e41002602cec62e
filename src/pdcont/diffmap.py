"""Jacobian of the persistence map in gauge coordinates.

Each diagram coordinate is the birth radius of a generating simplex, realized
by an attaching simplex; its row is the circumradius gradient (alpha) or the
half-unit-vector edge gradient (Rips) of that attaching simplex, scattered
into the free gauge columns. Rows are therefore very sparse: at most 6
nonzeros for Rips, 12 for alpha. Alpha gradients come from one
``circumradius_gradient`` pass over the circumspheres the filtration build
kept, so no circumsphere is solved twice.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NearDegenerateJacobian
from .filtration import FilteredComplex
from .geometry import _free_columns, _free_slots, circumradius_gradient
from .persistence import PersistenceData


@dataclass(frozen=True)
class JacobianRow:
    pair_index: int          # index into pd.finite (or pd.essential)
    coord: str               # "birth" | "death" | "essential"
    attaching_key: int       # name of the simplex whose circumradius realizes the value
    value: float


@dataclass(frozen=True)
class PersistenceJacobian:
    matrix: np.ndarray       # (m, n) dense
    rows: tuple              # JacobianRow per matrix row
    columns: tuple           # (point, axis) per matrix column

    @property
    def shape(self):
        return self.matrix.shape

    def to_csv(self) -> str:
        buf = io.StringIO()
        header = ",".join(f"p{i}{'xyz'[a]}" for i, a in self.columns)
        buf.write("coord," + header + "\n")
        for info, row in zip(self.rows, self.matrix):
            buf.write(
                f"{info.coord}[{info.pair_index}],"
                + ",".join(f"{x:.9g}" for x in row)
                + "\n"
            )
        return buf.getvalue()


def _attaching_gradients(fc: FilteredComplex, simplices):
    """Radius gradients of the attaching simplices of ``fc`` with the global
    indices ``simplices``, as rows over the free columns.

    Returns the (len(simplices), n) rows and the norm of each whole gradient,
    pinned coordinates included, all in the cloud's frame. Alpha gradients are
    λᵢ(pᵢ − c)/R from the circumspheres that ``fc`` kept, gathered for every
    dimension at once through the skeleton's padded vertex rows: a pad slot
    has weight zero and lands in the spare column. A Rips edge's are
    ±(pᵢ − pⱼ)/(4 birth), and 4 birth is twice its length, bit for bit.
    """
    config, skeleton, (e, pts) = fc.config, fc.skeleton, fc.config.frame
    cols = _free_columns(config.n_points, config.gauge)
    # pinned coordinates (column -1) land in a spare last column, cut off below
    rows, norms = np.zeros((len(simplices), config.free_dim + 1)), np.zeros(len(simplices))
    simplices = np.asarray(simplices, dtype=int)
    # vertices, the global indices below n_points, are born at radius zero
    at = (simplices >= config.n_points).nonzero()[0]
    g = simplices.take(at)
    if not g.size:
        return rows[:, :-1], norms
    if fc.kind == "rips":
        verts = skeleton.vertices[1].take(g - skeleton.offsets[1], axis=0)
        ends = pts.take(verts, axis=0)
        unit = (ends[:, 0] - ends[:, 1]) / np.ldexp(fc.birth.take(g), 2 - e)[:, None]
        grads = np.stack([unit, -unit], axis=1)
    else:
        verts = skeleton.padded.take(g, axis=0)
        kept = (x.take(g, axis=0) for x in (*fc.spheres, fc.degenerate))
        grads = circumradius_gradient(pts.take(verts, axis=0), *kept)
        # pad slots, which repeat vertex 0 of a sorted row, go to the spare row
        verts[:, 1:][verts[:, 1:] == verts[:, :1]] = config.n_points
    norms[at] = np.sqrt(np.einsum("sij,sij->s", grads, grads))
    rows[at[:, None, None], cols.take(verts, axis=0)] = grads
    return rows[:, :-1], norms


_TIE_TOL = 1e-9  # attaching radii this close are a near tie


def _warn_near_ties(names, values, fc: FilteredComplex):
    """Warn once if another attaching radius lies within ``_TIE_TOL`` of a
    row's value, unless the row's attaching simplex is a vertex (a name
    below ``n_points``); the row's own radius is in its window."""
    lo, hi, n = *fc.attaching_within(values, _TIE_TOL), fc.config.n_points
    events = sum(h - l - 1 for l, h, name in zip(lo.tolist(), hi.tolist(), names.tolist()) if name >= n)
    if events:
        warnings.warn(
            f"{events} attaching radius tie(s) within {_TIE_TOL:g}; "
            "derivative selection is order-dependent there",
            NearDegenerateJacobian,
            stacklevel=3,  # the line that asked _jacobian_matrix for the matrix
        )


def jacobian(
    fc: FilteredComplex, pd: PersistenceData, include_essential: bool | None = None
) -> PersistenceJacobian:
    """Derivative of the diagram coordinates w.r.t. the free gauge coordinates
    of the cloud of ``fc``, the filtered complex ``pd`` came from.

    Row order follows the coordinate layout (b1, d1, b2, d2, ..., essentials).
    Essential rows are included for dimension 0 by default. Attaching radii
    within ``_TIE_TOL`` of each other trigger a NearDegenerateJacobian warning.
    """
    if include_essential is None:
        include_essential = pd.dim == 0
    rows = []
    for idx, pair in enumerate(pd.finite):
        rows.append(JacobianRow(idx, "birth", pair.birth_attaching, pair.birth))
        rows.append(JacobianRow(idx, "death", pair.death_attaching, pair.death))
    if include_essential:
        for idx, ess in enumerate(pd.essential):
            rows.append(JacobianRow(idx, "essential", ess.birth_attaching, ess.birth))
    names = np.array([r.attaching_key for r in rows])
    matrix = _jacobian_matrix(fc, names, np.array([r.value for r in rows]))
    slots = _free_slots(fc.config.n_points, fc.config.gauge)
    return PersistenceJacobian(matrix, tuple(rows), slots)


def _jacobian_matrix(fc: FilteredComplex, names, values) -> np.ndarray:
    """The matrix of ``jacobian``: a row per coordinate ``values``, realized
    by the attaching simplex of that name in ``names``, over the free columns.
    Warns as ``jacobian`` does on near ties."""
    _warn_near_ties(names, values, fc)
    return _attaching_gradients(fc, fc.skeleton.names.searchsorted(names))[0]

