"""Jacobian of the persistence map in gauge coordinates.

Each diagram coordinate is the birth radius of a generating simplex, realized
by an attaching simplex; its row is the circumradius gradient (alpha) or the
half-unit-vector edge gradient (Rips) of that attaching simplex, scattered
into the free gauge columns. Rows are therefore very sparse: at most 6
nonzeros for Rips, 12 for alpha. Alpha gradients are read from the
circumspheres the filtration build kept, so no circumsphere is solved twice.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NearDegenerateJacobian
from .filtration import FilteredComplex, build
from .geometry import Configuration, _free_columns, radius_gradients
from .geometry import circumradius_gradient  # unused here; perfbench/tracing.py wraps this name
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
    pinned coordinates included. Alpha gradients are λᵢ(pᵢ − c)/R from the
    circumspheres that ``fc`` kept, gathered for every dimension at once
    through the skeleton's padded vertex rows: a pad slot has weight zero
    and lands in the spare column. A Rips edge's are ±(pᵢ − pⱼ)/(4 birth),
    and 4 birth is twice its length, bit for bit.
    """
    config, skeleton, pts = fc.config, fc.skeleton, fc.config.points
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
        unit = (ends[:, 0] - ends[:, 1]) / (4.0 * fc.birth.take(g))[:, None]
        grads = np.stack([unit, -unit], axis=1)
    else:
        verts = skeleton.padded.take(g, axis=0)
        kept = (x.take(g, axis=0) for x in fc.spheres)
        grads = radius_gradients(pts.take(verts, axis=0), *kept)
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
    lo, hi = fc.attaching_within(values, _TIE_TOL)
    events = int((hi - lo - 1)[names >= fc.config.n_points].sum())
    if events:
        warnings.warn(
            f"{events} attaching radius tie(s) within {_TIE_TOL:g}; "
            "derivative selection is order-dependent there",
            NearDegenerateJacobian,
            stacklevel=3,
        )


def jacobian(
    config: Configuration,
    kind: str,
    pd: PersistenceData,
    include_essential: bool | None = None,
    fc: FilteredComplex | None = None,
) -> PersistenceJacobian:
    """Derivative of the diagram coordinates w.r.t. the free gauge coordinates.

    Row order follows the coordinate layout (b1, d1, b2, d2, ..., essentials).
    Essential rows are included for dimension 0 by default. ``fc`` is the
    filtered complex ``pd`` came from; without it the complex is built again.
    When it is supplied, attaching radii within ``_TIE_TOL`` of each other
    trigger a NearDegenerateJacobian warning.
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
    if fc is None:
        fc = build(config, kind, max_dim=pd.dim + 1)
    else:
        _warn_near_ties(names, np.array([r.value for r in rows]), fc)
    matrix, _ = _attaching_gradients(fc, fc.skeleton.names.searchsorted(names))
    return PersistenceJacobian(matrix, tuple(rows), tuple(config.free_slots()))


# --- constrained extension ----------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """Scalar constraint g(u) = 0 with an analytic gradient of shape (M, 3)."""

    value: callable
    gradient: callable
    label: str = ""


def centroid_constraints(target) -> list:
    """Three constraints pinning the cloud centroid to ``target``."""
    target = np.asarray(target, dtype=float)

    def make(axis):
        def value(config):
            return float(config.points[:, axis].mean() - target[axis])

        def grad(config):
            g = np.zeros_like(config.points)
            g[:, axis] = 1.0 / config.n_points
            return g

        return Constraint(value, grad, f"centroid_{'xyz'[axis]}")

    return [make(a) for a in range(3)]


def distance_constraint(i: int, j: int, target: float) -> Constraint:
    """Constraint |u_i - u_j| - target = 0."""

    def value(config):
        return float(np.linalg.norm(config.points[i] - config.points[j]) - target)

    def grad(config):
        g = np.zeros_like(config.points)
        diff = config.points[i] - config.points[j]
        unit = diff / np.linalg.norm(diff)
        g[i] = unit
        g[j] = -unit
        return g

    return Constraint(value, grad, f"dist_{i}_{j}")

