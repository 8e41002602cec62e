"""Jacobian of the persistence map in gauge coordinates.

Each diagram coordinate is the birth radius of a generating simplex, realized
by an attaching simplex; its row is the circumradius gradient (alpha) or the
half-unit-vector edge gradient (Rips) of that attaching simplex, scattered
into the free gauge columns. Rows are therefore very sparse: at most 6
nonzeros for Rips, 12 for alpha.
"""

from __future__ import annotations

import bisect
import functools
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NearDegenerateJacobian
from .filtration import FilteredComplex
from .geometry import Configuration, _free_slots, circumradius_gradient
from .persistence import PersistenceData


@dataclass(frozen=True)
class JacobianRow:
    pair_index: int          # index into pd.finite (or pd.essential)
    coord: str               # "birth" | "death" | "essential"
    simplex_key: tuple       # generating simplex
    attaching_key: tuple     # simplex whose circumradius realizes the value
    value: float


@dataclass(frozen=True)
class PersistenceJacobian:
    matrix: np.ndarray       # (m, n) dense
    rows: tuple              # JacobianRow per matrix row
    columns: tuple           # (point, axis) per matrix column

    @property
    def shape(self):
        return self.matrix.shape

    def singular_values(self) -> np.ndarray:
        from .solver import svd  # local import; solver builds on this module

        _, s, _ = svd(self.matrix)
        return s

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


def singular_values(jac: PersistenceJacobian) -> np.ndarray:
    return jac.singular_values()


@functools.lru_cache
def _free_columns(n_points: int, gauge: bool) -> np.ndarray:
    """Column of each point coordinate among the free ones, -1 where pinned."""
    cols = np.full((n_points, 3), -1)
    for c, (i, axis) in enumerate(_free_slots(n_points, gauge)):
        cols[i, axis] = c
    cols.flags.writeable = False  # one array serves every caller
    return cols


def _attaching_gradients(kind: str, keys, config: Configuration):
    """Radius gradients of attaching simplices, as rows over the free columns.

    Returns the (len(keys), n) rows and the norm of each whole gradient,
    pinned coordinates included. Alpha gradients come from one kernel call
    per simplex size; vertices are born at radius zero.
    """
    pts = config.points
    cols = _free_columns(config.n_points, config.gauge)
    # pinned coordinates (column -1) land in a spare last column, cut off below
    rows, norms = np.zeros((len(keys), config.free_dim + 1)), np.zeros(len(keys))
    by_size = {}
    for r, key in enumerate(keys):
        by_size.setdefault(len(key), []).append(r)
    for size, idx in by_size.items():
        if size == 1:
            continue
        verts = np.array([keys[r] for r in idx])
        if kind == "rips":
            diff = pts[verts[:, 0]] - pts[verts[:, 1]]
            # a norm per edge rounds as the one-edge-at-a-time rows did
            unit = diff / (2.0 * np.array([np.linalg.norm(d) for d in diff]))[:, None]
            grads = np.stack([unit, -unit], axis=1)
        else:
            grads = circumradius_gradient(pts[verts])
        norms[idx] = np.sqrt(np.einsum("sij,sij->s", grads, grads))
        rows[np.array(idx)[:, None, None], cols[verts]] = grads
    return rows[:, :-1], norms


def _warn_near_ties(rows, fc: FilteredComplex, tol: float):
    attaching = fc.attaching_radii
    events = []
    for info in rows:
        if len(info.attaching_key) == 1:
            continue
        lo = bisect.bisect_left(attaching, (info.value - tol, ()))
        hi = bisect.bisect_right(attaching, (info.value + tol, (np.inf,)))
        for r, key in attaching[lo:hi]:
            if key != info.attaching_key:
                events.append((info.attaching_key, key, info.value, r))
    if events:
        warnings.warn(
            f"{len(events)} attaching radius tie(s) within {tol:g}; "
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
    tie_tol: float = 1e-9,
) -> PersistenceJacobian:
    """Derivative of the diagram coordinates w.r.t. the free gauge coordinates.

    Row order follows the coordinate layout (b1, d1, b2, d2, ..., essentials).
    Essential rows are included for dimension 0 by default. When the
    originating filtered complex is supplied, near-ties between attaching
    radii trigger a NearDegenerateJacobian warning.
    """
    kind = "rips" if kind.lower() in ("rips", "vr") else "alpha"
    if include_essential is None:
        include_essential = pd.dim == 0
    rows = []
    for idx, pair in enumerate(pd.finite):
        for coord, key, att, val in (
            ("birth", pair.birth_key, pair.birth_attaching, pair.birth),
            ("death", pair.death_key, pair.death_attaching, pair.death),
        ):
            rows.append(JacobianRow(idx, coord, key, att, val))
    if include_essential:
        for idx, ess in enumerate(pd.essential):
            rows.append(JacobianRow(idx, "essential", ess.birth_key, ess.birth_attaching, ess.birth))
    matrix, _ = _attaching_gradients(kind, [r.attaching_key for r in rows], config)
    jac = PersistenceJacobian(matrix, tuple(rows), tuple(config.free_slots()))
    if fc is not None:
        _warn_near_ties(jac.rows, fc, tie_tol)
    return jac


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

