"""Jacobian of the persistence map in gauge coordinates.

Each diagram coordinate is the birth radius of a generating simplex, realized
by an attaching simplex; its row is the circumradius gradient (alpha) or the
half-unit-vector edge gradient (Rips) of that attaching simplex, scattered
into the free gauge columns. Rows are therefore very sparse: at most 6
nonzeros for Rips, 12 for alpha.
"""

from __future__ import annotations

import bisect
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NearDegenerateJacobian
from .filtration import FilteredComplex
from .geometry import Configuration, circumradius_gradient
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


def _attaching_gradient(kind: str, attaching, config: Configuration):
    """Gradient of the coordinate's radius w.r.t. the attaching simplex vertices."""
    pts = config.points
    if len(attaching) == 1:
        return np.zeros((1, 3))  # vertices are born at radius zero
    if kind == "rips":
        i, j = attaching
        diff = pts[i] - pts[j]
        unit = diff / (2.0 * np.linalg.norm(diff))
        return np.stack([unit, -unit])
    return circumradius_gradient(pts[list(attaching)])


def _scatter(grad, attaching, col_index, n):
    row = np.zeros(n)
    for vtx, g in zip(attaching, grad):
        for axis in range(3):
            col = col_index.get((vtx, axis))
            if col is not None:
                row[col] = g[axis]
    return row


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
    col_index = {slot: c for c, slot in enumerate(config.free_slots())}
    n = len(col_index)
    rows = []
    data = []
    for idx, pair in enumerate(pd.finite):
        for coord, key, att, val in (
            ("birth", pair.birth_key, pair.birth_attaching, pair.birth),
            ("death", pair.death_key, pair.death_attaching, pair.death),
        ):
            grad = _attaching_gradient(kind, att, config)
            rows.append(JacobianRow(idx, coord, key, att, val))
            data.append(_scatter(grad, att, col_index, n))
    if include_essential:
        for idx, ess in enumerate(pd.essential):
            grad = _attaching_gradient(kind, ess.birth_attaching, config)
            rows.append(
                JacobianRow(idx, "essential", ess.birth_key, ess.birth_attaching, ess.birth)
            )
            data.append(_scatter(grad, ess.birth_attaching, col_index, n))
    matrix = np.array(data) if data else np.zeros((0, n))
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

