"""Point clouds in R^3, rigid-motion gauge coordinates, and circumspheres.

Every circumradius in the package, and its gradient, comes from one batched
kernel: the smallest sphere through the vertices of a simplex is solved from
its Gram system, whose solution also gives the barycentric weights of the
center, and those weights give the gradient in closed form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateSimplex, GaugeViolation

SimplexKey = tuple  # sorted tuple of 0-based vertex indices, length 1..4


def simplex_key(vertices) -> SimplexKey:
    """Normalize an iterable of vertex indices into a sorted tuple key."""
    key = tuple(sorted(int(v) for v in vertices))
    if len(set(key)) != len(key):
        raise ValueError(f"repeated vertex in simplex {key}")
    return key


def _free_slots(n_points: int, gauge: bool):
    """(point, axis) pairs of the free coordinates, in packing order."""
    if not gauge:
        return [(i, a) for i in range(n_points) for a in range(3)]
    slots = [(1, 0), (2, 0), (2, 1)]
    slots += [(i, a) for i in range(3, n_points) for a in range(3)]
    return slots


@functools.lru_cache
def _free_columns(n_points: int, gauge: bool) -> np.ndarray:
    """Free column of each point coordinate, -1 where pinned and in a spare last row."""
    cols = np.full((n_points + 1, 3), -1)
    for c, (i, axis) in enumerate(_free_slots(n_points, gauge)):
        cols[i, axis] = c
    cols.flags.writeable = False  # one array serves every caller
    return cols


@dataclass(frozen=True)
class Configuration:
    """An ordered point cloud in R^3 with an optional rigid-motion gauge.

    With the gauge active, point 0 is pinned at the origin, point 1 moves only
    along the x-axis and point 2 only in the xy-plane, leaving 3M-6 free
    coordinates. Without it all 3M coordinates are free.
    """

    points: np.ndarray
    gauge: bool = True

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")  # a copy, not the caller's array
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be an (M, 3) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if pts.shape[0] < 1:
            raise ValueError("need at least one point")
        if self.gauge and pts.shape[0] < 3:
            raise ValueError("gauge requires M >= 3")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def free_dim(self) -> int:
        return 3 * self.n_points - 6 if self.gauge else 3 * self.n_points

    def free_slots(self):
        return _free_slots(self.n_points, self.gauge)

    def pack(self) -> np.ndarray:
        """Free coordinates as a vector, in point order (x1, x2, y2, x3, ...)."""
        cols = _free_columns(self.n_points, self.gauge)[:-1]
        if self.gauge and self.points[cols < 0].any():
            i, a = np.argwhere((cols < 0) & (self.points != 0.0))[0]
            raise GaugeViolation(
                f"point {i} coordinate {'xyz'[a]} = {self.points[i, a]!r} "
                "is pinned by the gauge and must be zero"
            )
        return self.points[cols >= 0]  # in C order, which is the packing order

    def with_vector(self, vec) -> "Configuration":
        """New configuration with the free coordinates replaced by ``vec``."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.free_dim,):
            raise ValueError(f"expected vector of length {self.free_dim}, got {vec.shape}")
        cols = _free_columns(self.n_points, self.gauge)[:-1]
        return Configuration(np.append(vec, 0.0)[cols], self.gauge)  # pinned: the zero appended


def to_gauge_frame(points) -> Configuration:
    """Rigid motion bringing a cloud into the gauge frame.

    Point 0 goes to the origin, point 1 onto the positive x-axis, point 2 into
    the upper xy-half-plane; the frame is right-handed. Clouds already in the
    frame are reproduced exactly.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValueError("gauge frame needs at least three points")
    rel = pts - pts[0]
    e1 = rel[1]
    n1 = np.linalg.norm(e1)
    if n1 == 0.0:
        raise GaugeViolation("points 0 and 1 coincide; cannot orient the x-axis")
    e1 = e1 / n1
    e2 = rel[2] - (rel[2] @ e1) * e1
    n2 = np.linalg.norm(e2)
    if n2 == 0.0:
        raise GaugeViolation("points 0, 1, 2 are collinear; cannot orient the xy-plane")
    e2 = e2 / n2
    e3 = np.cross(e1, e2)
    new_pts = rel @ np.stack([e1, e2, e3]).T
    # pinned coordinates are exact zeros by construction
    new_pts[0] = 0.0
    new_pts[1, 1:] = 0.0
    new_pts[2, 2] = 0.0
    return Configuration(new_pts, gauge=True)


# --- smallest circumspheres ---------------------------------------------------

_DEGENERATE = {2: "coincident points", 3: "collinear points", 4: "coplanar points"}
# a simplex whose content is at most this times its diameter to the power k - 1
_DEGENERATE_REL = 1e-12
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # a x b = a[N] b[P] - a[P] b[N]


def _row_norms(x):
    """Euclidean norm of each row; ``np.linalg.norm(x, axis=1)`` without its
    per-call overhead, and the same bits."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def circumspheres(simplices):
    """Smallest circumspheres of a stack of 2-, 3- or 4-point simplices.

    ``simplices`` has shape (S, k, 3). The center lies in the affine span of
    the vertices: with e_j = p_j - p_0 it is p_0 + sum_j a_j e_j, where the
    Gram system (e_i . e_j) a = |e_i|^2 / 2 fixes a. Returns the centers
    (S, 3), the radii (S,), the barycentric weights (S, k) of the centers and
    a degenerate mask (S,): the simplex's content (length, twice the area or
    six times the volume) is at most ``_DEGENERATE_REL`` times its diameter to the
    power k - 1. The radius gradient is dR/dp_i = w_i (p_i - c) / R.
    """
    pts = np.asarray(simplices, dtype=float)
    k = pts.shape[1]
    if k not in _DEGENERATE:
        raise ValueError(f"circumsphere defined for 2..4 vertices, got {k}")
    rel = pts[:, 1:] - pts[:, :1]
    gram = np.einsum("sid,sjd->sij", rel, rel)
    rhs = 0.5 * gram.diagonal(0, 1, 2)  # the same sums of the same products
    try:
        coeff = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # sliver simplices can make a Gram matrix exactly singular
        coeff = np.stack(
            [np.linalg.lstsq(g, r, rcond=None)[0] for g, r in zip(gram, rhs)]
        )
    centers = pts[:, 0] + np.einsum("sji,sj->si", rel, coeff)
    radii = _row_norms(centers - pts[:, 0])
    weights = np.empty(pts.shape[:2])
    weights[:, 0], weights[:, 1:] = 1.0 - np.add.reduce(coeff, axis=1), coeff
    if k == 2:
        length = _row_norms(rel[:, 0])  # an edge is its own diameter: degenerate at 0 or inf
        return centers, radii, weights, length <= _DEGENERATE_REL * length
    if k == 3:
        ahead, behind = rel.take(_NEXT, axis=2), rel.take(_PREV, axis=2)
        content = _row_norms(ahead[:, 0] * behind[:, 1] - behind[:, 0] * ahead[:, 1])
    else:
        content = np.abs(np.linalg.det(rel))
    diff = pts[:, :, None] - pts[:, None, :]
    diameter = np.sqrt(np.maximum.reduce(np.einsum("sijk,sijk->sij", diff, diff), axis=(1, 2)))
    return centers, radii, weights, content <= _DEGENERATE_REL * diameter ** (k - 1)


def _nondegenerate(stack, centers, radii, weights, degenerate):
    if degenerate.any():
        raise DegenerateSimplex(f"{_DEGENERATE[stack.shape[1]]} in {stack.shape[1] - 1}-simplex")
    return centers, radii, weights


def circumradius(pts) -> float:
    """Radius of the smallest sphere through 2, 3, or 4 points in R^3."""
    stack = np.asarray(pts, dtype=float)[None]
    return float(_nondegenerate(stack, *circumspheres(stack))[1][0])


def radius_gradients(stack, centers, radii, weights, degenerate) -> np.ndarray:
    """Circumradius gradients (S, k, 3) of a stack from its ``circumspheres``
    output; a degenerate simplex raises DegenerateSimplex."""
    centers, radii, weights = _nondegenerate(stack, centers, radii, weights, degenerate)
    return weights[..., None] * ((stack - centers[:, None]) / radii[:, None, None])


def circumradius_gradient(pts) -> np.ndarray:
    """Gradient of the circumradius w.r.t. every vertex coordinate, shape (k, 3).

    A stack of simplices (S, k, 3) gives its gradients from one kernel call.
    """
    pts = np.asarray(pts, dtype=float)
    stack = pts if pts.ndim == 3 else pts[None]
    grads = radius_gradients(stack, *circumspheres(stack))
    return grads if pts.ndim == 3 else grads[0]


# --- Vietoris-Rips birth radii ------------------------------------------------

@dataclass(frozen=True)
class RipsBirth:
    """Birth radius of a simplex in the Rips filtration plus argmax attribution."""

    radius: float
    edge: SimplexKey           # first argmax edge; the simplex itself for vertices


def rips_birth_radius(simplex, config: Configuration) -> RipsBirth:
    """Half the maximum pairwise distance, with the realizing edge."""
    key = simplex_key(simplex)
    if len(key) == 1:
        return RipsBirth(0.0, key)
    pts = config.points
    best = -1.0
    best_edge = None
    for i, j in itertools.combinations(key, 2):
        d = float(np.linalg.norm(pts[i] - pts[j]))
        if d > best:
            best = d
            best_edge = (i, j)
    return RipsBirth(best / 2.0, best_edge)


# --- general position reports --------------------------------------------------

@dataclass(frozen=True)
class GPViolation:
    kind: str                 # "coincident_points", "equal_attaching_radii", ...
    simplices: tuple          # offending simplex keys (or point indices)
    values: tuple = ()


@dataclass
class GeneralPositionReport:
    filtration: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"{self.filtration}: in general position"
        lines = [f"{self.filtration}: {len(self.violations)} violation(s)"]
        for v in self.violations:
            vals = ", ".join(f"{x:.9g}" for x in v.values)
            lines.append(f"  {v.kind}: {v.simplices} ({vals})")
        return "\n".join(lines)


def _radius_ties(attaching_radii, tol):
    """Neighbouring (radius, key) entries of a sorted list that agree within tol."""
    out = []
    for (r1, k1), (r2, k2) in zip(attaching_radii, attaching_radii[1:]):
        if abs(r2 - r1) <= tol:
            out.append(GPViolation("equal_attaching_radii", (k1, k2), (r1, r2)))
    return out


def check_general_position(fc, tol: float = 1e-9):
    """Report (not raise) general-position violations of a built filtration.

    ``fc`` is the ``FilteredComplex`` whose diagram is in question; a Rips
    complex must contain its edges. For Rips: coincident points and attaching
    edges with equal birth radii. For alpha: near-degenerate Delaunay
    simplices, attaching simplices (dim >= 1) with equal birth radii, and
    points near the circumsphere of a neighbouring tetrahedron. By the local
    Delaunay lemma only a vertex of a tetrahedron across a shared triangle can
    cross a circumsphere first, so those are the 5-point configurations whose
    flip would change the triangulation.
    """
    pts = fc.config.points
    report = GeneralPositionReport(fc.kind)

    report.violations.extend(
        GPViolation("coincident_points", pair) for pair in sorted(cKDTree(pts).query_pairs(tol))
    )

    skeleton, spheres = fc.skeleton, fc.spheres  # the alpha build's, by global index
    if spheres is not None:
        report.violations.extend(
            GPViolation("degenerate_simplex", (skeleton.keys[g],))
            for g in np.flatnonzero(spheres.degenerate)
        )
    report.violations.extend(_radius_ties(fc.attaching_radii, tol))
    if spheres is None or 3 not in skeleton.vertices:
        return report
    at = skeleton.offsets[3]  # the tetrahedra come last in global order
    tets, centers, radii = skeleton.tetrahedra, spheres.centers[at:], spheres.radii[at:]
    t_idx, far = skeleton.across
    close = np.abs(np.linalg.norm(pts[far] - centers[t_idx], axis=1) - radii[t_idx]) <= tol
    near = {(tets[t], int(p)): float(radii[t]) for t, p in zip(t_idx[close], far[close])}
    report.violations.extend(
        GPViolation("near_cospherical", key, (r,)) for key, r in sorted(near.items())
    )
    return report
