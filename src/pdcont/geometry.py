"""Point clouds in R^3, rigid-motion gauge coordinates, and circumspheres.

Every circumradius in the package, and its gradient, comes from one batched
kernel: the smallest sphere through the vertices of a simplex is solved from
its Gram system, whose solution also gives the barycentric weights of the
center, and those weights give the gradient in closed form
(``circumradius_gradient``). The alpha build's sphere pass
(``filtration.circumradius``) gives every size at once, padded by each
simplex's vertex 0, to one solve. Whether a simplex is degenerate is a pass
of its own (``_degenerate``), which only radius gradients and the
general-position report read. Every geometric evaluation runs in a
cloud's ``Configuration.frame``, and every value leaves it by ``_unframe``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DegenerateSimplex, GaugeViolation

_GAUGE_FREE = np.tri(3, 3, -1, dtype=bool)  # point 0 is pinned, 1 keeps x, 2 keeps x and y
_GP_TOL = 1e-9  # general position: distances and radius gaps this small in the frame violate it


@functools.lru_cache
def _free_columns(n_points: int, gauge: bool) -> np.ndarray:
    """Free column of each point coordinate, -1 where pinned and in a spare last row."""
    free = np.ones((n_points + 1, 3), dtype=bool)
    free[-1] = False
    if gauge:
        free[:3] = _GAUGE_FREE
    cols = np.full(free.shape, -1)
    cols[free] = np.arange(np.count_nonzero(free))
    cols.flags.writeable = False  # one array serves every caller
    return cols


@functools.lru_cache
def _free_slots(n_points: int, gauge: bool) -> tuple:
    """(point, axis) of each free coordinate, in packing order."""
    cols = _free_columns(n_points, gauge)[:-1].ravel().tolist()
    return tuple(divmod(i, 3) for i, col in enumerate(cols) if col >= 0)


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
        """(point, axis) of each free coordinate, in packing order."""
        return list(_free_slots(self.n_points, self.gauge))

    @functools.cached_property
    def frame(self) -> tuple:
        """(e, P * 2^-e), the power-of-two frame that puts the largest
        |coordinate| in [1/2, 1). Radii scale with the cloud and gradients do
        not, so evaluating there and scaling back by 2^e is exact."""
        e = math.frexp(np.abs(self.points).max())[1]
        framed = np.ldexp(self.points, -e)
        framed.flags.writeable = False
        return e, framed

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


def _unframe(x, e, message):
    """``x`` of a frame (``Configuration.frame``) times 2^e, exactly; a value
    past the float range (or not finite) refuses the cloud with ``message``."""
    top = np.abs(x).max()  # m 2^p with 1/2 <= m < 1, and m 2^(p + e) < 2^1024
    if not (math.isfinite(top) and math.frexp(top)[1] + e <= 1024):
        raise DegenerateInput(message)
    return np.ldexp(x, e)


def to_gauge_frame(points) -> Configuration:
    """Rigid motion bringing a cloud into the gauge frame.

    Point 0 goes to the origin, point 1 onto the positive x-axis, point 2 into
    the upper xy-half-plane; the frame is right-handed. Clouds already in the
    frame are reproduced exactly. The motion is found in the cloud's
    power-of-two frame (``Configuration.frame``), so no norm overflows; a
    moved cloud past the float range is refused as DegenerateInput.
    """
    if len(points) < 3:
        raise ValueError("gauge frame needs at least three points")
    e, framed = Configuration(points, gauge=False).frame
    rel = framed - framed[0]
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
    new_pts[:3][~_GAUGE_FREE] = 0.0  # pinned coordinates are exact zeros by construction
    new_pts = _unframe(new_pts, e, "the gauge frame's coordinates exceed the float range")
    return Configuration(new_pts, gauge=True)


# --- smallest circumspheres ---------------------------------------------------

_DEGENERATE = {2: "coincident points", 3: "collinear points", 4: "coplanar points"}
# a simplex whose content is at most this times its diameter to the power k - 1
_DEGENERATE_REL = 1e-12
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # a x b = a[N] b[P] - a[P] b[N]
_PAIRS = {k: tuple(map(np.array, zip(*itertools.combinations(range(k), 2)))) for k in (2, 3, 4)}


def _row_norms(x):
    """Euclidean norm of each row; ``np.linalg.norm(x, axis=1)`` without its
    per-call overhead, and the same bits."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _coefficients(rel, blocks):
    """The solutions a of the Gram systems (e_i . e_j) a = |e_i|^2 / 2 of the
    edge vectors ``rel``, in one solve: a pad row of ``rel`` is zero, so a 1
    on its diagonal leaves each simplex the bits of its own system and a zero
    coefficient."""
    gram = np.zeros(rel.shape[:2] + rel.shape[1:2])
    for k, at in blocks:
        np.einsum("sid,sjd->sij", rel[at, :k - 1], rel[at, :k - 1], out=gram[at, :k - 1, :k - 1])
    diagonal = np.einsum("sii->si", gram)  # a writable view
    rhs = 0.5 * diagonal  # the same sums of the same products
    for k, at in blocks:
        diagonal[at, k - 1:] = 1.0
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a singular Gram matrix: each alone, with its stacked bits
        coeff = np.zeros(rhs.shape)
    for k, at in blocks:
        for row, g, r in zip(range(len(rhs))[at], gram[at, :k - 1, :k - 1], rhs[at, :k - 1]):
            try:
                coeff[row, :k - 1] = np.linalg.solve(g, r)
            except np.linalg.LinAlgError:  # a sliver simplex
                coeff[row, :k - 1] = np.linalg.lstsq(g, r, rcond=None)[0]
    return coeff


def _circumspheres(points, verts, blocks):
    """The centers, radii and weights of ``circumspheres`` for the simplices
    with the vertex rows ``verts`` (S, K) into ``points``, of mixed sizes in
    one pass: ``blocks`` lists (k, slice of the k-vertex rows), and the K - k
    pad vertices of a k-simplex repeat its vertex 0. The weights are (S, K),
    zero on the pads. The degenerate mask is ``_degenerate``'s."""
    base = points.take(verts[:, 0], axis=0)  # take gathers rows faster than indexing
    rel = points.take(verts[:, 1:], axis=0) - base[:, None]  # pad rows are exact zeros
    coeff = _coefficients(rel, blocks)
    centers = base + np.einsum("sji,sj->si", rel, coeff)
    weights = np.empty(verts.shape)
    weights[:, 0], weights[:, 1:] = 1.0 - np.add.reduce(coeff, axis=1), coeff
    return centers, _row_norms(centers - base), weights


def _degenerate(points, verts, blocks, edge_rows=None):
    """The degenerate mask of the padded rows ``verts`` in the size
    ``blocks`` of ``_circumspheres``: a k-simplex is degenerate when its
    content (length, twice the area or six times the volume) is at most
    ``_DEGENERATE_REL`` times its diameter to the power k - 1.

    The squared diameter is the largest squared edge length. ``edge_rows``
    maps a size k >= 3 to the rows of its simplices' edges in the 2-vertex
    block, which comes first and holds them all, so each edge is measured
    once; without it each simplex measures its own vertex pairs. The bits
    agree: in a sorted row p_i - p_j (i < j) is the same difference in every
    simplex that holds the edge, and a difference and its negation square
    alike."""
    rel = points.take(verts[:, 1:], axis=0) - points.take(verts[:, :1], axis=0)
    degenerate = np.empty(len(verts), dtype=bool)
    for k, at in blocks:
        if k == 2:  # an edge is its own diameter: degenerate at 0 or inf
            edges = np.einsum("sck,sck->sc", rel[at, :1], rel[at, :1])[:, 0]
            content = scale = np.sqrt(edges)
        else:
            if edge_rows is None:
                (i, j), rows = _PAIRS[k], verts[at]
                diff = points.take(rows[:, i], axis=0) - points.take(rows[:, j], axis=0)
                squares = np.einsum("sck,sck->sc", diff, diff)
            else:
                squares = edges.take(edge_rows[k])
            scale = np.sqrt(np.maximum.reduce(squares, axis=1)) ** (k - 1)
            if k == 3:
                a, b = rel[at, 0], rel[at, 1]
                cross = a.take(_NEXT, 1) * b.take(_PREV, 1) - a.take(_PREV, 1) * b.take(_NEXT, 1)
                content = _row_norms(cross)
            else:
                content = np.abs(np.linalg.det(rel[at]))
        degenerate[at] = content <= _DEGENERATE_REL * scale
    return degenerate


def circumspheres(simplices):
    """Smallest circumspheres of a stack of 2-, 3- or 4-point simplices.

    ``simplices`` has shape (S, k, 3). The center lies in the affine span of
    the vertices: with e_j = p_j - p_0 it is p_0 + sum_j a_j e_j, where the
    Gram system (e_i . e_j) a = |e_i|^2 / 2 fixes a. Returns the centers
    (S, 3), the radii (S,), the barycentric weights (S, k) of the centers and
    a degenerate mask (S,): the simplex's content (length, twice the area or
    six times the volume) is at most ``_DEGENERATE_REL`` times its diameter to the
    power k - 1. The radius gradient (``circumradius_gradient``) is
    dR/dp_i = w_i (p_i - c) / R.
    """
    pts = np.asarray(simplices, dtype=float)
    k = pts.shape[1]
    if k not in _DEGENERATE:
        raise ValueError(f"circumsphere defined for 2..4 vertices, got {k}")
    verts = np.arange(pts.size // 3).reshape(-1, k)
    points, blocks = pts.reshape(-1, 3), [(k, slice(None))]
    return *_circumspheres(points, verts, blocks), _degenerate(points, verts, blocks)


def circumradius_gradient(stack, centers, radii, weights, degenerate) -> np.ndarray:
    """Circumradius gradients (S, k, 3) of the simplices ``stack`` (S, k, 3)
    from their ``circumspheres`` output; a degenerate simplex raises
    DegenerateSimplex."""
    if degenerate.any():
        raise DegenerateSimplex(f"{_DEGENERATE[stack.shape[1]]} in {stack.shape[1] - 1}-simplex")
    return weights[..., None] * ((stack - centers[:, None]) / radii[:, None, None])


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


def check_general_position(fc):
    """Report (not raise) general-position violations of a built filtration.

    ``fc`` is the ``FilteredComplex`` whose diagram is in question; a Rips
    complex must contain its edges. For Rips: coincident points and attaching
    edges with equal birth radii. For alpha: near-degenerate Delaunay
    simplices, attaching simplices (dim >= 1) with equal birth radii, and
    points near the circumsphere of a neighbouring tetrahedron. By the local
    Delaunay lemma only a vertex of a tetrahedron across a shared triangle can
    cross a circumsphere first, so those are the 5-point configurations whose
    flip would change the triangulation. The checks compare with ``_GP_TOL`` in
    the frame, so the report of P 2^k is that of P with its radii times 2^k.
    """
    from scipy.spatial import cKDTree
    (e, pts), report = fc.config.frame, GeneralPositionReport(fc.kind)
    pairs = sorted(cKDTree(pts).query_pairs(_GP_TOL))
    report.violations.extend(GPViolation("coincident_points", pair) for pair in pairs)

    skeleton, spheres = fc.skeleton, fc.spheres  # the alpha build's, by global index
    if spheres is not None:
        report.violations.extend(
            GPViolation("degenerate_simplex", (key,))
            for key in skeleton.vertex_tuples(np.flatnonzero(fc.degenerate))
        )
    radii, at = fc.attaching  # sorted by radius: neighbours within _GP_TOL tie
    tied = np.flatnonzero(np.ldexp(np.diff(radii), -e) <= _GP_TOL)
    ties = zip(*(skeleton.vertex_tuples(at[i]) for i in (tied, tied + 1)),
               radii[tied].tolist(), radii[tied + 1].tolist())
    report.violations.extend(
        GPViolation("equal_attaching_radii", (k1, k2), (r1, r2)) for k1, k2, r1, r2 in ties
    )
    if spheres is None or 3 not in skeleton.vertices:
        return report
    t_idx, far = skeleton.across
    tet = skeleton.offsets[3] + t_idx  # the tetrahedra come last in global order
    radii = spheres.radii[tet]  # in the frame, as the centers
    close = np.abs(np.linalg.norm(pts[far] - spheres.centers[tet], axis=1) - radii) <= _GP_TOL
    tets, radii = skeleton.vertex_tuples(tet[close]), np.ldexp(radii[close], e).tolist()
    near = {(tet, p): r for tet, p, r in zip(tets, far[close].tolist(), radii)}
    report.violations.extend(
        GPViolation("near_cospherical", key, (r,)) for key, r in sorted(near.items())
    )
    return report
