"""3D Delaunay triangulation with exact empty-circumsphere verification.

The triangulation itself is delegated to Qhull (scipy.spatial.Delaunay) and
then verified with a floating-point filter backed by exact integer
arithmetic (the points of a predicate are scaled to integers by one common
power of two), so silent near-degeneracy cannot slip through. By the local
Delaunay lemma the check is local: every point must be a vertex, and across
each triangle shared by two tetrahedra the far vertex of one must lie outside
the circumsphere of the other. Exact cospherical 5-tuples are an error, never
perturbed away silently.

Point clouds that span fewer than 3 dimensions are handled for M <= 3 (vertex,
edge, triangle); larger coplanar clouds are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .errors import DegenerateInput, GeneralPositionViolation
from .geometry import Configuration, across_triangles, circumspheres, cofacets, faces, simplex_key

# Hadamard-style relative filter: float determinants smaller than this times
# the row-norm product are re-evaluated exactly.
_FILTER_REL = 1e-10


@dataclass(frozen=True)
class DelaunayComplex:
    """Simplices of the Delaunay triangulation, closed under faces."""

    points: np.ndarray
    tetrahedra: tuple
    by_dim: dict = field(repr=False)
    cofacets: dict = field(repr=False)   # edge or triangle key -> its cofacet keys

    def simplices(self, dim: int):
        return self.by_dim.get(dim, ())

    def all_simplices(self):
        for dim in sorted(self.by_dim):
            yield from self.by_dim[dim]

    def dump_text(self) -> str:
        """Plain-text listing of the tetrahedra (one per line) for inspection."""
        lines = [f"# delaunay complex: {self.points.shape[0]} points, "
                 f"{len(self.tetrahedra)} tetrahedra"]
        for tet in self.tetrahedra:
            corner = " ".join(
                "(" + " ".join(f"{x:.9g}" for x in self.points[v]) + ")" for v in tet
            )
            lines.append(f"{tet[0]} {tet[1]} {tet[2]} {tet[3]}  {corner}")
        return "\n".join(lines)


def _close_down(top_simplices, n_points):
    by_dim = {0: tuple((i,) for i in range(n_points))}
    seen = {1: set(), 2: set(), 3: set()}
    for key in top_simplices:
        d = len(key) - 1
        for dim in range(1, d + 1):
            seen[dim].update(faces(key, dim))
    for dim in (1, 2, 3):
        if seen[dim]:
            by_dim[dim] = tuple(sorted(seen[dim]))
    return by_dim


# --- exact predicates -----------------------------------------------------------

def _as_ints(points):
    """The points as integers under one common power-of-two scale.

    Floats are dyadic rationals n / 2^e; a positive common scale keeps signs.
    """
    ratios = [float(x).as_integer_ratio() for p in points for x in p]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    return [ints[i:i + 3] for i in range(0, len(ints), 3)]


def _det_exact(rows):
    """Exact determinant of a small integer matrix (cofactor expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total, sign = 0, 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * _det_exact(minor)
        sign = -sign
    return total


def _orient_det(a, b, c, d):
    return _det_exact([[p[k] - a[k] for k in range(3)] for p in (b, c, d)])


def orient3d_exact(a, b, c, d):
    """Sign of det[b-a; c-a; d-a], computed in exact integer arithmetic."""
    det = _orient_det(*_as_ints((a, b, c, d)))
    return (det > 0) - (det < 0)


def insphere_exact(a, b, c, d, p):
    """Exact in-sphere test of p against the circumsphere of tetra (a,b,c,d).

    Returns +1 when p is strictly inside, -1 when strictly outside, 0 when
    cospherical. With rows (vertex - p, |vertex - p|^2) the determinant of a
    positively oriented tetrahedron is negative for interior p.
    """
    *tet, p = _as_ints((a, b, c, d, p))
    rows = []
    for q in tet:
        rel = [q[k] - p[k] for k in range(3)]
        rows.append(rel + [rel[0] ** 2 + rel[1] ** 2 + rel[2] ** 2])
    orient = _orient_det(*tet)
    if orient == 0:
        raise DegenerateInput("flat tetrahedron in in-sphere test")
    val = -_det_exact(rows) * orient
    return (val > 0) - (val < 0)


def _verify_empty(points, tets, cofacet_map):
    """Check the triangulation is Delaunay; exact fallback near ties.

    Every point must be a vertex: Qhull sets duplicate and near-duplicate
    points aside. By the local Delaunay lemma it then suffices that, across
    every shared triangle, each tetrahedron's circumsphere excludes the far
    vertex of its neighbour. An exactly cospherical 5-tuple spans a Delaunay
    cell with at least 5 vertices, and every tetrahedron inside that cell has
    a neighbour in it whose far vertex lies on the sphere.
    """
    pts = np.asarray(points, dtype=float)
    missing = np.setdiff1d(np.arange(pts.shape[0]), tets)
    if missing.size:
        p = int(missing[0])
        raise GeneralPositionViolation(
            f"point {p} is not a Delaunay vertex (it duplicates a point, "
            "or is cospherical beyond float resolution)",
            (p,),
        )
    tet_pts = pts[np.asarray(tets)]  # (T, 4, 3)
    orient_sign = np.sign(np.linalg.det(tet_pts[:, 1:] - tet_pts[:, :1]))
    for t in np.flatnonzero(orient_sign == 0):
        orient_sign[t] = orient3d_exact(*tet_pts[t])
        if orient_sign[t] == 0:
            raise GeneralPositionViolation(
                f"degenerate (coplanar) Delaunay tetrahedron {tets[t]}", tets[t]
            )
    t_idx, far = across_triangles(tets, cofacet_map)
    # lifted rows per (tetrahedron, far vertex): tetra vertices relative to it
    rel = tet_pts[t_idx] - pts[far][:, None, :]  # (P, 4, 3)
    lift = np.concatenate([rel, np.einsum("pij,pij->pi", rel, rel)[..., None]], axis=2)
    vals = -np.linalg.det(lift) * orient_sign[t_idx]
    bounds = _FILTER_REL * np.prod(np.linalg.norm(lift, axis=2), axis=1)
    for i in np.flatnonzero((np.abs(vals) <= bounds) | (vals > 0)):
        tet, p = tets[t_idx[i]], int(far[i])
        sign = insphere_exact(*(pts[v] for v in tet), pts[p])
        if sign == 0:
            raise GeneralPositionViolation(
                f"points {tet + (p,)} are exactly cospherical", tet + (p,)
            )
        if sign > 0:
            raise GeneralPositionViolation(
                f"point {p} lies inside the circumsphere of {tet} "
                "(input is cospherical beyond float resolution)",
                tet + (p,),
            )


def _affine_dim(pts, rel_tol=1e-12):
    rel = pts - pts[0]
    if rel.shape[0] == 1:
        return 0
    sv = np.linalg.svd(rel, compute_uv=False)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    return int(np.sum(sv > rel_tol * scale))


def delaunay3(config: Configuration) -> DelaunayComplex:
    """Delaunay triangulation of the cloud, verified empty-circumsphere exact.

    M = 1, 2, 3 clouds yield the trivial complex of the points themselves
    (vertex / edge / triangle). M >= 4 requires non-coplanar points.
    """
    pts = np.asarray(config.points, dtype=float)
    m = pts.shape[0]
    tets = ()
    if m <= 3:
        dim = _affine_dim(pts)
        if m == 1:
            top = [(0,)]
        elif m == 2:
            if dim == 0:
                raise DegenerateInput("coincident points")
            top = [(0, 1)]
        else:
            if dim < 2:
                raise DegenerateInput("collinear 3-point cloud")
            top = [(0, 1, 2)]
    elif m == 4:
        # the Delaunay complex of four non-coplanar points is the tetrahedron
        orient = float(np.linalg.det(pts[1:] - pts[0]))
        scale = np.abs(pts - pts.mean(axis=0)).max() or 1.0
        if abs(orient) <= 1e-9 * scale**3:
            if orient3d_exact(*pts) == 0:
                raise DegenerateInput("four coplanar points")
        top = tets = [(0, 1, 2, 3)]
    else:
        try:
            tri = _SciPyDelaunay(pts)
        except QhullError as exc:
            raise DegenerateInput(
                f"triangulation failed: coplanar or degenerate input ({exc})"
            )
        top = tets = sorted(set(simplex_key(s) for s in tri.simplices))
    by_dim = _close_down(top, m)
    cofacet_map = cofacets(by_dim)
    if m > 4:
        _verify_empty(pts, tets, cofacet_map)
    return DelaunayComplex(pts, tuple(tets), by_dim, cofacet_map)


def attaching_flags(dc: DelaunayComplex, keys, centers, radii) -> np.ndarray:
    """Which of the Delaunay simplices ``keys`` are attaching.

    A simplex is attaching iff its smallest circumsphere (``centers``,
    ``radii``, one row per key) contains no cloud point. For a Delaunay
    simplex it suffices to test the vertices of its cofacets (Edelsbrunner &
    Mücke, Three-dimensional alpha shapes, 1994): vertices and tetrahedra are
    always attaching, a triangle is tested against the far vertices of its at
    most two tetrahedra, an edge against the third vertices of its triangles.
    """
    rows, others = [], []
    for s, key in enumerate(keys):
        for coface in dc.cofacets.get(key, ()):
            rows.append(s)
            others.append(sum(coface) - sum(key))  # the vertex of coface off key
    flags = np.ones(len(keys), dtype=bool)
    if rows:
        rows = np.array(rows)
        dist = np.linalg.norm(dc.points[others] - centers[rows], axis=1)
        flags[rows[dist < radii[rows]]] = False
    return flags


def is_attaching(simplex, dc: DelaunayComplex) -> bool:
    """True iff the smallest circumsphere of the simplex contains no cloud point."""
    key = tuple(simplex)
    if len(key) == 1:
        return True
    centers, radii, _, _ = circumspheres(dc.points[list(key)][None])
    return bool(attaching_flags(dc, [key], centers, radii)[0])
