"""3D Delaunay triangulation with exact empty-circumsphere verification.

The triangulation itself is delegated to Qhull (scipy.spatial.Delaunay) and
then verified with a floating-point filter backed by exact integer
arithmetic (the points of a predicate are scaled to integers by one common
power of two), so silent near-degeneracy cannot slip through. By the local
Delaunay lemma the check is local: every point must be a vertex, and across
each triangle shared by two tetrahedra the far vertex of one must lie outside
the circumsphere of the other. Exact cospherical 5-tuples are an error, never
perturbed away silently.

The combinatorics of a triangulation, its simplices closed under faces, their
facet rows and the index arrays that the verification and the alpha
filtration read, form a ``Skeleton``, which is the Delaunay complex; a Rips
complex numbers its simplices in one too. A simplex's global index in its
skeleton is its one name from the build to the Jacobian. When Qhull returns
exactly the tetrahedra of a previous skeleton, ``delaunay3`` returns that
skeleton; the verification always runs on the new points.

Point clouds that span fewer than 3 dimensions are handled for M <= 3 (vertex,
edge, triangle); larger coplanar clouds are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .errors import DegenerateInput, GeneralPositionViolation
from .geometry import Configuration, _row_norms

# Hadamard-style relative filter: float determinants smaller than this times
# the row-norm product are re-evaluated exactly.
_FILTER_REL = 1e-10


def _encode(rows, n):
    """One integer per sorted vertex row (last axis); codes sort like the rows."""
    if n ** rows.shape[-1] > 2**63:
        raise ValueError(f"{n} points overflow the 64-bit codes of {rows.shape[-1]}-vertex rows")
    code = rows[..., 0].astype(np.int64)
    for j in range(1, rows.shape[-1]):
        code = code * n + rows[..., j]
    return code


def _facets(simplices, n):
    """The distinct facets of the (S, k) sorted rows ``simplices``, sorted, and
    the row of each simplex's facets among them, (S, k), in
    ``itertools.combinations`` order; facet j omits the vertex in column k-1-j."""
    k = simplices.shape[1]
    faces = simplices[:, list(itertools.combinations(range(k), k - 1))].reshape(-1, k - 1)
    _, first, inverse = np.unique(_encode(faces, n), return_index=True, return_inverse=True)
    return faces[first], inverse.reshape(-1, k)


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Simplices closed under faces, each numbered once, with their facets.

    ``vertices[d]`` holds the d-simplices as sorted vertex rows, in sorted
    order, and ``facets[d]`` the rows among the (d-1)-simplices of each
    d-simplex's facets, in ``itertools.combinations`` order. A simplex's
    global index counts the simplices of lower dimension first (``offsets``),
    so global order is (dimension, key) order, and ``index`` maps a key to it.
    The index arrays that only the Delaunay verification and the alpha
    filtration read are made on first use.
    """

    n_points: int
    vertices: dict
    facets: dict = field(repr=False)
    by_dim: dict = field(repr=False)
    keys: tuple = field(repr=False)     # every key in global order
    offsets: dict = field(repr=False)

    @property
    def tetrahedra(self):
        return self.by_dim.get(3, ())

    @cached_property
    def index(self) -> dict:
        """key -> global index."""
        return {key: i for i, key in enumerate(self.keys)}

    def edge_rows(self, dim):
        """The rows among the edges of each ``dim``-simplex's edges, (S, C(dim + 1, 2)),
        in ``itertools.combinations`` order."""
        pairs = self.vertices[dim][:, list(itertools.combinations(range(dim + 1), 2))]
        edges = _encode(self.vertices[1], self.n_points)
        return np.searchsorted(edges, _encode(pairs, self.n_points))

    @cached_property
    def attach(self) -> dict:
        """dim -> (row, far vertex of a cofacet): the attachment rule tests a
        simplex against the vertex of each cofacet off it."""
        none = np.zeros(0, dtype=int)
        out = dict.fromkeys(range(len(self.vertices)), (none, none))
        out.update(
            (dim - 1, (self.facets[dim].ravel(), self.vertices[dim][:, ::-1].ravel()))
            for dim in range(2, len(self.vertices))
        )
        return out

    @cached_property
    def across(self) -> tuple:
        """(tetrahedron, far vertex of a neighbour across a shared triangle),
        sorted: the pairs of the local Delaunay check."""
        if 3 not in self.facets:
            none = np.zeros(0, dtype=int)
            return none, none
        tri, far = self.attach[2]
        tet = np.repeat(np.arange(len(self.vertices[3])), 4)
        by_tri = np.argsort(tri, kind="stable")
        shared = tri[by_tri[1:]] == tri[by_tri[:-1]]
        a, b = by_tri[:-1][shared], by_tri[1:][shared]
        t_idx, p = np.concatenate([tet[a], tet[b]]), np.concatenate([far[b], far[a]])
        order = np.lexsort((p, t_idx))
        return t_idx[order], p[order]

    @cached_property
    def faces(self) -> tuple:
        """Alpha birth candidates (coface, face, first of each face), grouped by
        simplex: itself, then its tetrahedra, then its triangles (the order in
        which a tie is won), each in row order."""
        offsets, total = self.offsets, len(self.keys)
        cofaces, faces = [np.arange(total)], [np.arange(total)]
        for dim in range(len(self.vertices) - 1, 1, -1):
            rows = self.facets[dim]
            cofaces.append(offsets[dim] + np.repeat(np.arange(len(rows)), dim + 1))
            faces.append(offsets[dim - 1] + rows.ravel())
            if dim == 3:
                cofaces.append(offsets[3] + np.repeat(np.arange(len(rows)), 6))
                faces.append(offsets[1] + self.edge_rows(3).ravel())
        grouped = np.argsort(np.concatenate(faces), kind="stable")
        cofaces, faces = np.concatenate(cofaces)[grouped], np.concatenate(faces)[grouped]
        return cofaces, faces, np.searchsorted(faces, np.arange(total))


def _skeleton(top, n):
    """Skeleton of the maximal simplices ``top`` ((S, k) sorted rows, sorted)."""
    top_dim = top.shape[1] - 1
    vertices = {0: np.arange(n)[:, None], top_dim: top}
    facets = {}
    for dim in range(top_dim, 1, -1):
        vertices[dim - 1], facets[dim] = _facets(vertices[dim], n)
    if top_dim:
        facets[1] = vertices[1]  # an edge's facets are its vertices, which are points
    sizes = [len(vertices[d]) for d in range(top_dim + 1)]
    offsets = dict(enumerate(np.cumsum([0] + sizes[:-1]).tolist()))
    by_dim = {d: tuple(map(tuple, v.tolist())) for d, v in sorted(vertices.items())}
    keys = tuple(itertools.chain.from_iterable(by_dim.values()))
    return Skeleton(n, vertices, facets, by_dim, keys, offsets)


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


def _orient_signs(tet_pts) -> np.ndarray:
    """Orientation sign of each tetrahedron of a (T, 4, 3) stack.

    Float determinants within the relative filter of the row-norm product are
    re-evaluated exactly; 0 marks an exactly flat tetrahedron.
    """
    rel = tet_pts[:, 1:] - tet_pts[:, :1]
    det = np.linalg.det(rel)
    bounds = _FILTER_REL * np.prod(np.sqrt(np.add.reduce(rel * rel, axis=2)), axis=1)
    signs = np.sign(det)
    for t in np.flatnonzero(np.abs(det) <= bounds):
        signs[t] = orient3d_exact(*tet_pts[t])
    return signs


def _verify_empty(points, skeleton: Skeleton):
    """Check the triangulation is Delaunay; exact fallback near ties.

    Every point must be a vertex: Qhull sets duplicate and near-duplicate
    points aside. By the local Delaunay lemma it then suffices that, across
    every shared triangle, each tetrahedron's circumsphere excludes the far
    vertex of its neighbour. An exactly cospherical 5-tuple spans a Delaunay
    cell with at least 5 vertices, and every tetrahedron inside that cell has
    a neighbour in it whose far vertex lies on the sphere.
    """
    pts = np.asarray(points, dtype=float)
    tets, top = skeleton.tetrahedra, skeleton.vertices[3]
    missing = np.setdiff1d(np.arange(pts.shape[0]), top)
    if missing.size:
        p = int(missing[0])
        raise GeneralPositionViolation(
            f"point {p} is not a Delaunay vertex (it duplicates a point, "
            "or is cospherical beyond float resolution)",
            (p,),
        )
    tet_pts = pts[top]  # (T, 4, 3)
    orient_sign = _orient_signs(tet_pts)
    flat = np.flatnonzero(orient_sign == 0)
    if flat.size:
        t = flat[0]
        raise GeneralPositionViolation(
            f"degenerate (coplanar) Delaunay tetrahedron {tets[t]}", tets[t]
        )
    t_idx, far = skeleton.across
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


def delaunay3(config: Configuration, previous: Skeleton | None = None) -> Skeleton:
    """Delaunay triangulation of the cloud, verified empty-circumsphere exact,
    as the skeleton of its simplices.

    M = 1, 2, 3 clouds yield the trivial complex of the points themselves
    (vertex / edge / triangle). M >= 4 requires non-coplanar points. When the
    tetrahedra equal those of ``previous`` (the skeleton of a nearby cloud),
    the result is ``previous``.
    """
    pts = np.asarray(config.points, dtype=float)
    m = pts.shape[0]
    if m <= 3:
        dim = _affine_dim(pts)
        if m == 2 and dim == 0:
            raise DegenerateInput("coincident points")
        if m == 3 and dim < 2:
            raise DegenerateInput("collinear 3-point cloud")
        top = np.arange(m)[None]
    elif m == 4:
        # the Delaunay complex of four non-coplanar points is the tetrahedron
        orient = float(np.linalg.det(pts[1:] - pts[0]))
        scale = np.abs(pts - pts.mean(axis=0)).max() or 1.0
        if abs(orient) <= 1e-9 * scale**3:
            if orient3d_exact(*pts) == 0:
                raise DegenerateInput("four coplanar points")
        top = np.arange(m)[None]
    else:
        try:
            tri = _SciPyDelaunay(pts)
        except QhullError as exc:
            raise DegenerateInput(
                f"triangulation failed: coplanar or degenerate input ({exc})"
            )
        top = np.unique(np.sort(tri.simplices, axis=1), axis=0)
    skeleton = previous
    if skeleton is None or skeleton.n_points != m or not np.array_equal(
        skeleton.vertices[top.shape[1] - 1], top
    ):
        skeleton = _skeleton(top, m)
    if m > 4:
        _verify_empty(pts, skeleton)
    return skeleton


def attaching_flags(points, skeleton: Skeleton, dim: int, centers, radii) -> np.ndarray:
    """Which of the Delaunay ``dim``-simplices of ``points`` are attaching.

    ``centers`` and ``radii`` give the smallest circumsphere of each
    ``skeleton.by_dim[dim]``, row by row. A simplex is attaching iff that
    sphere contains no cloud point. For a Delaunay simplex it suffices to test
    the vertices of its cofacets (Edelsbrunner & Mücke, Three-dimensional
    alpha shapes, 1994): vertices and tetrahedra are always attaching, a
    triangle is tested against the far vertices of its at most two
    tetrahedra, an edge against the third vertices of its triangles.
    """
    rows, far = skeleton.attach[dim]
    flags = np.ones(len(radii), dtype=bool)
    if len(rows):
        flags[rows[_row_norms(points[far] - centers[rows]) < radii[rows]]] = False
    return flags
