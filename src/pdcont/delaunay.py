"""3D Delaunay triangulation with exact empty-circumsphere verification.

The triangulation itself is delegated to Qhull (scipy.spatial.Delaunay) and
then verified with floating-point filters backed by exact integer
arithmetic, so silent near-degeneracy cannot slip through. A filter
evaluates the orientation or in-sphere determinant in floats as Shewchuk's
orient3d and insphere do, and certifies its sign when its magnitude exceeds
the stage-A error bound times the expression's permanent (Shewchuk, Adaptive
precision floating-point arithmetic and fast robust geometric predicates,
1997). Every other sign, including those of rows whose products may
underflow and of rows that overflow, is decided exactly by the same formula
in integers (the points of a predicate are scaled to integers by one common
power of two). By the local Delaunay lemma the check is local: every point
must be a vertex, and across each triangle shared by two tetrahedra the far
vertex of one must lie outside the circumsphere of the other. Exact
cospherical 5-tuples are an error, never perturbed away silently.

The combinatorics of a triangulation, its simplices closed under faces, their
facet rows and the index arrays that the verification and the alpha
filtration read, form a ``Skeleton``, which is the Delaunay complex; a Rips
complex numbers its simplices in one too. Within a skeleton a simplex is
named by its global index; across skeletons by an integer of its vertices
alone that sorts like global order, which ``Skeleton.locate`` finds by binary
search. A fresh skeleton's index arrays are sorted by numpy's default
sort on distinct integer keys (``_stable_argsort``), never by a stable one.
Vertex tuples are made only for output and error messages. When
Qhull returns exactly the tetrahedra of a previous skeleton, ``delaunay3``
returns that skeleton, as it does any previous 4-point skeleton for four
points; the verification always runs on the new points.

Clouds of M <= 3 points are their own simplex (vertex, edge, triangle),
refused when the circumsphere kernel finds it degenerate; coplanar clouds of
4 or more points are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateInput, GeneralPositionViolation
from .geometry import _DEGENERATE, Configuration, _row_norms, circumspheres

# Shewchuk's stage-A error bounds, with eps = 2^-53: a determinant evaluated
# in floats as in _orient3d_terms / _insphere_terms whose magnitude exceeds the
# bound times its permanent has the sign of the exact determinant.
_EPS = 2.0**-53
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_ISP_BOUND = (16.0 + 224.0 * _EPS) * _EPS
# The bounds assume that no product underflows. A coordinate of magnitude at
# least 2^-142 is a multiple of 2^-194, so when every coordinate is that or 0
# every nonzero intermediate of degree <= 5, and the bound times the
# permanent, is a normal float (above 2^-1022).
_TINY = 2.0**-142


def _names(rows, n):
    """The name of each sorted k-vertex row (last axis) of n points: the row
    as a base-n number after the n + ... + n^(k-1) names of smaller simplices,
    so names sort like global order; Python ints past 64 bits."""
    k, first = rows.shape[-1], sum(n**j for j in range(1, rows.shape[-1]))
    wide = first + n**k > 2**63
    rows = rows.astype(object) if wide else rows
    code = rows[..., 0] if wide else rows[..., 0].astype(np.int64)  # Qhull's rows are int32
    for j in range(1, k):
        code = code * n + rows[..., j]
    return first + code


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")`` of nonnegative integer ``keys``."""
    # A stable sort of integer keys k_i is the default argsort of the distinct
    # keys k_i L + i, L = len(keys), which numpy sorts by its SIMD quicksort
    # instead of timsort. Every caller's keys are rows of an array no longer
    # than L, so max(k) L < 2^63 holds while L < 3e9 (48 GB of int64 keys and
    # positions).
    n = len(keys)
    return np.argsort(keys.astype(np.int64, copy=False) * n + np.arange(n))


def _distinct(names):
    """The argsort of ``names`` and, in that order, where a new name starts;
    equal names are equal rows, so no sort needs to be stable for them."""
    order = names.argsort()
    names = names.take(order)
    new = np.empty(len(names), dtype=bool)
    new[:1], new[1:] = True, names[1:] != names[:-1]
    return order, new


def _facets(simplices, n):
    """The distinct facets of the (S, k) sorted rows ``simplices``, sorted, and
    the row of each simplex's facets among them, (S, k), in
    ``itertools.combinations`` order; facet j omits the vertex in column k-1-j."""
    k = simplices.shape[1]
    faces = simplices[:, list(itertools.combinations(range(k), k - 1))].reshape(-1, k - 1)
    order, new = _distinct(_names(faces, n))
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return faces.take(order[new], axis=0), inverse.reshape(-1, k)


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Simplices closed under faces, each numbered once, with their facets.

    ``vertices[d]`` holds the d-simplices as sorted vertex rows, in sorted
    order, and ``facets[d]`` the rows among the (d-1)-simplices of each
    d-simplex's facets, in ``itertools.combinations`` order. A simplex's
    global index counts the simplices of lower dimension first (``offsets``),
    so global order is (dimension, vertex row) order, the order of the
    simplices' integer ``names``. The arrays that only the verification, the
    alpha filtration and the continuation read are made on first use.
    """

    n_points: int
    vertices: dict
    facets: dict = field(repr=False)
    offsets: dict = field(repr=False)

    def __len__(self):
        return sum(map(len, self.vertices.values()))

    @property
    def tetrahedra(self) -> np.ndarray:
        return self.vertices.get(3, np.zeros((0, 4), dtype=int))

    @cached_property
    def dim(self) -> np.ndarray:
        """Each simplex's dimension by global index, then -1 for the index -1."""
        sizes = [len(self.vertices[d]) for d in range(len(self.vertices))]
        return np.append(np.repeat(np.arange(len(sizes)), sizes), -1)

    @cached_property
    def padded(self) -> np.ndarray:
        """Every simplex's vertex row by global index, padded to the widest
        size by repeating its vertex 0."""
        out = np.empty((len(self), len(self.vertices)), dtype=int)
        for dim, rows in self.vertices.items():
            at = slice(self.offsets[dim], self.offsets[dim] + len(rows))
            out[at, :dim + 1], out[at, dim + 1:] = rows, rows[:, :1]
        return out

    @cached_property
    def names(self) -> np.ndarray:
        """Every simplex's integer name (``_names``) by global index, ascending."""
        dims = sorted(self.vertices)
        return np.concatenate([_names(self.vertices[d], self.n_points) for d in dims])

    def locate(self, names) -> np.ndarray:
        """The global index of each of ``names``, -1 where there is no such simplex."""
        at = self.names.searchsorted(names)
        return np.where(self.names.take(at, mode="clip") == names, at, -1)

    def vertex_tuples(self, g) -> list:
        """The vertex tuples of the simplices ``g``, for output and messages."""
        rows = self.padded.take(g, axis=0).tolist()
        return [tuple(row[:d + 1]) for row, d in zip(rows, self.dim.take(g).tolist())]

    def edge_rows(self, dim):
        """The rows among the edges of each ``dim``-simplex's edges, (S, C(dim + 1, 2)),
        in ``itertools.combinations`` order."""
        pairs = self.vertices[dim][:, list(itertools.combinations(range(dim + 1), 2))]
        at = self.offsets[1]
        return self.names[at:at + len(self.vertices[1])].searchsorted(_names(pairs, self.n_points))

    @cached_property
    def blocks(self) -> list:
        """(k, slice) of the k-vertex simplices, k >= 2, among the padded rows
        past the vertices: the size blocks of the circumsphere kernel."""
        ends, at = [*self.offsets.values(), len(self)], self.n_points
        return [(k, slice(ends[k - 1] - at, ends[k] - at)) for k in range(2, len(ends))]

    @cached_property
    def size_edges(self) -> dict:
        """k -> ``edge_rows`` of the k-vertex simplices, k >= 3, kept for the
        degenerate mask (``geometry._degenerate``) of every cloud on the
        skeleton."""
        return {dim + 1: self.edge_rows(dim) for dim in range(2, len(self.vertices))}

    @cached_property
    def attach(self) -> tuple:
        """(global index of a simplex, far vertex of a cofacet), over every
        dimension at once, by cofacet dimension and row: the attachment rule
        tests a simplex against the vertex of each cofacet off it."""
        index, far = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        for dim in range(2, len(self.vertices)):
            index.append(self.offsets[dim - 1] + self.facets[dim].ravel())
            far.append(self.vertices[dim][:, ::-1].ravel())
        return np.concatenate(index), np.concatenate(far)

    @cached_property
    def across(self) -> tuple:
        """(tetrahedron, far vertex of a neighbour across a shared triangle),
        sorted: the pairs of the local Delaunay check, read off ``cofaces``."""
        if 3 not in self.facets:
            none = np.zeros(0, dtype=int)
            return none, none
        tets = self.vertices[3]
        shared = np.flatnonzero(self.cofaces[:, 1] < len(tets))
        sides = self.cofaces.take(shared, axis=0)
        # a tetrahedron's far vertex is its vertex sum less the triangle's
        triangle = self.vertices[2].take(shared, axis=0).sum(axis=1, dtype=tets.dtype)
        far = tets.sum(axis=1, dtype=tets.dtype).take(sides) - triangle[:, None]
        # the pairs as the integers t M + p, which sort like them
        pairs = np.sort(sides.ravel() * self.n_points + far[:, ::-1].ravel())
        t_idx, p = np.divmod(pairs, self.n_points)
        return t_idx, p.astype(tets.dtype)

    @cached_property
    def cofaces(self) -> np.ndarray:
        """The rows of the two tetrahedra on either side of each triangle of a
        triangulation, (T, 2), where ``len(vertices[3])`` is the outside."""
        triangles = self.facets[3].ravel()
        out = np.full((len(self.vertices[2]), 2), len(self.vertices[3]))
        by_triangle = _stable_argsort(triangles)  # a triangle's tetrahedra, adjacent
        sides = triangles[by_triangle]
        second = np.zeros(len(sides), dtype=np.intp)
        second[1:] = sides[1:] == sides[:-1]
        out[sides, second] = by_triangle // 4
        return out

    @cached_property
    def faces(self) -> tuple:
        """Alpha birth candidates (coface, face, first of each face), grouped by
        simplex: itself, then its tetrahedra, then its triangles (the order in
        which a tie is won), each in row order."""
        offsets, total = self.offsets, len(self)
        cofaces, faces = [np.arange(total)], [np.arange(total)]
        for dim in range(len(self.vertices) - 1, 1, -1):
            rows = self.facets[dim]
            cofaces.append(offsets[dim] + np.repeat(np.arange(len(rows)), dim + 1))
            faces.append(offsets[dim - 1] + rows.ravel())
            if dim == 3:
                cofaces.append(offsets[3] + np.repeat(np.arange(len(rows)), 6))
                faces.append(offsets[1] + self.edge_rows(3).ravel())
        grouped = _stable_argsort(np.concatenate(faces))
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
    return Skeleton(n, vertices, facets, offsets)


# --- exact predicates -----------------------------------------------------------

def _as_ints(points):
    """The points as integers under one common power-of-two scale.

    Floats are dyadic rationals n / 2^e; a positive common scale keeps signs.
    """
    ratios = [float(x).as_integer_ratio() for p in points for x in p]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    return [ints[i:i + 3] for i in range(0, len(ints), 3)]


def _orient3d_terms(ax, bx, cx, ay, by, cy, az, bz, cz):
    """det [a; b; c] of three difference rows and its permanent, evaluated as
    in Shewchuk's orient3d; the arguments are floats, equal-shape arrays or
    Python ints, which make both exact."""
    bxcy, cxby = bx * cy, cx * by
    cxay, axcy = cx * ay, ax * cy
    axby, bxay = ax * by, bx * ay
    det = az * (bxcy - cxby) + bz * (cxay - axcy) + cz * (axby - bxay)
    permanent = (
        (abs(bxcy) + abs(cxby)) * abs(az)
        + (abs(cxay) + abs(axcy)) * abs(bz)
        + (abs(axby) + abs(bxay)) * abs(cz)
    )
    return det, permanent


def _insphere_terms(aex, bex, cex, dex, aey, bey, cey, dey, aez, bez, cez, dez):
    """det [a, |a|^2; b, |b|^2; c, |c|^2; d, |d|^2] of four difference rows
    and its permanent, evaluated as in Shewchuk's insphere; the arguments are
    floats, equal-shape arrays or Python ints, which make both exact."""
    aexbey, bexaey = aex * bey, bex * aey
    bexcey, cexbey = bex * cey, cex * bey
    cexdey, dexcey = cex * dey, dex * cey
    dexaey, aexdey = dex * aey, aex * dey
    aexcey, cexaey = aex * cey, cex * aey
    bexdey, dexbey = bex * dey, dex * bey
    ab, bc, cd = aexbey - bexaey, bexcey - cexbey, cexdey - dexcey
    da, ac, bd = dexaey - aexdey, aexcey - cexaey, bexdey - dexbey
    abc = aez * bc - bez * ac + cez * ab
    bcd = bez * cd - cez * bd + dez * bc
    cda = cez * da + dez * ac + aez * cd
    dab = dez * ab + aez * bd + bez * da
    alift = aex * aex + aey * aey + aez * aez
    blift = bex * bex + bey * bey + bez * bez
    clift = cex * cex + cey * cey + cez * cez
    dlift = dex * dex + dey * dey + dez * dez
    det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
    # the permanent: the same sums over the magnitudes of the products
    aezp, bezp, cezp, dezp = abs(aez), abs(bez), abs(cez), abs(dez)
    abp, bcp = abs(aexbey) + abs(bexaey), abs(bexcey) + abs(cexbey)
    cdp, dap = abs(cexdey) + abs(dexcey), abs(dexaey) + abs(aexdey)
    acp, bdp = abs(aexcey) + abs(cexaey), abs(bexdey) + abs(dexbey)
    permanent = (
        (cdp * bezp + bdp * cezp + bcp * dezp) * alift
        + (dap * cezp + acp * dezp + cdp * aezp) * blift
        + (abp * dezp + bdp * aezp + dap * bezp) * clift
        + (bcp * aezp + acp * bezp + abp * cezp) * dlift
    )
    return det, permanent


def orient3d_exact(a, b, c, d):
    """Sign of det[b-a; c-a; d-a], computed in exact integer arithmetic."""
    a, *rest = _as_ints((a, b, c, d))
    det = _orient3d_terms(*[q[k] - a[k] for k in range(3) for q in rest])[0]
    return (det > 0) - (det < 0)


def insphere_exact(a, b, c, d, p):
    """Exact in-sphere test of p against the circumsphere of tetra (a,b,c,d).

    Returns +1 when p is strictly inside, -1 when strictly outside, 0 when
    cospherical. With rows (vertex - p, |vertex - p|^2) the determinant of a
    positively oriented tetrahedron is negative for interior p.
    """
    *tet, p = _as_ints((a, b, c, d, p))
    rel = [q[k] - p[k] for k in range(3) for q in tet]  # aex, bex, cex, dex, aey, ...
    orient = _orient3d_terms(*[rel[i + j] - rel[i] for i in (0, 4, 8) for j in (1, 2, 3)])[0]
    if orient == 0:
        raise DegenerateInput("flat tetrahedron in in-sphere test")
    val = -_insphere_terms(*rel)[0] * orient
    return (val > 0) - (val < 0)


def _fine(pts) -> np.ndarray:
    """Per point: whether every coordinate is 0 or at least ``_TINY`` in
    magnitude, as the stage-A bounds need."""
    return ((pts == 0.0) | (np.abs(pts) >= _TINY)).all(axis=1)


def _certain(det, bound, fine, *rows):
    """Where |det| exceeds ``bound`` (never for NaN) and every point of the
    row, given by (P, k) index arrays into ``fine``, is fine."""
    certain = np.abs(det) > bound
    if not fine.all():
        for idx in rows:
            certain &= fine[idx].all(axis=1)
    return certain


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows are decided exactly
def _orient_filter(pts, tets):
    """(det [b-a; c-a; d-a], certain) per tetrahedron (a, b, c, d) of the
    (T, 4) rows ``tets`` into ``pts``: the float determinant has the exact
    sign where certain."""
    corners = np.take(pts.T, tets.T, axis=1)  # (3, 4, T)
    det, permanent = _orient3d_terms(*(corners[:, 1:] - corners[:, :1]).reshape(9, -1))
    return det, _certain(det, _O3D_BOUND * permanent, _fine(pts), tets)


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows are decided exactly
def _insphere_filter(pts, tets, far):
    """(lifted determinant, certain) per tetrahedron of the (P, 4) rows
    ``tets`` into ``pts`` and point ``far`` (P,), with rows (vertex - point,
    |vertex - point|^2): the float determinant has the exact sign where
    certain."""
    rel = np.take(pts.T, tets.T, axis=1) - np.take(pts.T, far, axis=1)[:, None]  # (3, 4, P)
    det, permanent = _insphere_terms(*rel.reshape(12, -1))
    return det, _certain(det, _ISP_BOUND * permanent, _fine(pts), tets, far[:, None])


def _orient_signs(pts, tets) -> np.ndarray:
    """Orientation sign of each tetrahedron of the (T, 4) rows ``tets`` into
    ``pts``: certified in floats by the stage-A bound, otherwise computed
    exactly; 0 marks an exactly flat tetrahedron."""
    if len(tets) == 1:
        # one tetrahedron (a 4-point cloud): Python floats round like numpy's
        # elementwise ops, without their per-call overhead
        a, *rest = corners = pts[tets[0]].tolist()
        det, permanent = _orient3d_terms(*[q[k] - a[k] for k in range(3) for q in rest])
        if abs(det) > _O3D_BOUND * permanent and all(
            x == 0.0 or abs(x) >= _TINY for q in corners for x in q
        ):
            return np.array([1.0 if det > 0 else -1.0])
        return np.array([float(orient3d_exact(*corners))])
    det, certain = _orient_filter(pts, tets)
    signs = np.sign(det)
    for t in np.flatnonzero(~certain):
        signs[t] = orient3d_exact(*pts[tets[t]])
    return signs


def _verify_empty(pts, skeleton: Skeleton):
    """Check the triangulation is Delaunay; exact where the float filters
    cannot certify a sign.

    Every point must be a vertex: Qhull sets duplicate and near-duplicate
    points aside. By the local Delaunay lemma it then suffices that, across
    every shared triangle, each tetrahedron's circumsphere excludes the far
    vertex of its neighbour. An exactly cospherical 5-tuple spans a Delaunay
    cell with at least 5 vertices, and every tetrahedron inside that cell has
    a neighbour in it whose far vertex lies on the sphere.
    """
    top = skeleton.tetrahedra
    missing = np.flatnonzero(np.bincount(top.ravel(), minlength=pts.shape[0]) == 0)
    if missing.size:
        p = int(missing[0])
        raise GeneralPositionViolation(
            f"point {p} is not a Delaunay vertex (it duplicates a point, "
            "or is cospherical beyond float resolution)",
            (p,),
        )
    orient_sign = _orient_signs(pts, top)
    flat = np.flatnonzero(orient_sign == 0)
    if flat.size:
        tet = tuple(top[flat[0]].tolist())
        raise GeneralPositionViolation(f"degenerate (coplanar) Delaunay tetrahedron {tet}", tet)
    t_idx, far = skeleton.across
    det, certain = _insphere_filter(pts, top[t_idx], far)
    for i in np.flatnonzero(~certain | (det * orient_sign[t_idx] < 0)):
        tet, p = tuple(top[t_idx[i]].tolist()), int(far[i])
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


def delaunay3(config: Configuration, previous: Skeleton | None = None) -> Skeleton:
    """Delaunay triangulation of the cloud, verified empty-circumsphere exact,
    as the skeleton of its simplices.

    M = 1, 2, 3 clouds yield the trivial complex of the points themselves
    (vertex / edge / triangle), unless ``circumspheres`` finds it degenerate.
    M >= 4 requires non-coplanar points. When the tetrahedra equal those of
    ``previous`` (the skeleton of a nearby cloud), the result is ``previous``;
    four points have the one tetrahedron of any 4-point ``previous``.
    Qhull, the checks and the verification read the ``Configuration.frame``.
    """
    pts, m = config.frame[1], config.n_points
    if m <= 4:
        # the Delaunay complex of at most four points in general position is their simplex
        top = np.arange(m)[None]
        if m == 4 and _orient_signs(pts, top)[0] == 0:
            raise DegenerateInput("four coplanar points")
        if m == 4 and previous is not None and previous.n_points == 4:
            return previous  # the one tetrahedron of four points, as in any 4-point skeleton
        if 1 < m < 4 and circumspheres(pts[None])[3][0]:
            raise DegenerateInput(_DEGENERATE[m])
    else:
        from scipy.spatial import Delaunay, QhullError
        try:
            tri = Delaunay(pts)
        except QhullError as exc:
            raise DegenerateInput(
                f"triangulation failed: coplanar or degenerate input ({exc})"
            )
        # the distinct sorted tetrahedra, in row order, which is name order
        rows = np.sort(tri.simplices, axis=1)
        order, new = _distinct(_names(rows, m))
        top = rows.take(order[new], axis=0)
    skeleton = previous
    if skeleton is None or skeleton.n_points != m or not np.array_equal(
        skeleton.vertices[top.shape[1] - 1], top
    ):
        skeleton = _skeleton(top, m)
    if m > 4:
        _verify_empty(pts, skeleton)
    return skeleton


def attaching_flags(points, skeleton: Skeleton, centers, radii) -> np.ndarray:
    """Which simplices of the Delaunay ``skeleton`` of ``points`` are
    attaching, by global index, from the smallest circumsphere of each
    simplex, in one pass over the cofacet tests of ``skeleton.attach``. A
    simplex attaches iff its sphere contains no cloud point; for a Delaunay
    simplex it suffices to test the vertices of its cofacets (Edelsbrunner &
    Mücke, Three-dimensional alpha shapes, 1994), so vertices and tetrahedra
    always attach.
    """
    g, far = skeleton.attach
    flags = np.ones(len(radii), dtype=bool)
    flags[g[_row_norms(points.take(far, 0) - centers.take(g, 0)) < radii[g]]] = False
    return flags
