"""Independent oracles and utilities shared by the test modules.

Everything here deliberately avoids the library's own computation paths:
brute-force searches, exhaustive enumeration, finite differences, GF(2) rank
computations on bitsets, exact rational reduction and predicates, the
all-dimension bitset reduction and per-pair diagram extraction that the
package used to run, dense all-pairs distances, a dense block-graph
bottleneck search, and hand-rolled hull volumes; and, as bitwise oracles,
the circumsphere kernel, the per-dimension alpha build, the Jacobi SVD and
the attaching gradients as they stood before their per-call overhead was
trimmed, and the skeleton's neighbour pairs as derived before they were read
off its cofaces.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from pdcont.delaunay import delaunay3, insphere_exact, orient3d_exact
from pdcont.errors import DegenerateInput, GeneralPositionViolation
from pdcont.filtration import Circumspheres, FilteredComplex, FiltEntry, build
from pdcont.geometry import _DEGENERATE, Configuration, _free_columns, radius_gradients
from pdcont.metrics import _diag_gap, _split
from pdcont.persistence import (
    BoundaryMatrix, EssentialClass, FinitePair, PersistenceData, boundary_matrix, persistence_data,
    reduce_boundary,
)

# property tests draw the same examples on every run and keep no database
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_GRID = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)


@st.composite
def grid_clouds(draw, min_size, max_size, exact=True):
    """Distinct points of the 3 x 3 x 3 integer grid, where many distances tie
    exactly; moved by up to 1e-6 per coordinate unless ``exact`` allows and
    draws the exact grid."""
    row = st.integers(0, len(_GRID) - 1)
    points = _GRID[draw(st.lists(row, min_size=min_size, max_size=max_size, unique=True))]
    if exact and draw(st.booleans()):
        return points
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    return points + rng.uniform(-1e-6, 1e-6, points.shape)


def circumspheres_reference(simplices, rel_tol: float = 1e-12):
    """The circumsphere kernel as it stood before its degenerate test, weights
    and cross product were trimmed, kept as a bitwise oracle.

    Smallest circumspheres of a stack of 2-, 3- or 4-point simplices.

    ``simplices`` has shape (S, k, 3). The center lies in the affine span of
    the vertices: with e_j = p_j - p_0 it is p_0 + sum_j a_j e_j, where the
    Gram system (e_i . e_j) a = |e_i|^2 / 2 fixes a. Returns the centers
    (S, 3), the radii (S,), the barycentric weights (S, k) of the centers and
    a degenerate mask (S,): the simplex's content (length, twice the area or
    six times the volume) is at most ``rel_tol`` times its diameter to the
    power k - 1. The radius gradient is dR/dp_i = w_i (p_i - c) / R.
    """
    pts = np.asarray(simplices, dtype=float)
    k = pts.shape[1]
    if k not in _DEGENERATE:
        raise ValueError(f"circumsphere defined for 2..4 vertices, got {k}")
    rel = pts[:, 1:] - pts[:, :1]
    gram = np.einsum("sid,sjd->sij", rel, rel)
    rhs = 0.5 * np.einsum("sij,sij->si", rel, rel)
    try:
        coeff = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # sliver simplices can make a Gram matrix exactly singular
        coeff = np.stack(
            [np.linalg.lstsq(g, r, rcond=None)[0] for g, r in zip(gram, rhs)]
        )
    centers = pts[:, 0] + np.einsum("sji,sj->si", rel, coeff)
    radii = _row_norms_reference(centers - pts[:, 0])
    weights = np.concatenate([1.0 - coeff.sum(axis=1, keepdims=True), coeff], axis=1)
    if k == 2:
        content = _row_norms_reference(rel[:, 0])
    elif k == 3:
        (a0, a1, a2), (b0, b1, b2) = rel[:, 0].T, rel[:, 1].T
        cross = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)
        content = _row_norms_reference(cross)
    else:
        content = np.abs(np.linalg.det(rel))
    diff = pts[:, :, None] - pts[:, None, :]
    diameter = np.sqrt(np.einsum("sijk,sijk->sij", diff, diff).max(axis=(1, 2)))
    degenerate = content <= rel_tol * diameter ** (k - 1)
    return centers, radii, weights, degenerate


def _row_norms_reference(x):
    return np.sqrt(np.add.reduce(x * x, axis=1))


def jacobi_reference(a, eps=1e-15, sweeps=60):
    """The one-sided Jacobi SVD of a tall matrix as it stood before U and V
    shared one block, kept as a bitwise oracle: U, V rotate separately and
    every pair recomputes its three dot products."""
    u = np.array(a, dtype=float)
    q = u.shape[1]
    v = np.eye(q)
    for _ in range(sweeps):
        rotated = False
        for i in range(q - 1):
            for j in range(i + 1, q):
                x, y = u[:, i], u[:, j]
                alpha = float(x @ x)
                beta = float(y @ y)
                gamma = float(x @ y)
                if gamma == 0.0 or abs(gamma) <= eps * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                ui, uj = u[:, i].copy(), u[:, j].copy()
                u[:, i] = c * ui - s * uj
                u[:, j] = s * ui + c * uj
                vi, vj = v[:, i].copy(), v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
        if not rotated:
            break
    norms = np.linalg.norm(u, axis=0)
    order = np.argsort(-norms)
    norms = norms[order]
    u = u[:, order]
    v = v[:, order]
    nonzero = norms > 0
    u[:, nonzero] = u[:, nonzero] / norms[nonzero]
    return u, norms, v


def attaching_gradients_reference(fc, simplices):
    """The attaching gradient rows and norms as computed before one pass
    gathered every dimension, kept as a bitwise oracle: the simplices are
    grouped by dimension and each group reads its own rows of the kept
    circumspheres."""
    config, skeleton, pts = fc.config, fc.skeleton, fc.config.points
    cols = _free_columns(config.n_points, config.gauge)
    rows, norms = np.zeros((len(simplices), config.free_dim + 1)), np.zeros(len(simplices))
    starts, by_dim = list(skeleton.offsets.values()), {}
    for r, g in enumerate(simplices):
        by_dim.setdefault(bisect.bisect_right(starts, g) - 1, []).append(r)
    by_dim.pop(0, None)  # vertices are born at radius zero
    simplices = np.asarray(simplices, dtype=int)
    for dim, idx in by_dim.items():
        idx = np.array(idx)
        g = simplices[idx]
        verts = skeleton.vertices[dim][g - skeleton.offsets[dim]]
        if fc.kind == "rips":
            unit = (pts[verts[:, 0]] - pts[verts[:, 1]]) / (4.0 * fc.birth[g])[:, None]
            grads = np.stack([unit, -unit], axis=1)
        else:
            s = fc.spheres
            grads = radius_gradients(
                pts[verts], s.centers[g], s.radii[g], s.weights[g, :dim + 1], s.degenerate[g]
            )
        norms[idx] = np.sqrt(np.einsum("sij,sij->s", grads, grads))
        rows[idx[:, None, None], cols[verts]] = grads
    return rows[:, :-1], norms


def betti_numbers(config, kind, up_to_dim=2):
    """Betti numbers of the saturated complex (essential-class counts)."""
    fc = build(config, kind, max_dim=up_to_dim + 1)
    red = reduce_boundary(boundary_matrix(fc))
    return tuple(len(persistence_data(red, fc, dim, 0.0).essential) for dim in range(up_to_dim + 1))


def filtration_csv(fc):
    """The filtration's entries as CSV: dimension, vertices, birth radius and
    attaching vertices."""
    lines = ["dim,vertices,birth_radius,attaching_vertices\n"]
    for e in fc.entries:
        lines.append(f"{e.dim},{' '.join(map(str, e.key))},{e.radius:.9g},{' '.join(map(str, e.attaching))}\n")
    return "".join(lines)


def diag_distance(diagram):
    """Distance of the closest finite diagram point to the diagonal; a
    malformed pair, or no finite pair, raises ValueError."""
    finite, _ = _split(diagram)
    if not finite:
        raise ValueError("diagram has no finite pairs")
    return min(_diag_gap(p) for p in finite)


def across_reference(skeleton):
    """``Skeleton.across`` from the tetrahedra's facet rows, by a sort of its
    own over the triangles: (tetrahedron, far vertex of a neighbour across a
    shared triangle), sorted, with the far vertices in the dtype of the
    tetrahedra's rows."""
    if 3 not in skeleton.facets:
        none = np.zeros(0, dtype=int)
        return none, none
    tri, far = skeleton.facets[3].ravel(), skeleton.vertices[3][:, ::-1].ravel()
    tet = np.repeat(np.arange(len(skeleton.vertices[3])), 4)
    by_tri = np.argsort(tri, kind="stable")
    shared = tri[by_tri[1:]] == tri[by_tri[:-1]]
    a, b = by_tri[:-1][shared], by_tri[1:][shared]
    t_idx, p = np.concatenate([tet[a], tet[b]]), np.concatenate([far[b], far[a]])
    order = np.lexsort((p, t_idx))
    return t_idx[order], p[order]


def skeleton_keys(skeleton):
    """Every simplex's vertex tuple in global order, as ``Skeleton.keys``
    held them before simplices were named by integers."""
    return tuple(key for d in sorted(skeleton.vertices) for key in map(tuple, skeleton.vertices[d].tolist()))


def by_dim(skeleton):
    """dimension -> the vertex tuples of its simplices, as ``Skeleton.by_dim``
    held them."""
    return {d: tuple(map(tuple, v.tolist())) for d, v in sorted(skeleton.vertices.items())}


def skeleton_index(skeleton):
    """Vertex tuple -> global index, as ``Skeleton.index`` held it."""
    return {key: i for i, key in enumerate(skeleton_keys(skeleton))}


def filtration_keys(fc):
    """The vertex tuples in filtration order, as ``FilteredComplex.keys`` held them."""
    keys = skeleton_keys(fc.skeleton)
    return tuple(keys[i] for i in fc.order.tolist())


def key_of_name(name, n):
    """The vertex tuple of the simplex of an ``n``-point cloud with the integer
    ``name``, decoded independently of the package: the names of the
    k-vertex simplices follow the n + n^2 + ... + n^(k-1) smaller ones."""
    k = 1
    while name >= n**k:
        name -= n**k
        k += 1
    return tuple((name // n**(k - 1 - j)) % n for j in range(k))


def name_of_key(key, n):
    """The integer name of the vertex tuple ``key`` (``key_of_name`` inverted)."""
    return sum(n**j for j in range(1, len(key))) + sum(v * n**(len(key) - 1 - j) for j, v in enumerate(key))


# --- the tie bookkeeping on vertex tuples ----------------------------------------
# As it stood before simplices were named by integers: the sorted (radius,
# key) tuple and its bisect window, the near-tie loop and the tie-row loop,
# kept as oracles for the array paths. They take and return vertex tuples
# (``key_of_name`` translates the package's names).

def attaching_radii_reference(fc):
    """(radius, key) of every attaching simplex of dimension >= 1, sorted."""
    keys = skeleton_keys(fc.skeleton)
    at = np.flatnonzero(fc.realizer == np.arange(len(keys)))
    at = at[at >= fc.skeleton.offsets.get(1, len(keys))].tolist()
    return tuple(sorted(zip(fc.birth[at].tolist(), map(keys.__getitem__, at))))


def attaching_within_reference(fc, radius, tol):
    """The (radius, key) entries of ``attaching_radii_reference`` within ``tol`` of ``radius``."""
    attaching = attaching_radii_reference(fc)
    lo = bisect.bisect_left(attaching, (radius - tol, ()))  # () precedes every key
    hi = bisect.bisect_right(attaching, (radius + tol, (math.inf,)))  # and (inf,) follows
    return attaching[lo:hi]


def near_tie_events_reference(rows, fc, tol=1e-9):
    """The near-tie events of the Jacobian rows ``rows`` (``JacobianRow``s):
    per row whose attaching simplex is not a vertex, each other attaching
    radius within ``tol`` of its value."""
    events = []
    for info in rows:
        key = key_of_name(info.attaching_key, fc.config.n_points)
        if len(key) == 1:
            continue
        for r, other in attaching_within_reference(fc, info.value, tol):
            if other != key:
                events.append((key, other, info.value, r))
    return len(events)


def tie_rows_reference(flip_groups, matched, v_target, fc, window, offsets, cap=1e3):
    """The tie rows and residuals by a loop over coordinates and candidates:
    ``flip_groups`` maps a coordinate to the vertex tuples of its generators
    seen at a flip, ``offsets`` (coordinate, vertex tuple) to a radius ratio."""
    from pdcont.diffmap import _attaching_gradients

    n = fc.config.n_points
    index, birth, realizer = skeleton_index(fc.skeleton), fc.birth, fc.realizer
    generators = [key_of_name(name, n) for r in matched for name in (r.birth_key, r.death_key)]
    values = [x for r in matched for x in (r.birth, r.death)]
    simplices, res = [], []
    for c, (current, value) in enumerate(zip(generators, values)):
        candidates = set(flip_groups.get(c, ()))
        if window > 0.0:
            candidates.update(key for _, key in attaching_within_reference(fc, value, window))
        for key in sorted(candidates.difference(generators)):
            g = index.get(key)
            if g is None or len(key) != len(current):
                continue
            radius = float(birth[g])
            if (c, key) not in offsets:
                offsets[c, key] = radius / value if value else 1.0
            simplices.append(realizer[g])
            res.append(radius - v_target[c] * offsets[c, key])
    if not simplices:
        return np.zeros((0, fc.config.free_dim)), np.zeros(0)
    rows, norms = _attaching_gradients(fc, simplices)
    keep = ~(norms > cap)
    return rows[keep], np.array(res)[keep]


def build_alpha_reference(config, previous=None):
    """The alpha build as it stood before one kernel pass covered every
    dimension, kept as a bitwise oracle: one ``circumspheres_reference`` call
    and one attachment test per dimension, each dimension's cofacet tests
    read from the skeleton's facet rows."""
    pts, skeleton = config.points, delaunay3(config, previous)
    n = len(skeleton)
    spheres = Circumspheres(
        np.zeros((n, 3)), np.zeros(n), np.zeros((n, len(skeleton.vertices))), np.zeros(n, bool)
    )
    candidate = np.zeros(n)
    for dim in (1, 2, 3):
        verts = skeleton.vertices.get(dim)
        if verts is None:
            continue
        centers, radii, weights, degenerate = circumspheres_reference(pts[verts])
        at = slice(skeleton.offsets[dim], skeleton.offsets[dim] + len(verts))
        spheres.centers[at], spheres.radii[at], spheres.degenerate[at] = centers, radii, degenerate
        spheres.weights[at, :dim + 1] = weights
        flags = np.ones(len(radii), dtype=bool)
        if dim + 1 in skeleton.vertices:
            rows = skeleton.facets[dim + 1].ravel()
            far = skeleton.vertices[dim + 1][:, ::-1].ravel()
            inside = _row_norms_reference(pts[far] - centers[rows]) < radii[rows]
            flags[rows[inside]] = False
        candidate[at] = np.where(flags, radii, np.inf)
    cofaces, faces, first = skeleton.faces
    radii = candidate[cofaces]
    hits = np.flatnonzero(radii == np.minimum.reduceat(radii, first)[faces])
    best = hits[np.searchsorted(hits, first)]
    return FilteredComplex("alpha", config, skeleton, radii[best], cofaces[best], spheres)


def config_from_vector(vec, gauge: bool = True) -> Configuration:
    """The configuration whose free coordinates are ``vec``; M follows from
    its length (3M - 6 with the gauge, 3M without)."""
    vec = np.asarray(vec, dtype=float)
    if gauge:
        if (vec.size + 6) % 3 != 0 or vec.size < 3:
            raise ValueError(f"gauged vector length {vec.size} is not 3M-6")
        m = (vec.size + 6) // 3
        return Configuration(np.zeros((m, 3)), gauge=True).with_vector(vec)
    if vec.size % 3 != 0:
        raise ValueError(f"vector length {vec.size} is not 3M")
    return Configuration(vec.reshape(-1, 3), gauge=False)


def dump_text(points, skeleton) -> str:
    """Plain-text listing of a Delaunay skeleton's tetrahedra (one per line)."""
    lines = [f"# delaunay complex: {points.shape[0]} points, "
             f"{len(skeleton.tetrahedra)} tetrahedra"]
    for tet in skeleton.tetrahedra:
        corner = " ".join(
            "(" + " ".join(f"{x:.9g}" for x in points[v]) + ")" for v in tet
        )
        lines.append(f"{tet[0]} {tet[1]} {tet[2]} {tet[3]}  {corner}")
    return "\n".join(lines)


def fd_gradient(func, x0, h=1e-6):
    """Central finite-difference gradient of a vector-valued function."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(func(x0), dtype=float)
    grad = np.zeros(f0.shape + x0.shape)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[..., i] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2 * h)
    return grad


# --- the paper's circumradius formulas: lifted determinants and cofactors -------
#
# Column codes for the lifted point rows: 0 -> 1, 1..3 -> x,y,z, 4 -> |p|^2.

def _lifted(pts, codes):
    out = np.empty((pts.shape[0], len(codes)))
    for j, c in enumerate(codes):
        if c == 0:
            out[:, j] = 1.0
        elif c == 4:
            out[:, j] = np.einsum("ij,ij->i", pts, pts)
        else:
            out[:, j] = pts[:, c - 1]
    return out


def _det_grad(pts, codes):
    """Determinant of the lifted matrix and its gradient w.r.t. coordinates.

    Uses the cofactor rule d det / d a_ij = C_ij together with
    d|p|^2/dp = 2p for code-4 columns.
    """
    a = _lifted(pts, codes)
    k = len(codes)
    cof = np.array(
        [
            [(-1.0) ** (i + j) * np.linalg.det(np.delete(np.delete(a, i, 0), j, 1))
             for j in range(k)]
            for i in range(k)
        ]
    ) if k > 1 else np.ones((1, 1))
    det = float(a[0] @ cof[0])
    grad = np.zeros((k, 3))
    for j, c in enumerate(codes):
        if c == 4:
            grad += cof[:, j, None] * 2.0 * pts
        elif c != 0:
            grad[:, c - 1] += cof[:, j]
    return det, grad


def _sq_edge(pts, i, j):
    """|p_i - p_j|^2 and its gradient rows (only rows i and j are nonzero)."""
    d = pts[i] - pts[j]
    grad = np.zeros((pts.shape[0], 3))
    grad[i] = 2.0 * d
    grad[j] = -2.0 * d
    return float(d @ d), grad


def cofactor_circumradius_gradient(pts):
    """Circumradius and its gradient for 2, 3 or 4 points, by cofactors.

    The squared radius is a quotient of lifted determinants (edge lengths
    over the squared area for a triangle); differentiating those
    determinants by cofactors gives the gradient.
    """
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[0]
    if k == 2:
        val, grad = _sq_edge(pts, 0, 1)
        val, grad = val / 4.0, grad / 4.0
    elif k == 3:
        e01, g01 = _sq_edge(pts, 0, 1)
        e12, g12 = _sq_edge(pts, 1, 2)
        e20, g20 = _sq_edge(pts, 2, 0)
        num = e01 * e12 * e20
        dnum = g01 * (e12 * e20) + g12 * (e01 * e20) + g20 * (e01 * e12)
        den, dden = 0.0, np.zeros((3, 3))
        for codes in ((2, 3, 0), (1, 3, 0), (1, 2, 0)):
            m, dm = _det_grad(pts, codes)
            den += 4.0 * m * m
            dden += 8.0 * m * dm
        val, grad = num / den, (dnum * den - num * dden) / den**2
    else:
        m1230, d1230 = _det_grad(pts, (1, 2, 3, 0))
        m1234, d1234 = _det_grad(pts, (1, 2, 3, 4))
        num = 4.0 * m1230 * m1234
        dnum = 4.0 * (d1230 * m1234 + m1230 * d1234)
        for codes in ((2, 3, 4, 0), (1, 3, 4, 0), (1, 2, 4, 0)):
            m, dm = _det_grad(pts, codes)
            num += m * m
            dnum += 2.0 * m * dm
        den, dden = 4.0 * m1230 * m1230, 8.0 * m1230 * d1230
        val, grad = num / den, (dnum * den - num * dden) / den**2
    rho = math.sqrt(val)
    return rho, grad / (2.0 * rho)


def brute_min_max_radius(points, restarts=12, seed=0):
    """Smallest max-distance-to-vertices over sphere centers (Nelder-Mead)."""
    points = np.asarray(points, dtype=float)

    def cost(c):
        return np.max(np.linalg.norm(points - c, axis=1))

    rng = np.random.RandomState(seed)
    best = math.inf
    centroid = points.mean(axis=0)
    scale = np.linalg.norm(points - centroid, axis=1).max()
    for k in range(restarts):
        start = centroid if k == 0 else centroid + rng.randn(3) * 0.3 * scale
        res = minimize(
            cost, start, method="Nelder-Mead",
            options=dict(xatol=1e-13, fatol=1e-13, maxiter=20000, maxfev=20000),
        )
        best = min(best, res.fun)
    return best


def circumsphere_lstsq(points):
    """Smallest sphere through the points via the equal-distance linear system.

    Solves |c-p_i|^2 = |c-p_0|^2 for the center, then projects onto the
    solution space the point closest to p_0 (the smallest such sphere).
    """
    points = np.asarray(points, dtype=float)
    a = 2.0 * (points[1:] - points[0])
    b = np.einsum("ij,ij->i", points[1:], points[1:]) - points[0] @ points[0]
    center, *_ = np.linalg.lstsq(a, b, rcond=None)
    if len(points) < 4:
        _, s, vt = np.linalg.svd(a)
        null = vt[len(s[s > 1e-12 * s[0]]):]
        if null.size:
            t = np.linalg.lstsq(null.T, points[0] - center, rcond=None)[0]
            center = center + null.T @ t
    return center, float(np.linalg.norm(points[0] - center))


def all_points_attaching(points, key, rel_tol=1e-9):
    """Whether no cloud point lies inside the smallest circumsphere of ``key``.

    Scans every point of the cloud. Returns None when a point lies within
    ``rel_tol`` of the sphere, where rounding decides the answer.
    """
    points = np.asarray(points, dtype=float)
    center, radius = circumsphere_lstsq(points[list(key)])
    others = np.delete(points, list(key), axis=0)
    dist = np.linalg.norm(others - center, axis=1)
    if np.any(np.abs(dist - radius) <= rel_tol * radius):
        return None
    return bool(np.all(dist > radius))


def fraction_det_exact(rows):
    """Exact determinant of a small matrix of Fractions (cofactor expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * fraction_det_exact(minor)
        sign = -sign
    return total


def fraction_orient3d_exact(a, b, c, d):
    """Sign of det[b-a; c-a; d-a], computed in exact rational arithmetic."""
    rows = []
    for p in (b, c, d):
        rows.append([Fraction(p[k]) - Fraction(a[k]) for k in range(3)])
    det = fraction_det_exact(rows)
    return (det > 0) - (det < 0)


def fraction_insphere_exact(a, b, c, d, p):
    """Exact in-sphere test of p against the circumsphere of tetra (a,b,c,d).

    Returns +1 when p is strictly inside, -1 when strictly outside, 0 when
    cospherical. With rows (vertex - p, |vertex - p|^2) the determinant of a
    positively oriented tetrahedron is negative for interior p.
    """
    rows = []
    for q in (a, b, c, d):
        rel = [Fraction(q[k]) - Fraction(p[k]) for k in range(3)]
        rows.append(rel + [rel[0] ** 2 + rel[1] ** 2 + rel[2] ** 2])
    det = fraction_det_exact(rows)
    orient = fraction_orient3d_exact(a, b, c, d)
    if orient == 0:
        raise DegenerateInput("flat tetrahedron in in-sphere test")
    val = -det * orient
    return (val > 0) - (val < 0)


# The all-points scan's own float filter, independent of the package's:
# lifted determinants within this times the product of their row norms are
# decided by the exact predicate.
VERIFY_FILTER_REL = 1e-10


def verify_empty_all_points(points, tets):
    """Check every tetra circumsphere is empty; exact fallback near ties.

    The global O(T * M) scan, every tetrahedron against every other point,
    with a Hadamard-style float filter (``VERIFY_FILTER_REL``) and the
    package's exact predicates.
    """
    pts = np.asarray(points, dtype=float)
    tet_pts = pts[np.asarray(tets)]  # (T, 4, 3)
    orient = np.linalg.det(tet_pts[:, 1:] - tet_pts[:, :1])
    orient_sign = np.sign(orient)
    for t, tet in enumerate(tets):
        s = orient_sign[t]
        if s == 0:
            s = orient3d_exact(*(pts[v] for v in tet))
        if s == 0:
            raise GeneralPositionViolation(
                f"degenerate (coplanar) Delaunay tetrahedron {tet}", tet
            )
        orient_sign[t] = s
    n = pts.shape[0]
    for t, tet in enumerate(tets):
        member = np.zeros(n, dtype=bool)
        member[list(tet)] = True
        others = np.nonzero(~member)[0]
        if others.size == 0:
            continue
        # lifted rows per query point: tetra vertices relative to the query
        rel = tet_pts[t][None, :, :] - pts[others][:, None, :]  # (O, 4, 3)
        lift = np.concatenate(
            [rel, np.einsum("oij,oij->oi", rel, rel)[..., None]], axis=2
        )
        vals = -np.linalg.det(lift) * orient_sign[t]
        bounds = VERIFY_FILTER_REL * np.prod(np.linalg.norm(lift, axis=2), axis=1)
        suspect = np.abs(vals) <= bounds
        inside = vals > 0
        for o_idx in np.nonzero(suspect | inside)[0]:
            p = int(others[o_idx])
            sign = insphere_exact(*(pts[v] for v in tet), pts[p])
            if sign == 0:
                raise GeneralPositionViolation(
                    f"points {tuple(tet) + (p,)} are exactly cospherical",
                    tuple(tet) + (p,),
                )
            if sign > 0:
                raise GeneralPositionViolation(
                    f"point {p} lies inside the circumsphere of {tet} "
                    "(input is cospherical beyond float resolution)",
                    tuple(tet) + (p,),
                )


def well_shaped(points, rel=0.05):
    """No two vertices closer than ``rel`` times the diameter, and the
    simplex's content (twice the area, six times the volume) at least
    ``rel`` times the diameter to the matching power."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None] - points[None, :]
    dist = np.linalg.norm(diff, axis=2)
    diam = dist.max()
    k = len(points)
    if diam == 0.0 or dist[np.triu_indices(k, 1)].min() < rel * diam:
        return False
    rel_edges = points[1:] - points[0]
    if k == 3:
        return np.linalg.norm(np.cross(*rel_edges)) >= rel * diam**2
    if k == 4:
        return abs(np.linalg.det(rel_edges)) >= rel * diam**3
    return True


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.randn(3, 3))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def hull_volume_bruteforce(points):
    """Convex-hull volume by brute-force facet detection and fan decomposition.

    Every point triple whose plane has all points on one side is a hull facet;
    the volume is the sum of signed tetra volumes against the centroid.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    centroid = pts.mean(axis=0)
    volume = 0.0
    seen = set()
    for tri in itertools.combinations(range(m), 3):
        a, b, c = (pts[i] for i in tri)
        normal = np.cross(b - a, c - a)
        norm = np.linalg.norm(normal)
        if norm == 0:
            continue
        side = (pts - a) @ normal / norm
        tol = 1e-12 * np.abs(pts - a).max()
        if np.all(side <= tol) or np.all(side >= -tol):
            on_plane = tuple(sorted(np.nonzero(np.abs(side) <= tol)[0]))
            if on_plane in seen:
                continue  # coplanar facet already fan-decomposed once
            seen.add(on_plane)
            plane_pts = pts[list(on_plane)]
            origin = plane_pts[0]
            for u, v in itertools.combinations(range(1, len(plane_pts)), 2):
                vol = np.dot(
                    np.cross(plane_pts[u] - origin, plane_pts[v] - origin),
                    centroid - origin,
                )
                volume += abs(vol) / 6.0
    return volume


# --- the signed boundary and the standard reduction over Q ----------------------

def signed_boundary(fc):
    """Boundary columns over Q, ``{row index: Fraction(+-1)}`` with (-1)^k signs."""
    index = {key: i for i, key in enumerate(filtration_keys(fc))}
    columns = []
    for entry in fc.entries:
        col = {}
        if entry.dim > 0:
            for k in range(len(entry.key)):
                col[index[entry.key[:k] + entry.key[k + 1:]]] = Fraction(-1 if k % 2 else 1)
        columns.append(col)
    return columns


def rational_reduction(columns):
    """Standard left-to-right column reduction over Q.

    Returns (pivot pairs (i, j) sorted by j, unpaired indices ascending).
    """
    columns = [dict(c) for c in columns]
    pivot_owner = {}
    pairs = []
    for j, col in enumerate(columns):
        while col:
            piv = max(col)
            owner = pivot_owner.get(piv)
            if owner is None:
                pivot_owner[piv] = j
                pairs.append((piv, j))
                break
            other = columns[owner]
            factor = col[piv] / other[piv]
            for i, v in other.items():
                new = col.get(i, Fraction(0)) - factor * v
                if new:
                    col[i] = new
                else:
                    col.pop(i, None)
    used = {i for p in pairs for i in p}
    return tuple(pairs), tuple(i for i in range(len(columns)) if i not in used)


# --- the Rips build, boundary matrix, reduction and diagram by enumeration ------
# As they stood before they read the facet rows of a Skeleton or paired by
# union-find, kept as exact oracles, except that they take and return the
# tuple of entries and the birth radius comes from its own copy of the
# argmax-edge loop.

def rips_birth_reference(key, config):
    """Half the maximum pairwise distance of the simplex ``key`` and the first
    edge, in ``itertools.combinations`` order, that attains it."""
    if len(key) == 1:
        return 0.0, key
    pts = config.points
    best = -1.0
    best_edge = None
    for i, j in itertools.combinations(key, 2):
        d = float(np.linalg.norm(pts[i] - pts[j]))
        if d > best:
            best = d
            best_edge = (i, j)
    return best / 2.0, best_edge


def sorted_entries_reference(entries):
    entries.sort(key=lambda e: (e.radius, e.dim, e.key))
    return tuple(entries)


def build_rips_reference(config, max_dim=3):
    """Entries of the Rips filtration with all simplices up to dimension ``max_dim``."""
    m = config.n_points
    entries = []
    for k in range(1, min(max_dim + 1, m) + 1):
        for key in itertools.combinations(range(m), k):
            radius, edge = rips_birth_reference(key, config)
            attaching = edge if len(key) > 1 else key
            entries.append(FiltEntry(key, k - 1, radius, attaching))
    return sorted_entries_reference(entries)


def _enumerated_boundary(entries):
    """(rows, columns) of the filtration ``entries``: ``rows[d]`` lists the
    positions of the d-simplices, ascending, and ``columns[j]`` the ranks
    among ``rows[d - 1]`` of the facets of the simplex at position j."""
    rows = [[] for _ in range(max(e.dim for e in entries) + 1)]
    rank = {}
    for j, e in enumerate(entries):
        rank[e.key] = len(rows[e.dim])
        rows[e.dim].append(j)
    columns = tuple(
        tuple(sorted(rank[face] for face in itertools.combinations(e.key, e.dim))) if e.dim else ()
        for e in entries
    )
    return rows, columns


def boundary_matrix_reference(entries, kind):
    """Matrix of the boundary map over Z/2 of the filtration ``entries``, with
    the cofaces of each triangle of an alpha complex by enumeration, ascending."""
    rows, columns = _enumerated_boundary(entries)
    facets = tuple(
        np.array([columns[j] for j in row], dtype=np.intp).reshape(len(row), dim and dim + 1)
        for dim, row in enumerate(rows)
    )
    cofaces = None
    if kind == "alpha" and len(rows) == 4:
        sides = [[] for _ in rows[2]]
        for tet, j in enumerate(rows[3]):
            for triangle in columns[j]:
                sides[triangle].append(tet)
        outside = [len(rows[3])] * 2
        cofaces = np.array([(side + outside)[:2] for side in sides], dtype=np.intp)
    positions = tuple(np.array(row, dtype=np.intp) for row in rows)
    return BoundaryMatrix(len(entries), positions, facets, cofaces)


def bitset_reduction_reference(entries):
    """The column reduction over Z/2 with clearing of every dimension, on
    ``int`` bitsets, as the package ran it before it paired H0 and the alpha
    H2 by union-find. Returns (pivot pairs (i, j) sorted by j, unpaired
    positions ascending)."""
    rows, columns = _enumerated_boundary(entries)
    pairs = []
    cleared = set()
    for dim in range(len(rows) - 1, 0, -1):
        below = rows[dim - 1]
        owner_col = {}  # pivot rank -> reduced column that owns it
        for j in rows[dim]:
            if j in cleared:
                continue  # a pivot row is a known cycle
            col = sum(1 << r for r in columns[j])
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
    return tuple(pairs), tuple(i for i in range(len(entries)) if i not in used)


def persistence_data_reference(pairs, essentials, fc, dim, epsilon):
    """The dimension-``dim`` diagram of the pairing (``pairs``,
    ``essentials``) of ``fc``, extracted by a loop over every pair; simplices
    are named by ``name_of_key``."""
    offsets, n = fc.skeleton.offsets, fc.config.n_points
    keys = [name_of_key(key, n) for key in skeleton_keys(fc.skeleton)]
    birth, realizer, order = fc.birth.tolist(), fc.realizer.tolist(), fc.order.tolist()
    lo, hi = offsets.get(dim, len(keys)), offsets.get(dim + 1, len(keys))
    finite = []
    for i, j in pairs:
        s, t = order[i], order[j]
        if not lo <= s < hi:
            continue
        b, d = birth[s], birth[t]
        if b >= d:
            continue  # zero-length interval: trivial summand
        if (d - b) / 2.0 < epsilon:
            continue
        finite.append(
            FinitePair(b, d, keys[s], keys[t], keys[realizer[s]], keys[realizer[t]])
        )
    finite.sort(key=lambda p: (p.birth, p.death, key_of_name(p.birth_key, n)))
    essential = [
        EssentialClass(birth[order[i]], keys[order[i]], keys[realizer[order[i]]])
        for i in essentials
        if lo <= order[i] < hi
    ]
    essential.sort(key=lambda e: (e.birth, key_of_name(e.birth_key, n)))
    return PersistenceData(fc.kind, dim, epsilon, tuple(finite), tuple(essential))


# --- GF(2) rank oracle for persistence pairings ----------------------------------

def _gf2_rank(rows):
    """Rank of a GF(2) matrix whose rows are Python ints (bitmasks)."""
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def _gf2_nullspace(columns, n_rows):
    """Basis of the column nullspace: columns are bitmasks over row indices."""
    # Gaussian elimination on columns, tracking the combination applied.
    cols = list(columns)
    combos = [1 << j for j in range(len(cols))]
    pivot_of = {}
    null_basis = []
    for j in range(len(cols)):
        col = cols[j]
        combo = combos[j]
        while col:
            piv = col.bit_length() - 1
            if piv not in pivot_of:
                pivot_of[piv] = (col, combo)
                break
            pc, pcombo = pivot_of[piv]
            col ^= pc
            combo ^= pcombo
        else:
            null_basis.append(combo)
    return null_basis


def rank_function_pairs(ordered, dim):
    """Birth-death pair multiset for one dimension from the rank function.

    ``ordered``: list of (vertices tuple, radius) in filtration order.
    Ranks of the maps H(X^r -> X^s) over GF(2) determine the multiplicity of
    each (birth value, death value) box by inclusion-exclusion; essentials come
    from the ranks into the saturated complex.
    Returns (finite pair multiset, essential birth multiset) with zero-length
    pairs dropped.
    """
    index_of = {key: i for i, (key, _) in enumerate(ordered)}
    radii = [r for _, r in ordered]
    d_simplices = [i for i, (k, _) in enumerate(ordered) if len(k) == dim + 1]
    d1_simplices = [i for i, (k, _) in enumerate(ordered) if len(k) == dim + 2]

    grid = sorted(set(radii))
    g = len(grid)

    def boundary_col(j):
        key = ordered[j][0]
        if len(key) == 1:
            return 0
        col = 0
        for f in range(len(key)):
            face = key[:f] + key[f + 1:]
            col |= 1 << index_of[face]
        return col

    d_cols = {j: boundary_col(j) for j in d_simplices}
    d1_cols = {j: boundary_col(j) for j in d1_simplices}

    def z_basis_at(i):
        """Cycle basis of the dim-chains of X^grid[i], as simplex bitmasks."""
        r = grid[i]
        live = [j for j in d_simplices if radii[j] <= r]
        null = _gf2_nullspace([d_cols[j] for j in live], len(ordered))
        basis = []
        for combo in null:
            vec = 0
            b = combo
            while b:
                pos = b.bit_length() - 1
                vec |= 1 << live[pos]
                b ^= 1 << pos
            basis.append(vec)
        return basis

    z_cache = [z_basis_at(i) for i in range(g)]
    b_cache = [[d1_cols[j] for j in d1_simplices if radii[j] <= grid[i]] for i in range(g)]
    b_rank = [_gf2_rank(list(cols)) for cols in b_cache]

    cache = {}

    def rk(i, j):
        # rank of H_dim(X^grid[i]) -> H_dim(X^grid[j]):
        # dim(Z_i + B_j) - dim B_j = dim Z_i - dim(Z_i ∩ B_j)
        if (i, j) not in cache:
            z = z_cache[i]
            cache[(i, j)] = _gf2_rank(z + b_cache[j]) - b_rank[j] if z else 0
        return cache[(i, j)]

    pairs = []
    essentials = []
    for i in range(g):
        for j in range(i + 1, g):
            mult = rk(i, j - 1) - rk(i, j) - (rk(i - 1, j - 1) - rk(i - 1, j) if i else 0)
            for _ in range(mult):
                pairs.append((grid[i], grid[j]))
        ess = rk(i, g - 1) - (rk(i - 1, g - 1) if i else 0)
        for _ in range(ess):
            essentials.append(grid[i])
    return sorted(pairs), sorted(essentials)


def exhaustive_matching_bottleneck(d1, d2):
    """Minimum over all bijections (with diagonal) of the max sup-norm move."""
    fin1 = [(b, d) for b, d in d1 if not math.isinf(d)]
    fin2 = [(b, d) for b, d in d2 if not math.isinf(d)]

    def dist(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def gap(p):
        return (p[1] - p[0]) / 2

    best = math.inf
    n2 = len(fin2)
    for k in range(min(len(fin1), n2) + 1):
        for sub1 in itertools.combinations(range(len(fin1)), k):
            rest1 = [i for i in range(len(fin1)) if i not in sub1]
            for sub2 in itertools.permutations(range(n2), k):
                cost = 0.0
                for a, b in zip(sub1, sub2):
                    cost = max(cost, dist(fin1[a], fin2[b]))
                for a in rest1:
                    cost = max(cost, gap(fin1[a]))
                used = set(sub2)
                for b in range(n2):
                    if b not in used:
                        cost = max(cost, gap(fin2[b]))
                best = min(best, cost)
    return best


def dense_block_bottleneck(d1, d2):
    """Bottleneck distance of the finite parts by a plain binary search over
    every candidate distance, each step a maximum matching on the dense
    diagonal-augmented block graph whose diagonal-diagonal block is complete."""
    fin1 = [(b, d) for b, d in d1 if not math.isinf(d)]
    fin2 = [(b, d) for b, d in d2 if not math.isinf(d)]
    if not fin1 and not fin2:
        return 0.0
    a = np.array(fin1, dtype=float).reshape(-1, 2)
    b = np.array(fin2, dtype=float).reshape(-1, 2)
    dist = np.abs(a[:, None] - b[None]).max(axis=2)
    gap_a, gap_b = (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0
    values = np.unique(np.concatenate([dist.ravel(), gap_a, gap_b, [0.0]]))
    # rows: the points of a, then a diagonal slot per point of b; columns:
    # the points of b, then a diagonal slot per point of a
    slots = np.ones((len(b), len(a)), dtype=bool)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        r = values[mid]
        graph = np.block([
            [dist <= r, np.repeat(gap_a[:, None] <= r, len(a), axis=1)],
            [np.diag(gap_b <= r), slots],
        ])
        if (maximum_bipartite_matching(csr_matrix(graph), perm_type="column") >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def dense_hausdorff(points_a, points_b):
    """Hausdorff distance from the full matrix of pairwise distances."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def random_cloud(rng, m, scale=1.0):
    """Random general-position-ish cloud (rejection on tiny distances)."""
    while True:
        pts = rng.rand(m, 3) * scale
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() > 1e-3 * scale:
            return pts


def random_acute_triangle(rng, scale=1.0):
    while True:
        pts = rng.rand(3, 3) * scale
        sq = [
            float((pts[i] - pts[j]) @ (pts[i] - pts[j]))
            for i, j in ((0, 1), (1, 2), (2, 0))
        ]
        s = sorted(sq)
        if s[0] + s[1] > s[2] * 1.001 and s[0] > 1e-4:
            return pts
