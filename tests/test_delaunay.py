import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from pdcont import cli, delaunay
from pdcont.cli import apply_jitter, fibonacci_sphere
from pdcont.delaunay import (
    _insphere_filter,
    _orient_filter,
    _orient_signs,
    attaching_flags,
    delaunay3,
    insphere_exact,
    orient3d_exact,
)
from pdcont.errors import DegenerateInput, GeneralPositionViolation, NearDegenerateJacobian
from pdcont.filtration import build
from pdcont.geometry import Configuration, circumspheres
from pdcont.persistence import boundary_matrix

from helpers import (
    PROPERTY,
    across_reference,
    all_points_attaching,
    boundary_matrix_stable_reference,
    by_dim,
    circumsphere_lstsq,
    cofaces_reference,
    dump_text,
    faces_reference,
    facets_reference,
    fraction_det_exact,
    fraction_insphere_exact,
    fraction_orient3d_exact,
    grid_clouds,
    hull_volume_bruteforce,
    name_of_key,
    random_cloud,
    simplex_key,
    skeleton_keys,
    skeleton_reference,
    top_rows_reference,
    verify_empty_all_points,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)


def _cfg(pts):
    return Configuration(np.asarray(pts, dtype=float), gauge=False)


class TestDelaunay3:
    def test_four_generic_points(self):
        dc = delaunay3(_cfg([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1.0]]))
        assert len(by_dim(dc)[3]) == 1
        assert len(by_dim(dc)[2]) == 4
        assert len(by_dim(dc)[1]) == 6
        assert len(by_dim(dc)[0]) == 4

    def test_example_cloud_single_tetrahedron(self):
        dc = delaunay3(_cfg(EX1_CLOUD))
        assert by_dim(dc)[3] == ((0, 1, 2, 3),)

    def test_random_cube_empty_circumspheres(self):
        rng = np.random.RandomState(12345)
        pts = random_cloud(rng, 20)
        dc = delaunay3(_cfg(pts))
        assert len(by_dim(dc)[3]) >= 1
        for tet in by_dim(dc)[3]:
            center, radius = circumsphere_lstsq(pts[list(tet)])
            others = [i for i in range(20) if i not in tet]
            dmin = min(np.linalg.norm(pts[o] - center) for o in others)
            assert dmin >= radius - 1e-9

    def test_valid_complex_closed_under_faces(self):
        rng = np.random.RandomState(9)
        pts = random_cloud(rng, 12)
        dc = delaunay3(_cfg(pts))
        tris = set(by_dim(dc)[2])
        edges = set(by_dim(dc)[1])
        for tet in by_dim(dc)[3]:
            for face in itertools.combinations(tet, 3):
                assert face in tris
            for edge in itertools.combinations(tet, 2):
                assert edge in edges

    def test_insertion_order_invariance(self):
        rng = np.random.RandomState(77)
        pts = random_cloud(rng, 15)
        ref = None
        for trial in range(10):
            perm = rng.permutation(15)
            dc = delaunay3(_cfg(pts[perm]))
            tets = sorted(
                tuple(sorted(int(perm[v]) for v in tet)) for tet in dc.tetrahedra
            )
            if ref is None:
                ref = tets
            else:
                assert tets == ref

    def test_perturbation_invariance(self):
        rng = np.random.RandomState(31)
        pts = random_cloud(rng, 10)
        diameter = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        dc = delaunay3(_cfg(pts))
        for _ in range(5):
            moved = pts + rng.uniform(-1, 1, pts.shape) * 1e-10 * diameter
            dc2 = delaunay3(_cfg(moved))
            assert np.array_equal(dc2.tetrahedra, dc.tetrahedra)

    def test_volume_tiles_hull(self):
        rng = np.random.RandomState(55)
        for m in (8, 14, 25):
            pts = random_cloud(rng, m)
            dc = delaunay3(_cfg(pts))
            total = 0.0
            for tet in by_dim(dc)[3]:
                v = pts[list(tet)]
                total += abs(np.linalg.det(v[1:] - v[0])) / 6.0
            hull = hull_volume_bruteforce(pts)
            assert total == pytest.approx(hull, rel=1e-9)

    def test_coplanar_rejected(self):
        pts = np.random.RandomState(1).rand(6, 2)
        flat = np.column_stack([pts, np.zeros(6)])
        with pytest.raises(DegenerateInput):
            delaunay3(_cfg(flat))

    @PROPERTY
    @given(
        corner=st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
        spans=st.lists(st.integers(-50, 50), min_size=6, max_size=6),
        steps=st.lists(st.integers(-20, 20), min_size=8, max_size=8),
        power=st.integers(-60, 60),
    )
    def test_four_coplanar_points_rejected(self, corner, spans, steps, power):
        # integer points corner + i u + j v stay exactly coplanar at every power-of-two scale
        u, v = np.array(spans[:3]), np.array(spans[3:])
        pts = np.array([corner + i * u + j * v for i, j in zip(steps[::2], steps[1::2])])
        with pytest.raises(DegenerateInput, match="four coplanar points"):
            delaunay3(_cfg(np.ldexp(pts.astype(float), power)))

    @PROPERTY
    @given(
        plane=st.lists(st.integers(-1000, 1000), min_size=8, max_size=8),
        power=st.integers(-60, 60),
        side=st.sampled_from((-1.0, 1.0)),
    )
    def test_four_points_just_off_a_plane_build_the_tetrahedron(self, plane, power, side):
        pts = np.column_stack([np.array(plane, dtype=float).reshape(4, 2), np.zeros(4)])
        assume(orient3d_exact(*pts[:3], pts[0] + [0.0, 0.0, 1.0]) != 0)  # a triangle spans z = 0
        diameter = max(np.linalg.norm(p - q) for p, q in itertools.combinations(pts, 2))
        pts[3, 2] = side * 1e-15 * diameter
        dc = delaunay3(_cfg(np.ldexp(pts, power)))
        assert by_dim(dc)[3] == ((0, 1, 2, 3),)

    def test_exact_cospherical_rejected(self):
        # octahedron vertices plus two more points on the same sphere
        pts = np.array(
            [
                [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
                [0.6, 0.8, 0], [0, 0.6, 0.8],
            ],
            dtype=float,
        )
        with pytest.raises(GeneralPositionViolation):
            delaunay3(_cfg(pts))

    def test_small_clouds(self):
        dc = delaunay3(_cfg([[0.0, 0, 0]]))
        assert by_dim(dc)[0] == ((0,),)
        dc = delaunay3(_cfg([[0.0, 0, 0], [1, 0, 0]]))
        assert by_dim(dc)[1] == ((0, 1),)
        dc = delaunay3(_cfg([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        assert by_dim(dc)[2] == ((0, 1, 2),)

    @pytest.mark.parametrize("pts", [
        [[1.0, 2, 3], [1, 2, 3]],  # coincident
        [[0.0, 0, 0], [1, 2, 3], [-2, -4, -6]],  # collinear
    ])
    def test_degenerate_small_clouds_rejected(self, pts):
        with pytest.raises(DegenerateInput):
            delaunay3(_cfg(pts))

    def test_dump_text(self):
        dc = delaunay3(_cfg(EX1_CLOUD))
        text = dump_text(EX1_CLOUD, dc)
        assert "0 1 2 3" in text
        assert text.startswith("# delaunay complex")


def _violation(check, *args):
    try:
        check(*args)
    except GeneralPositionViolation:
        return True
    return False


def _local_and_global(pts):
    """Whether delaunay3's local check and the all-points scan reject pts."""
    tets = sorted(simplex_key(s) for s in Delaunay(pts).simplices)
    return _violation(delaunay3, _cfg(pts)), _violation(verify_empty_all_points, pts, tets)


def _dodecahedron():
    phi = (1 + math.sqrt(5)) / 2
    pts = list(itertools.product((-1.0, 1.0), repeat=3))
    for a, b in itertools.product((-1.0, 1.0), repeat=2):
        pts += [(0.0, a / phi, b * phi), (a / phi, b * phi, 0.0), (b * phi, 0.0, a / phi)]
    return np.array(pts)


class TestVerification:
    """The check across shared triangles against the all-points scan."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 60))
    def test_random_clouds_agree(self, seed, m):
        pts = np.random.RandomState(seed).rand(m, 3)
        local, scan = _local_and_global(pts)
        assert local == scan

    # every pair is a float-filter suspect here, so the all-points scan makes
    # O(T * M) exact calls: fewer and smaller examples keep it to seconds
    @settings(PROPERTY, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 30), exponent=st.integers(6, 13))
    def test_jittered_spheres_agree(self, seed, m, exponent):
        pts = apply_jitter(fibonacci_sphere(m), seed=seed, magnitude=10.0**-exponent)
        local, scan = _local_and_global(pts)
        assert local == scan

    def test_dodecahedron(self):
        local, scan = _local_and_global(_dodecahedron())
        assert local == scan

    def test_fibonacci_sphere(self):
        local, scan = _local_and_global(fibonacci_sphere(200))
        assert local == scan

    def test_exact_cospherical_bipyramid(self):
        # two tetrahedra on one triangle; each far vertex lies exactly on the
        # other's sphere, so only the float filter's exact fallback sees it
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
        assert _local_and_global(pts) == (True, True)

    def test_integer_grid(self):
        grid = np.array(list(itertools.product(range(4), range(4), range(3))), dtype=float)
        assert _local_and_global(grid) == (True, True)

    @pytest.mark.parametrize("offset", [0.0, 1e-15])
    def test_duplicated_point_rejected(self, offset):
        pts = random_cloud(np.random.RandomState(4), 12)
        pts = np.vstack([pts, pts[5] + offset])
        with pytest.raises(GeneralPositionViolation):
            delaunay3(_cfg(pts))


class TestAcross:
    """The neighbour pairs of the verification, read off ``Skeleton.cofaces``,
    are those derived from the tetrahedra's facet rows, byte for byte and in
    the same dtypes (the far vertices follow Qhull's int32 rows)."""

    @PROPERTY
    @given(points=st.one_of(
        st.builds(lambda seed, m: np.random.RandomState(seed).rand(m, 3),
                  st.integers(0, 2**32 - 1), st.integers(4, 60)),
        grid_clouds(5, 27, exact=False),
        st.builds(lambda seed, m, exponent: apply_jitter(
            fibonacci_sphere(m), seed=seed, magnitude=10.0**-exponent),
            st.integers(0, 2**32 - 1), st.integers(5, 60), st.integers(6, 13)),
    ))
    def test_equals_the_facet_row_derivation(self, points):
        try:
            skeleton = delaunay3(_cfg(points))
        except GeneralPositionViolation:
            assume(False)  # a draw cospherical beyond float resolution
        for got, want in zip(skeleton.across, across_reference(skeleton)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_ALPHA_CLOUDS = st.one_of(
    st.builds(lambda seed, m: np.random.RandomState(seed).rand(m, 3),
              st.integers(0, 2**32 - 1), st.integers(5, 200)),
    st.builds(lambda seed, m, exponent: apply_jitter(
        fibonacci_sphere(m), seed=seed, magnitude=10.0**-exponent),
        st.integers(0, 2**32 - 1), st.integers(5, 200), st.integers(6, 13)),
    grid_clouds(5, 27, exact=False),  # many radii tie
)
_RIPS_CLOUDS = st.builds(lambda seed, m: np.random.RandomState(seed).rand(m, 3),
                         st.integers(0, 2**32 - 1), st.integers(4, 12))


class TestUniqueKeySorts:
    """A fresh skeleton's index arrays and the boundary matrix, sorted by
    numpy's default sort on distinct integer keys, against their stable-sort
    forms."""

    @PROPERTY
    @given(case=st.one_of(_ALPHA_CLOUDS.map(lambda p: ("alpha", p)),
                          _RIPS_CLOUDS.map(lambda p: ("rips", p))))
    def test_equal_to_the_stable_sort_forms(self, case):
        kind, points = case
        config = _cfg(points)
        try:
            fc = build(config, kind, 3)
        except GeneralPositionViolation:
            assume(False)  # a draw cospherical beyond float resolution
        skeleton = fc.skeleton
        top = skeleton.vertices[max(skeleton.vertices)]
        if kind == "alpha":
            _same_bytes(top, top_rows_reference(Delaunay(config.frame[1]).simplices))
        ref = skeleton_reference(top, skeleton.n_points)
        for d in skeleton.vertices:
            _same_bytes(skeleton.vertices[d], ref.vertices[d])
            if d:
                _same_bytes(skeleton.facets[d], ref.facets[d])
        for got, want in zip(skeleton.faces, faces_reference(ref), strict=True):
            _same_bytes(got, want)
        if kind == "alpha" and 3 in skeleton.vertices:  # a triangulation's
            _same_bytes(skeleton.cofaces, cofaces_reference(ref))
            for got, want in zip(skeleton.across, across_reference(ref), strict=True):
                _same_bytes(got, want)
        b, want = boundary_matrix(fc), boundary_matrix_stable_reference(fc)
        assert b.size == want.size
        for got, expected in zip(b.positions + b.facets, want.positions + want.facets, strict=True):
            _same_bytes(got, expected)
        assert (b.cofaces is None) == (want.cofaces is None)
        if b.cofaces is not None:
            _same_bytes(b.cofaces, want.cofaces)

    @pytest.mark.parametrize("seed", range(3))
    def test_facets_of_names_past_64_bits(self, seed):
        # a Delaunay complex relabelled into 60,000 points, whose names are
        # Python integers, keeps its facet rows
        rng = np.random.default_rng(seed)
        top = Delaunay(rng.uniform(0, 1, (40, 3))).simplices
        labels = np.sort(rng.choice(60_000, 40, replace=False))
        rows = np.sort(labels[top], axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        assert delaunay._names(rows, 60_000).dtype == object
        for got, want in zip(delaunay._facets(rows, 60_000), facets_reference(rows, 60_000)):
            _same_bytes(got, want)


class TestSkeletonIndex:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 60))
    def test_index_numbers_every_key(self, seed, m):
        dc = delaunay3(_cfg(random_cloud(np.random.RandomState(seed), m)))
        keys = skeleton_keys(dc)
        assert dc.names.tolist() == [name_of_key(key, m) for key in keys]
        # a name locates its simplex's global index
        assert dc.locate(dc.names).tolist() == list(range(len(keys)))
        # a name is present iff it is a simplex of the triangulation
        edges = set(by_dim(dc)[1])
        pairs = list(itertools.combinations(range(m), 2))
        found = dc.locate(np.array([name_of_key(edge, m) for edge in pairs])) >= 0
        assert found.tolist() == [edge in edges for edge in pairs]
        absent = np.array([name_of_key((m,), m), name_of_key((0, 1, 2, 3, 4), m)])
        assert dc.locate(absent).tolist() == [-1, -1]


def _flags(pts, dc, dim):
    """attaching_flags of every ``dim``-simplex, from a fresh kernel call per
    dimension."""
    pts = np.asarray(pts, dtype=float)
    centers, radii = np.zeros((len(dc), 3)), np.zeros(len(dc))
    for d, verts in dc.vertices.items():
        at = slice(dc.offsets[d], dc.offsets[d] + len(verts))
        centers[at], radii[at] = circumspheres(pts[verts])[:2] if d else (pts, 0.0)
    return attaching_flags(pts, dc, centers, radii)[dc.offsets[dim]:][:len(dc.vertices[dim])]


class TestIsAttaching:
    def test_vertices_always_attach(self):
        dc = delaunay3(_cfg(EX1_CLOUD))
        assert _flags(EX1_CLOUD, dc, 0).tolist() == [True] * 4

    def test_obtuse_triangle_longest_edge(self):
        pts = [[0, 0, 0], [4, 0, 0], [2, 0.5, 0]]
        dc = delaunay3(_cfg(pts))
        assert by_dim(dc)[1] == ((0, 1), (0, 2), (1, 2))
        # the opposite vertex lies inside the diametric ball of (0, 1)
        assert _flags(pts, dc, 1).tolist() == [False, True, True]
        assert _flags(pts, dc, 2).tolist() == [True]  # only points lie on its circumcircle

    def test_example_cloud_vs_bruteforce(self):
        pts = EX1_CLOUD
        dc = delaunay3(_cfg(pts))
        for dim in (1, 2, 3):
            for key, flag in zip(by_dim(dc)[dim], _flags(pts, dc, dim)):
                center, radius = circumsphere_lstsq(pts[list(key)])
                others = [i for i in range(4) if i not in key]
                expected = all(np.linalg.norm(pts[o] - center) >= radius for o in others)
                assert flag == expected

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_local_rule_matches_all_points_scan(self, seed, m):
        pts = random_cloud(np.random.RandomState(seed), m)
        dc = delaunay3(_cfg(pts))
        for dim in (1, 2, 3):
            for key, flag in zip(by_dim(dc)[dim], _flags(pts, dc, dim)):
                expected = all_points_attaching(pts, key)
                if expected is not None:
                    assert flag == expected, key


def _signs(pts):
    """(orientation, in-sphere) signs of the package and of the Fraction oracle.

    The in-sphere sign is None where the tetrahedron pts[:4] is flat.
    """
    out = []
    for orient, insphere in (
        (orient3d_exact, insphere_exact),
        (fraction_orient3d_exact, fraction_insphere_exact),
    ):
        try:
            sign = insphere(*pts)
        except DegenerateInput:
            sign = None
        out.append((orient(*pts[:4]), sign))
    return out


# integer points on the sphere of radius 9 about the origin
_SPHERE9 = [
    p for p in itertools.product(range(-9, 10), repeat=3) if p[0] ** 2 + p[1] ** 2 + p[2] ** 2 == 81
]


class TestExactPredicates:
    """The integer predicates against the Fraction oracle."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_points_agree(self, seed):
        pts = np.random.RandomState(seed).randn(5, 3)
        package, oracle = _signs(pts)
        assert package == oracle

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(6, 13))
    def test_jittered_sphere_points_agree(self, seed, exponent):
        rng = np.random.RandomState(seed)
        sphere = apply_jitter(fibonacci_sphere(40), seed=seed, magnitude=10.0**-exponent)
        pts = sphere[rng.choice(40, 5, replace=False)]
        package, oracle = _signs(pts)
        assert package == oracle

    @PROPERTY
    @given(
        picks=st.lists(st.integers(0, len(_SPHERE9) - 1), min_size=5, max_size=5, unique=True),
        exponent=st.integers(-60, 60),
        shift=st.tuples(*[st.integers(-1000, 1000)] * 3),
    )
    def test_exactly_cospherical(self, picks, exponent, shift):
        # dyadic scaling and an integer shift keep the points exactly cospherical
        pts = (np.array([_SPHERE9[i] for i in picks], dtype=float) + shift) * 2.0**exponent
        package, oracle = _signs(pts)
        assert package == oracle
        assert package[1] in (0, None)
        assert (package[1] is None) == (package[0] == 0)

    @PROPERTY
    @given(
        coeffs=st.tuples(*[st.integers(-5, 5)] * 3),
        xy=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=5, max_size=5),
        exponent=st.integers(-60, 60),
    )
    def test_exactly_coplanar(self, coeffs, xy, exponent):
        a, b, c = coeffs
        pts = np.array([(x, y, a * x + b * y + c) for x, y in xy], dtype=float) * 2.0**exponent
        package, oracle = _signs(pts)
        assert package == oracle == (0, None)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coordinates_from_tiny_to_huge(self, seed):
        # one call mixes coordinates from 2^-60 to 2^60
        rng = np.random.RandomState(seed)
        exponents = rng.randint(-60, 61, size=(5, 3))
        exponents.flat[rng.choice(15, 2, replace=False)] = (-60, 60)
        pts = rng.choice([-1.0, 1.0], size=(5, 3)) * rng.uniform(1.0, 2.0, size=(5, 3))
        pts = pts * 2.0**exponents
        package, oracle = _signs(pts)
        assert package == oracle

    def test_filtered_orientation_signs_are_exact(self):
        # the fourth point lies off the plane of the first three by a relative
        # 1e-15, below float resolution of the determinant
        rng = np.random.default_rng(1)
        n = 20_000
        a, b, c = rng.standard_normal((3, n, 3))
        s, t = rng.random((2, n, 1))
        normal = np.cross(b - a, c - a)
        d = a + s * (b - a) + t * (c - a) + 1e-15 * rng.standard_normal((n, 1)) * normal
        tets = np.stack([a, b, c, d], axis=1)
        rows = np.arange(4 * n).reshape(n, 4)
        assert _orient_signs(tets.reshape(-1, 3), rows).tolist() == [orient3d_exact(*tet) for tet in tets]

    def test_flat_tetrahedron_raises(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        assert orient3d_exact(*flat) == 0
        with pytest.raises(DegenerateInput):
            insphere_exact(*flat, np.array([0.0, 0.0, 1.0]))


@st.composite
def near_ties(draw):
    """Five points near a tie: integer points of the radius-9 sphere
    (cospherical), of a plane (coplanar) or of a small grid (both, often),
    each coordinate moved by a relative 2^-20 ... 2^-52 or left exact, then
    shifted by an integer vector and scaled by a power of two, also into the
    ranges where the filters' products underflow or overflow."""
    kind = draw(st.sampled_from(("sphere", "plane", "grid")))
    if kind == "sphere":
        picks = draw(st.lists(st.integers(0, len(_SPHERE9) - 1), min_size=5, max_size=5, unique=True))
        pts = np.array([_SPHERE9[i] for i in picks], dtype=float)
    elif kind == "plane":
        a, b, c = draw(st.tuples(*[st.integers(-5, 5)] * 3))
        xy = draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=5, max_size=5))
        pts = np.array([(x, y, a * x + b * y + c) for x, y in xy], dtype=float)
    else:
        pts = np.array(draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=5, max_size=5)), dtype=float)
    pts = pts + draw(st.tuples(*[st.integers(-1000, 1000)] * 3))
    bits = draw(st.one_of(st.none(), st.integers(20, 52)))
    if bits is not None:
        rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
        pts = pts * (1.0 + rng.uniform(-1.0, 1.0, pts.shape) * 2.0**-bits)
    exponent = draw(st.one_of(st.integers(-60, 60), st.integers(-240, -130), st.integers(130, 215)))
    return np.ldexp(pts, exponent)


def _lifted_sign(tet, p):
    """Sign of the lifted determinant of rows (q - p, |q - p|^2), in Fractions."""
    rows = [[Fraction(q[k]) - Fraction(p[k]) for k in range(3)] for q in tet]
    det = fraction_det_exact([r + [r[0] ** 2 + r[1] ** 2 + r[2] ** 2] for r in rows])
    return (det > 0) - (det < 0)


class TestFloatFilters:
    """The stage-A filters certify only exact signs."""

    @PROPERTY
    @given(pts=near_ties())
    def test_certified_signs_match_the_fraction_oracle(self, pts):
        # each point against the tetrahedron of the other four
        rows = np.array([[j for j in range(5) if j != i] for i in range(5)])
        tets = pts[rows]
        orient = [fraction_orient3d_exact(*tet) for tet in tets]
        det, certain = _orient_filter(pts, rows)
        for d, ok, sign in zip(det, certain, orient):
            if ok:
                assert np.sign(d) == sign
        assert _orient_signs(pts, rows).tolist() == orient
        assert [_orient_signs(pts, row[None])[0] for row in rows] == orient
        det, certain = _insphere_filter(pts, rows, np.arange(5))
        for tet, p, d, ok, sign in zip(tets, pts, det, certain, orient):
            if ok and sign:
                # a positively oriented tetrahedron's determinant is negative inside
                assert -np.sign(d) * sign == fraction_insphere_exact(*tet, p)
            elif ok:
                assert np.sign(d) == _lifted_sign(tet, p)

    def test_underflowing_products_are_decided_exactly(self):
        # bx * cy and cx * by underflow to 3 and 2 units of 2^-1074, so the
        # float determinant is positive and far above its stage-A bound,
        # while the exact one is negative
        t = 2.0**-537
        pts = np.array([[0, 0, 0], [0, 1, 2.0**600], [t, 2.4 * t, -(2.0**62)], [t, 2.6 * t, 0]])
        rows = np.array([[0, 1, 2, 3]])
        det, certain = _orient_filter(pts, rows)
        assert det[0] > 0 and not certain[0]
        assert fraction_orient3d_exact(*pts) == -1
        assert _orient_signs(pts, rows).tolist() == [-1.0]

    @pytest.mark.parametrize("n", [5, 6])
    def test_shell_examples_verify_without_exact_insphere_calls(self, monkeypatch, n):
        calls = []

        def counted(*args):
            calls.append(args)
            return insphere_exact(*args)

        monkeypatch.setattr(delaunay, "insphere_exact", counted)
        with warnings.catch_warnings():
            # example 5's tie warning is the acceptance tests' concern
            warnings.simplefilter("ignore", NearDegenerateJacobian)
            trace, ok, _ = cli._run_example(n, None)
        assert ok and trace.steps
        assert calls == []
