import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdcont.errors import DegenerateSimplex, GaugeViolation
from pdcont.filtration import build_alpha, build_rips
from pdcont.geometry import (
    Configuration,
    _circumspheres,
    check_general_position,
    circumradius,
    circumradius_gradient,
    circumspheres,
    rips_birth_radius,
    to_gauge_frame,
)

from helpers import (
    PROPERTY,
    brute_min_max_radius,
    circumsphere_lstsq,
    circumspheres_reference,
    cofactor_circumradius_gradient,
    config_from_vector,
    fd_gradient,
    random_cloud,
    random_rotation,
    well_shaped,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)


class TestPacking:
    def test_m3_layout(self):
        config = Configuration([[0, 0, 0], [1, 0, 0], [0.5, 0.5, 0]])
        assert config.free_dim == 3
        np.testing.assert_array_equal(config.pack(), [1.0, 0.5, 0.5])

    def test_round_trip_exact(self):
        rng = np.random.RandomState(7)
        for _ in range(20):
            m = rng.randint(3, 9)
            vec = rng.randn(3 * m - 6)
            config = config_from_vector(vec)
            assert config.n_points == m
            np.testing.assert_array_equal(config.pack(), vec)
            again = config.with_vector(config.pack())
            np.testing.assert_array_equal(again.points, config.points)

    def test_example_tetrahedron_has_six_dof(self):
        config = Configuration(EX1_CLOUD)
        assert config.free_dim == 6
        assert config.pack().shape == (6,)

    def test_gauge_violation(self):
        config = Configuration([[0, 0, 1e-8], [1, 0, 0], [0.5, 0.5, 0]])
        with pytest.raises(GaugeViolation):
            config.pack()

    def test_no_gauge(self):
        pts = np.random.RandomState(0).randn(4, 3)
        config = Configuration(pts, gauge=False)
        assert config.free_dim == 12
        np.testing.assert_array_equal(config.pack(), pts.ravel())

    @pytest.mark.parametrize("gauge", [True, False])
    def test_the_callers_array_stays_its_own(self, gauge):
        pts = to_gauge_frame(np.random.RandomState(1).randn(5, 3)).points.copy()
        config = Configuration(pts, gauge=gauge)
        assert pts.flags.writeable and not np.shares_memory(pts, config.points)
        before = pts.copy()
        pts[3] = 7.0
        np.testing.assert_array_equal(config.points, before)

    @pytest.mark.parametrize("gauge", [True, False])
    def test_with_vector_keeps_no_view_of_the_vector(self, gauge):
        config = Configuration(to_gauge_frame(np.random.RandomState(2).randn(5, 3)).points, gauge)
        vec = config.pack() + 1.0
        moved = config.with_vector(vec)
        before = moved.points.copy()
        vec[:] = 0.0
        np.testing.assert_array_equal(moved.points, before)
        np.testing.assert_array_equal(moved.pack(), config.pack() + 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.RandomState(0).randn(4, 3)
        pts[2, 1] = bad
        for gauge in (True, False):
            with pytest.raises(ValueError, match="finite"):
                Configuration(pts, gauge=gauge)

    @pytest.mark.parametrize("points, gauge", [
        (np.zeros((4, 2)), False),  # not (M, 3)
        (np.zeros(3), False),
        (np.zeros((0, 3)), False),  # no points
        (np.zeros((2, 3)), True),  # the gauge pins three points
    ])
    def test_bad_point_arrays_rejected(self, points, gauge):
        with pytest.raises(ValueError):
            Configuration(points, gauge=gauge)

    @pytest.mark.parametrize("length", [5, 7])
    def test_with_vector_of_the_wrong_length(self, length):
        with pytest.raises(ValueError):
            Configuration(EX1_CLOUD).with_vector(np.zeros(length))


class TestGaugeFrame:
    @pytest.mark.parametrize("points, error", [
        (EX1_CLOUD[:2], ValueError),  # fewer than three points
        ([[1, 2, 3], [1, 2, 3], [0, 1, 0]], GaugeViolation),  # points 0 and 1 coincide
        ([[0, 0, 0], [2, 0, 0], [-5, 0, 0], [0, 1, 0]], GaugeViolation),  # 0, 1, 2 collinear
    ])
    def test_clouds_without_a_frame_rejected(self, points, error):
        with pytest.raises(error):
            to_gauge_frame(points)

    def test_identity_on_gauged_cloud(self):
        config = to_gauge_frame(EX1_CLOUD)
        np.testing.assert_allclose(config.points, EX1_CLOUD, atol=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.RandomState(3)
        for _ in range(10):
            pts = random_cloud(rng, 5)
            rot = random_rotation(rng)
            moved = pts @ rot.T + rng.randn(3)
            a = to_gauge_frame(pts)
            b = to_gauge_frame(moved)
            d = np.linalg.norm(a.points[:, None] - a.points[None, :], axis=2)
            d2 = np.linalg.norm(b.points[:, None] - b.points[None, :], axis=2)
            np.testing.assert_allclose(d, d2, atol=1e-9)


class TestCircumradius:
    def test_edge(self):
        assert circumradius([[0, 0, 0], [2, 0, 0]]) == pytest.approx(1.0, abs=1e-15)

    def test_equilateral_triangle(self):
        pts = [[0, 0, 0], [2, 0, 0], [1, math.sqrt(3), 0]]
        assert circumradius(pts) == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_regular_tetrahedron_vs_bruteforce(self):
        # frozen from the brute-force minimizer of max vertex distance
        a = 1.0
        pts = np.array(
            [
                [0, 0, 0],
                [a, 0, 0],
                [a / 2, a * math.sqrt(3) / 2, 0],
                [a / 2, a * math.sqrt(3) / 6, a * math.sqrt(6) / 3],
            ]
        )
        expected = math.sqrt(3.0 / 8.0)  # 0.612372436
        assert brute_min_max_radius(pts) == pytest.approx(expected, abs=1e-9)
        assert circumradius(pts) == pytest.approx(expected, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.RandomState(11)
        for k in (2, 3, 4):
            for _ in range(10):
                pts = rng.randn(k, 3)
                rho = circumradius(pts)
                rot = random_rotation(rng)
                moved = pts @ rot.T + rng.randn(3)
                assert abs(circumradius(moved) - rho) <= 1e-12 * rho

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSimplex):
            circumradius([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(DegenerateSimplex):
            circumradius([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])


class TestCircumradiusGradient:
    def test_edge_formula(self):
        rng = np.random.RandomState(5)
        ui, uj = rng.randn(3), rng.randn(3)
        grad = circumradius_gradient([ui, uj])
        expected = (ui - uj) / (2 * np.linalg.norm(ui - uj))
        np.testing.assert_allclose(grad[0], expected, atol=1e-13)
        np.testing.assert_allclose(grad[1], -expected, atol=1e-13)

    def test_translation_invariance_triangle(self):
        pts = np.array([[0, 0, 0], [2, 0, 0], [1, math.sqrt(3), 0]])
        grad = circumradius_gradient(pts)
        np.testing.assert_allclose(grad.sum(axis=0), 0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_finite_differences(self, k):
        rng = np.random.RandomState(17)
        for _ in range(8):
            pts = rng.randn(k, 3) * 2.0
            if k >= 3 and circumradius(pts) > 50:
                continue  # skip near-degenerate draws
            grad = circumradius_gradient(pts)

            def rho_of(flat):
                return circumradius(flat.reshape(k, 3))

            fd = fd_gradient(rho_of, pts.ravel(), h=1e-6).reshape(k, 3)
            scale = np.abs(fd).max()
            assert np.abs(grad - fd).max() <= 1e-6 * max(scale, 1.0)

    def test_orthogonal_to_rigid_motions(self):
        rng = np.random.RandomState(23)
        for k in (2, 3, 4):
            pts = rng.randn(k, 3)
            grad = circumradius_gradient(pts)
            for axis in range(3):
                translation = np.zeros((k, 3))
                translation[:, axis] = 1.0
                assert abs(np.sum(grad * translation)) <= 1e-9
            for axis in range(3):
                omega = np.zeros(3)
                omega[axis] = 1.0
                rotation = np.cross(np.broadcast_to(omega, (k, 3)), pts)
                assert abs(np.sum(grad * rotation)) <= 1e-9


def _simplices():
    """Well-shaped 2-, 3- and 4-point simplices in [-4, 4]^3, at least 0.5 across.

    Near-degenerate draws are skipped: there the radius is ill-conditioned
    and no fixed relative tolerance holds.
    """
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
    return (
        st.integers(2, 4)
        .flatmap(lambda k: arrays(float, (k, 3), elements=coord))
        .filter(lambda p: well_shaped(p) and np.ptp(p, axis=0).max() >= 0.5)
    )


_ROW_SHAPES = ("general", "coincident", "collinear", "coplanar", "overflowing")


def _shaped_stack(rng, k, rows):
    """A stack of k-point simplices, one per entry of ``rows``: general, with
    two coincident vertices, with its third vertex on the line of the first
    two, with its fourth in the plane of the first three, or so large that
    the squared lengths overflow."""
    pts = rng.standard_normal((len(rows), k, 3))
    for s, shape in enumerate(rows):
        p = pts[s]
        if shape == "coincident":
            p[-1] = p[0]
        elif shape == "collinear" and k >= 3:
            p[2] = p[0] + rng.uniform(-2.0, 2.0) * (p[1] - p[0])
        elif shape == "coplanar" and k == 4:
            p[3] = p[0] + rng.uniform(-2.0, 2.0, 2) @ (p[1:3] - p[0])
        elif shape == "overflowing":
            p *= 10.0 ** rng.uniform(154.0, 300.0)
    return pts


class TestCircumspheres:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4),
           rows=st.lists(st.sampled_from(_ROW_SHAPES), min_size=1, max_size=6),
           exponent=st.floats(-3.0, 3.0))
    def test_bitwise_equal_to_reference_kernel(self, seed, k, rows, exponent):
        pts = _shaped_stack(np.random.default_rng(seed), k, rows) * 10.0**exponent
        with np.errstate(all="ignore"):
            try:
                expected = circumspheres_reference(pts)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    circumspheres(pts)
                return
            got = circumspheres(pts)
        for out, ref in zip(got, expected):
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.lists(st.sampled_from(_ROW_SHAPES), max_size=5),
                          min_size=3, max_size=3),
           exponent=st.floats(-3.0, 3.0))
    def test_padded_stack_bitwise_equal_to_each_size_alone(self, seed, sizes, exponent):
        """2-, 3- and 4-point simplices in one padded stack, as the alpha build
        passes them, against the reference kernel on each size alone, and
        zero weights on the pads. A row that overflows may give a NaN of the
        other sign, so those rows compare with equal_nan, and NaN pad weights
        beside its NaN weights."""
        rng = np.random.default_rng(seed)
        stacks = {k: (_shaped_stack(rng, k, rows) * 10.0**exponent, rows)
                  for k, rows in zip((2, 3, 4), sizes) if rows}
        assume(stacks)
        width, points, verts, blocks = max(stacks), [], [], []
        for k, (stack, _) in stacks.items():
            first, row = sum(map(len, points)), sum(map(len, verts))
            idx = first + np.arange(stack.size // 3).reshape(-1, k)
            verts.append(np.hstack([idx, np.repeat(idx[:, :1], width - k, axis=1)]))
            blocks.append((k, slice(row, row + len(stack))))
            points.append(stack.reshape(-1, 3))
        points, verts = np.concatenate(points), np.concatenate(verts)
        with np.errstate(all="ignore"):
            try:
                expected = [circumspheres_reference(stack) for stack, _ in stacks.values()]
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    _circumspheres(points, verts, blocks)
                return
            got = _circumspheres(points, verts, blocks)
        for (k, at), ref, (_, shapes) in zip(blocks, expected, stacks.values()):
            centers, radii, weights, degenerate = (out[at] for out in got)
            for out, want in zip((centers, radii, weights[:, :k], degenerate), ref):
                assert out.dtype == want.dtype and out.shape == want.shape
                for shape, o, w in zip(shapes, out, want):
                    if shape == "overflowing":
                        assert np.array_equal(o, w, equal_nan=True)
                    else:
                        assert o.tobytes() == w.tobytes()
            for shape, pad, w in zip(shapes, weights[:, k:], weights[:, :k]):
                zero = pad.tobytes() == bytes(pad.nbytes)
                assert zero or (shape == "overflowing" and np.isnan(w).all())

    def test_matches_lstsq_route(self):
        rng = np.random.RandomState(8)
        for k in (2, 3, 4):
            pts = rng.randn(20, k, 3)
            centers, radii, weights, degenerate = circumspheres(pts)
            assert not degenerate.any()
            for p, c, r, w in zip(pts, centers, radii, weights):
                c2, r2 = circumsphere_lstsq(p)
                assert r == pytest.approx(r2, rel=1e-8)
                # all vertices equidistant from the center
                d = np.linalg.norm(p - c, axis=1)
                assert np.ptp(d) <= 1e-8 * (1 + r)
                # the weights are barycentric coordinates of the center
                np.testing.assert_allclose(w @ p, c, atol=1e-9 * (1 + r))
                assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @PROPERTY
    @given(pts=_simplices(), seed=st.integers(0, 2**32 - 1),
           shift=arrays(float, 3, elements=st.floats(-10.0, 10.0)))
    def test_rigid_motion(self, pts, seed, shift):
        rot = random_rotation(np.random.RandomState(seed))
        rho, grad = circumradius(pts), circumradius_gradient(pts)
        moved = pts @ rot.T + shift
        assert circumradius(moved) == pytest.approx(rho, rel=1e-10)
        np.testing.assert_allclose(
            circumradius_gradient(moved), grad @ rot.T, atol=1e-9 * np.abs(grad).max()
        )

    @PROPERTY
    @given(pts=_simplices(), scale=st.floats(1e-3, 1e3))
    def test_scaling(self, pts, scale):
        rho, grad = circumradius(pts), circumradius_gradient(pts)
        assert circumradius(scale * pts) == pytest.approx(scale * rho, rel=1e-10)
        np.testing.assert_allclose(
            circumradius_gradient(scale * pts), grad, atol=1e-9 * np.abs(grad).max()
        )

    @PROPERTY
    @given(pts=_simplices())
    def test_gradient_matches_cofactor_oracle(self, pts):
        rho, grad = cofactor_circumradius_gradient(pts)
        assert circumradius(pts) == pytest.approx(rho, rel=1e-10)
        assert np.abs(circumradius_gradient(pts) - grad).max() <= 1e-10 * np.abs(grad).max()


class TestRipsBirth:
    def test_vertex_is_zero(self):
        config = Configuration(EX1_CLOUD)
        assert rips_birth_radius((1,), config).radius == 0.0

    def test_right_triangle(self):
        config = Configuration([[0, 0, 0], [3, 0, 0], [0, 4, 0]], gauge=False)
        birth = rips_birth_radius((0, 1, 2), config)
        assert birth.radius == pytest.approx(2.5, abs=1e-15)
        assert birth.edge == (1, 2)

    def test_example_tetrahedron_max_edge(self):
        config = Configuration(EX1_CLOUD)
        distances = [
            np.linalg.norm(EX1_CLOUD[i] - EX1_CLOUD[j])
            for i, j in itertools.combinations(range(4), 2)
        ]
        birth = rips_birth_radius((0, 1, 2, 3), config)
        assert birth.radius == pytest.approx(max(distances) / 2, abs=1e-15)

    def test_face_monotonicity(self):
        rng = np.random.RandomState(2)
        config = Configuration(random_cloud(rng, 6), gauge=False)
        for k in (3, 4):
            for key in itertools.combinations(range(6), k):
                r = rips_birth_radius(key, config).radius
                for face in itertools.combinations(key, k - 1):
                    assert rips_birth_radius(face, config).radius <= r


class TestGeneralPosition:
    def test_unit_square_rips_tie(self):
        config = Configuration(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], gauge=False
        )
        report = check_general_position(build_rips(config, max_dim=1))
        ties = [v for v in report.violations if v.kind == "equal_attaching_radii"]
        # two equal diagonals plus the four equal sides
        tied_pairs = {frozenset(v.simplices) for v in ties}
        assert frozenset({(0, 2), (1, 3)}) in tied_pairs
        assert not report.ok

    def test_example_cloud_has_one_exact_tie(self):
        # |u0-u3| = |u1-u3| = sqrt(56) exactly for this cloud
        config = Configuration(EX1_CLOUD)
        report = check_general_position(build_rips(config, max_dim=1))
        ties = [v for v in report.violations if v.kind == "equal_attaching_radii"]
        assert len(ties) == 1
        assert {tuple(s) for s in ties[0].simplices} == {(0, 3), (1, 3)}

    def test_regular_tetrahedron_alpha_ties(self):
        a = 2.0
        pts = np.array(
            [
                [0, 0, 0],
                [a, 0, 0],
                [a / 2, a * math.sqrt(3) / 2, 0],
                [a / 2, a * math.sqrt(3) / 6, a * math.sqrt(6) / 3],
            ]
        )
        report = check_general_position(build_alpha(Configuration(pts, gauge=False)), tol=1e-9)
        tied = [v for v in report.violations if v.kind == "equal_attaching_radii"]
        tied_dims = {len(k) for v in tied for k in v.simplices}
        assert 3 in tied_dims  # the four congruent faces tie

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_coincident_points_match_all_pairs(self, tol):
        pts = random_cloud(np.random.RandomState(8), 12)
        pts[7] = pts[2] + 1e-10
        pts[9] = pts[4] + 5e-4
        report = check_general_position(build_rips(Configuration(pts, gauge=False), max_dim=1), tol)
        found = [v.simplices for v in report.violations if v.kind == "coincident_points"]
        expected = [
            (i, j) for i, j in itertools.combinations(range(12), 2)
            if np.linalg.norm(pts[i] - pts[j]) <= tol
        ]
        assert found == expected
        assert len(found) == (1 if tol < 1e-6 else 2)

    def test_generic_cloud_clean(self):
        rng = np.random.RandomState(41)
        config = Configuration(random_cloud(rng, 6), gauge=False)
        report = check_general_position(build_rips(config, max_dim=1))
        assert report.ok, report.summary()
