import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdcont import filtration
from pdcont.cli import apply_jitter, fibonacci_sphere
from pdcont.errors import DegenerateInput, PdcontError
from pdcont.filtration import build, build_alpha, build_rips
from pdcont.geometry import Configuration
from pdcont.persistence import diagram

from helpers import (
    PAST_FLOAT, PROPERTY, betti_numbers, build_alpha_reference, build_rips_reference, filtration_csv,
    grid_clouds, name_of_key, random_cloud, skeleton_keys, sorted_entries_reference,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)


def _cfg(pts):
    return Configuration(np.asarray(pts, dtype=float), gauge=False)


class TestBuildRips:
    def test_two_points(self):
        fc = build_rips(_cfg([[0, 0, 0], [2, 0, 0]]))
        assert [(e.key, e.radius) for e in fc.entries] == [
            ((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0),
        ]

    def test_simplex_counts_m4(self):
        fc = build_rips(_cfg(np.random.RandomState(0).rand(4, 3)), max_dim=3)
        assert len(fc.entries) == 4 + 6 + 4 + 1

    def test_max_dim_cap(self):
        fc = build_rips(_cfg(np.random.RandomState(0).rand(6, 3)), max_dim=2)
        assert max(e.dim for e in fc.entries) == 2

    def test_monotone_radii(self):
        fc = build_rips(_cfg(np.random.RandomState(3).rand(7, 3)))
        radii = [e.radius for e in fc.entries]
        assert radii == sorted(radii)

    def test_prefixes_are_subcomplexes(self):
        fc = build_rips(_cfg(np.random.RandomState(5).rand(5, 3)))
        seen = set()
        for e in fc.entries:
            for face_len in range(1, len(e.key)):
                for face in itertools.combinations(e.key, face_len):
                    assert face in seen or face_len == len(e.key)
            seen.add(e.key)

    def test_four_point_cycle_cloud(self):
        # |AB|, |BC|, |CD| < |AD| < |BD| < |AC|: one nonzero-length 1-dim pair
        # with diameters (|AD|, |BD|)
        a, b, c, d = np.array(
            [[0.0, 0, 0], [0.1, 1.0, 0], [1.25, 1.1, 0], [1.3, 0, 0]]
        )
        names = dict(A=a, B=b, C=c, D=d)
        dist = lambda p, q: float(np.linalg.norm(names[p] - names[q]))
        assert max(dist("A", "B"), dist("B", "C"), dist("C", "D")) < dist("A", "D")
        assert dist("A", "D") < dist("B", "D") < dist("A", "C")
        pd = diagram(_cfg([a, b, c, d]), "rips", 1, 0.0)
        assert len(pd.finite) == 1
        pair = pd.finite[0]
        assert 2 * pair.birth == pytest.approx(dist("A", "D"), abs=1e-12)
        assert 2 * pair.death == pytest.approx(dist("B", "D"), abs=1e-12)


    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), max_dim=st.integers(0, 3))
    def test_entries_equal_enumeration(self, seed, m, max_dim):
        cfg = _cfg(random_cloud(np.random.RandomState(seed), m))
        assert build_rips(cfg, max_dim).entries == build_rips_reference(cfg, max_dim)

    @PROPERTY
    @given(points=grid_clouds(1, 10), max_dim=st.integers(0, 3))
    def test_grid_entries_equal_enumeration(self, points, max_dim):
        # exact distance ties: the attaching edge is the first longest one
        cfg = _cfg(points)
        assert build_rips(cfg, max_dim).entries == build_rips_reference(cfg, max_dim)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), max_dim=st.integers(0, 3))
    def test_index_numbers_every_key(self, seed, m, max_dim):
        skeleton = build_rips(_cfg(random_cloud(np.random.RandomState(seed), m)), max_dim).skeleton
        keys = skeleton_keys(skeleton)
        assert skeleton.names.tolist() == [name_of_key(key, m) for key in keys]
        assert skeleton.locate(skeleton.names).tolist() == list(range(len(keys)))
        # absent: a vertex out of range and a simplex one dimension too high
        absent = [(m,), tuple(range(min(max_dim + 2, m + 1)))]
        assert skeleton.locate(np.array([name_of_key(key, m) for key in absent])).tolist() == [-1, -1]

    def test_large_complex_refused(self):
        # C(400, 4) simplices: refused before any is enumerated
        with pytest.raises(PdcontError, match="simplices"):
            build_rips(_cfg(np.random.RandomState(0).rand(400, 3)), max_dim=3)

    def test_size_counts_every_simplex(self, monkeypatch):
        monkeypatch.setattr(filtration, "RIPS_MAX_SIMPLICES", 15)
        cfg = _cfg(np.random.RandomState(0).rand(5, 3))
        assert len(build_rips(cfg, max_dim=1)) == 5 + 10
        assert len(build_rips(_cfg(cfg.points[:4]), max_dim=3)) == 15
        with pytest.raises(PdcontError):
            build_rips(cfg, max_dim=2)


_CORNER = np.vstack([np.zeros(3), np.eye(3)])


@pytest.mark.parametrize("kind", ["alpha", "rips"])
@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_far_clouds_scale_exactly(kind, scale):
    # squared distances pass the largest float, but the build runs in the
    # cloud's frame: with scale = m 2^e the diagram is 2^e times that of m _CORNER
    m, e = np.frexp(scale)
    for dim, size in ((0, 7), (1, 0)):  # three pairs and an essential class, then none
        far, near = (diagram(_cfg(s * _CORNER), kind, dim).vector() for s in (scale, m))
        assert far.size == size and np.array_equal(far, np.ldexp(near, e))
        unit = diagram(_cfg(_CORNER), kind, dim).vector()
        np.testing.assert_allclose(far, scale * unit, rtol=1e-15, atol=0)


@pytest.mark.parametrize("kind", ["alpha", "rips"])
def test_radius_past_the_float_range_is_refused(kind):
    # the one refusal for a cloud's magnitude, and it prints no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput, match="radii overflow"):
            diagram(_cfg(PAST_FLOAT), kind, 1)


class TestPrevious:
    """A build shares the skeleton of a previous complex of its own kind only."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 9), max_dim=st.integers(1, 3))
    def test_other_kind_shares_nothing(self, seed, m, max_dim):
        cfg = _cfg(random_cloud(np.random.RandomState(seed), m))
        alpha, rips = build(cfg, "alpha"), build(cfg, "rips", max_dim=max_dim)
        from_rips = build(cfg, "alpha", previous=rips)
        from_alpha = build(cfg, "rips", max_dim=max_dim, previous=alpha)
        assert from_rips.skeleton is not rips.skeleton
        assert from_alpha.skeleton is not alpha.skeleton
        assert from_rips.entries == alpha.entries
        assert from_alpha.entries == rips.entries

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), max_dim=st.integers(0, 3))
    def test_rips_skeleton_is_shared(self, seed, m, max_dim):
        rng = np.random.RandomState(seed)
        before, after = _cfg(random_cloud(rng, m)), _cfg(random_cloud(rng, m))
        previous = build(before, "rips", max_dim=max_dim)
        reused = build(after, "rips", max_dim=max_dim, previous=previous)
        assert reused.skeleton is previous.skeleton
        assert reused.entries == build_rips_reference(after, max_dim)
        other = build(after, "rips", max_dim=max_dim + 1, previous=previous)
        assert (other.skeleton is previous.skeleton) == (m <= max_dim + 1)


class TestBuildAlpha:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 60))
    def test_entries_in_filtration_order(self, seed, m):
        fc = build_alpha(_cfg(random_cloud(np.random.RandomState(seed), m)))
        assert fc.entries == sorted_entries_reference(list(fc.entries))

    def test_equilateral_triangle(self):
        side = 2.0
        fc = build_alpha(_cfg([[0, 0, 0], [side, 0, 0], [side / 2, side * math.sqrt(3) / 2, 0]]))
        radii = {e.key: e.radius for e in fc.entries}
        for edge in ((0, 1), (0, 2), (1, 2)):
            assert radii[edge] == pytest.approx(1.0, abs=1e-12)
        assert radii[(0, 1, 2)] == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_example_cloud_structure(self):
        fc = build_alpha(Configuration(EX1_CLOUD))
        assert len(fc.entries) == 15
        radii = {e.key: e.radius for e in fc.entries}
        assert radii[(0, 1, 2, 3)] == pytest.approx(4.59015, abs=5e-5)
        last_triangle = max(
            (e for e in fc.entries if e.dim == 2), key=lambda e: e.radius
        )
        assert last_triangle.radius == pytest.approx(4.42719, abs=5e-5)

    def test_obtuse_triangle_edge_inherits(self):
        pts = [[0, 0, 0], [4, 0, 0], [2, 0.5, 0]]
        fc = build_alpha(_cfg(pts))
        entry = {e.key: e for e in fc.entries}
        tri = entry[(0, 1, 2)]
        long_edge = entry[(0, 1)]
        assert long_edge.attaching == (0, 1, 2)
        assert long_edge.radius == tri.radius

    def test_face_monotonicity_and_order(self):
        rng = np.random.RandomState(6)
        fc = build_alpha(_cfg(random_cloud(rng, 9)))
        radii = {e.key: e.radius for e in fc.entries}
        order = [e.radius for e in fc.entries]
        assert order == sorted(order)
        for e in fc.entries:
            for face_len in range(1, len(e.key)):
                for face in itertools.combinations(e.key, face_len):
                    assert radii[face] <= e.radius

    def test_edge_birth_matches_rips_convention(self):
        rng = np.random.RandomState(13)
        pts = random_cloud(rng, 6)
        alpha = build_alpha(_cfg(pts))
        for e in alpha.entries:
            if e.dim == 1 and e.attaching == e.key:
                i, j = e.key
                assert e.radius == pytest.approx(
                    np.linalg.norm(pts[i] - pts[j]) / 2, abs=1e-12
                )

    def test_saturated_betti_numbers(self):
        rng = np.random.RandomState(21)
        for m in (5, 6, 8):
            pts = random_cloud(rng, m)
            assert betti_numbers(_cfg(pts), "alpha") == (1, 0, 0)

    def test_csv_dump(self):
        fc = build_alpha(Configuration(EX1_CLOUD))
        text = filtration_csv(fc)
        assert text.startswith("dim,vertices,birth_radius,attaching_vertices")
        assert len(text.strip().splitlines()) == 16


def _scaled(m, seed, exponent):
    return random_cloud(np.random.RandomState(seed), m) * 2.0**exponent


def _shell(n, seed):
    return apply_jitter(fibonacci_sphere(n), seed, magnitude=1e-6)


SEEDS = st.integers(0, 2**32 - 1)
ONE_PASS_CLOUDS = st.one_of(
    st.builds(_scaled, st.integers(5, 30), SEEDS, st.integers(-60, 60)),
    grid_clouds(4, 20),  # exact grids: flat, cospherical or singular draws
    st.builds(_scaled, st.integers(1, 4), SEEDS, st.integers(-60, 60)),
    st.builds(_shell, st.integers(8, 60), SEEDS),
)


class TestOnePassBuild:
    """The one-pass alpha build against the per-dimension build it replaced."""

    @PROPERTY
    @given(points=ONE_PASS_CLOUDS)
    def test_bitwise_equal_to_per_dimension_reference(self, points):
        config = _cfg(points)
        try:
            expected = build_alpha_reference(config)
        except PdcontError as exc:
            with pytest.raises(type(exc)):
                build_alpha(config)
            return
        got = build_alpha(config)
        pairs = [(got.birth, expected.birth), (got.realizer, expected.realizer),
                 (got.degenerate, expected.degenerate)]  # the mask by its on-read reader
        for out, ref in pairs + list(zip(got.spheres, expected.spheres, strict=True)):
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", [4, 30])
    def test_one_solve_per_build(self, monkeypatch, m):
        # one padded Gram solve covers every dimension; no least squares
        calls = []

        def counted(name):
            call = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapper

        for name in ("solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        fc = build_alpha(_cfg(random_cloud(np.random.RandomState(m), m)))
        assert calls == ["solve"] and len(fc) > 1

    def test_memory_of_a_reused_skeleton_build(self):
        # tracemalloc peak of a 1,000-point build on a shared skeleton: 11.8 MB
        # with one kernel call per dimension and with the one pass alike (the
        # Delaunay verification sets it), 16.2 MB for a one-pass variant that
        # gathered every simplex's padded points at once and kept its
        # temporaries (CPython 3.11, numpy 2.4, x86-64)
        config = _cfg(np.random.default_rng(0).uniform(0.0, 10.0, (1000, 3)))
        skeleton = build_alpha(config).skeleton
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build_alpha(config, skeleton)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 13e6
