import collections
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pdcont.cli import apply_jitter, fibonacci_sphere
from pdcont.errors import InfinityMismatch, PdcontError
from pdcont.filtration import build_alpha, build_rips
from pdcont.geometry import Configuration
from pdcont.metrics import bottleneck, hausdorff
from pdcont.persistence import (
    boundary_matrix,
    diagram,
    persistence_data,
    reduce_boundary,
)

from helpers import (
    PROPERTY, bitset_reduction_reference, boundary_matrix_reference, diag_distance, filtration_keys,
    grid_clouds,
    persistence_data_reference, random_cloud, random_rotation, rank_function_pairs,
    rational_reduction, signed_boundary,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)
EX4_CLOUD = np.array([[0, 0, 0], [1, 0, 0], [1.1, 1.2, 0], [0.5, 0.6, 1.3]])


def _shell(n, seed):
    return apply_jitter(fibonacci_sphere(n), seed, magnitude=1e-6)


def _random(m, seed):
    return random_cloud(np.random.RandomState(seed), m)


SEEDS = st.integers(0, 2**32 - 1)
EPSILONS = st.sampled_from([0.0, 0.01, 0.1])
# m = 4 has one tetrahedron with every triangle on the hull; m <= 3 has none
TINY_CLOUDS = st.builds(_random, st.integers(1, 4), SEEDS)
ALPHA_CLOUDS = st.one_of(
    st.builds(_random, st.integers(5, 40), SEEDS),
    grid_clouds(4, 20),  # exact radius ties are settled by the simplex order
    st.builds(_shell, st.integers(8, 60), SEEDS),
    TINY_CLOUDS,
)
RIPS_CLOUDS = st.one_of(
    st.builds(_random, st.integers(5, 10), SEEDS),
    grid_clouds(4, 10),
    st.builds(_shell, st.integers(5, 10), SEEDS),
    TINY_CLOUDS,
)


def _assert_matches_bitset_reference(fc, dims, epsilon):
    """The pairing and the diagrams of dimensions ``dims`` equal those of the
    all-dimension bitset reduction."""
    red = reduce_boundary(boundary_matrix(fc))
    pairs, essentials = bitset_reduction_reference(fc.entries)
    assert (red.pairs, red.essentials) == (pairs, essentials)
    for dim in dims:
        want = persistence_data_reference(pairs, essentials, fc, dim, epsilon)
        assert persistence_data(red, fc, dim, epsilon) == want


def _cfg(pts):
    return Configuration(np.asarray(pts, dtype=float), gauge=False)


def _facets(b, j):
    """Positions of the facets of the simplex at position j, read off its column."""
    dim = next(d for d, pos in enumerate(b.positions) if j in pos)
    rank = b.positions[dim].tolist().index(j)
    return b.positions[dim - 1][b.facets[dim][rank]].tolist()


def _assert_same_matrix(b, ref):
    assert b.size == ref.size
    assert len(b.positions) == len(ref.positions) == len(b.facets) == len(ref.facets)
    for got, want in zip(b.positions + b.facets, ref.positions + ref.facets):
        assert got.shape == want.shape and np.array_equal(got, want)
    if ref.cofaces is None:
        assert b.cofaces is None
    else:  # the two sides of a triangle come in either order
        assert np.array_equal(np.sort(b.cofaces, axis=1), ref.cofaces)


class TestBoundaryMatrix:
    # the signed boundary over Q lives in the test oracle; the package keeps
    # the Z/2 columns
    def test_single_edge(self):
        # removing vertex 0 from (0, 1) leaves (1,) with sign +1, so the
        # column encodes v1 - v0
        fc = build_rips(_cfg([[0, 0, 0], [1, 0, 0]]))
        assert signed_boundary(fc)[2] == {0: Fraction(-1), 1: Fraction(1)}

    def test_dd_zero(self):
        fc = build_rips(_cfg(np.random.RandomState(0).rand(5, 3)))
        columns = signed_boundary(fc)
        for j, col in enumerate(columns):
            acc = {}
            for i, coeff in col.items():
                for ii, c2 in columns[i].items():
                    acc[ii] = acc.get(ii, Fraction(0)) + coeff * c2
            assert all(v == 0 for v in acc.values()), f"d(d(col {j})) != 0"

    def test_tetra_column_sign_pattern(self):
        fc = build_alpha(Configuration(EX1_CLOUD))
        col = signed_boundary(fc)[filtration_keys(fc).index((0, 1, 2, 3))]
        assert len(col) == 4
        assert sorted(col.values()) == [Fraction(-1), Fraction(-1), Fraction(1), Fraction(1)]

    def test_edge_column(self):
        fc = build_rips(_cfg([[0, 0, 0], [1, 0, 0]]))
        b = boundary_matrix(fc)
        assert b.positions[1].tolist() == [2]
        assert b.facets[1].tolist() == [[0, 1]]
        assert _facets(b, 2) == [0, 1]

    def test_dd_zero_mod2(self):
        fc = build_rips(_cfg(np.random.RandomState(0).rand(5, 3)))
        b = boundary_matrix(fc)
        for j in range(b.size):
            faces = collections.Counter()
            for i in _facets(b, j):
                faces.update(_facets(b, i))
            assert all(n % 2 == 0 for n in faces.values()), f"d(d(col {j})) != 0 mod 2"

    def test_columns_match_signed_boundary(self):
        fc = build_alpha(_cfg(random_cloud(np.random.RandomState(3), 9)))
        b = boundary_matrix(fc)
        for j, col in enumerate(signed_boundary(fc)):
            assert _facets(b, j) == sorted(col)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 60))
    def test_alpha_equals_enumeration(self, seed, m):
        fc = build_alpha(_cfg(random_cloud(np.random.RandomState(seed), m)))
        _assert_same_matrix(boundary_matrix(fc), boundary_matrix_reference(fc.entries, fc.kind))

    @PROPERTY
    @given(points=grid_clouds(5, 20, exact=False))
    def test_alpha_grid_equals_enumeration(self, points):
        try:
            fc = build_alpha(_cfg(points))
        except PdcontError:
            assume(False)  # a flat or cospherical draw has no alpha complex
        _assert_same_matrix(boundary_matrix(fc), boundary_matrix_reference(fc.entries, fc.kind))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), max_dim=st.integers(0, 3))
    def test_rips_equals_enumeration(self, seed, m, max_dim):
        fc = build_rips(_cfg(random_cloud(np.random.RandomState(seed), m)), max_dim)
        _assert_same_matrix(boundary_matrix(fc), boundary_matrix_reference(fc.entries, fc.kind))

    @PROPERTY
    @given(points=grid_clouds(1, 10), max_dim=st.integers(0, 3))
    def test_rips_grid_equals_enumeration(self, points, max_dim):
        fc = build_rips(_cfg(points), max_dim)
        _assert_same_matrix(boundary_matrix(fc), boundary_matrix_reference(fc.entries, fc.kind))

    def test_strictly_upper_triangular(self):
        fc = build_alpha(_cfg(random_cloud(np.random.RandomState(2), 7)))
        b = boundary_matrix(fc)
        assert b.size == len(fc.entries)
        for j in range(b.size):
            assert all(i < j for i in _facets(b, j))


class TestReduction:
    def test_zero_matrix(self):
        fc = build_rips(_cfg(np.random.RandomState(1).rand(3, 3)), max_dim=0)
        red = reduce_boundary(boundary_matrix(fc))
        assert red.pairs == ()
        assert red.essentials == (0, 1, 2)

    def test_acute_triangle_single_pair(self):
        pts = [[0, 0, 0], [2, 0, 0], [1, math.sqrt(3), 0]]
        pd = diagram(_cfg(pts), "alpha", 1, 0.0)
        assert len(pd.finite) == 1
        assert pd.finite[0].birth == pytest.approx(1.0, abs=1e-12)
        assert pd.finite[0].death == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_twist_variant_identical_pairs(self):
        # the package reduction clears (the twist); the oracle is the
        # standard reduction over Q without clearing
        rng = np.random.RandomState(4)
        for _ in range(15):
            m = rng.randint(4, 8)
            kind = rng.choice(["rips", "alpha"])
            cfg = _cfg(random_cloud(rng, m))
            fc = build_rips(cfg) if kind == "rips" else build_alpha(cfg)
            red = reduce_boundary(boundary_matrix(fc))
            assert (red.pairs, red.essentials) == rational_reduction(signed_boundary(fc))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_alpha_pairs_match_rational_oracle(self, seed, m):
        fc = build_alpha(_cfg(random_cloud(np.random.RandomState(seed), m)))
        red = reduce_boundary(boundary_matrix(fc))
        assert (red.pairs, red.essentials) == rational_reduction(signed_boundary(fc))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 8))
    def test_rips_pairs_match_rational_oracle(self, seed, m):
        fc = build_rips(_cfg(random_cloud(np.random.RandomState(seed), m)))
        red = reduce_boundary(boundary_matrix(fc))
        assert (red.pairs, red.essentials) == rational_reduction(signed_boundary(fc))

    @PROPERTY
    @given(points=ALPHA_CLOUDS, epsilon=EPSILONS)
    def test_alpha_pairs_match_bitset_reference(self, points, epsilon):
        try:
            fc = build_alpha(_cfg(points))
        except PdcontError:
            assume(False)  # a flat or cospherical draw has no alpha complex
        _assert_matches_bitset_reference(fc, range(3), epsilon)

    @PROPERTY
    @given(points=RIPS_CLOUDS, dim=st.integers(0, 2), epsilon=EPSILONS)
    def test_rips_pairs_match_bitset_reference(self, points, dim, epsilon):
        fc = build_rips(_cfg(points), max_dim=dim + 1)
        _assert_matches_bitset_reference(fc, range(dim + 1), epsilon)

    def test_reduction_peak_memory(self):
        # tracemalloc peak of the boundary matrix and its pairing on 1,000
        # uniform points, alpha: 11.5 MB when every dimension went through
        # the bitset reduction (measured with CPython 3.11 and numpy 2.4 on
        # x86-64), about 8.1 MB with H0 and H2 paired by union-find
        points = np.random.default_rng(0).uniform(0.0, 10.0, (1000, 3))
        fc = build_alpha(_cfg(points))
        fc.order  # made on first use; not part of the pairing
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reduce_boundary(boundary_matrix(fc))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 11.5e6

    def test_pairing_against_rank_oracle(self):
        rng = np.random.RandomState(8)
        for trial in range(15):
            m = rng.randint(3, 8)
            cfg = _cfg(random_cloud(rng, m))
            fc = build_rips(cfg, max_dim=3)
            red = reduce_boundary(boundary_matrix(fc))
            ordered = [(e.key, e.radius) for e in fc.entries]
            for dim in (0, 1, 2):
                pd = persistence_data(red, fc, dim, 0.0)
                got_pairs = sorted((p.birth, p.death) for p in pd.finite)
                got_ess = sorted(e.birth for e in pd.essential)
                want_pairs, want_ess = rank_function_pairs(ordered, dim)
                assert got_pairs == want_pairs, f"dim {dim} trial {trial}"
                assert got_ess == want_ess

    def test_gf2_equals_rationals_at_desk_scale(self):
        # the rank oracle and the reduction both work over GF(2); the test
        # above covers Rips, this one the alpha route. Agreement with the
        # rational reduction is asserted by the oracle tests further up.
        rng = np.random.RandomState(44)
        for _ in range(8):
            cfg = _cfg(random_cloud(rng, rng.randint(5, 8)))
            fc = build_alpha(cfg)
            red = reduce_boundary(boundary_matrix(fc))
            ordered = [(e.key, e.radius) for e in fc.entries]
            for dim in (0, 1, 2):
                pd = persistence_data(red, fc, dim, 0.0)
                got = sorted((p.birth, p.death) for p in pd.finite)
                want, want_ess = rank_function_pairs(ordered, dim)
                assert got == want
                assert sorted(e.birth for e in pd.essential) == want_ess


class TestPersistenceData:
    def test_example1_dim2(self):
        pd = diagram(Configuration(EX1_CLOUD), "alpha", 2, 0.0)
        v = pd.vector()
        assert v == pytest.approx([4.42719, 4.59015], abs=5e-5)
        assert pd.m == 2

    def test_example4_dim1(self):
        pd = diagram(Configuration(EX4_CLOUD), "alpha", 1, 0.0)
        assert pd.vector() == pytest.approx(
            [0.758288, 0.803195, 0.776209, 0.834393], abs=5e-5
        )
        assert pd.m == 4

    def test_dim0_connectivity(self):
        rng = np.random.RandomState(10)
        for m in (2, 5, 7):
            pd = diagram(_cfg(random_cloud(rng, m)), "rips", 0, 0.0)
            assert len(pd.essential) == 1
            assert pd.essential[0].birth == 0.0
            assert len(pd.finite) == m - 1
            assert all(p.birth == 0.0 for p in pd.finite)

    def test_epsilon_truncation(self):
        pd0 = diagram(Configuration(EX1_CLOUD), "alpha", 2, 0.0)
        gap = (pd0.finite[0].death - pd0.finite[0].birth) / 2
        pd_keep = diagram(Configuration(EX1_CLOUD), "alpha", 2, gap * 0.99)
        pd_drop = diagram(Configuration(EX1_CLOUD), "alpha", 2, gap * 1.01)
        assert len(pd_keep.finite) == 1
        assert len(pd_drop.finite) == 0

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_negative_epsilon_refused(self, epsilon):
        # no gap compares >= NaN, so a NaN epsilon would keep no pair at all
        config = _cfg(np.random.default_rng(0).uniform(0.0, 1.0, (30, 3)))
        assert diagram(config, "alpha", 1, 0.0).finite
        with pytest.raises(ValueError, match="epsilon"):
            diagram(config, "alpha", 1, epsilon)

    def test_truncation_cardinality_stability(self):
        # bottleneck-close perturbations preserve the truncated count
        rng = np.random.RandomState(19)
        checked = 0
        for _ in range(30):
            pts = random_cloud(rng, 6)
            pd = diagram(_cfg(pts), "alpha", 1, 0.0)
            if not pd.finite:
                continue
            delta = diag_distance([(p.birth, p.death) for p in pd.finite])
            eps = delta / 2.5
            moved = pts + rng.uniform(-1, 1, pts.shape) * eps / 10
            pd2 = diagram(_cfg(moved), "alpha", 1, eps)
            d_h = hausdorff(pts, moved)
            if d_h < eps < delta / 2:
                assert len(pd2.finite) == len(pd.finite)
                checked += 1
        assert checked >= 10

    def test_json_roundtrip_and_precision(self):
        pd = diagram(Configuration(EX1_CLOUD), "alpha", 2, 0.0)
        payload = json.loads(pd.to_json())
        assert payload["dim"] == 2
        assert payload["pairs"] == [[4.42718872, 4.59014645]]
        assert pd.to_csv().splitlines()[1] == "4.42718872,4.59014645"

    def test_zero_length_pairs_dropped(self):
        # in Rips every triangle shares its attaching edge's radius, so most
        # reduction pairs are zero-length and must not appear in the diagram
        rng = np.random.RandomState(31)
        cfg = _cfg(random_cloud(rng, 6))
        fc = build_rips(cfg)
        red = reduce_boundary(boundary_matrix(fc))
        pd = persistence_data(red, fc, 1, 0.0)
        assert all(p.birth < p.death for p in pd.finite)
        n_dim1_pairs = sum(1 for i, j in red.pairs if fc.entries[i].dim == 1)
        assert n_dim1_pairs > len(pd.finite)


class TestInvariance:
    """The diagram under a change of scale or a rigid motion of the cloud."""

    @PROPERTY
    @given(case=st.one_of(st.tuples(st.just("alpha"), ALPHA_CLOUDS),
                          st.tuples(st.just("rips"), RIPS_CLOUDS)),
           k=st.integers(-40, 40))
    def test_power_of_two_scaling_is_exact(self, case, k):
        # every radius scales with the cloud, and a power of two commutes
        # with rounding: values scale bit for bit, generator names stay
        kind, points = case
        scale, dims = 2.0**k, range(3 if kind == "alpha" else 2)
        try:
            before = [diagram(_cfg(points), kind, dim) for dim in dims]
        except PdcontError:
            assume(False)  # a flat or cospherical draw has no alpha complex
        for pd, dim in zip(before, dims):
            scaled = diagram(_cfg(scale * points), kind, dim)
            assert scaled.finite == tuple(
                replace(p, birth=scale * p.birth, death=scale * p.death) for p in pd.finite
            )
            assert scaled.essential == tuple(replace(e, birth=scale * e.birth) for e in pd.essential)

    @PROPERTY
    @given(seed=SEEDS, m=st.integers(5, 30))
    def test_rigid_motion_keeps_the_diagram(self, seed, m):
        rng = np.random.RandomState(seed)
        points = random_cloud(rng, m)
        moved = points @ random_rotation(rng).T + rng.uniform(-10.0, 10.0, 3)
        for kind, dim in (("alpha", 0), ("alpha", 1), ("alpha", 2), ("rips", 1)):
            pd, after = diagram(_cfg(points), kind, dim), diagram(_cfg(moved), kind, dim)
            assert (len(after.finite), len(after.essential)) == (len(pd.finite), len(pd.essential))
            a, b = pd.vector(), after.vector()
            assert (np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b))).all()
