import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdcont import metrics
from pdcont.errors import InfinityMismatch, NotAcute
from pdcont.geometry import Configuration
from pdcont.metrics import (
    MAX_TRIANGLE_RATIO,
    bottleneck,
    hausdorff,
    triangle_ratio_check,
)
from pdcont.persistence import diagram

from helpers import (
    PROPERTY,
    dense_block_bottleneck,
    dense_hausdorff,
    diag_distance,
    exhaustive_matching_bottleneck,
    random_acute_triangle,
    random_cloud,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)


def _cfg(pts):
    return Configuration(np.asarray(pts, dtype=float), gauge=False)


# (birth, persistence) in steps of 0.5: ties, zero-length points and shared
# candidate distances are common
_GRID_POINTS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=3)
_GRID_DIAGRAMS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=40)


def _random_diagram(rng, n, spread=1.0):
    births = rng.uniform(0.0, spread, n)
    return np.stack([births, births + rng.exponential(0.2 * spread, n)], axis=1)


class TestBottleneck:
    def test_identity(self):
        d = [(0.0, 2.0), (1.0, 3.0)]
        assert bottleneck(d, d) == 0.0

    def test_single_point_to_empty(self):
        assert bottleneck([(0.0, 2.0)], []) == pytest.approx(1.0, abs=1e-15)

    def test_simple_shift(self):
        assert bottleneck([(0.0, 2.0)], [(0.5, 2.0)]) == pytest.approx(0.5)

    def test_infinity_mismatch(self):
        with pytest.raises(InfinityMismatch):
            bottleneck([(0.0, math.inf)], [])

    def test_essential_matching(self):
        d1 = [(0.0, math.inf), (1.0, math.inf)]
        d2 = [(0.2, math.inf), (1.3, math.inf)]
        assert bottleneck(d1, d2) == pytest.approx(0.3)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.RandomState(5)
        for _ in range(50):
            n1, n2 = rng.randint(0, 4, size=2)
            d1 = [(b, b + g) for b, g in zip(rng.rand(n1), rng.rand(n1) + 0.01)]
            d2 = [(b, b + g) for b, g in zip(rng.rand(n2), rng.rand(n2) + 0.01)]
            assert bottleneck(d1, d2) == pytest.approx(
                exhaustive_matching_bottleneck(d1, d2), abs=1e-14
            )

    @PROPERTY
    @given(
        a=_GRID_POINTS,
        b=_GRID_POINTS,
        essential=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=2),
    )
    def test_grid_diagrams_equal_exhaustive_oracle(self, a, b, essential):
        d1 = [(0.5 * x, 0.5 * (x + g)) for x, g in a]
        d2 = [(0.5 * x, 0.5 * (x + g)) for x, g in b]
        ess1 = sorted(0.5 * x for x, _ in essential)
        ess2 = sorted(0.5 * y for _, y in essential)
        expected = max(
            [exhaustive_matching_bottleneck(d1, d2)] + [abs(x - y) for x, y in zip(ess1, ess2)]
        )
        d1 += [(x, math.inf) for x in ess1]
        d2 += [(y, math.inf) for y in ess2]
        assert bottleneck(d1, d2) == expected

    @pytest.mark.parametrize("pair", [
        (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (math.inf, math.inf),
        (2.0, 1.0), (1.0, -math.inf),
    ])
    def test_malformed_pair_raises(self, pair):
        with pytest.raises(ValueError, match="malformed pair"):
            bottleneck([pair], [(0.0, 1.0)])
        with pytest.raises(ValueError, match="malformed pair"):
            bottleneck([], [pair])

    def test_near_copy_takes_one_feasibility_test(self, monkeypatch):
        # on a copy moved by far less than the point spacing every point's
        # nearest partner is its own copy, so the lower bound is the answer
        # and the first feasibility test settles it
        radii = []
        within = metrics._within
        monkeypatch.setattr(
            metrics, "_within", lambda *args: radii.append(args[-1]) or within(*args)
        )
        rng = np.random.RandomState(2)
        a = np.array([(x, x + 2.0 + y) for x in range(6) for y in range(6)], dtype=float)
        b = a + rng.uniform(-1e-3, 1e-3, a.shape)
        assert bottleneck(a, b) == np.abs(a - b).max()
        assert radii == [np.abs(a - b).max()]

    @pytest.mark.parametrize("seed", [432, 7])
    def test_unrelated_diagrams_take_a_logarithmic_search(self, monkeypatch, seed):
        # no benchmark workload reaches the search past the lower bound; on
        # two unrelated diagrams the gallop and the bisection each take at
        # most ceil(log2 C) tests over the C candidates in [lower, upper]
        radii = []
        within = metrics._within
        monkeypatch.setattr(
            metrics, "_within", lambda *args: radii.append(args[-1]) or within(*args)
        )
        rng = np.random.RandomState(seed)
        a, b = (np.sort(rng.uniform(0.0, 1.0, (432, 2)), axis=1) for _ in range(2))
        value = bottleneck(a, b)
        dist = np.abs(a[:, None] - b[None]).max(axis=2)
        gap_a, gap_b = (a[:, 1] - a[:, 0]) / 2.0, (b[:, 1] - b[:, 0]) / 2.0
        lower = max(np.minimum(gap_a, dist.min(axis=1)).max(),
                    np.minimum(gap_b, dist.min(axis=0)).max())
        upper = max(gap_a.max(), gap_b.max())
        values = np.concatenate([dist.ravel(), gap_a, gap_b])
        candidates = len(np.unique(values[(values >= lower) & (values <= upper)]))
        assert radii[0] == lower and value > lower
        assert len(radii) <= 2 * math.ceil(math.log2(candidates)) + 2
        assert value == dense_block_bottleneck(a, b)

    @PROPERTY
    @given(a=_GRID_DIAGRAMS, b=_GRID_DIAGRAMS)
    def test_grid_diagrams_equal_dense_block_search(self, a, b):
        d1 = [(0.5 * x, 0.5 * (x + g)) for x, g in a]
        d2 = [(0.5 * x, 0.5 * (x + g)) for x, g in b]
        assert bottleneck(d1, d2) == dense_block_bottleneck(d1, d2)

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
        m=st.integers(0, 40),
        case=st.sampled_from(["independent", "one_side_empty", "near_copy", "far_apart"]),
    )
    def test_continuous_diagrams_equal_dense_block_search(self, seed, n, m, case):
        rng = np.random.RandomState(seed)
        a = _random_diagram(rng, n)
        if case == "independent":
            b = _random_diagram(rng, m)
        elif case == "one_side_empty":
            b = np.zeros((0, 2))
        elif case == "near_copy":
            b = a + rng.uniform(-1e-3, 1e-3, a.shape)
            b[:, 1] = np.maximum(b[:, 1], b[:, 0])
        else:
            # long bars against a shifted copy of other long bars: the answer
            # lies many candidates above the lower bound
            a[:, 1] += 2.0
            b = _random_diagram(rng, m)
            b += rng.uniform(0.2, 0.5)
            b[:, 1] += 2.0
        assert bottleneck(a, b) == dense_block_bottleneck(a, b)

    def test_pseudometric_properties(self):
        rng = np.random.RandomState(9)
        for _ in range(20):
            ds = []
            for _ in range(3):
                n = rng.randint(1, 4)
                ds.append([(b, b + g) for b, g in zip(rng.rand(n), rng.rand(n) + 0.05)])
            a, b, c = ds
            assert bottleneck(a, b) == pytest.approx(bottleneck(b, a), abs=1e-12)
            assert bottleneck(a, c) <= bottleneck(a, b) + bottleneck(b, c) + 1e-12


class TestHausdorff:
    def test_identity(self):
        pts = np.random.RandomState(0).rand(6, 3)
        assert hausdorff(pts, pts) == 0.0

    def test_unit_shift(self):
        assert hausdorff([[0, 0, 0]], [[1, 0, 0]]) == pytest.approx(1.0)

    def test_bounded_by_euclidean(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            m = rng.randint(2, 8)
            p = random_cloud(rng, m)
            q = p + rng.randn(m, 3) * 0.1
            assert hausdorff(p, q) <= np.linalg.norm((p - q).ravel()) + 1e-12

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 40))
    def test_equals_dense_all_pairs(self, seed, m, n):
        rng = np.random.RandomState(seed)
        p, q = rng.randn(m, 3), rng.randn(n, 3) * rng.uniform(0.1, 10.0)
        assert hausdorff(p, q) == dense_hausdorff(p, q)


class TestDiagDistance:
    def test_simple(self):
        assert diag_distance([(0.0, 2.0)]) == pytest.approx(1.0)

    def test_example1_value(self):
        pd = diagram(Configuration(EX1_CLOUD), "alpha", 2, 0.0)
        delta = diag_distance([(p.birth, p.death) for p in pd.finite])
        assert delta == pytest.approx((4.59015 - 4.42719) / 2, abs=5e-5)

    def test_near_diagonal(self):
        eps = 1e-7
        assert diag_distance([(1.0, 1.0 + 2 * eps)]) == pytest.approx(eps, rel=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no finite pairs"):
            diag_distance([])
        with pytest.raises(ValueError, match="no finite pairs"):
            diag_distance([(0.0, math.inf)])


class TestTriangleRatio:
    def test_equilateral_attains_bound(self):
        side = 2.0
        pts = [[0, 0, 0], [side, 0, 0], [side / 2, side * math.sqrt(3) / 2, 0]]
        b, d, ratio = triangle_ratio_check(pts)
        assert b == pytest.approx(1.0, abs=1e-12)
        assert ratio == pytest.approx(MAX_TRIANGLE_RATIO, abs=1e-12)

    def test_right_triangle_rejected_and_empty(self):
        pts = [[0, 0, 0], [3, 0, 0], [0, 4, 0]]
        with pytest.raises(NotAcute):
            triangle_ratio_check(pts)
        pd = diagram(_cfg(pts), "alpha", 1, 0.0)
        assert len(pd.finite) == 0

    def test_random_acute_triangles_obey_bound(self):
        rng = np.random.RandomState(77)
        for _ in range(200):
            pts = random_acute_triangle(rng)
            _, _, ratio = triangle_ratio_check(pts)
            assert ratio <= MAX_TRIANGLE_RATIO + 1e-12


class TestStability:
    def test_alpha_bottleneck_vs_hausdorff(self):
        rng = np.random.RandomState(15)
        for _ in range(40):
            m = rng.randint(4, 8)
            p = random_cloud(rng, m)
            q = p + rng.uniform(-1, 1, (m, 3)) * 0.01
            for dim in (0, 1, 2):
                dp = diagram(_cfg(p), "alpha", dim, 0.0)
                dq = diagram(_cfg(q), "alpha", dim, 0.0)
                pairs_p = [(x.birth, x.death) for x in dp.finite]
                pairs_p += [(e.birth, math.inf) for e in dp.essential]
                pairs_q = [(x.birth, x.death) for x in dq.finite]
                pairs_q += [(e.birth, math.inf) for e in dq.essential]
                assert bottleneck(pairs_p, pairs_q) <= hausdorff(p, q) + 1e-10
