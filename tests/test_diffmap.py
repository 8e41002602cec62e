import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdcont import filtration, solver
from pdcont.diffmap import _attaching_gradients, _free_columns, jacobian
from pdcont.errors import DegenerateSimplex, NearDegenerateJacobian
from pdcont.filtration import build
from pdcont.geometry import Configuration, to_gauge_frame
from pdcont.persistence import (
    FinitePair, PersistenceData, boundary_matrix, diagram, persistence_data, reduce_boundary,
)
from pdcont.solver import svd

from helpers import (
    PROPERTY, attaching_gradients_reference, circumradius_gradient, diagram_and_jacobian,
    fd_gradient, random_cloud, skeleton_index,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)


def four_point_vr_cloud():
    """Planar 4-point cloud with |AB|,|BC|,|CD| < |AD| < |BD| < |AC|."""
    return np.array([[0.0, 0, 0], [0.1, 1.0, 0], [1.25, 1.1, 0], [1.3, 0, 0]])


def _diagram_vector(config, kind, dim, eps=0.0):
    pd = diagram(config, kind, dim, eps)
    return pd.vector(include_essential=False)


class TestJacobianClosedForms:
    def test_four_point_vr_gram(self):
        # the four-point cycle: in edge-length units Df Df^T has diagonal 2 and
        # off-diagonal cos(angle ADB); radius units need the factor of 2
        pts = four_point_vr_cloud()
        config = Configuration(pts, gauge=False)
        pd, jac = diagram_and_jacobian(config, "rips", 1)
        assert len(pd.finite) == 1
        gram = (2 * jac.matrix) @ (2 * jac.matrix).T
        a, b, c, d = pts
        cos_theta = np.dot(a - d, b - d) / (
            np.linalg.norm(a - d) * np.linalg.norm(b - d)
        )
        np.testing.assert_allclose(
            gram, [[2.0, cos_theta], [cos_theta, 2.0]], atol=1e-12
        )
        _, s, _ = svd(2 * jac.matrix)
        np.testing.assert_allclose(
            sorted(s), sorted([math.sqrt(2 + cos_theta), math.sqrt(2 - cos_theta)]),
            atol=1e-12,
        )

    def test_translation_nullspace_without_gauge(self):
        config = Configuration(EX1_CLOUD, gauge=False)
        _, jac = diagram_and_jacobian(config, "alpha", 2)
        for axis in range(3):
            direction = np.zeros((4, 3))
            direction[:, axis] = 1.0
            np.testing.assert_allclose(
                jac.matrix @ direction.ravel(), 0, atol=1e-12
            )

    def test_vr_scale_invariance(self):
        rng = np.random.RandomState(3)
        pts = random_cloud(rng, 5)
        config = Configuration(pts, gauge=False)
        pd, jac = diagram_and_jacobian(config, "rips", 1)
        if not pd.finite:
            pytest.skip("no cycle in this draw")
        _, jac2 = diagram_and_jacobian(Configuration(pts * 3.7, gauge=False), "rips", 1)
        np.testing.assert_allclose(jac.matrix, jac2.matrix, atol=1e-12)

    def test_row_sparsity(self):
        rng = np.random.RandomState(6)
        pts = random_cloud(rng, 8)
        config = Configuration(pts, gauge=False)
        for kind, cap in (("rips", 6), ("alpha", 12)):
            pd, jac = diagram_and_jacobian(config, kind, 1)
            if not pd.finite:
                continue
            for row in jac.matrix:
                assert np.count_nonzero(row) <= cap

    def test_identity_block_singular_values(self):
        a = np.hstack([np.eye(2), np.zeros((2, 4))])
        _, s, _ = svd(a)
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-15)

    def test_pair_rows_use_distinct_attaching_simplices(self):
        rng = np.random.RandomState(57)
        checked = 0
        for _ in range(20):
            config = Configuration(random_cloud(rng, rng.randint(5, 9)), gauge=False)
            for kind, dim in (("alpha", 1), ("rips", 1)):
                pd = diagram(config, kind, dim, 0.0)
                for p in pd.finite:
                    if p.birth != p.death:
                        assert p.birth_attaching != p.death_attaching
                        checked += 1
        assert checked >= 10

    def test_near_tie_warning(self):
        # edges (0,3) and (1,3) have exactly equal radii; one of them generates
        # the first 1-dim birth, so the Jacobian selection is ambiguous there
        config = Configuration(EX1_CLOUD)
        fc = build(config, "alpha")
        red = reduce_boundary(boundary_matrix(fc))
        pd = persistence_data(red, fc, 1, 0.0)
        assert pd.finite, "expected nonempty alpha D1"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jacobian(fc, pd)
        assert any(issubclass(w.category, NearDegenerateJacobian) for w in caught)

    def test_columns_built_once_per_cloud_shape(self):
        # every Jacobian of one (n_points, gauge) shares one column list
        first, second = (
            diagram_and_jacobian(Configuration(EX1_CLOUD * scale), "alpha", 2)[1]
            for scale in (1.0, 2.0)
        )
        assert first.columns is second.columns
        assert list(first.columns) == Configuration(EX1_CLOUD).free_slots()


def _one_at_a_time(kind, key, config):
    """One attaching gradient, placed in the free columns by slot lookup."""
    pts = config.points
    if len(key) == 1:
        grad = np.zeros((1, 3))
    elif kind == "rips":
        diff = pts[key[0]] - pts[key[1]]
        unit = diff / (2.0 * np.linalg.norm(diff))
        grad = np.stack([unit, -unit])
    else:
        grad = circumradius_gradient(pts[list(key)])
    row = np.zeros(config.free_dim)
    for c, (vtx, axis) in enumerate(config.free_slots()):
        if vtx in key:
            row[c] = grad[key.index(vtx), axis]
    return row, np.linalg.norm(grad)


class TestBatchedGradients:
    """The batched rows against gradients taken one simplex at a time."""

    @pytest.mark.parametrize("gauge", [True, False])
    @pytest.mark.parametrize("kind", ["alpha", "rips"])
    def test_rows_equal_one_at_a_time(self, kind, gauge):
        rng = np.random.RandomState(11)
        pts = random_cloud(rng, 9)
        config = to_gauge_frame(pts) if gauge else Configuration(pts, gauge=False)
        fc = build(config, kind, max_dim=3)
        keys = [e.attaching for e in fc.entries]
        keys = [keys[i] for i in rng.permutation(len(keys))]  # sizes interleaved
        index = skeleton_index(fc.skeleton)
        rows, norms = _attaching_gradients(fc, [index[key] for key in keys])
        assert rows.shape == (len(keys), config.free_dim)
        for key, row, norm in zip(keys, rows, norms):
            expected_row, expected_norm = _one_at_a_time(kind, key, config)
            assert np.array_equal(row, expected_row), key
            assert norm == pytest.approx(expected_norm, rel=1e-14, abs=0.0)

    def test_no_keys(self):
        config = Configuration(EX1_CLOUD)
        rows, norms = _attaching_gradients(build(config, "alpha"), [])
        assert rows.shape == (0, config.free_dim) and norms.shape == (0,)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_stored_spheres_equal_kernel(self, seed, m):
        # rows read from the build's circumspheres against one kernel call per size
        config = to_gauge_frame(random_cloud(np.random.RandomState(seed), m))
        fc = build(config, "alpha")
        keys = sorted({e.attaching for e in fc.entries if e.dim >= 1}, key=lambda k: (len(k), k))
        index = skeleton_index(fc.skeleton)
        rows, _ = _attaching_gradients(fc, [index[key] for key in keys])
        cols = _free_columns(config.n_points, config.gauge)
        expected = np.zeros((len(keys), config.free_dim + 1))
        start = 0
        for size in (2, 3, 4):
            verts = np.array([k for k in keys if len(k) == size]).reshape(-1, size)
            grads = circumradius_gradient(config.points[verts])
            expected[np.arange(start, start + len(verts))[:, None, None], cols[verts]] = grads
            start += len(verts)
        assert np.array_equal(rows, expected[:, :-1])


class TestGradientsAgainstReference:
    """One pass over every dimension gives the rows of the pass per dimension,
    byte for byte."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 30),
           kind=st.sampled_from(["alpha", "rips"]), gauge=st.booleans(), data=st.data())
    def test_mixed_selection(self, seed, m, kind, gauge, data):
        pts = random_cloud(np.random.RandomState(seed), m)
        config = to_gauge_frame(pts) if gauge else Configuration(pts, gauge=False)
        fc = build(config, kind, max_dim=3 if kind == "alpha" else 2)
        index = skeleton_index(fc.skeleton)
        attaching = sorted({index[e.attaching] for e in fc.entries})
        # any mix of dimensions, vertices included, in any order, with repeats
        simplices = data.draw(st.lists(st.sampled_from(attaching), max_size=40))
        rows, norms = _attaching_gradients(fc, simplices)
        expected_rows, expected_norms = attaching_gradients_reference(fc, simplices)
        assert rows.shape == expected_rows.shape and rows.tobytes() == expected_rows.tobytes()
        # the padded sum of an edge's squares may round its last bit otherwise;
        # the norms only meet the sliver cap of the tie rows
        np.testing.assert_array_max_ulp(norms, expected_norms, maxulp=2)


class TestJacobianVsFiniteDifferences:
    @pytest.mark.parametrize("kind,dim", [("alpha", 2), ("alpha", 1), ("rips", 1)])
    def test_random_clouds(self, kind, dim):
        rng = np.random.RandomState(42)
        done = 0
        attempts = 0
        while done < 6 and attempts < 40:
            attempts += 1
            m = rng.randint(4, 9)
            config = Configuration(random_cloud(rng, m) * 2, gauge=False)
            pd, jac = diagram_and_jacobian(config, kind, dim)
            if not pd.finite:
                continue
            jac = jac.matrix

            u0 = config.pack()

            def f(u):
                c = config.with_vector(u)
                p = diagram(c, kind, dim, 0.0)
                if len(p.finite) != len(pd.finite):
                    raise RuntimeError("cardinality changed under perturbation")
                return p.vector(include_essential=False)

            try:
                fd = fd_gradient(f, u0, h=1e-6)
            except RuntimeError:
                continue
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(jac - fd).max() / scale <= 1e-6
            done += 1
        assert done >= 4


SLIVER = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 1e-13]])


class TestDegenerateMaskOnRead:
    """An alpha complex computes its degenerate mask only when the radius
    gradients or the general-position report read it, once."""

    @staticmethod
    def _counted(monkeypatch):
        calls, mask = [], filtration._degenerate

        def counted(*args):
            calls.append(len(args[1]))
            return mask(*args)
        monkeypatch.setattr(filtration, "_degenerate", counted)
        return calls

    def test_diagram_computes_none(self, monkeypatch):
        calls = self._counted(monkeypatch)
        config = Configuration(np.random.default_rng(0).uniform(0.0, 10.0, (60, 3)), gauge=False)
        for dim in (0, 1, 2):
            assert diagram(config, "alpha", dim).finite
        assert calls == []

    def test_at_most_one_per_evaluation(self, monkeypatch):
        calls, builds, build_in_solver = self._counted(monkeypatch), [], solver.build

        def counted_build(*args, **kwargs):
            builds.append(1)
            return build_in_solver(*args, **kwargs)
        monkeypatch.setattr(solver, "build", counted_build)
        config = Configuration(random_cloud(np.random.RandomState(4), 9), gauge=False)
        v0 = _diagram_vector(config, "alpha", 1)
        trace = solver.continue_cloud(config, "alpha", 1, 0.0, v0 * 1.02, n_steps=2, tie_window=1e-3)
        assert trace.steps and 0 < len(calls) <= len(builds)

    def test_sliver_raises(self):
        fc = build(Configuration(SLIVER, gauge=False), "alpha", 3)
        tet = len(fc.skeleton) - 1
        assert np.flatnonzero(fc.degenerate).tolist() == [tet]
        # the flat tetrahedron kills its largest triangle at once; the zero
        # length pair, which no diagram keeps, has it as both realizers
        tri = fc.skeleton.offsets[2]
        assert fc.realizer[tri] == tet
        names, radius = fc.skeleton.names, float(fc.birth[tet])
        pair = FinitePair(radius, radius, int(names[tri]), int(names[tet]),
                          int(names[tet]), int(names[tet]))
        with pytest.raises(DegenerateSimplex, match="coplanar points in 3-simplex"):
            jacobian(fc, PersistenceData("alpha", 2, 0.0, (pair,), ()))
