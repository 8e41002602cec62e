import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdcont.delaunay import delaunay3
from pdcont.diffmap import jacobian
from pdcont.errors import DimensionMismatch, GeneralPositionViolation
from pdcont.geometry import Configuration
from pdcont import cli, diffmap, filtration, solver
from pdcont.persistence import diagram
from pdcont.solver import (
    NewtonReport,
    NewtonStatus,
    continue_cloud,
    match_to_layout,
    newton_pinv,
    pinv_apply,
    pinv_matrix,
    svd,
)

from helpers import (
    PROPERTY, attaching_gradients_reference, circumspheres_reference, jacobi_reference,
    random_cloud,
)

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)


class TestSVD:
    def test_padded_diagonal(self):
        a = np.zeros((2, 4))
        a[0, 0], a[1, 1] = 3.0, 2.0
        _, s, _ = svd(a)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.RandomState(0)
        for shape in ((5, 9), (9, 5), (4, 4), (1, 7)):
            a = rng.randn(*shape)
            v, s, w = svd(a)
            err = np.linalg.norm(a - v @ np.diag(s) @ w.T) / np.linalg.norm(a)
            assert err <= 1e-12

    def test_orthogonality(self):
        rng = np.random.RandomState(1)
        a = rng.randn(6, 10)
        v, s, w = svd(a)
        np.testing.assert_allclose(v.T @ v, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(w.T @ w, np.eye(6), atol=1e-12)

    def test_two_row_characteristic_polynomial(self):
        # singular values of a 2 x n matrix from the eigenvalues of A A^T
        rng = np.random.RandomState(2)
        for n in (3, 5, 8):
            a = rng.randn(2, n)
            g = a @ a.T
            tr, det = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
            expected = sorted([math.sqrt((tr + disc) / 2), math.sqrt((tr - disc) / 2)])
            _, s, _ = svd(a)
            np.testing.assert_allclose(sorted(s), expected, atol=1e-12)

    def test_sorted_nonincreasing(self):
        rng = np.random.RandomState(3)
        for _ in range(10):
            a = rng.randn(rng.randint(1, 6), rng.randint(1, 9))
            _, s, _ = svd(a)
            assert all(x >= y for x, y in zip(s, s[1:]))
            assert all(x >= 0 for x in s)


def _graded_stack():
    """A 64 x 54 matrix with singular values from 1 down to 1e-10."""
    rng = np.random.RandomState(6)
    left, _ = np.linalg.qr(rng.randn(64, 54))
    right, _ = np.linalg.qr(rng.randn(54, 54))
    sigma = np.logspace(0, -10, 54)
    return (left * sigma) @ right.T, sigma


class TestSVDPath:
    """Jacobi up to a short side of 16, LAPACK above."""

    @pytest.mark.parametrize("shape", [(6, 2), (6, 5), (5, 12), (12, 12)])
    def test_short_side_up_to_limit_is_jacobi(self, shape):
        a = np.random.RandomState(5).randn(*shape)
        if shape[0] > shape[1]:
            expected = solver._jacobi_tall(a)
        else:
            w, s, v = solver._jacobi_tall(a.T)
            expected = (v, s, w)
        for got, want in zip(svd(a), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(64, 54), (17, 40)])
    def test_long_short_side_thin_form(self, shape):
        a = np.random.RandomState(7).randn(*shape)
        v, s, w = svd(a)
        k = min(shape)
        assert v.shape == (shape[0], k) and w.shape == (shape[1], k)
        np.testing.assert_allclose(v @ np.diag(s) @ w.T, a, atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(w.T @ w, np.eye(k), atol=1e-12)

    def test_graded_singular_values_match_jacobi(self):
        a, _ = _graded_stack()
        _, s, _ = svd(a)
        _, s_jacobi, _ = solver._jacobi_tall(a)
        assert np.abs(s - s_jacobi).max() <= 1e-12 * s_jacobi[0]

    def test_graded_penrose_equations(self):
        # the products carry rounding of order eps * cond relative to the norms
        a, sigma = _graded_stack()
        x = pinv_matrix(a)
        tol = 10 * np.finfo(float).eps * sigma[0] / sigma[-1]
        norm_a, norm_x = np.abs(a).max(), np.abs(x).max()
        assert np.abs(a @ x @ a - a).max() <= tol * norm_a
        assert np.abs(x @ a @ x - x).max() <= tol * norm_x
        assert np.abs((a @ x).T - a @ x).max() <= tol
        assert np.abs((x @ a).T - x @ a).max() <= tol


@st.composite
def _jacobi_inputs(draw):
    """A tall matrix with a short side of 1 to 16, scaled by 2^-500 to 2^500
    with graded columns, some of them zero or repeated, laid out in C or F
    order or as a column slice of a wider array."""
    q = draw(st.integers(1, 16))
    p = q + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((p, q)) * 2.0 ** rng.integers(-20, 21, q)
    for j in draw(st.lists(st.integers(0, q - 1), max_size=3)):
        a[:, j] = 0.0 if draw(st.booleans()) else a[:, draw(st.integers(0, q - 1))]
    a *= 2.0 ** draw(st.integers(-500, 500))
    layout = draw(st.sampled_from(["C", "F", "slice"]))
    if layout == "slice":
        return np.hstack([a, a[:, :1]])[:, :-1]
    return np.asarray(a, order=layout)


class TestJacobiAgainstReference:
    """The Jacobi SVD gives the bytes of its reference: U and V rotated
    separately, three dot products per pair, every reorder and division."""

    @settings(PROPERTY, max_examples=100)
    @given(a=_jacobi_inputs())
    def test_factors_bitwise(self, a):
        with np.errstate(all="ignore"):
            got, expected = solver._jacobi_tall(a), jacobi_reference(a)
        for out, ref in zip(got, expected):
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes()

    @settings(PROPERTY, max_examples=60)
    @given(a=_jacobi_inputs(), wide=st.booleans())
    def test_both_orientations_bitwise(self, a, wide):
        a = a.T if wide else a
        with np.errstate(all="ignore"):
            got = svd(a)
            if a.shape[0] <= a.shape[1]:  # svd decomposes the transpose
                w, s, v = jacobi_reference(a.T)
                expected = (v, s, w)
            else:
                expected = jacobi_reference(a)
            # the factors feed matrix products, whose last bits follow their layout
            b = np.random.default_rng(0).standard_normal(a.shape[0])
            solve = [w @ (v.T @ b) for v, _, w in (got, expected)]
            assert solve[0].tobytes() == solve[1].tobytes()
        for out, ref in zip(got, expected):
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


class TestPinv:
    def test_minimum_norm_solution(self):
        a = np.zeros((2, 4))
        a[0, 0], a[1, 1] = 1.0, 1.0
        x, info = pinv_apply(a, np.array([1.0, 2.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 0.0, 0.0], atol=1e-14)
        assert info.rank == 2

    def test_penrose_equations(self):
        rng = np.random.RandomState(4)
        for _ in range(25):
            a = rng.randn(3, 7)
            x = pinv_matrix(a)
            np.testing.assert_allclose(a @ x @ a, a, atol=1e-12)
            np.testing.assert_allclose(x @ a @ x, x, atol=1e-12)
            np.testing.assert_allclose((a @ x).T, a @ x, atol=1e-12)
            np.testing.assert_allclose((x @ a).T, x @ a, atol=1e-12)

    def test_rank_deficient_least_squares(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 2.0])
        x, info = pinv_apply(a, b)
        assert info.rank_deficient
        # least-squares optimum: x[0] = mean of rhs, x[1] free -> 0 (min norm)
        grid = np.linspace(-3, 3, 601)
        best = min(grid, key=lambda t: np.linalg.norm(a @ np.array([t, 0.0]) - b))
        assert x[0] == pytest.approx(best, abs=0.02)
        assert x[0] == pytest.approx(1.5, abs=1e-12)
        assert x[1] == 0.0


class TestNewton:
    def test_already_converged(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        _, report, _ = newton_pinv(config, "alpha", 2, 0.0, v0)
        assert report.converged and report.iterations == 0

    def test_first_step_of_deformation(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        direction = np.array([4.0, 4.3])
        vt = v0 + 0.01 * direction / np.linalg.norm(direction)
        new_config, report, _ = newton_pinv(config, "alpha", 2, 0.0, vt)
        assert report.converged
        assert report.iterations <= 10
        assert report.residual <= 1e-10
        v_new = diagram(new_config, "alpha", 2, 0.0).vector(include_essential=False)
        np.testing.assert_allclose(v_new, vt, atol=1e-10)

    def test_minimum_norm_step(self):
        from pdcont.diffmap import jacobian

        config = Configuration(EX1_CLOUD)
        pd = diagram(config, "alpha", 2, 0.0)
        v0 = pd.vector(include_essential=False)
        vt = v0 + np.array([0.005, 0.007])
        new_config, report, _ = newton_pinv(config, "alpha", 2, 0.0, vt, max_iter=1,
                                            tol=1e-16)
        du = new_config.pack() - config.pack()
        jac = jacobian(config, "alpha", pd).matrix
        _, _, w = svd(jac)
        projected = w @ (w.T @ du)
        assert np.linalg.norm(du - projected) <= 1e-10 * np.linalg.norm(du)

    def test_dimension_mismatch(self):
        config = Configuration(EX1_CLOUD)
        with pytest.raises(DimensionMismatch):
            newton_pinv(config, "alpha", 2, 0.0, np.zeros(6))


class TestMatching:
    def test_key_identity_match(self):
        config = Configuration(EX1_CLOUD)
        pd = diagram(config, "alpha", 2, 0.0)
        layout = pd.finite
        matched = match_to_layout(layout, pd)
        assert matched == pd.finite

    def test_deficit_returns_none(self):
        config = Configuration(EX1_CLOUD)
        pd = diagram(config, "alpha", 2, 0.0)
        layout = pd.finite * 2  # pretend two slots
        assert match_to_layout(layout, pd) is None


class TestContinuation:
    def test_trivial_target_reached_immediately(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        trace = continue_cloud(config, "alpha", 2, 0.0, v0, step=0.01)
        assert trace.reached_target
        assert len(trace.steps) == 1

    def test_short_run_records_consistent_state(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        vt = v0 + 0.05
        trace = continue_cloud(config, "alpha", 2, 0.0, vt, n_steps=5)
        assert trace.reached_target
        assert [s.k for s in trace.steps] == [1, 2, 3, 4, 5]
        seg = trace.v_target - trace.v_start
        for s in trace.steps:
            # targets lie on the segment
            t = (s.v_target - trace.v_start) @ seg / (seg @ seg)
            np.testing.assert_allclose(
                s.v_target, trace.v_start + t * seg, atol=1e-12
            )
            # gauge-pinned coordinates remain exactly zero
            cfg = config.with_vector(s.u)
            assert cfg.points[0, 0] == 0.0 and cfg.points[0, 1] == 0.0
            assert cfg.points[0, 2] == 0.0 and cfg.points[1, 1] == 0.0
            assert cfg.points[1, 2] == 0.0 and cfg.points[2, 2] == 0.0
            # accepted residual verified by an independent diagram recomputation
            pd = diagram(cfg, "alpha", 2, 0.0)
            np.testing.assert_allclose(
                pd.vector(include_essential=False), s.v_target, atol=1e-9
            )

    def test_dimension_mismatch(self):
        config = Configuration(EX1_CLOUD)
        with pytest.raises(DimensionMismatch):
            continue_cloud(config, "alpha", 2, 0.0, np.zeros(4), step=0.01)

    def test_adaptive_halving_keeps_exact_steps(self, monkeypatch):
        # one failed solve halves 1/3 to 1/6: six accepted steps landing on t = 1
        core = solver._newton_core
        calls = []

        def fail_once(config, *args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                report = NewtonReport(NewtonStatus.MAX_ITERATIONS, 0, 1.0)
                return config, report, None, None
            return core(config, *args, **kwargs)

        monkeypatch.setattr(solver, "_newton_core", fail_once)
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        trace = continue_cloud(config, "alpha", 2, 0.0, v0 + 0.03, n_steps=3, adaptive=True)
        assert trace.reached_target
        assert len(trace.steps) == 6
        assert trace.steps[-1].t == 1.0

    def test_rips_continuation_small(self):
        # move the single Rips 1-dim pair of the trapezoid cloud slightly
        pts = np.array([[0.0, 0, 0], [0.1, 1.0, 0], [1.25, 1.1, 0], [1.3, 0, 0]])
        config = Configuration(pts, gauge=False)
        v0 = diagram(config, "rips", 1, 0.0).vector(include_essential=False)
        vt = v0 + np.array([0.01, 0.012])
        trace = continue_cloud(config, "rips", 1, 0.0, vt, n_steps=4)
        assert trace.reached_target
        final = diagram(trace.final_config, "rips", 1, 0.0)
        np.testing.assert_allclose(
            final.vector(include_essential=False), vt, atol=1e-9
        )


class TestEvaluatedOnce:
    """A continuation computes each configuration's filtration, Jacobian and
    SVD once: an accepted step's evaluation starts the next solve."""

    def _run(self, monkeypatch, shift, **kwargs):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        builds, reductions, matrices, reports = [], [], [], []
        build, reduce, decompose = solver.build, solver.reduce_boundary, solver.svd
        core = solver._newton_core

        def counted_build(*args, **kw):
            fc = build(*args, **kw)
            builds.append((fc, kw.get("previous")))
            return fc

        def counted_reduce(b):
            reductions.append(None)
            return reduce(b)

        def recorded_svd(a):
            matrices.append(np.array(a, dtype=float))
            return decompose(a)

        def reported_core(*args, **kw):
            out = core(*args, **kw)
            reports.append(out[1])
            return out

        monkeypatch.setattr(solver, "build", counted_build)
        monkeypatch.setattr(solver, "reduce_boundary", counted_reduce)
        monkeypatch.setattr(solver, "svd", recorded_svd)
        monkeypatch.setattr(solver, "_newton_core", reported_core)
        trace = continue_cloud(config, "alpha", 2, 0.0, v0 + shift, **kwargs)
        monkeypatch.undo()
        assert trace.reached_target
        # one build for the start, then one per Newton step, failed solves included
        assert len(builds) == 1 + sum(r.iterations for r in reports)
        # only the start is built without a previous evaluation, and a pairing
        # is recomputed only where the simplex order changed
        assert [prev is None for _, prev in builds].count(True) == 1
        changes = sum(prev is not None and fc.keys != prev.keys for fc, prev in builds)
        assert len(reductions) == 1 + changes
        for a, b in zip(matrices, matrices[1:]):
            assert not (a.shape == b.shape and a.tobytes() == b.tobytes())
        for step in trace.steps:
            cfg = config.with_vector(step.u)
            _, s, _ = svd(jacobian(cfg, "alpha", diagram(cfg, "alpha", 2, 0.0)).matrix)
            assert np.array_equal(step.singular_values, s)
        return trace, reports

    def test_short_run(self, monkeypatch):
        trace, reports = self._run(monkeypatch, 0.05, n_steps=5)
        assert len(trace.steps) == len(reports) == 5

    def test_adaptive_halving(self, monkeypatch):
        trace, reports = self._run(monkeypatch, 0.3, n_steps=2, max_iter=2, adaptive=True)
        failed = [r for r in reports if not r.converged]
        assert failed and len(reports) == len(trace.steps) + len(failed)


def _evaluation_bytes(ev):
    """Everything an evaluation computed, with arrays as raw bytes."""
    spheres = tuple(array.tobytes() for array in ev.fc.spheres)
    return ev.fc.entries, spheres, ev.reduction.pairs, ev.reduction.essentials, ev.pd


def _first_change(points, direction, changed, steps=24, reach=0.2):
    """Configurations just before and just after the first point along
    ``points + s * direction`` (0 < s <= reach) where ``changed`` holds,
    bisected down to a relative width of 2**-steps; None if it never does."""
    lo, hi = 0.0, reach
    if not changed(points + hi * direction):
        return None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if changed(points + mid * direction):
            hi = mid
        else:
            lo = mid
    return points + lo * direction, points + hi * direction


def _cloud_and_direction(seed, m):
    rng = np.random.RandomState(seed)
    points = random_cloud(rng, m)
    direction = rng.randn(m, 3)
    return points, direction / np.abs(direction).max()


class TestReuseAcrossIterates:
    """Evaluating with the previous evaluation gives exactly a fresh
    evaluation: the Delaunay skeleton is shared while the tetrahedra agree,
    and the pairing while the simplex order agrees."""

    @staticmethod
    def _evaluate(points, previous=None):
        config = Configuration(points, gauge=False)
        return solver._evaluate(config, "alpha", 1, 0.0, previous=previous)

    def _check(self, before, after):
        """Evaluate ``after`` with and without the evaluation of ``before``;
        returns (previous, reused evaluation)."""
        try:
            previous = self._evaluate(before)
            reused = self._evaluate(after, previous)
            fresh = self._evaluate(after)
        except GeneralPositionViolation:
            assume(False)  # too close to a flip to triangulate safely
        assert _evaluation_bytes(reused) == _evaluation_bytes(fresh)
        return previous, reused

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_small_move_reuses_everything(self, seed, m):
        points, direction = _cloud_and_direction(seed, m)
        previous, reused = self._check(points, points + 1e-12 * direction)
        assert reused.fc.skeleton is previous.fc.skeleton
        assert reused.reduction is previous.reduction

    @settings(PROPERTY, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_order_change_recomputes_the_pairing(self, seed, m):
        points, direction = _cloud_and_direction(seed, m)
        keys = self._evaluate(points).fc.keys
        pair = _first_change(points, direction, lambda p: self._evaluate(p).fc.keys != keys)
        assume(pair is not None)
        previous, reused = self._check(*pair)
        # the first change along the path is a swap of two radii, not a flip
        assume(reused.fc.skeleton.tetrahedra == previous.fc.skeleton.tetrahedra)
        assert reused.fc.skeleton is previous.fc.skeleton
        assert reused.fc.keys != previous.fc.keys
        assert reused.reduction is not previous.reduction

    @settings(PROPERTY, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_flip_rebuilds_the_skeleton(self, seed, m):
        points, direction = _cloud_and_direction(seed, m)
        tets = delaunay3(Configuration(points, gauge=False)).tetrahedra
        pair = _first_change(
            points, direction,
            lambda p: delaunay3(Configuration(p, gauge=False)).tetrahedra != tets,
        )
        assume(pair is not None)
        previous, reused = self._check(*pair)
        assert reused.fc.skeleton.tetrahedra != previous.fc.skeleton.tetrahedra
        assert reused.fc.skeleton is not previous.fc.skeleton
        assert reused.reduction is not previous.reduction


@pytest.mark.filterwarnings("ignore::pdcont.errors.NearDegenerateJacobian")
def test_traces_equal_with_the_references(monkeypatch, tmp_path):
    """Examples 3 and 4 write the same trace bytes with the package's Jacobi
    SVD, circumsphere kernel and gradient pass as with their references.
    Pinned digests would not do: the BLAS picks its dot kernel per CPU."""

    def traces(label):
        out = []
        for n in (3, 4):
            path = tmp_path / f"{label}-example{n}.jsonl"
            cli.write_trace(cli._run_example(n, None)[0], str(path))
            out.append(path.read_bytes())
        return out

    package = traces("package")
    monkeypatch.setattr(solver, "_jacobi_tall", jacobi_reference)
    monkeypatch.setattr(filtration, "circumspheres", circumspheres_reference)
    monkeypatch.setattr(diffmap, "_attaching_gradients", attaching_gradients_reference)
    monkeypatch.setattr(solver, "_attaching_gradients", attaching_gradients_reference)
    assert traces("reference") == package
