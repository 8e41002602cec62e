import math

import numpy as np
import pytest

from pdcont.errors import DimensionMismatch
from pdcont.geometry import Configuration
from pdcont import solver
from pdcont.persistence import diagram
from pdcont.solver import (
    NewtonReport,
    NewtonStatus,
    continue_cloud,
    layout_from,
    match_to_layout,
    newton_pinv,
    pinv_apply,
    pinv_matrix,
    svd,
)

from helpers import random_cloud

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
        layout = layout_from(pd)
        matched = match_to_layout(layout, pd)
        assert matched == pd.finite

    def test_deficit_returns_none(self):
        config = Configuration(EX1_CLOUD)
        pd = diagram(config, "alpha", 2, 0.0)
        layout = layout_from(pd) * 2  # pretend two slots
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
                return config, report, None, None, None
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
