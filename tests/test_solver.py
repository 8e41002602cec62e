import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdcont.delaunay import delaunay3
from pdcont.errors import DimensionMismatch, GeneralPositionViolation, MatchingAmbiguous
from pdcont.geometry import Configuration, to_gauge_frame
from pdcont import cli, diffmap, filtration, solver
from pdcont.persistence import FinitePair, PersistenceData, diagram
from pdcont.solver import (
    NewtonReport,
    NewtonStatus,
    continue_cloud,
    match_to_layout,
    pinv_apply,
    pinv_matrix,
    svd,
)

from helpers import (
    PROPERTY, attaching_gradients_reference, build_alpha_reference, diagram_and_jacobian,
    filtration_keys, jacobi_reference, random_cloud,
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


def _graded_stack(last=None):
    """A 64 x 54 matrix with singular values from 1 down to 1e-10, the last
    one replaced by ``last`` when given."""
    rng = np.random.RandomState(6)
    left, _ = np.linalg.qr(rng.randn(64, 54))
    right, _ = np.linalg.qr(rng.randn(54, 54))
    sigma = np.logspace(0, -10, 54)
    if last is not None:
        sigma[-1] = last
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

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (20, 30), (30, 20)])
    @pytest.mark.parametrize("square", [True, False])
    def test_matrix_right_hand_side(self, shape, square):
        # each column of b is solved on its own, on the Jacobi and the LAPACK path
        rng = np.random.RandomState(9)
        a = rng.randn(*shape)
        b = rng.randn(shape[0], shape[0] if square else 2)
        x, _ = pinv_apply(a, b)
        assert x.shape == (shape[1], b.shape[1])
        assert np.abs(x - pinv_matrix(a) @ b).max() <= 1e-12


@st.composite
def _lapack_inputs(draw):
    """A matrix whose short side (17 to 40) sends it to LAPACK, tall or wide,
    with some columns of its tall form zero or repeated, scaled by 2^-500 to
    2^500, and a right-hand side."""
    q = draw(st.integers(17, 40))
    p = q + draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((p, q))
    for j in draw(st.lists(st.integers(0, q - 1), max_size=4)):
        a[:, j] = 0.0 if draw(st.booleans()) else a[:, draw(st.integers(0, q - 1))]
    a *= 2.0 ** draw(st.integers(-500, 500))
    if draw(st.booleans()):
        a = a.T
    return a, rng.standard_normal(a.shape[0])


class TestLapackSolve:
    """Above a short side of 16 a solve goes to LAPACK's QR with column
    pivoting (gelsy), with the SVD path's solution and, on these matrices,
    the rank of its singular-value cutoff."""

    @settings(PROPERTY, max_examples=100)
    @given(inputs=_lapack_inputs())
    def test_matches_the_dense_pseudo_inverse(self, inputs):
        a, b = inputs
        x, info = pinv_apply(a, b)
        s = np.linalg.svd(a, compute_uv=False)
        assert info.rank == int((s > solver._CUTOFF_REL * s[0]).sum()) >= 1
        assert info.rank_deficient == (info.rank < min(a.shape))
        # a backward-stable solve is accurate to eps * kappa relative to |b| / sigma_r
        kept = s[info.rank - 1]
        tol = 64 * np.finfo(float).eps * (s[0] / kept) * np.linalg.norm(b) / kept
        assert np.linalg.norm(x - pinv_matrix(a) @ b) <= tol

    def test_full_rank_zero_cutoff_solution(self):
        a, sigma = _graded_stack()
        b = np.random.RandomState(8).randn(a.shape[0])
        x, info = pinv_apply(a, b)
        assert info.rank == a.shape[1] and not info.rank_deficient
        tol = 64 * np.finfo(float).eps * (sigma[0] / sigma[-1]) * np.linalg.norm(b) / sigma[-1]
        assert np.linalg.norm(x - pinv_matrix(a) @ b) <= tol

    @pytest.mark.parametrize("last, rank", [(1e-11, 54), (3e-12, 54), (1e-13, 53), (1e-14, 53)])
    def test_cutoff_on_the_graded_stack(self, last, rank):
        # the kept sigma next to the last is 1.5e-10, the cutoff 1e-12 relative;
        # a truncated solution is the pivoted QR's, so its residual, not x,
        # is compared with the SVD driver's
        a, _ = _graded_stack(last)
        for b in np.random.RandomState(10).randn(3, a.shape[0]):
            x, info = pinv_apply(a, b)
            assert info.rank == rank and info.rank_deficient == (rank < a.shape[1])
            if info.rank_deficient:
                svd_x = np.linalg.lstsq(a, b, rcond=solver._CUTOFF_REL)[0]
                ours, theirs = np.linalg.norm(a @ x - b), np.linalg.norm(a @ svd_x - b)
                assert abs(ours - theirs) <= 1e-6 * theirs


@pytest.mark.parametrize("shape", [(3, 5), (30, 20)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_non_finite_input_is_one_value_error(capfd, shape, bad, where):
    """A non-finite matrix or right-hand side is refused before either
    path: no numpy warning, and nothing from LAPACK on stderr."""
    rng = np.random.RandomState(3)
    a, b = rng.randn(*shape), rng.randn(shape[0])
    if where == "matrix":
        a[1, 2] = bad
    else:
        b[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            pinv_apply(a, b)
    assert capfd.readouterr().err == ""


class TestStepControlValidation:
    """The library refuses the step controls that the CLI refuses: a zero step
    divided by zero, a negative one or a step count below 1 ran one step,
    NaN failed in ``int``, a negative iteration cap left no report, a NaN
    tie window was ignored and a negative halving cap never halved. A step
    too small for the segment, which the CLI accepts, overflowed the step
    count (``OverflowError``)."""

    @staticmethod
    def _start():
        config = Configuration(EX1_CLOUD)
        return config, diagram(config, "alpha", 2, 0.0).vector(include_essential=False) + 0.01

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, 5e-324])
    def test_step(self, step):
        config, target = self._start()
        with pytest.raises(ValueError, match="step"):
            continue_cloud(config, "alpha", 2, 0.0, target, step=step)

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_n_steps(self, n_steps):
        config, target = self._start()
        with pytest.raises(ValueError, match="n_steps"):
            continue_cloud(config, "alpha", 2, 0.0, target, n_steps=n_steps)

    @pytest.mark.parametrize("max_halvings", [-1, -6])
    def test_max_halvings(self, max_halvings):
        config, target = self._start()
        with pytest.raises(ValueError, match="max_halvings"):
            continue_cloud(config, "alpha", 2, 0.0, target, n_steps=2, max_halvings=max_halvings)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tol(self, tol):
        config, target = self._start()
        with pytest.raises(ValueError, match="tol"):
            continue_cloud(config, "alpha", 2, 0.0, target, n_steps=2, tol=tol)

    @pytest.mark.parametrize("max_iter", [-1, -50])
    def test_max_iter(self, max_iter):
        config, target = self._start()
        with pytest.raises(ValueError, match="max_iter"):
            continue_cloud(config, "alpha", 2, 0.0, target, n_steps=2, max_iter=max_iter)

    @pytest.mark.parametrize("window", [-0.5, math.nan, math.inf])
    def test_tie_windows(self, window):
        config, target = self._start()
        with pytest.raises(ValueError, match="tie_window"):
            continue_cloud(config, "alpha", 2, 0.0, target, n_steps=2, tie_window=window)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, bad):
        # a NaN target planned one step that failed in a Newton step's points,
        # an infinite one overflowed the step count; now one ValueError first
        config, target = self._start()
        target[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="v_target must be finite"):
                continue_cloud(config, "alpha", 2, 0.0, target, step=0.01)

    def test_boundary_values_run(self):
        config, target = self._start()
        trace = continue_cloud(config, "alpha", 2, 0.0, target, n_steps=1, max_iter=0, tie_window=0.0)
        [(k, dt, report)] = trace.rejected
        assert report.status is NewtonStatus.MAX_ITERATIONS and report.iterations == 0
        assert trace.failed_step == k == 1 and dt == 1.0


class TestEpsilonValidation:
    """A negative or non-finite diagonal cutoff epsilon is refused, not read as
    a cutoff that empties the diagram."""

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_continue_cloud(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            continue_cloud(Configuration(EX1_CLOUD), "alpha", 2, epsilon, [], step=0.01)


class TestNewton:
    """One Newton solve: the first step of a one-step continuation, or
    ``_newton_core`` from a start's evaluation where a test needs the solve's
    layout, its configuration or a monkeypatched evaluation."""

    @staticmethod
    def _solve(dim, epsilon, v_target, tol=1e-10, max_iter=50):
        """``_newton_core`` from the evaluated example-1 cloud, tracking its diagram."""
        ev = solver._evaluate(Configuration(EX1_CLOUD), "alpha", dim, epsilon)
        return solver._newton_core(ev, ev.pd.finite, np.asarray(v_target), tol, max_iter, 0.0)

    def test_already_converged(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        report = continue_cloud(config, "alpha", 2, 0.0, v0, n_steps=1).steps[0].report
        assert report.converged and report.iterations == 0

    def test_first_step_of_deformation(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        direction = np.array([4.0, 4.3])
        vt = v0 + 0.01 * direction / np.linalg.norm(direction)
        trace = continue_cloud(config, "alpha", 2, 0.0, vt, n_steps=1)
        report = trace.steps[0].report
        assert report.converged
        assert report.iterations <= 10
        assert report.residual <= 1e-10
        v_new = diagram(trace.final_config, "alpha", 2, 0.0).vector(include_essential=False)
        np.testing.assert_allclose(v_new, vt, atol=1e-10)

    def test_minimum_norm_step(self):
        config = Configuration(EX1_CLOUD)
        pd = diagram(config, "alpha", 2, 0.0)
        v0 = pd.vector(include_essential=False)
        vt = v0 + np.array([0.005, 0.007])
        new_config, report, _, _ = self._solve(2, 0.0, vt, max_iter=1, tol=1e-16)
        du = new_config.pack() - config.pack()
        _, _, w = svd(diagram_and_jacobian(config, "alpha", 2)[1].matrix)
        projected = w @ (w.T @ du)
        assert np.linalg.norm(du - projected) <= 1e-10 * np.linalg.norm(du)

    @pytest.mark.filterwarnings("ignore::pdcont.errors.NearDegenerateJacobian")
    def test_dimension_zero_jacobian_is_singular(self):
        # every H0 birth is a vertex at radius 0, so its Jacobian row is zero
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 0, 0.0).vector(include_essential=False)
        _, report, _, _ = self._solve(0, 0.0, v0 + 0.01)
        assert report.status is NewtonStatus.SINGULAR_JACOBIAN and report.iterations == 0
        assert report.singular_values[-1] == 0.0
        assert "below floor" in report.message

    def test_unchanged_residual_diverges(self, monkeypatch):
        # every iterate evaluates as the start, so the residual never decreases
        evaluate = solver._evaluate
        monkeypatch.setattr(solver, "_evaluate", lambda config, *args, previous=None: (
            previous or evaluate(config, *args)
        ))
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        _, report, _, _ = self._solve(2, 0.0, v0 + 0.01)
        assert report.status is NewtonStatus.DIVERGED and report.iterations == 5
        assert report.residual == pytest.approx(0.01)
        assert report.message == "residual failed to decrease for 5 consecutive iterations"

    def test_pair_dropped_below_epsilon(self):
        # the target lies within epsilon of the diagonal, where the pair is truncated
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.05).vector(include_essential=False)
        _, report, _, _ = self._solve(2, 0.05, v0 + [0.0, -0.103])
        assert report.status is NewtonStatus.CARDINALITY_CHANGED and report.iterations == 1
        assert report.residual == math.inf
        assert report.message == "retained pair count dropped from 1 to 0"

    def test_extra_pair_at_convergence(self, monkeypatch):
        # an untracked pair is matched around, but the solution may not keep it
        evaluate, extra = solver._evaluate, FinitePair(20.0, 21.0, -1, -2, -1, -2)

        def with_extra(config, *args, previous=None):
            ev = evaluate(config, *args, previous=previous)
            if previous is not None:
                ev.pd = replace(ev.pd, finite=ev.pd.finite + (extra,))
            return ev

        monkeypatch.setattr(solver, "_evaluate", with_extra)
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        _, report, layout, _ = self._solve(2, 0.0, v0 + [0.005, 0.007])
        assert report.status is NewtonStatus.CARDINALITY_CHANGED and report.residual <= 1e-10
        assert report.message == "retained pair count changed from 1 to 2"
        assert extra not in layout


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

    @staticmethod
    def _pairs(values, first_key):
        """FinitePairs with the (birth, death) ``values`` and fresh names from ``first_key``."""
        return tuple(FinitePair(b, d, first_key + 2 * i, first_key + 2 * i + 1, 0, 0)
                     for i, (b, d) in enumerate(values))

    def _match(self, layout, finite, k=0):
        """The names matched to the layout, or the ambiguity message, with every
        value scaled by 2^k."""
        def scaled(pairs):
            return tuple(replace(r, birth=math.ldexp(r.birth, k), death=math.ldexp(r.death, k))
                         for r in pairs)
        try:
            matched = match_to_layout(scaled(layout), PersistenceData("alpha", 1, 0.0, scaled(finite), ()))
        except MatchingAmbiguous as exc:
            return str(exc)
        return [(r.birth_key, r.death_key) for r in matched]

    def test_unambiguous_assignment(self):
        layout = self._pairs([(1.0, 2.0), (3.0, 5.0)], 0)
        finite = self._pairs([(3.0, 5.25), (1.0, 2.125), (1.0, 1.5)], 100)
        assert self._match(layout, finite) == [(102, 103), (100, 101)]

    def test_swapped_assignment_ties(self):
        layout = self._pairs([(0.5, 1.0), (0.5, 2.0)], 0)
        finite = self._pairs([(0.5, 1.5), (0.75, 1.5)], 100)  # every cost is 0.5
        assert self._match(layout, finite).startswith("two diagram-coordinate assignments")

    def test_untracked_point_as_close(self):
        layout = self._pairs([(1.0, 2.0)], 0)
        finite = self._pairs([(1.0, 2.125), (1.0, 1.875)], 100)  # both at cost 0.125
        assert self._match(layout, finite).startswith("an untracked diagram point")
        finite = self._pairs([(1.0, 2.125), (1.0, 1.875 - 1e-11)], 100)
        assert self._match(layout, finite) == [(100, 101)]

    @PROPERTY
    @given(
        values=st.lists(st.tuples(st.integers(0, 32), st.integers(0, 32),
                                  st.sampled_from([0.0, 3e-13, 2e-12])), min_size=2, max_size=6),
        slots=st.integers(1, 3),
        k=st.integers(-200, 200),
    )
    def test_scaling_by_a_power_of_two_decides_the_same(self, values, slots, k):
        """Scaling layout and diagram by 2^k gives the same match or the same
        raise; near ties within ``_AMBIGUITY_TOL`` are drawn on purpose."""
        slots = min(slots, len(values) // 2)
        pairs = [(b / 8, (b + d) / 8 + offset) for b, d, offset in values]
        layout, finite = self._pairs(pairs[:slots], 0), self._pairs(pairs[slots:], 100)
        assert self._match(layout, finite, k) == self._match(layout, finite)

    @PROPERTY
    @given(costs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
    def test_one_row_assignment_is_scipys(self, costs):
        """A one-row cost takes its cheapest column, which is scipy's choice
        whenever that minimum is unique by more than ``_AMBIGUITY_TOL``."""
        cost = np.array([costs])
        rows, cols = solver.linear_sum_assignment(cost)
        assert rows.tolist() == [0] and cost[0, cols[0]] == cost.min()
        runner_up = sorted(costs)[1] if len(costs) > 1 else math.inf
        if runner_up > min(costs) + solver._AMBIGUITY_TOL:
            expected = scipy.optimize.linear_sum_assignment(cost)
            assert [rows.tolist(), cols.tolist()] == [e.tolist() for e in expected]

    @PROPERTY
    @given(farther=st.lists(st.integers(0, 32), max_size=4), swap=st.booleans(),
           offset=st.sampled_from([0.0, 3e-13, -3e-13]), k=st.integers(-200, 200))
    def test_one_row_near_tie_is_ambiguous(self, farther, swap, offset, k):
        """One free slot whose two cheapest leftovers tie within
        ``_AMBIGUITY_TOL`` raises, whichever column the assignment took."""
        layout = self._pairs([(1.0, 2.0)], 0)
        tied = [2.125, 1.875 + offset]  # both 1/8 from the slot, up to the offset
        deaths = tied[::-1] if swap else tied
        deaths += [2.25 + v / 8 for v in farther]
        finite = self._pairs([(1.0, d) for d in deaths], 100)
        assert self._match(layout, finite, k).startswith("an untracked diagram point")


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
        failed = NewtonReport(NewtonStatus.MAX_ITERATIONS, 0, 1.0)
        calls = []

        def fail_once(*args):
            calls.append(None)
            return (None, failed, None, None) if len(calls) == 1 else core(*args)

        monkeypatch.setattr(solver, "_newton_core", fail_once)
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        trace = continue_cloud(config, "alpha", 2, 0.0, v0 + 0.03, n_steps=3, max_halvings=6)
        assert trace.reached_target
        assert len(trace.steps) == 6
        assert trace.steps[-1].t == 1.0
        assert trace.rejected == [(1, 1 / 3, failed)]

    @pytest.mark.filterwarnings("ignore::pdcont.errors.NearDegenerateJacobian")
    def test_dimension_zero_stops_at_once(self):
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 0, 0.0).vector(include_essential=False)
        trace = continue_cloud(config, "alpha", 0, 0.0, v0 + 0.01, n_steps=2)
        assert not trace.reached_target and trace.steps == [] and trace.failed_step == 1
        [(k, dt, report)] = trace.rejected
        assert (k, dt, report.status) == (1, 0.5, NewtonStatus.SINGULAR_JACOBIAN)
        assert trace.reason == f"{NewtonStatus.SINGULAR_JACOBIAN.value}: {report.message}"
        assert trace.termination == f"FailedAtStep 1: {trace.reason}"
        assert trace.final_config is config

    def test_library_error_ends_the_run(self, monkeypatch):
        # a PdcontError in a solve fails its step and keeps the accepted steps
        core = solver._newton_core
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise MatchingAmbiguous("two assignments tie")
            return core(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton_core", fail_second)
        config = Configuration(EX1_CLOUD)
        v0 = diagram(config, "alpha", 2, 0.0).vector(include_essential=False)
        trace = continue_cloud(config, "alpha", 2, 0.0, v0 + 0.03, n_steps=3, max_halvings=6)
        assert not trace.reached_target and len(trace.steps) == 1 and trace.failed_step == 2
        assert trace.reason == "MatchingAmbiguous: two assignments tie" and trace.rejected == []
        assert trace.termination == "FailedAtStep 2: MatchingAmbiguous: two assignments tie"
        np.testing.assert_array_equal(trace.final_config.pack(), trace.steps[0].u)

    def test_more_coordinates_than_free_ones_warns(self):
        # three gauged points have 3 free coordinates; their H0 diagram has 4
        config = Configuration(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.3, 0.8, 0]]))
        v0 = diagram(config, "rips", 0, 0.0).vector(include_essential=False)
        with pytest.warns(UserWarning, match="m=4 coordinates but only n=3 free point") as record:
            trace = continue_cloud(config, "rips", 0, 0.0, v0, n_steps=1)
        assert record[0].filename == __file__  # the caller's line, not the solver's
        assert trace.reached_target

    def test_exhausted_halvings_keep_every_attempt(self):
        # example 2's cloud and target with a coarser step: the last halving
        # fails too, and each of the max_halvings + 1 failed solves is kept
        config = to_gauge_frame(cli.EXAMPLE_1_CLOUD)
        trace = continue_cloud(config, "alpha", 2, 0.0, [6.42719, 7.09015], step=0.05,
                               max_halvings=3)
        assert not trace.reached_target and len(trace.rejected) == 4
        ks, dts, reports = zip(*trace.rejected)
        assert list(ks) == sorted(ks) and ks[-1] == trace.failed_step == len(trace.steps) + 1
        assert dts == tuple(0.5**i / trace.n_planned for i in range(4))
        assert not any(r.converged for r in reports)
        last = reports[-1]
        assert trace.reason == f"{last.status.value}: {last.message or f'residual {last.residual:.3e}'}"

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
        builds, reductions, matrices = [], [], []
        build, reduce, decompose = solver.build, solver.reduce_boundary, solver.svd

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

        monkeypatch.setattr(solver, "build", counted_build)
        monkeypatch.setattr(solver, "reduce_boundary", counted_reduce)
        monkeypatch.setattr(solver, "svd", recorded_svd)
        trace = continue_cloud(config, "alpha", 2, 0.0, v0 + shift, **kwargs)
        monkeypatch.undo()
        assert trace.reached_target
        reports = [s.report for s in trace.steps] + [r for _, _, r in trace.rejected]
        # one build for the start, then one per Newton step, failed solves included
        assert len(builds) == 1 + sum(r.iterations for r in reports)
        # only the start is built without a previous evaluation, and a pairing
        # is recomputed only where the simplex order changed
        assert [prev is None for _, prev in builds].count(True) == 1
        changes = sum(
            prev is not None and filtration_keys(fc) != filtration_keys(prev) for fc, prev in builds
        )
        assert len(reductions) == 1 + changes
        for a, b in zip(matrices, matrices[1:]):
            assert not (a.shape == b.shape and a.tobytes() == b.tobytes())
        for step in trace.steps:
            cfg = config.with_vector(step.u)
            _, s, _ = svd(diagram_and_jacobian(cfg, "alpha", 2)[1].matrix)
            assert np.array_equal(step.singular_values, s)
        return trace

    def test_short_run(self, monkeypatch):
        trace = self._run(monkeypatch, 0.05, n_steps=5)
        assert len(trace.steps) == 5 and trace.rejected == []

    def test_adaptive_halving(self, monkeypatch):
        trace = self._run(monkeypatch, 0.3, n_steps=2, max_iter=2, max_halvings=6)
        assert trace.rejected and all(s.report.converged for s in trace.steps)
        assert not any(r.converged for _, _, r in trace.rejected)


def _evaluation_bytes(ev):
    """Everything an evaluation computed, with arrays as raw bytes."""
    spheres = tuple(array.tobytes() for array in (*ev.fc.spheres, ev.fc.degenerate))
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
        keys = filtration_keys(self._evaluate(points).fc)
        pair = _first_change(points, direction, lambda p: filtration_keys(self._evaluate(p).fc) != keys)
        assume(pair is not None)
        previous, reused = self._check(*pair)
        # the first change along the path is a swap of two radii, not a flip
        assume(np.array_equal(reused.fc.skeleton.tetrahedra, previous.fc.skeleton.tetrahedra))
        assert reused.fc.skeleton is previous.fc.skeleton
        assert filtration_keys(reused.fc) != filtration_keys(previous.fc)
        assert reused.reduction is not previous.reduction

    @settings(PROPERTY, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 40))
    def test_flip_rebuilds_the_skeleton(self, seed, m):
        points, direction = _cloud_and_direction(seed, m)
        tets = delaunay3(Configuration(points, gauge=False)).tetrahedra
        pair = _first_change(
            points, direction,
            lambda p: not np.array_equal(delaunay3(Configuration(p, gauge=False)).tetrahedra, tets),
        )
        assume(pair is not None)
        previous, reused = self._check(*pair)
        assert not np.array_equal(reused.fc.skeleton.tetrahedra, previous.fc.skeleton.tetrahedra)
        assert reused.fc.skeleton is not previous.fc.skeleton
        assert reused.reduction is not previous.reduction


def test_stacked_lapack_sized_systems_skip_the_svd(monkeypatch):
    """A Newton matrix with tie rows stacked below the Jacobian and a short
    side above 16 is solved by LAPACK's QR least squares (gelsy); only the
    Jacobian itself reaches the SVD, and numpy's SVD least squares is never
    called."""
    decomposed, solved, numpy_solved = [], [], []
    decompose, lstsq, numpy_lstsq = solver.svd, scipy.linalg.lstsq, np.linalg.lstsq

    def recorded_svd(a):
        decomposed.append(np.shape(a))
        return decompose(a)

    def recorded_lstsq(a, b, **kwargs):
        assert kwargs["lapack_driver"] == "gelsy"
        solved.append(a.shape)
        return lstsq(a, b, **kwargs)

    def recorded_numpy_lstsq(a, b, **kwargs):
        numpy_solved.append(np.shape(a))
        return numpy_lstsq(a, b, **kwargs)

    monkeypatch.setattr(solver, "svd", recorded_svd)
    monkeypatch.setattr(scipy.linalg, "lstsq", recorded_lstsq)
    monkeypatch.setattr(np.linalg, "lstsq", recorded_numpy_lstsq)
    config = to_gauge_frame(cli.apply_jitter(cli.fibonacci_sphere(20), seed=0, magnitude=1e-6))
    assert config.free_dim == 54
    v0 = diagram(config, "alpha", 2, 1e-3).vector(include_essential=False)
    trace = continue_cloud(
        config, "alpha", 2, 1e-3, v0 * 1.02, n_steps=2, max_iter=300, tie_window=1.0
    )
    assert trace.reached_target
    assert decomposed and all(shape == (v0.size, 54) for shape in decomposed)
    assert solved and all(min(shape) > solver._JACOBI_SIZE_LIMIT for shape in solved)
    assert not numpy_solved


@pytest.mark.filterwarnings("ignore::pdcont.errors.NearDegenerateJacobian")
@pytest.mark.parametrize("n, steps, iters", [(5, 59, 59), (6, 11, 11)])
def test_shell_examples_take_one_newton_iteration_a_step(n, steps, iters):
    """Examples 5 and 6, whose stacked Newton systems go to LAPACK, keep
    their accepted steps and Newton iterations and reach the target to 1e-8."""
    trace = cli._run_example(n, None)[0]
    assert len(trace.steps) == steps
    assert sum(s.newton_iters for s in trace.steps) == iters
    assert trace.reached_target and trace.steps[-1].residual <= 1e-8


@pytest.mark.filterwarnings("ignore::pdcont.errors.NearDegenerateJacobian")
@pytest.mark.parametrize("n", [1, 2, 4])
def test_scaled_examples_take_the_same_iterations(monkeypatch, n):
    """A packaged example whose cloud, target, step and tolerance are scaled by
    2^k takes the same Newton iterations at every step and ends the same way,
    and every accepted ``u`` scales bit for bit. Example 2's reason prints a
    residual, so only its status is compared."""
    gauge, run = cli.to_gauge_frame, solver.continue_cloud

    def example(scale):
        monkeypatch.setattr(cli, "to_gauge_frame", lambda points: gauge(scale * np.asarray(points)))
        monkeypatch.setattr(solver, "continue_cloud", lambda *args, step, **kw: run(
            *args[:4], scale * np.asarray(args[4]), step=scale * step, tol=scale * 1e-10, **kw
        ))
        return cli._run_example(n, None)[0]

    ref = example(1.0)
    for k in (-3, 5):
        trace = example(2.0**k)
        assert [s.newton_iters for s in trace.steps] == [s.newton_iters for s in ref.steps]
        assert (trace.reached_target, trace.failed_step) == (ref.reached_target, ref.failed_step)
        assert str(trace.reason).split(":")[0] == str(ref.reason).split(":")[0]
        assert all(np.array_equal(s.u, 2.0**k * r.u) for s, r in zip(trace.steps, ref.steps))


@pytest.mark.filterwarnings("ignore::pdcont.errors.NearDegenerateJacobian")
def test_traces_equal_with_the_references(monkeypatch, tmp_path):
    """Examples 1, 3 and 4 write the same trace bytes with the package's
    Jacobi SVD, one-pass alpha build and gradient pass as with their
    references. Pinned digests would not do: the BLAS picks its dot kernel
    per CPU."""

    def traces(label):
        out = []
        for n in (1, 3, 4):
            path = tmp_path / f"{label}-example{n}.jsonl"
            cli.write_trace(cli._run_example(n, None)[0], str(path))
            out.append(path.read_bytes())
        return out

    package = traces("package")
    monkeypatch.setattr(solver, "_jacobi_tall", jacobi_reference)
    monkeypatch.setattr(filtration, "build_alpha", build_alpha_reference)
    monkeypatch.setattr(diffmap, "_attaching_gradients", attaching_gradients_reference)
    monkeypatch.setattr(solver, "_attaching_gradients", attaching_gradients_reference)
    assert traces("reference") == package
