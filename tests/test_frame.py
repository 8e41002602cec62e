"""The power-of-two frame: a cloud's magnitude reaches no geometric
evaluation, so scaling a cloud by 2^k scales its diagram by exactly 2^k and
leaves its Jacobian bit for bit, from clouds near the smallest normal float
to clouds near the largest."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pdcont
from pdcont import cli
from pdcont.delaunay import delaunay3
from pdcont.errors import DegenerateInput, NearDegenerateJacobian
from pdcont.filtration import build
from pdcont.geometry import Configuration, check_general_position, to_gauge_frame
from pdcont.metrics import hausdorff, triangle_ratio_check
from pdcont.persistence import diagram
from pdcont.solver import continue_cloud

from helpers import PROPERTY, diagram_and_jacobian, random_acute_triangle, random_cloud

# 60 points in [0, 10)^3: at 2^350 the unframed triangulation crashed the
# process, at 2^190 Qhull refused it, and at 2^-520 H1 lost 5 of its 106 pairs
CLOUD_60 = np.random.default_rng(0).uniform(0, 10, (60, 3))

_SCALED_H1 = """
import json, sys
import numpy as np
from pdcont.geometry import Configuration
from pdcont.persistence import diagram
points = np.ldexp(np.random.default_rng(0).uniform(0, 10, (60, 3)), int(sys.argv[1]))
print(json.dumps([x.hex() for x in diagram(Configuration(points, gauge=False), "alpha", 1).vector()]))
"""


def _h1(points):
    return diagram(Configuration(points, gauge=False), "alpha", 1).vector()


def test_cloud_at_2_to_the_350_in_a_subprocess():
    # a crash fails this test, not the whole pytest run
    src = str(Path(pdcont.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _SCALED_H1, "350"], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    scaled = np.array([float.fromhex(x) for x in json.loads(run.stdout)])
    assert np.array_equal(scaled, np.ldexp(_h1(CLOUD_60), 350))


def test_cloud_at_2_to_the_190_is_not_refused():
    assert np.array_equal(_h1(np.ldexp(CLOUD_60, 190)), np.ldexp(_h1(CLOUD_60), 190))


def test_cloud_at_2_to_the_minus_520_keeps_every_pair():
    pd = diagram(Configuration(np.ldexp(CLOUD_60, -520), gauge=False), "alpha", 1)
    assert len(pd.finite) == 106
    assert np.array_equal(pd.vector(), np.ldexp(_h1(CLOUD_60), -520))


def test_example_1_keeps_its_pair_through_the_gauge():
    cloud = np.array(cli.EXAMPLE_1_CLOUD, dtype=float)
    pd = diagram(to_gauge_frame(cloud), "alpha", 2)
    assert len(pd.finite) == 1
    for k in (-540, -600):
        gauged = to_gauge_frame(np.ldexp(cloud, k))
        assert np.array_equal(gauged.points, np.ldexp(to_gauge_frame(cloud).points, k))
        assert np.array_equal(diagram(gauged, "alpha", 2).vector(), np.ldexp(pd.vector(), k))


def test_tiny_simplices_are_not_degenerate():
    # their squared edge products underflow outside the frame
    triangle = delaunay3(Configuration([[0, 0, 0], [1e-100, 0, 0], [0, 1e-100, 0]], gauge=False))
    assert triangle.vertices[2].tolist() == [[0, 1, 2]]
    tetrahedron = 1e-110 * np.vstack([np.zeros(3), np.eye(3)])
    assert delaunay3(Configuration(tetrahedron, gauge=False)).tetrahedra.tolist() == [[0, 1, 2, 3]]


# the example 1 cloud has one exact Rips tie, |p0 - p3| = |p1 - p3|
_CLOUDS = st.one_of(
    st.just(np.array(cli.EXAMPLE_1_CLOUD, dtype=float)),
    st.builds(lambda seed, m: random_cloud(np.random.RandomState(seed), m),
              st.integers(0, 2**32 - 1), st.integers(5, 12)),
)


def _exponents(values):
    """frexp exponents of the smallest nonzero and of the largest |value|."""
    values = np.abs(values)
    return np.frexp(values[values > 0].min())[1], np.frexp(values.max())[1]


class TestPowerOfTwoScaling:
    """For a cloud in general position and every k for which the coordinates
    and birth radii of P * 2^k are normal floats, the diagram of P * 2^k is
    2^k times that of P and the Jacobian is the same, bit for bit; past the
    largest float a build is refused only for a radius."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 12),
           kind=st.sampled_from(["alpha", "rips"]), k=st.integers(-1100, 1100))
    def test_diagram_and_jacobian(self, seed, m, kind, k):
        points = random_cloud(np.random.RandomState(seed), m)
        fc = build(Configuration(points, gauge=False), kind, max_dim=2)
        lo, hi = _exponents(np.concatenate([points.ravel(), fc.birth]))
        k = min(max(k, -1021 - lo), 1024 - hi)  # the ends are where it can fail
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearDegenerateJacobian)  # an absolute tolerance
            pd, jac = diagram_and_jacobian(Configuration(points, gauge=False), kind, 1)
            pd_k, jac_k = diagram_and_jacobian(Configuration(np.ldexp(points, k), gauge=False), kind, 1)
        assert np.array_equal(pd_k.vector(), np.ldexp(pd.vector(), k))
        assert [r.attaching_key for r in jac_k.rows] == [r.attaching_key for r in jac.rows]
        assert jac_k.matrix.tobytes() == jac.matrix.tobytes()

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 12),
           kind=st.sampled_from(["alpha", "rips"]))
    def test_refused_only_for_a_radius(self, seed, m, kind):
        points = random_cloud(np.random.RandomState(seed), m)
        births = build(Configuration(points, gauge=False), kind, max_dim=2).birth
        top = max(_exponents(points.ravel())[1], _exponents(births)[1])
        build(Configuration(np.ldexp(points, 1024 - top), gauge=False), kind, max_dim=2)
        if _exponents(births)[1] > _exponents(points.ravel())[1]:
            # one more doubling leaves every coordinate finite and a radius not
            with pytest.raises(DegenerateInput, match="^radii overflow"):
                build(Configuration(np.ldexp(points, 1025 - top), gauge=False), kind, max_dim=2)

    @PROPERTY
    @given(points=_CLOUDS, near=st.booleans(), kind=st.sampled_from(["alpha", "rips"]),
           k=st.integers(-1100, 1100))
    @example(points=CLOUD_60[:12], near=True, kind="alpha", k=40)
    @example(points=CLOUD_60[:12], near=True, kind="rips", k=-40)
    def test_general_position_report(self, points, near, kind, k):
        """The report of P * 2^k lists P's violations in the same order, with
        every radius times 2^k; ``near`` puts point 1 1e-10 from point 0, a
        violation at every scale."""
        if near:
            points = points.copy()
            points[1] = points[0] + 1e-10
        fc = build(Configuration(points, gauge=False), kind, max_dim=1)
        lo, hi = _exponents(np.concatenate([points.ravel(), fc.birth]))
        k = min(max(k, -1021 - lo), 1024 - hi)
        fc_k = build(Configuration(np.ldexp(points, k), gauge=False), kind, max_dim=1)
        report, report_k = check_general_position(fc), check_general_position(fc_k)
        listed = [(v.kind, v.simplices) for v in report.violations]
        assert [(v.kind, v.simplices) for v in report_k.violations] == listed
        for v, v_k in zip(report.violations, report_k.violations):
            assert np.array_equal(v_k.values, np.ldexp(v.values, k))
        assert not near or ("coincident_points", (0, 1)) in listed

    @settings(PROPERTY, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 6), dim=st.integers(1, 2),
           stretch=st.floats(0.005, 0.3) | st.floats(-0.3, -0.005), pieces=st.floats(1.5, 3.0),
           tie_window=st.sampled_from([0.0, 1e-2]), epsilon=st.sampled_from([0.0, 1e-3]),
           k=st.integers(-1100, 1100))
    @example(seed=0, m=4, dim=2, stretch=0.02, pieces=2.5, tie_window=0.0, epsilon=0.0, k=-1000)
    @example(seed=0, m=4, dim=2, stretch=0.02, pieces=2.5, tie_window=0.0, epsilon=0.0, k=1000)
    def test_continuation(self, seed, m, dim, stretch, pieces, tie_window, epsilon, k):
        """An alpha continuation of P * 2^k toward 2^k times the target, with
        step, tol, tie window and epsilon times 2^k, is 2^k times that of P:
        every u, pair and residual bit for bit, and the same singular values,
        iteration counts and termination, reached or not, of every accepted
        step and every rejected attempt."""
        config = to_gauge_frame(random_cloud(np.random.RandomState(seed), m))
        v0 = diagram(config, "alpha", dim, epsilon).vector(include_essential=False)
        if not v0.size:
            dim = 3 - dim
            v0 = diagram(config, "alpha", dim, epsilon).vector(include_essential=False)
        assume(v0.size)
        target = v0 * (1 + stretch)
        lo, hi = _exponents(np.concatenate([config.points.ravel(), v0, target]))
        # the residuals near convergence are some ulps of the values
        k = int(min(max(k, -1021 + 64 - lo), 1023 - hi))

        def run(j):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearDegenerateJacobian)  # an absolute tolerance
                return continue_cloud(
                    Configuration(np.ldexp(config.points, j)), "alpha", dim, math.ldexp(epsilon, j),
                    np.ldexp(target, j), step=math.ldexp(np.linalg.norm(target - v0) / pieces, j),
                    tol=math.ldexp(1e-10, j), max_iter=20, tie_window=math.ldexp(tie_window, j),
                )

        trace, trace_k = run(0), run(k)
        assert trace_k.n_planned == trace.n_planned
        assert (trace_k.reached_target, trace_k.failed_step) == (trace.reached_target, trace.failed_step)
        # a library error ends a run with no report: the reason names it
        assert (trace_k.reason or "").split(":")[0] == (trace.reason or "").split(":")[0]
        assert len(trace_k.rejected) == len(trace.rejected)
        for (j, dt, r), (j_k, dt_k, r_k) in zip(trace.rejected, trace_k.rejected):
            assert (j_k, dt_k, r_k.status, r_k.iterations) == (j, dt, r.status, r.iterations)
            assert r_k.residual == math.ldexp(r.residual, k)
            assert r_k.singular_values.tobytes() == r.singular_values.tobytes()
        assert len(trace_k.steps) == len(trace.steps)
        for s, s_k in zip(trace.steps, trace_k.steps):
            assert (s_k.k, s_k.t, s_k.newton_iters) == (s.k, s.t, s.newton_iters)
            assert np.array_equal(s_k.u, np.ldexp(s.u, k))
            assert np.array_equal(s_k.pairs, np.ldexp(s.pairs, k))
            assert s_k.residual == math.ldexp(s.residual, k)
            assert s_k.singular_values.tobytes() == s.singular_values.tobytes()


class TestMetricsScaling:
    """The Hausdorff distance and the triangle ratio check of P * 2^k are
    those of P with every length times 2^k, bit for bit, while the lengths
    are normal floats: their squares, which leave the float range first, are
    taken in the power-of-two frame."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 8),
           k=st.integers(-1100, 1100))
    @example(seed=0, m=5, n=5, k=540)
    @example(seed=0, m=5, n=5, k=-540)
    @example(seed=0, m=5, n=5, k=600)
    @example(seed=0, m=5, n=5, k=-600)
    def test_hausdorff(self, seed, m, n, k):
        rng = np.random.RandomState(seed)
        p, q = rng.rand(m, 3), rng.rand(n, 3)
        d = hausdorff(p, q)
        lo, hi = _exponents(np.concatenate([p.ravel(), q.ravel(), [d]]))
        k = int(min(max(k, -1021 - lo), 1024 - hi))
        assert hausdorff(np.ldexp(p, k), np.ldexp(q, k)) == math.ldexp(d, k)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1100, 1100))
    @example(seed=0, k=540)
    @example(seed=0, k=-540)
    @example(seed=0, k=600)
    @example(seed=0, k=-600)
    def test_triangle_ratio_check(self, seed, k):
        points = random_acute_triangle(np.random.RandomState(seed))
        birth, death, ratio = triangle_ratio_check(points)
        lo, hi = _exponents(np.concatenate([points.ravel(), [birth, death]]))
        k = int(min(max(k, -1021 - lo), 1024 - hi))
        scaled = triangle_ratio_check(np.ldexp(points, k))
        assert scaled == (math.ldexp(birth, k), math.ldexp(death, k), ratio)
