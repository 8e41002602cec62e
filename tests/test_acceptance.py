"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pdcont import cli
from pdcont.errors import NotAcute
from pdcont.filtration import build_rips
from pdcont.geometry import Configuration
from pdcont.metrics import (
    MAX_TRIANGLE_RATIO,
    bottleneck,
    hausdorff,
    triangle_ratio_check,
)
from pdcont.persistence import boundary_matrix, diagram, persistence_data, reduce_boundary
from pdcont.solver import continue_cloud, pinv_matrix, svd

from helpers import diagram_and_jacobian, random_acute_triangle, random_cloud, rank_function_pairs

EX1_CLOUD = np.array([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]], dtype=float)
EX3_CLOUD = np.array(
    [[0, 0, 0], [9.991, 0, 0], [4.9955, 8.65246, 0], [4.9955, 2.88415, 8.15762]]
)
EX4_CLOUD = np.array([[0, 0, 0], [1, 0, 0], [1.1, 1.2, 0], [0.5, 0.6, 1.3]])

REGULAR_TETRA_RATIO = 3.0 / (2.0 * math.sqrt(2.0))


def _report(criterion, ok, details):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, details


def test_criterion_01_diagram_example1():
    start = time.monotonic()
    pd = diagram(Configuration(EX1_CLOUD), "alpha", 2, 0.0)
    elapsed = time.monotonic() - start
    v = pd.vector(include_essential=False)
    ok = (
        len(pd.finite) == 1
        and abs(v[0] - 4.42719) <= 5e-5
        and abs(v[1] - 4.59015) <= 5e-5
        and elapsed < 1.0
    )
    _report(1, ok, f"D2 = ({v[0]:.6f}, {v[1]:.6f}), {elapsed:.3f} s")


def test_criterion_02_diagrams_examples_3_4():
    start = time.monotonic()
    pd3 = diagram(Configuration(EX3_CLOUD), "alpha", 2, 0.0)
    t3 = time.monotonic() - start
    start = time.monotonic()
    pd4 = diagram(Configuration(EX4_CLOUD), "alpha", 1, 0.0)
    t4 = time.monotonic() - start
    v3 = pd3.vector(include_essential=False)
    v4 = pd4.vector(include_essential=False)
    want4 = [0.758288, 0.803195, 0.776209, 0.834393]
    ok = (
        np.abs(v3 - [5.76831, 6.11821]).max() <= 5e-5
        and v4.shape == (4,)
        and np.abs(v4 - want4).max() <= 5e-5
        and t3 < 1.0
        and t4 < 1.0
    )
    _report(2, ok, f"ex3 D2 = {np.round(v3, 6)}, ex4 D1 = {np.round(v4, 6)}, "
                   f"{t3:.3f}/{t4:.3f} s")


def test_criterion_03_continuation_success():
    lines = []
    ok = True
    for n, budget in ((1, 10.0), (4, 10.0), (5, 600.0), (6, 600.0)):
        start = time.monotonic()
        trace, verdict, details = cli._run_example(n, None)
        elapsed = time.monotonic() - start
        reached = trace.reached_target
        residual = trace.steps[-1].residual if trace.steps else math.inf
        good = reached and residual <= 1e-8 and elapsed < budget
        ok = ok and good
        lines.append(f"ex{n} {'ok' if good else 'BAD'} ({elapsed:.0f}s, res {residual:.1e})")
    _report(3, ok, "; ".join(lines))


def test_criterion_04_image_boundary_failure():
    trace, _, _ = cli._run_example(2, None)
    iters = [s.newton_iters for s in trace.steps]
    first_median = float(np.median(iters[:10]))
    last10 = iters[-10:]
    pts = trace.final_config.points
    edges = [
        float(np.linalg.norm(pts[i] - pts[j]))
        for i, j in itertools.combinations(range(4), 2)
    ]
    spread = (max(edges) - min(edges)) / float(np.mean(edges))
    b, d = trace.steps[-1].pairs[0]
    ratio_err = abs(d / b - REGULAR_TETRA_RATIO) / REGULAR_TETRA_RATIO
    ok = (
        not trace.reached_target
        and all(c > first_median for c in last10)
        and spread < 0.01
        and ratio_err < 0.02
    )
    _report(
        4, ok,
        f"failed at {trace.failed_step}/{trace.n_planned}, spread {spread:.4%}, "
        f"d/b off by {ratio_err:.2e}, last10 iters {last10} vs median {first_median}",
    )


def test_criterion_05_diagonal_approach():
    trace = continue_cloud(
        Configuration(EX3_CLOUD), "alpha", 2, 0.0, [5.94841, 5.94841], step=0.001
    )
    residual = trace.steps[-1].residual
    smin = [float(s.singular_values.min()) for s in trace.steps if s.singular_values.size]
    tail = smin[int(len(smin) * 0.8):]
    monotone = all(b < a for a, b in zip(tail, tail[1:]))
    ok = (
        trace.reached_target
        and residual <= 1e-8
        and smin[-1] < 1e-2
        and monotone
    )
    _report(
        5, ok,
        f"res {residual:.1e}, final sigma_min {smin[-1]:.2e}, "
        f"tail monotone {monotone} over {len(tail)} steps",
    )


def test_criterion_06_jacobian_finite_differences():
    rng = np.random.RandomState(1009)
    worst = 0.0
    runs = 0
    attempts = 0
    while runs < 50 and attempts < 300:
        attempts += 1
        kind = ("alpha", "rips")[runs % 2]
        m = rng.randint(4, 11)
        config = Configuration(random_cloud(rng, m) * 2.0, gauge=False)
        dim = 1 if kind == "rips" else (1 if m >= 6 else 2)
        pd, jac = diagram_and_jacobian(config, kind, dim)
        if not pd.finite:
            continue
        jac = jac.matrix
        u0 = config.pack()
        h = 1e-6
        fd = np.zeros_like(jac)
        bad = False
        for c in range(u0.size):
            up, um = u0.copy(), u0.copy()
            up[c] += h
            um[c] -= h
            try:
                fp = diagram(config.with_vector(up), kind, dim, 0.0)
                fm = diagram(config.with_vector(um), kind, dim, 0.0)
            except Exception:
                bad = True
                break
            if len(fp.finite) != len(pd.finite) or len(fm.finite) != len(pd.finite):
                bad = True
                break
            fd[:, c] = (
                fp.vector(include_essential=False) - fm.vector(include_essential=False)
            ) / (2 * h)
        if bad:
            continue
        scale = max(1.0, np.abs(fd).max())
        worst = max(worst, np.abs(jac - fd).max() / scale)
        runs += 1
    ok = runs == 50 and worst <= 1e-6
    _report(6, ok, f"{runs} clouds checked, max relative error {worst:.2e}")


def _random_cycle_cloud(rng):
    """Planar 4-point cloud with |AB|,|BC|,|CD| < |AD| < |BD| < |AC|."""
    base = np.array([[0.0, 0, 0], [0.1, 1.0, 0], [1.25, 1.1, 0], [1.3, 0, 0]])
    while True:
        pts = base.copy()
        pts[:, :2] += rng.uniform(-0.08, 0.08, (4, 2))
        a, b, c, d = pts
        ab, bc, cd = (np.linalg.norm(x - y) for x, y in ((a, b), (b, c), (c, d)))
        ad, bd, ac = (np.linalg.norm(x - y) for x, y in ((a, d), (b, d), (a, c)))
        if max(ab, bc, cd) < ad < bd < ac:
            return pts


def test_criterion_07_four_point_closed_form():
    rng = np.random.RandomState(2718)
    worst_gram = 0.0
    worst_sigma = 0.0
    for _ in range(20):
        pts = _random_cycle_cloud(rng)
        config = Configuration(pts, gauge=False)
        pd, jac = diagram_and_jacobian(config, "rips", 1)
        assert len(pd.finite) == 1
        a, b, c, d = pts
        assert 2 * pd.finite[0].birth == pytest.approx(np.linalg.norm(a - d), abs=1e-12)
        assert 2 * pd.finite[0].death == pytest.approx(np.linalg.norm(b - d), abs=1e-12)
        jac = 2 * jac.matrix  # edge-length units
        gram = jac @ jac.T
        cos_theta = float(
            np.dot(a - d, b - d) / (np.linalg.norm(a - d) * np.linalg.norm(b - d))
        )
        worst_gram = max(
            worst_gram,
            np.abs(gram - [[2.0, cos_theta], [cos_theta, 2.0]]).max(),
        )
        _, s, _ = svd(jac)
        want = sorted([math.sqrt(2 + cos_theta), math.sqrt(2 - cos_theta)])
        worst_sigma = max(worst_sigma, np.abs(np.array(sorted(s)) - want).max())
    ok = worst_gram <= 1e-10 and worst_sigma <= 1e-10
    _report(7, ok, f"gram error {worst_gram:.2e}, sigma error {worst_sigma:.2e}")


def test_criterion_08_stability():
    rng = np.random.RandomState(515)
    worst_slack = -math.inf
    count = 0
    while count < 200:
        m = rng.randint(4, 9)
        p = random_cloud(rng, m)
        q = p + rng.uniform(-1, 1, (m, 3)) * rng.choice([0.001, 0.01, 0.05])
        u_dist = float(np.linalg.norm((p - q).ravel()))
        d_h = hausdorff(p, q)
        if d_h > u_dist + 1e-12:
            _report(8, False, "Hausdorff exceeded Euclidean bound")
        dim = count % 3
        dp = diagram(Configuration(p, gauge=False), "alpha", dim, 0.0)
        dq = diagram(Configuration(q, gauge=False), "alpha", dim, 0.0)
        pairs_p = [(x.birth, x.death) for x in dp.finite]
        pairs_p += [(e.birth, math.inf) for e in dp.essential]
        pairs_q = [(x.birth, x.death) for x in dq.finite]
        pairs_q += [(e.birth, math.inf) for e in dq.essential]
        slack = bottleneck(pairs_p, pairs_q) - d_h
        worst_slack = max(worst_slack, slack)
        count += 1
    ok = worst_slack <= 1e-10
    _report(8, ok, f"200 pairs, worst d_b - d_H = {worst_slack:.2e}")


def test_criterion_09_reduction_rank_oracle():
    rng = np.random.RandomState(99)
    checked = 0
    for _ in range(100):
        m = rng.randint(3, 8)
        config = Configuration(random_cloud(rng, m), gauge=False)
        fc = build_rips(config, max_dim=3)
        red = reduce_boundary(boundary_matrix(fc))
        ordered = [(e.key, e.radius) for e in fc.entries]
        for dim in (0, 1, 2):
            pd = persistence_data(red, fc, dim, 0.0)
            got = (
                sorted((p.birth, p.death) for p in pd.finite),
                sorted(e.birth for e in pd.essential),
            )
            want = rank_function_pairs(ordered, dim)
            if got != want:
                _report(9, False, f"mismatch at M={m}, dim={dim}")
        checked += 1
    _report(9, checked == 100, f"{checked} filtrations, exact pairing agreement")


def test_criterion_10_triangle_ratio_bound():
    rng = np.random.RandomState(31415)
    worst = 0.0
    for _ in range(1000):
        pts = random_acute_triangle(rng)
        _, _, ratio = triangle_ratio_check(pts)
        worst = max(worst, ratio)
    side = 1.7
    equi = [[0, 0, 0], [side, 0, 0], [side / 2, side * math.sqrt(3) / 2, 0]]
    _, _, eq_ratio = triangle_ratio_check(equi)
    right = [[0, 0, 0], [3, 0, 0], [0, 4, 0]]
    with pytest.raises(NotAcute):
        triangle_ratio_check(right)
    empty = diagram(Configuration(right, gauge=False), "alpha", 1, 0.0)
    ok = (
        worst <= MAX_TRIANGLE_RATIO + 1e-12
        and abs(eq_ratio - MAX_TRIANGLE_RATIO) <= 1e-12
        and len(empty.finite) == 0
    )
    _report(
        10, ok,
        f"1000 acute ratios <= {worst:.12f} (bound {MAX_TRIANGLE_RATIO:.12f}), "
        f"equilateral gap {abs(eq_ratio - MAX_TRIANGLE_RATIO):.1e}",
    )


def test_criterion_11_penrose():
    rng = np.random.RandomState(47)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 13)
        m = rng.randint(1, n + 1)
        a = rng.randn(m, n)
        x = pinv_matrix(a)
        worst = max(
            worst,
            np.abs(a @ x @ a - a).max(),
            np.abs(x @ a @ x - x).max(),
            np.abs((a @ x).T - a @ x).max(),
            np.abs((x @ a).T - x @ a).max(),
        )
    ok = worst <= 1e-11
    _report(11, ok, f"100 random matrices, worst Penrose defect {worst:.2e}")
