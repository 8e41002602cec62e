"""Distances between diagrams and clouds: bottleneck, Hausdorff, diagonal gap.

The bottleneck distance is exact: the optimum is always one of the candidate
pairwise or point-to-diagonal distances, so a binary search over the sorted
candidates settles it without tolerance. Each step asks whether the
diagonal-augmented bipartite graph of pairs within the candidate distance has
a perfect matching (scipy.sparse.csgraph.maximum_bipartite_matching).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from .errors import EmptyDiagram, InfinityMismatch, NotAcute
from .geometry import Configuration


def _split(diagram):
    finite, essential = [], []
    for b, d in diagram:
        if math.isinf(d):
            essential.append(b)
        else:
            finite.append((float(b), float(d)))
    return finite, essential


def _diag_gap(p):
    return (p[1] - p[0]) / 2.0


def bottleneck(diagram_a, diagram_b) -> float:
    """Bottleneck distance between two diagrams (lists of (birth, death)).

    Deaths may be inf; essential classes are matched among themselves and
    their counts must agree.
    """
    fin_a, ess_a = _split(diagram_a)
    fin_b, ess_b = _split(diagram_b)
    if len(ess_a) != len(ess_b):
        raise InfinityMismatch(
            f"essential class counts differ: {len(ess_a)} vs {len(ess_b)}"
        )
    ess = 0.0
    for a, b in zip(sorted(ess_a), sorted(ess_b)):
        ess = max(ess, abs(a - b))
    if not fin_a and not fin_b:
        return ess

    a = np.array(fin_a).reshape(-1, 2)
    b = np.array(fin_b).reshape(-1, 2)
    dist = np.abs(a[:, None] - b[None]).max(axis=2)
    gap_a, gap_b = _diag_gap(a.T), _diag_gap(b.T)
    values = np.unique(np.concatenate([dist.ravel(), gap_a, gap_b, [0.0]]))
    # rows: the points of a, then a diagonal slot per point of b; columns:
    # the points of b, then a diagonal slot per point of a
    slots = np.ones((len(b), len(a)), dtype=bool)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        r = values[mid]
        graph = np.block([
            [dist <= r, np.repeat(gap_a[:, None] <= r, len(a), axis=1)],
            [np.diag(gap_b <= r), slots],
        ])
        if (maximum_bipartite_matching(csr_matrix(graph), perm_type="column") >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return max(ess, float(values[lo]))


def hausdorff(points_a, points_b) -> float:
    """Hausdorff distance between two finite clouds in R^3."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


def diag_distance(diagram) -> float:
    """Distance of the closest finite diagram point to the diagonal."""
    finite, _ = _split(diagram)
    if not finite:
        raise EmptyDiagram("diagram has no finite pairs")
    return min(_diag_gap(p) for p in finite)


MAX_TRIANGLE_RATIO = 2.0 / math.sqrt(3.0)


def triangle_ratio_check(points) -> tuple:
    """(birth, death, death/birth) of the 1-dim alpha diagram of an acute triangle."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (3, 3):
        raise ValueError("expected exactly three points in R^3")
    sq = [
        float(np.dot(pts[i] - pts[j], pts[i] - pts[j]))
        for i, j in ((0, 1), (1, 2), (2, 0))
    ]
    s = sorted(sq)
    if s[0] + s[1] <= s[2]:
        raise NotAcute("triangle is right or obtuse; 1-dim diagram is empty")

    from .persistence import diagram as _diagram  # local import avoids cycle

    pd = _diagram(Configuration(pts, gauge=False), "alpha", 1, 0.0)
    if len(pd.finite) != 1:
        raise RuntimeError(f"acute triangle should carry one pair, got {len(pd.finite)}")
    p = pd.finite[0]
    return p.birth, p.death, p.death / p.birth
