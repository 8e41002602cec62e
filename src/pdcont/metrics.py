"""Distances between diagrams and clouds: bottleneck, Hausdorff, diagonal gap.

The bottleneck distance is exact: the optimum is always one of the candidate
pairwise or point-to-diagonal distances, so a binary search over the sorted
candidate set with a matching feasibility test settles it without tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyDiagram, InfinityMismatch, NotAcute
from .geometry import Configuration

_INF = math.inf


def _split(diagram):
    finite, essential = [], []
    for b, d in diagram:
        if math.isinf(d):
            essential.append(b)
        else:
            finite.append((float(b), float(d)))
    return finite, essential


def _dist_inf(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _diag_gap(p):
    return (p[1] - p[0]) / 2.0


def _hopcroft_karp(adj, n_left, n_right):
    """Maximum bipartite matching size (layered BFS/DFS augmenting phases).

    Left vertices exhausted in a phase get dist = inf; right vertices are
    never marked (the same right vertex may serve paths at different levels).
    """
    nil = n_left
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * (n_left + 1)
    size = 0

    def bfs():
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        dist[nil] = _INF
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if dist[u] < dist[nil]:
                for v in adj[u]:
                    w = match_r[v]
                    w = nil if w == -1 else w
                    if dist[w] == _INF:
                        dist[w] = dist[u] + 1
                        if w != nil:
                            queue.append(w)
        return dist[nil] != _INF

    def dfs(u):
        if u == nil:
            return True
        for v in adj[u]:
            w = match_r[v]
            w = nil if w == -1 else w
            if dist[w] == dist[u] + 1 and dfs(w):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size


def _feasible(p_pts, q_pts, r):
    """Perfect matching at cost r in the diagonal-augmented bipartite graph."""
    np_, nq = len(p_pts), len(q_pts)
    n = np_ + nq
    # left: p points then nq diagonal slots; right: q points then np_ diagonal slots
    adj = [[] for _ in range(n)]
    for i, p in enumerate(p_pts):
        for j, q in enumerate(q_pts):
            if _dist_inf(p, q) <= r:
                adj[i].append(j)
        if _diag_gap(p) <= r:
            adj[i].extend(range(nq, n))
    for i in range(nq):
        q = q_pts[i]
        if _diag_gap(q) <= r:
            adj[np_ + i].append(i)
        adj[np_ + i].extend(range(nq, n))
    return _hopcroft_karp(adj, n, n) == n


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

    candidates = {0.0}
    for p in fin_a:
        candidates.add(_diag_gap(p))
        for q in fin_b:
            candidates.add(_dist_inf(p, q))
    for q in fin_b:
        candidates.add(_diag_gap(q))
    values = sorted(candidates)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(fin_a, fin_b, values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(ess, values[lo])


def hausdorff(points_a, points_b) -> float:
    """Hausdorff distance between two finite clouds in R^3."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


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
