"""Pseudo-inverse Newton iteration and continuation of a point cloud.

The SVD is a one-sided Jacobi (rotations until the working columns are
orthogonal to machine precision, accurate in relative terms near the image
boundary) up to a short side of 16, and LAPACK's above. ``pinv_apply``
solves every stacked Newton system by the same size rule: up to a short side
of 16 it applies the SVD factors, zeroing the singular values at or below
the fixed relative cutoff ``_CUTOFF_REL``, and above it LAPACK's QR with
column pivoting (gelsy) keeps the leading columns of R whose condition
estimate stays within that cutoff. The continuation walks the
diagram target along a straight segment, re-seeding each solve with the
previous solution. Diagram coordinates are tracked across steps primarily by
generating-simplex identity, with an optimal assignment fallback when the
generators change. A simplex is named across iterates by its integer name
(``Skeleton.names``), and the tie bookkeeping (flipped generators, windows
of attaching radii, tie offsets) runs on those names and on global indices,
as arrays.

Each configuration's filtration, diagram, matched Jacobian and SVD are
computed once (``_Evaluation``): the accepted configuration of one step starts
the next solve, and the Jacobian's SVD also gives the pseudo-inverse unless
tie rows are stacked below it, in the Newton matrix [J; tie rows]. Each Newton
iterate is evaluated with the previous one: the build shares the previous
skeleton (its closure, cofacets, names and index arrays), a Delaunay one when
Qhull returns the same tetrahedra and a Rips one always, and when the simplex
order is unchanged the previous Z/2 pairing is kept, since a reduction depends
on the order alone. Every radius and diagram value is computed anew, so the
results are bit for bit those of recomputing everything at every iterate.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.linalg import lstsq
from scipy.optimize import linear_sum_assignment

from .diffmap import PersistenceJacobian, _attaching_gradients, jacobian
from .errors import DimensionMismatch, MatchingAmbiguous, PdcontError
from .filtration import FilteredComplex, build
from .geometry import Configuration
from .persistence import (
    PersistenceData, Reduction, _values, boundary_matrix, persistence_data, reduce_boundary,
)

# --- dense SVD by one-sided Jacobi ---------------------------------------------

_JACOBI_EPS = 1e-15
_JACOBI_SWEEPS = 60


def _jacobi_tall(a):
    """Thin SVD of a tall matrix (p >= q) by one-sided Jacobi column rotations.

    U and V rotate as one (p + q) x q block in the layout of ``np.array(a)``, as a dot's
    last bit follows its strides; a column's squared norm is kept until it rotates."""
    u = np.array(a, dtype=float)
    p, q = u.shape
    block = np.empty((p + q, q), order="F" if u.flags.f_contiguous else "C")
    block[:p], block[p:] = u, np.eye(q)
    cols = [block[:, j] for j in range(q)]
    heads = [col[:p] for col in cols]
    squares = [float(x.dot(x)) for x in heads]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(q - 1):
            x = heads[i]
            for j in range(i + 1, q):
                y = heads[j]
                alpha, beta, gamma = squares[i], squares[j], float(x.dot(y))
                if gamma == 0.0 or abs(gamma) <= _JACOBI_EPS * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                bi, bj = cols[i], cols[j]
                new_i = c * bi - s * bj
                bj *= c
                bj += s * bi  # s * bi + c * bj, as addition commutes exactly
                bi[:] = new_i
                squares[i], squares[j] = float(x.dot(x)), float(y.dot(y))
        if not rotated:
            break
    norms = np.sqrt(np.add.reduce(block[:p] ** 2, axis=0))  # np.linalg.norm's arithmetic
    order = np.argsort(-norms)
    if not block.flags.f_contiguous or (order != np.arange(q)).any():  # F-ordered factors
        norms, block = norms[order], block[:, order]
    block[:p] /= np.where(norms > 0, norms, 1.0)  # a zero column stays zero
    return block[:p], norms, block[p:]


_JACOBI_SIZE_LIMIT = 16  # q(q - 1)/2 rotations per sweep on the short side q


def svd(a):
    """SVD a = V @ diag(s) @ W.T with s non-increasing.

    Thin form: for an m x n matrix with m <= n, V is (m, m) orthogonal and W is
    (n, m) with orthonormal columns (and symmetrically for m > n).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("svd expects a matrix")
    m, n = a.shape
    if min(m, n) > _JACOBI_SIZE_LIMIT:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        return u, s, vt.T
    if m <= n:
        w, s, v = _jacobi_tall(a.T)
        return v, s, w
    return _jacobi_tall(a)


@dataclass(frozen=True)
class PinvInfo:
    rank: int
    rank_deficient: bool


_CUTOFF_REL = 1e-12  # singular values at or below this times the largest count as zero
_SIGMA_FLOOR = 1e-12  # a Jacobian with a smaller singular value stops the solve


def _inverse(s):
    """Which singular values exceed the cutoff, and their inverses (else 0)."""
    keep = s > _CUTOFF_REL * (float(s[0]) if s.size else 0.0)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return keep, inv


def _check_controls(tol=None, max_iter=None, tie_window=None, step=None, n_steps=None,
                    max_halvings=None):
    """Refuse, as ValueError, the solver controls out of their range (the
    CLI refuses the same values as usage errors)."""
    for name, x, strict in (("tol", tol, True), ("step", step, True),
                            ("tie_window", tie_window, False)):
        if x is not None and not (math.isfinite(x) and (x > 0 if strict else x >= 0)):
            raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {x!r}")
    for name, n, least in (("max_iter", max_iter, 0), ("n_steps", n_steps, 1),
                           ("max_halvings", max_halvings, 0)):
        if n is not None and n < least:
            raise ValueError(f"{name} must be >= {least}, got {n!r}")


def pinv_apply(a, b):
    """Minimum-norm least-squares solution of a x = b (``b`` a vector or a
    matrix of columns); a non-finite ``a`` or ``b`` is a ValueError.

    Up to a short side of 16, singular values at or below ``_CUTOFF_REL``
    times the largest count as zero. Above it LAPACK's gelsy (QR with column
    pivoting) keeps the columns whose pivoted R has a condition estimate below
    1 / ``_CUTOFF_REL``: the SVD's solution at full rank, the QR's when it
    truncates. The info holds the rank, flagged when below the short side."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("pinv_apply needs a finite matrix and right-hand side")
    if min(a.shape) > _JACOBI_SIZE_LIMIT:
        x, _, rank, _ = lstsq(a, b, cond=_CUTOFF_REL, lapack_driver="gelsy", check_finite=False)
    else:
        x, rank = _pinv_solve(svd(a), b)
    return x, PinvInfo(int(rank), rank < min(a.shape))


def _pinv_solve(factors, b):
    """The solution of ``pinv_apply`` from the SVD factors (V, s, W) of the
    matrix, and how many singular values exceed the cutoff."""
    v, s, w = factors
    keep, inv = _inverse(s)
    return w @ ((inv if b.ndim == 1 else inv[:, None]) * (v.T @ b)), int(keep.sum())


def pinv_matrix(a) -> np.ndarray:
    """Dense pseudo-inverse (W Sigma^+ V^T); mainly for verification."""
    v, s, w = svd(a)
    return w @ (_inverse(s)[1][:, None] * v.T)


# --- diagram coordinate tracking -------------------------------------------------

_AMBIGUITY_TOL = 1e-12  # assignment costs this close, in their frame, are indistinguishable


def match_to_layout(layout, pd: PersistenceData):
    """Reorder the diagram's finite pairs to follow the layout, the tuple of
    ``FinitePair``s tracked so far.

    Pairs are matched by generating-simplex identity first; leftovers by the
    minimal-cost assignment under the sup-norm in the plane. Extra retained
    pairs beyond the layout are tolerated (they are matched around); a deficit
    returns None. Raises MatchingAmbiguous when two assignments are
    indistinguishable within ``_AMBIGUITY_TOL``. Costs are compared in the
    power-of-two frame of the values they match, as ``Configuration.frame``
    puts a cloud, so scaling the layout and the diagram by 2^k changes no
    decision.
    """
    records = list(pd.finite)
    if len(records) < len(layout):
        return None
    by_key = {(r.birth_key, r.death_key): r for r in records}
    matched = [None] * len(layout)
    used = set()
    free_slots = []
    for idx, slot in enumerate(layout):
        rec = by_key.get((slot.birth_key, slot.death_key))
        if rec is not None:  # a layout's pairs have distinct names
            matched[idx] = rec
            used.add(id(rec))
        else:
            free_slots.append(idx)
    leftovers = [r for r in records if id(r) not in used]
    if free_slots:
        slots = [layout[i] for i in free_slots]
        e = math.frexp(max(abs(x) for r in slots + leftovers for x in (r.birth, r.death)))[1]
        cost = np.ldexp([  # the sup-norm distance of each free slot to each leftover
            [max(abs(s.birth - r.birth), abs(s.death - r.death)) for r in leftovers] for s in slots
        ], -e)
        rows, cols = linear_sum_assignment(cost)
        total, chosen = cost[rows, cols].sum(), dict(zip(rows.tolist(), cols.tolist()))
        for a_row, a_col in chosen.items():
            for b_row, b_col in chosen.items():
                swapped = (total - cost[a_row, a_col] - cost[b_row, b_col]
                           + cost[a_row, b_col] + cost[b_row, a_col])
                if b_row > a_row and swapped <= total + _AMBIGUITY_TOL:
                    raise MatchingAmbiguous(
                        "two diagram-coordinate assignments have equal cost; "
                        "cannot track pairs across this step"
                    )
            unused = [c for c in range(len(leftovers)) if c not in chosen.values()]
            if any(cost[a_row, c] <= cost[a_row, a_col] + _AMBIGUITY_TOL for c in unused):
                raise MatchingAmbiguous(
                    "an untracked diagram point is indistinguishably close to a tracked coordinate"
                )
        for r_i, c_i in zip(rows, cols):
            matched[free_slots[r_i]] = leftovers[c_i]
    return tuple(matched)


def _generators(pairs):
    """The generating simplex of each coordinate, in the order of ``_values``."""
    return [key for r in pairs for key in (r.birth_key, r.death_key)]


# --- Newton-Raphson by pseudo-inverse --------------------------------------------

class NewtonStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"
    SINGULAR_JACOBIAN = "singular_jacobian"
    CARDINALITY_CHANGED = "diagram_cardinality_changed"


@dataclass
class NewtonReport:
    status: NewtonStatus
    iterations: int
    residual: float
    singular_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status is NewtonStatus.CONVERGED


@dataclass
class _Evaluation:
    """One configuration's filtration, pairing and diagram and, once asked
    for, the Jacobian of its matched coordinates and that Jacobian's SVD, each
    computed at most once. An accepted step's evaluation starts the next
    solve, and each evaluation is the ``previous`` of the next iterate's."""

    fc: FilteredComplex
    pd: PersistenceData
    reduction: Reduction
    matched: tuple | None = None
    jac: PersistenceJacobian | None = None
    factors: tuple | None = None

    def jacobian(self, matched) -> PersistenceJacobian:
        """Jacobian of the matched pairs' coordinates, in their order."""
        if self.jac is None or self.matched != matched:
            self.jac = jacobian(self.fc, replace(self.pd, finite=matched), include_essential=False)
            self.matched, self.factors = matched, None
        return self.jac

    def svd(self):
        """SVD factors (V, s, W) of the Jacobian last asked for."""
        if self.factors is None:
            self.factors = svd(self.jac.matrix)
        return self.factors


def _evaluate(config, kind, dim, eps, previous=None) -> _Evaluation:
    """Evaluate ``config``, built to dimension ``dim + 1``; ``previous`` is
    the evaluation of a nearby one.

    The build shares the previous skeleton while it holds (a Rips skeleton
    always does), and a Z/2 reduction depends on the simplex order alone, so
    an unchanged order on the same skeleton keeps the previous pairing.
    """
    fc = build(config, kind, dim + 1, previous=previous.fc if previous else None)
    same = previous is not None and fc.skeleton is previous.fc.skeleton
    if same and np.array_equal(fc.order, previous.fc.order):
        red = previous.reduction
    else:
        red = reduce_boundary(boundary_matrix(fc))
    return _Evaluation(fc, persistence_data(red, fc, dim, eps), red)


_TIE_GRADIENT_CAP = 1e3


def _tie_rows(flip_coords, flip_names, matched, v_target, fc, window, offsets):
    """Extra rows that carry near-tied radii along with their coordinate.

    A diagram coordinate is a max/min over attaching radii; when several radii
    coincide at the solution the plain update oscillates between them with
    slow linear decay. The extra rows ask every tie participant to scale by
    the same factor as the tracked coordinate (preserving its radius ratio
    from the moment it joined the tie set), which solves for the oscillation's
    limit directly without symmetrizing the cloud into exact degeneracy, and
    is exactly consistent with similarity deformations of the cloud.

    Participants of coordinate c are the generators observed to flip there
    between iterates (listed in ``flip_coords`` and ``flip_names``) plus, when
    ``window`` is positive, all attaching simplices of the right dimension
    within it of the coordinate's value, but no coordinate's generator, in
    (coordinate, global index) order. ``offsets`` maps (coordinate, name) of
    every participant so far to its ratio: names outlive a change of
    skeleton. Only the step direction is affected; the convergence test uses
    the true diagram residual.
    """
    none = np.zeros((0, fc.config.free_dim)), np.zeros(0)
    if not flip_coords and window <= 0.0:
        return none
    skeleton, values, size = fc.skeleton, _values(matched), len(fc.birth)
    # the generators and the flip participants, located in one search
    g = skeleton.locate(np.array(_generators(matched) + flip_names))
    gens, coord, g = g[:len(values)], np.array(flip_coords, dtype=int), g[len(values):]
    if window > 0.0:
        lo, hi = fc.attaching_within(values, window)
        count = hi - lo  # each coordinate's window, in turn
        coord = np.concatenate([coord, np.repeat(np.arange(len(values)), count)])
        at = np.arange(count.sum()) + np.repeat(lo + count - count.cumsum(), count)
        g = np.concatenate([g, fc.attaching[1].take(at)])
    # a participant is a simplex of its coordinate's dimension and no generator
    dim = skeleton.dim
    live = (dim.take(g) == dim.take(gens).take(coord)) & ~(g[:, None] == gens).any(axis=1)
    coord, g = np.divmod(np.unique((coord * size + g)[live]), size)
    if not g.size:
        return none
    radius, value, names = fc.birth.take(g), values.take(coord), skeleton.names.take(g)
    ratio = np.divide(radius, value, out=np.ones_like(radius), where=value != 0)
    # each (coordinate, name) keeps the ratio it joined with: one setdefault pass
    joined = map(offsets.setdefault, zip(coord.tolist(), names.tolist()), ratio.tolist())
    ratio = np.fromiter(joined, float, len(ratio))
    rows, norms = _attaching_gradients(fc, fc.realizer.take(g))
    keep = ~(norms > _TIE_GRADIENT_CAP)  # a sliver's radius is too ill-conditioned to pin
    return rows[keep], (radius - v_target.take(coord) * ratio)[keep]


def _newton_core(
    config, kind, dim, epsilon, v_target, tol, max_iter, layout, tie_window, start=None
):
    """Newton solve from ``config``; ``start`` is its _Evaluation if known,
    and ``layout`` the pairs tracked so far (None: the diagram of ``config``).

    Returns (configuration, report, layout, evaluation of the configuration).
    """
    v_target = np.asarray(v_target, dtype=float)
    ev = start if start is not None else _evaluate(config, kind, dim, epsilon)
    if layout is None:
        layout = ev.pd.finite
    if v_target.size != 2 * len(layout):
        raise DimensionMismatch(
            f"target has {v_target.size} coordinates, layout expects {2 * len(layout)}"
        )

    increases = 0
    prev_res = math.inf
    sigma = np.zeros(0)  # the singular values of the last Jacobian
    flips = [], []  # coordinate and name of every generator a coordinate has had at a flip
    tie_offsets = {}  # (coordinate, name) -> radius ratio when the name joined its ties
    status, message = None, ""
    for it in range(max_iter + 1):
        matched = match_to_layout(layout, ev.pd)
        if matched is None:
            status, res = NewtonStatus.CARDINALITY_CHANGED, math.inf
            message = f"retained pair count dropped from {len(layout)} to {len(ev.pd.finite)}"
            break
        for c, (was, now) in enumerate(zip(_generators(layout), _generators(matched))):
            if was != now:
                flips[0].extend((c, c))
                flips[1].extend((was, now))
        layout = matched
        residual_vec = _values(matched) - v_target
        res = float(np.max(np.abs(residual_vec))) if residual_vec.size else 0.0
        increases = increases + 1 if res >= prev_res else 0
        if res <= tol:
            status = NewtonStatus.CONVERGED
            # transient extra pairs are tolerated during iterations, but an
            # accepted solution must preserve the truncated cardinality
            if len(ev.pd.finite) != len(layout):
                status = NewtonStatus.CARDINALITY_CHANGED
                message = f"retained pair count changed from {len(layout)} to {len(ev.pd.finite)}"
        elif it == max_iter:
            status = NewtonStatus.MAX_ITERATIONS
        elif increases >= 5:
            status = NewtonStatus.DIVERGED
            message = "residual failed to decrease for 5 consecutive iterations"
        if status is not None:
            break
        prev_res = res

        jac = ev.jacobian(matched)
        factors = ev.svd()
        sigma = factors[1]
        if sigma.size and sigma[-1] < _SIGMA_FLOOR:
            status = NewtonStatus.SINGULAR_JACOBIAN
            message = f"smallest singular value {sigma[-1]:.3e} below floor {_SIGMA_FLOOR:.0e}"
            break
        tie_m, tie_r = _tie_rows(*flips, matched, v_target, ev.fc, tie_window, tie_offsets)
        if tie_m.shape[0]:  # the Newton matrix is [J; tie rows]
            rhs = np.concatenate([residual_vec, tie_r])
            step = pinv_apply(np.vstack([jac.matrix, tie_m]), rhs)[0]
        else:  # the Newton matrix is the Jacobian, already decomposed
            step = _pinv_solve(factors, residual_vec)[0]
        config = config.with_vector(config.pack() - step)
        ev = _evaluate(config, kind, dim, epsilon, previous=ev)
    if status is NewtonStatus.CONVERGED:  # the Jacobian's singular values where it stopped
        ev.jacobian(matched)
        sigma = ev.svd()[1]
    return config, NewtonReport(status, it, res, sigma, message), layout, ev


def newton_pinv(
    config: Configuration,
    kind: str,
    dim: int,
    epsilon: float,
    v_target,
    tol: float = 1e-10,
    max_iter: int = 50,
    tie_window: float = 0.0,
):
    """Iterate u <- u - Df(u)^+ (f(u) - v) until the sup-norm residual is small.

    Each iterate's filtration, diagram, coordinate matching, Jacobian and SVD
    are computed once; when no tie rows are stacked below the Jacobian, its
    SVD also gives the pseudo-inverse. Attaching radii within
    ``tie_window`` of a coordinate are carried along with it. Returns
    (configuration, NewtonReport, layout) where the layout tracks the
    generating simplices of the matched coordinates.
    """
    _check_controls(tol, max_iter, tie_window)
    config, report, layout, _ = _newton_core(
        config, kind, dim, epsilon, v_target, tol, max_iter, None, tie_window
    )
    return config, report, layout


# --- continuation driver -----------------------------------------------------------

@dataclass(frozen=True)
class ContinuationStep:
    k: int
    t: float                    # fraction of the segment covered, in (0, 1]
    v_target: np.ndarray
    u: np.ndarray               # packed free coordinates at the solution
    pairs: tuple                # ((birth, death), ...) matched layout order
    singular_values: np.ndarray
    newton_iters: int
    residual: float
    attaching_radii: dict       # dim -> tuple of attaching birth radii


@dataclass
class ContinuationTrace:
    kind: str
    dim: int
    epsilon: float
    v_start: np.ndarray
    v_target: np.ndarray
    n_planned: int
    steps: list = field(default_factory=list)
    reached_target: bool = False
    failed_step: int | None = None
    reason: str | None = None
    final_config: Configuration | None = None

    @property
    def termination(self) -> str:
        if self.reached_target:
            return "ReachedTarget"
        return f"FailedAtStep {self.failed_step}: {self.reason}"


def _attaching_radii(fc):
    """Attaching radii by dimension, the dimensions in the order of their least."""
    radii, at = fc.attaching
    out = {}
    for dim, radius in zip(fc.skeleton.dim.take(at).tolist(), radii.tolist()):
        out.setdefault(dim, []).append(radius)
    return {d: tuple(v) for d, v in out.items()}


def continue_cloud(
    config: Configuration,
    kind: str,
    dim: int,
    epsilon: float,
    v_target,
    step: float | None = None,
    n_steps: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    max_halvings: int = 0,
    tie_window: float = 0.0,
) -> ContinuationTrace:
    """Walk the diagram from its current value to ``v_target`` along a segment.

    The segment is split into equal pieces of length at most ``step`` (or into
    ``n_steps`` pieces); each piece is solved by ``newton_pinv`` seeded with
    the previous solution. A piece whose solve does not converge is halved
    and retried, up to ``max_halvings`` times over the whole run; then, as on
    a library error, the partial trace is returned.
    """
    _check_controls(tol, max_iter, tie_window, step, n_steps, max_halvings)
    ev = _evaluate(config, kind, dim, epsilon)
    layout = ev.pd.finite
    v_start = _values(layout)
    v_target = np.asarray(v_target, dtype=float)
    if v_target.shape != v_start.shape:
        raise DimensionMismatch(
            f"target has {v_target.size} coordinates, diagram has {v_start.size}"
        )
    span = float(np.linalg.norm(v_target - v_start))
    if v_start.size > config.free_dim:
        warnings.warn(
            f"diagram has m={v_start.size} coordinates but only n={config.free_dim} "
            "free point coordinates; the target is generically unreachable"
        )
    if n_steps is not None:
        n = int(n_steps)
    elif step is not None and span > 0:
        n = max(1, math.ceil(span / step - 1e-12))
    else:
        n = 1

    trace = ContinuationTrace(kind, dim, epsilon, v_start, v_target, n)
    t = Fraction(0)
    dt = Fraction(1, n)
    halvings = 0
    k = 0
    while t < 1:
        t_next = min(t + dt, Fraction(1))
        v_k = v_start + float(t_next) * (v_target - v_start)
        k += 1
        try:
            new_config, report, new_layout, new_ev = _newton_core(
                config, kind, dim, epsilon, v_k, tol, max_iter, layout, tie_window, start=ev,
            )
        except PdcontError as exc:
            trace.failed_step = k
            trace.reason = f"{type(exc).__name__}: {exc}"
            break
        if not report.converged:
            if halvings < max_halvings:
                halvings += 1
                dt /= 2
                k -= 1
                continue
            trace.failed_step = k
            trace.reason = f"{report.status.value}: {report.message or f'residual {report.residual:.3e}'}"
            break
        config, layout, ev = new_config, new_layout, new_ev
        t = t_next
        trace.steps.append(
            ContinuationStep(
                k, float(t), v_k, config.pack(),
                tuple((s.birth, s.death) for s in layout),
                report.singular_values, report.iterations, report.residual,
                _attaching_radii(ev.fc),
            )
        )
    trace.reached_target = t >= 1
    trace.final_config = config
    return trace
