"""The array paths of the tie bookkeeping against the vertex-tuple loops they
replaced: the attaching-radius windows, the near-tie count and the tie rows,
on random clouds and on jittered Fibonacci shells, where radii nearly tie."""

import warnings

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from pdcont import solver
from pdcont.cli import apply_jitter, fibonacci_sphere
from pdcont.delaunay import _names
from pdcont.diffmap import _TIE_TOL, jacobian
from pdcont.errors import (
    DegenerateInput, GeneralPositionViolation, MatchingAmbiguous, NearDegenerateJacobian,
)
from pdcont.filtration import build
from pdcont.geometry import Configuration
from pdcont.persistence import boundary_matrix, persistence_data, reduce_boundary

from helpers import (
    PROPERTY, attaching_radii_reference, attaching_within_reference, grid_clouds, key_of_name,
    name_of_key, near_tie_events_reference, random_cloud, skeleton_keys, tie_rows_reference,
)


@st.composite
def clouds(draw):
    """Random clouds and Fibonacci shells jittered by 1e-12 to 1e-6."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return random_cloud(np.random.RandomState(seed), draw(st.integers(5, 30)))
    m = draw(st.integers(12, 60))
    return apply_jitter(fibonacci_sphere(m), seed, magnitude=10.0 ** -draw(st.integers(6, 12)))


def _build(points, kind):
    try:
        return build(Configuration(points, gauge=False), kind, max_dim=2)
    except (DegenerateInput, GeneralPositionViolation):
        assume(False)


class TestAttachingWindows:
    @PROPERTY
    @given(points=clouds(), kind=st.sampled_from(["alpha", "rips"]), data=st.data())
    def test_windows_hold_the_bisect_entries(self, points, kind, data):
        fc = _build(points, kind)
        reference = attaching_radii_reference(fc)
        radii, at = fc.attaching
        keys = skeleton_keys(fc.skeleton)
        assert radii.tolist() == [r for r, _ in reference]
        assert sorted(zip(radii.tolist(), (keys[g] for g in at))) == list(reference)
        values = np.array(data.draw(st.lists(st.sampled_from(radii.tolist()), min_size=1, max_size=8)))
        tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.1]))
        lo, hi = fc.attaching_within(values, tol)
        for value, a, b in zip(values.tolist(), lo.tolist(), hi.tolist()):
            window = sorted(zip(radii[a:b].tolist(), (keys[g] for g in at[a:b])))
            assert window == list(attaching_within_reference(fc, value, tol))

    @PROPERTY
    @given(points=clouds())
    def test_attaching_radii_by_dimension(self, points):
        fc = _build(points, "alpha")
        expected = {}
        for radius, key in attaching_radii_reference(fc):
            expected.setdefault(len(key) - 1, []).append(radius)
        got = solver._attaching_radii(fc)
        assert list(got.items()) == [(d, tuple(v)) for d, v in expected.items()]


class TestNearTies:
    @PROPERTY
    @given(points=st.one_of(clouds(), grid_clouds(5, 14)), dim=st.integers(0, 2),
           kind=st.sampled_from(["alpha", "rips"]))
    def test_event_counts_equal_the_loop(self, points, dim, kind):
        assume(kind == "alpha" or len(points) <= 20)
        fc = _build(points, kind)
        pd = persistence_data(reduce_boundary(boundary_matrix(fc)), fc, min(dim, 1), 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jac = jacobian(fc, pd)
        events = [int(str(w.message).split()[0]) for w in caught
                  if issubclass(w.category, NearDegenerateJacobian)]
        expected = near_tie_events_reference(jac.rows, fc, _TIE_TOL)
        assert events == ([expected] if expected else [])


def _offsets_by_key(offsets, n):
    return {(c, key_of_name(name, n)): r for (c, name), r in offsets.items()}


class TestTieRows:
    """The tie rows along a path of clouds, called as the Newton loop calls
    them, against the loop over vertex tuples: rows and residuals bit for bit,
    and the stored offsets equal after every call, across skeleton changes."""

    @PROPERTY
    @given(points=clouds(), seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 8),
           reach=st.sampled_from([1e-3, 1e-2, 0.05]),
           windows=st.lists(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.2]), min_size=1, max_size=3))
    def test_rows_offsets_and_residuals(self, points, seed, steps, reach, windows):
        rng = np.random.RandomState(seed)
        m = len(points)
        ev = layout = None
        flips, groups = ([], []), {}
        offsets, reference_offsets = {}, {}
        for k in range(steps):
            moved = points + reach * k * rng.uniform(-1.0, 1.0, points.shape)
            try:
                ev = solver._evaluate(Configuration(moved, gauge=False), "alpha", 1, 0.0, previous=ev)
                matched = solver.match_to_layout(layout or ev.pd.finite, ev.pd)
            except (GeneralPositionViolation, MatchingAmbiguous):
                break
            if matched is None:
                break
            for c, (was, now) in enumerate(zip(solver._generators(layout or matched),
                                               solver._generators(matched))):
                if was != now:
                    flips[0].extend((c, c))
                    flips[1].extend((was, now))
                    groups.setdefault(c, set()).update(key_of_name(x, m) for x in (was, now))
            layout = matched
            v_target = solver._values(matched) * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0))
            window = windows[k % len(windows)]
            rows, residual = solver._tie_rows(*flips, matched, v_target, ev.fc, window, offsets)
            expected_rows, expected_residual = tie_rows_reference(
                groups, matched, v_target, ev.fc, window, reference_offsets
            )
            assert rows.shape == expected_rows.shape
            assert rows.tobytes() == expected_rows.tobytes()
            assert residual.tobytes() == expected_residual.tobytes()
            assert _offsets_by_key(offsets, m) == reference_offsets


def test_names_add_no_point_limit():
    # a tetrahedron's name of a 60,000-point cloud passes 2**63; no cloud is built
    n = 60_000
    row = np.array([[0, 1, 2, 3], [n - 4, n - 3, n - 2, n - 1]])
    names = _names(row, n)
    assert names.tolist() == [name_of_key(tuple(r), n) for r in row.tolist()]
    assert names[1] > 2**63
    # Qhull's rows are 32-bit; their names are computed in 64 bits or more
    for k in (2, 3, 4):
        row = np.arange(n - k, n, dtype=np.int32)[None]
        assert _names(row, n).tolist() == [name_of_key(tuple(row[0].tolist()), n)]
    # below the limit the names are 64-bit integers with the same values
    n = 50_000
    row = np.array([[n - 4, n - 3, n - 2, n - 1]])
    assert _names(row, n).dtype == np.int64
    assert _names(row, n).tolist() == [name_of_key(tuple(row[0].tolist()), n)]
