"""Command-line front end: diagrams, Jacobians, continuation runs, and the
packaged example reproductions.

Outputs are deterministic: all floats print with 9 significant digits and any
randomness is seeded. Exit codes: 0 success, 1 failed verdict or
general-position violations found by `check`, 3 degenerate input, 4 general
position violation, 5 gauge violation, 6 layout/matching error, 7 triangle
not acute, 8 other library error, 2 usage (including numbers out of range).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import diffmap, persistence, solver
from .errors import (
    DegenerateInput,
    DegenerateSimplex,
    DimensionMismatch,
    GaugeViolation,
    GeneralPositionViolation,
    MatchingAmbiguous,
    NotAcute,
    PdcontError,
)
from .filtration import build
from .geometry import Configuration, _unframe, check_general_position, to_gauge_frame

_EXIT_CODES = (
    (DegenerateInput, 3),
    (DegenerateSimplex, 3),
    (GeneralPositionViolation, 4),
    (GaugeViolation, 5),
    (DimensionMismatch, 6),
    (MatchingAmbiguous, 6),
    (NotAcute, 7),
    (PdcontError, 8),
)

JITTER_MAGNITUDE = 1e-9  # relative to the bounding-box scale


def _fmt(x: float) -> float:
    return float(f"{x:.9g}")


def read_cloud(path: str) -> np.ndarray:
    """Read a cloud from a JSON array of [x, y, z] or whitespace XYZ text."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("["):
            data = np.asarray(json.loads(stripped), dtype=float)
        else:
            data = np.array(
                [[float(x) for x in line.split()] for line in text.splitlines() if line.strip()]
            )
    except (ValueError, TypeError, OverflowError) as exc:
        raise DegenerateInput(f"cannot read coordinates: {exc}")
    if data.ndim != 2 or data.shape[1] != 3:
        raise DegenerateInput(f"expected (M, 3) coordinates, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise DegenerateInput("coordinates must be finite (NaN or inf found)")
    return data


def target_vector(text: str) -> np.ndarray:
    """The ``--target`` argument, a JSON list of finite [birth, death] pairs,
    as the flat diagram vector; anything else is a usage error."""
    try:
        pairs = json.loads(text)
        pairs = np.array(pairs, dtype=float) if pairs != [] else np.zeros((0, 2))
        if pairs.ndim == 2 and pairs.shape[1] == 2 and np.isfinite(pairs).all():
            return pairs.ravel()
    except (ValueError, TypeError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"need a JSON list of finite [birth, death] pairs: {text!r}")


def _bounded(convert, ok, need):
    """An argparse type: the argument under ``convert`` when ``ok`` holds for
    it; anything else is a usage error that says what is needed."""

    def parse(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}: {text!r}")

    return parse


positive_number = _bounded(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
nonnegative_number = _bounded(float, lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")
positive_int = _bounded(int, lambda n: n >= 1, "an integer >= 1")
nonnegative_int = _bounded(int, lambda n: n >= 0, "an integer >= 0")
seed_int = _bounded(int, lambda n: 0 <= n < 2**32, "an integer in [0, 2**32)")


def apply_jitter(points: np.ndarray, seed: int, magnitude: float = JITTER_MAGNITUDE):
    """The cloud moved by seeded uniform noise of ``magnitude`` times its
    largest distance from a column mean or, where that is zero, times half the
    points' frame unit. The cloud is jittered in its frame
    (``Configuration.frame``), which gives the bits of the caller's units
    without overflowing the mean; a jittered coordinate past the float range
    is refused as DegenerateInput."""
    rng = np.random.RandomState(seed)
    e, framed = Configuration(points, gauge=False).frame
    scale = np.abs(framed - framed.mean(axis=0)).max() or 0.5  # 0: the points coincide
    jittered = framed + rng.uniform(-1.0, 1.0, points.shape) * magnitude * scale
    return _unframe(jittered, e, "the jittered coordinates exceed the float range")


def _load_config(args) -> Configuration:
    points = read_cloud(args.input)
    if args.jitter_seed is not None:
        points = apply_jitter(points, args.jitter_seed)
    if not args.no_gauge and len(points) < 3:
        raise GaugeViolation(f"the gauge frame needs at least three points, got {len(points)}; "
                             "use --no-gauge")
    return Configuration(points, gauge=False) if args.no_gauge else to_gauge_frame(points)


def _diagram_of(args):
    """The loaded cloud, its filtered complex and its diagram, built once."""
    config = _load_config(args)
    ev = solver._evaluate(config, args.filtration, args.dim, args.epsilon)
    return config, ev.fc, ev.pd


def cmd_diagram(args) -> int:
    _, fc, pd = _diagram_of(args)
    print(pd.to_json())
    report = check_general_position(fc)
    print(report.summary(), file=sys.stderr)
    if args.out:
        with open(args.out + ".json", "w") as fh:
            fh.write(pd.to_json() + "\n")
        with open(args.out + ".csv", "w") as fh:
            fh.write(pd.to_csv())
    return 0


def cmd_check(args) -> int:
    config = _load_config(args)
    report = check_general_position(build(config, args.filtration, max_dim=1))
    print(report.summary())
    return 0 if report.ok else 1


def cmd_jacobian(args) -> int:
    _, fc, pd = _diagram_of(args)
    jac = diffmap.jacobian(fc, pd)
    _, sigma, _ = solver.svd(jac.matrix)
    print("singular values:", " ".join(f"{s:.9g}" for s in sigma))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(jac.to_csv())
    else:
        sys.stdout.write(jac.to_csv())
    return 0


def _trace_records(trace: solver.ContinuationTrace):
    for s in trace.steps:
        yield {
            "k": s.k,
            "t": _fmt(s.t),
            "v_target": [_fmt(x) for x in s.v_target],
            "u": [_fmt(x) for x in s.u],
            "pairs": [[_fmt(b), _fmt(d)] for b, d in s.pairs],
            "singular_values": [_fmt(x) for x in s.singular_values],
            "newton_iters": s.newton_iters,
            "residual": _fmt(s.residual),
            "attaching_radii": {
                str(d): [_fmt(r) for r in radii] for d, radii in s.attaching_radii.items()
            },
        }


def write_trace(trace: solver.ContinuationTrace, path: str):
    with open(path, "w") as fh:
        for rec in _trace_records(trace):
            fh.write(json.dumps(rec) + "\n")
        end = {"termination": trace.termination, "reached_target": trace.reached_target,
               "failed_step": trace.failed_step, "reason": trace.reason,
               "n_planned": trace.n_planned}
        fh.write(json.dumps(end) + "\n")


def _write_run(trace: solver.ContinuationTrace, out: str):
    """The trace as ``out.jsonl`` and the final cloud as ``out_final.xyz``."""
    write_trace(trace, out + ".jsonl")
    with open(out + "_final.xyz", "w") as fh:
        for p in trace.final_config.points:
            fh.write(" ".join(f"{x:.9g}" for x in p) + "\n")


def cmd_continue(args) -> int:
    try:
        trace = solver.continue_cloud(
            _load_config(args), args.filtration, args.dim, args.epsilon, args.target,
            step=args.step, n_steps=args.n_steps, tol=args.tol, max_iter=args.max_iter,
            max_halvings=6 if args.adaptive else 0, tie_window=args.tie_window,
        )
    except ValueError as exc:  # a control only the segment can refuse: a step too small for it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(trace.termination)
    if trace.steps:
        final = trace.steps[-1]
        print(
            "final pairs:",
            json.dumps([[_fmt(b), _fmt(d)] for b, d in final.pairs]),
            f"residual: {final.residual:.9g}",
        )
    _write_run(trace, args.out or "continuation")
    return 0 if trace.reached_target else 1


# --- packaged example reproductions -------------------------------------------

EXAMPLE_1_CLOUD = [[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]]
EXAMPLE_3_CLOUD = [
    [0, 0, 0],
    [9.991, 0, 0],
    [4.9955, 8.65246, 0],
    [4.9955, 2.88415, 8.15762],
]
EXAMPLE_4_CLOUD = [[0, 0, 0], [1, 0, 0], [1.1, 1.2, 0], [0.5, 0.6, 1.3]]


def dodecahedron_vertices() -> np.ndarray:
    phi = (1 + math.sqrt(5)) / 2
    verts = [
        [sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
    ]
    for s1 in (1, -1):
        for s2 in (1, -1):
            verts.append([0, s1 / phi, s2 * phi])
            verts.append([s1 / phi, s2 * phi, 0])
            verts.append([s1 * phi, 0, s2 / phi])
    return np.array(verts, dtype=float)


def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n)
    golden = (1 + math.sqrt(5)) / 2
    z = 1 - (2 * i + 1) / n
    theta = 2 * np.pi * i / golden
    r = np.sqrt(1 - z * z)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _edge_spread(points: np.ndarray) -> float:
    edges = [
        float(np.linalg.norm(points[i] - points[j]))
        for i, j in itertools.combinations(range(len(points)), 2)
    ]
    return (max(edges) - min(edges)) / float(np.mean(edges))


def _reached(trace):
    """(trace, verdict, details) of a run that must reach its target to 1e-8."""
    ok = trace.reached_target and trace.steps[-1].residual <= 1e-8
    details = f"residual {trace.steps[-1].residual:.3g}" if trace.steps else "no steps"
    return trace, ok, details


def _run_example(n: int, out_prefix: str | None):
    """Run packaged example ``n``; returns (trace, verdict, details)."""
    if n == 1:
        config = to_gauge_frame(EXAMPLE_1_CLOUD)
        trace = solver.continue_cloud(
            config, "alpha", 2, 0.0, [8.42719, 8.89015], step=0.01
        )
        return _reached(trace)
    if n == 2:
        config = to_gauge_frame(EXAMPLE_1_CLOUD)
        trace = solver.continue_cloud(
            config, "alpha", 2, 0.0, [6.42719, 7.09015], step=0.001, max_halvings=3
        )
        spread = _edge_spread(trace.final_config.points)
        ok = (not trace.reached_target) and spread < 0.01
        details = f"failed_step {trace.failed_step}, edge spread {spread:.4%}"
        return trace, ok, details
    if n == 3:
        config = to_gauge_frame(EXAMPLE_3_CLOUD)
        trace = solver.continue_cloud(
            config, "alpha", 2, 0.0, [5.94841, 5.94841], step=0.001
        )
        ok = False
        details = "no steps"
        if trace.steps:
            final = trace.steps[-1]
            sigma_min = float(final.singular_values.min()) if final.singular_values.size else math.inf
            close = max(
                abs(final.pairs[0][0] - 5.94841), abs(final.pairs[0][1] - 5.94841)
            )
            ok = trace.reached_target and sigma_min < 1e-2 and close <= 1e-8
            details = f"sigma_min {sigma_min:.3g}, distance to target {close:.3g}"
        return trace, ok, details
    if n == 4:
        config = to_gauge_frame(EXAMPLE_4_CLOUD)
        trace = solver.continue_cloud(
            config, "alpha", 1, 0.0,
            [0.770801, 0.817236, 0.798346, 0.863075], step=0.001,
        )
        return _reached(trace)
    if n == 5:
        points = apply_jitter(dodecahedron_vertices(), seed=11, magnitude=1e-6)
        config = to_gauge_frame(points)
        pd = persistence.diagram(config, "alpha", 2, 1e-3)
        v0 = pd.vector(include_essential=False)
        # raise both radii; scaling the pair keeps the near-cospherical shell
        # inside the fixed-cardinality corridor (death radius grows by 0.5)
        trace = solver.continue_cloud(
            config, "alpha", 2, 1e-3, v0 * (1 + 0.5 / v0[1]), step=0.01,
            max_iter=300, tie_window=1.0,
        )
        return _reached(trace)
    if n == 6:
        points = apply_jitter(fibonacci_sphere(100), seed=23, magnitude=1e-6)
        config = to_gauge_frame(points)
        pd = persistence.diagram(config, "alpha", 2, 1e-5)
        v0 = pd.vector(include_essential=False)
        trace = solver.continue_cloud(
            config, "alpha", 2, 1e-5, v0 * 1.3, step=0.03, max_iter=300, tie_window=1.0
        )
        return _reached(trace)
    raise ValueError(f"no packaged example {n}")


def cmd_example(args) -> int:
    trace, ok, details = _run_example(args.number, args.out)
    _write_run(trace, args.out or f"example{args.number}")
    print(f"example {args.number}: {'PASS' if ok else 'FAIL'} ({details}; {trace.termination})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcont",
        description="Persistence diagrams of 3D point clouds and diagram-driven "
        "cloud deformation by pseudo-inverse Newton continuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_dim=True):
        p.add_argument("--input", "-i", required=True, help="cloud file (JSON or XYZ text), '-' for stdin")
        p.add_argument("--filtration", choices=("alpha", "rips"), default="alpha")
        if needs_dim:
            p.add_argument("--dim", type=nonnegative_int, default=2, help="homology dimension")
            p.add_argument("--epsilon", type=nonnegative_number, default=0.0,
                           help="diagonal truncation")
        p.add_argument("--no-gauge", action="store_true", help="keep raw coordinates (no rigid-motion gauge)")
        p.add_argument("--jitter-seed", type=seed_int, default=None, help="seeded jitter of 1e-9 x scale")

    p = sub.add_parser("diagram", help="compute a persistence diagram")
    common(p)
    p.add_argument("--out", help="output prefix for .json/.csv files")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("check", help="general-position report")
    common(p, needs_dim=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("jacobian", help="derivative of the diagram coordinates")
    common(p)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("continue", help="continuation toward a target diagram")
    common(p)
    p.add_argument("--target", required=True, type=target_vector,
                   help='target pairs, e.g. "[[8.4, 8.9]]"')
    p.add_argument("--step", type=positive_number, default=0.01,
                   help="segment length per step")
    p.add_argument("--n-steps", type=positive_int, default=None, help="override step count")
    p.add_argument("--tol", type=positive_number, default=1e-10)
    p.add_argument("--max-iter", type=nonnegative_int, default=50)
    p.add_argument("--adaptive", action="store_true", help="halve the step on failure (up to 6 times)")
    p.add_argument("--tie-window", type=nonnegative_number, default=0.0,
                   help="carry attaching radii within this distance of their coordinate")
    p.add_argument("--out", help="output prefix (default 'continuation')")
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("example", help="run a packaged reproduction (1-6)")
    p.add_argument("number", type=int, choices=range(1, 7))
    p.add_argument("--out", help="output prefix (default 'exampleN')")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PdcontError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 8


if __name__ == "__main__":
    sys.exit(main())
