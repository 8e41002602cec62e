import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdcont
from pdcont import cli, delaunay, filtration, solver

from helpers import PAST_FLOAT


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n8 0 0\n5 6 0\n4 2 6\n")
    return str(path)


@pytest.fixture
def ex1_json(tmp_path):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps([[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, 6]]))
    return str(path)


class TestInputParsing:
    def test_xyz_and_json_agree(self, ex1_file, ex1_json):
        a = cli.read_cloud(ex1_file)
        b = cli.read_cloud(ex1_json)
        np.testing.assert_array_equal(a, b)

    def test_read_cloud_closes_its_file(self, ex1_file):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.read_cloud(ex1_file)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_jitter_seed_moves_the_cloud(self, ex1_file):
        def loaded(*flags):
            return cli._load_config(cli.build_parser().parse_args(
                ["check", "-i", ex1_file, "--no-gauge", *flags]
            )).points

        plain, moved = loaded(), loaded("--jitter-seed", "3")
        # 4.5: the cloud's scale, its largest coordinate deviation from the mean
        assert 0 < np.abs(moved - plain).max() <= 4.5 * cli.JITTER_MAGNITUDE
        np.testing.assert_array_equal(loaded("--jitter-seed", "3"), moved)

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_jitter_has_the_bits_of_the_caller_units(self, k):
        """Jittering in the frame gives the bits of the jitter in the caller's
        units, with the scale of coincident points half their frame unit: at
        1e300 they move, and at 1e-300 they move by 1e-6 of themselves."""
        rng = np.random.RandomState(0)
        clouds = [cli.dodecahedron_vertices(), cli.fibonacci_sphere(100), rng.uniform(-5, 5, (30, 3)),
                  np.array([[1.0, 2.0, 3.0]]), np.zeros((3, 3))]
        clouds = [np.ldexp(points, k) for points in clouds]
        clouds += [np.full((4, 3), 1e300), np.full((4, 3), -1e-300)]
        for seed, points in enumerate(clouds):
            half_unit = math.ldexp(0.5, math.frexp(np.abs(points).max())[1])
            scale = np.abs(points - points.mean(axis=0)).max() or half_unit
            expected = points + np.random.RandomState(seed).uniform(-1.0, 1.0, points.shape) * 1e-6 * scale
            jittered = cli.apply_jitter(points, seed, 1e-6)
            np.testing.assert_array_equal(jittered, expected)
            assert (jittered != points).all()

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2], [3, 4]]")
        with pytest.raises(cli.DegenerateInput):
            cli.read_cloud(str(path))

    @pytest.mark.parametrize("text", [
        "0 0 0\n8 0 0\n5 nan 0\n4 2 6\n",
        "0 0 0\n8 0 0\n5 6 0\n4 2 inf\n",
        "[[0, 0, 0], [8, 0, 0], [5, 6, 0], [4, 2, NaN]]",
        "[[0, 0, 0], [8, 0, 0], [5, 6, -Infinity], [4, 2, 6]]",
        "0 0 0\n8 0\n",
        "0 0 0\n8 0 x\n",
    ])
    def test_malformed_cloud_is_degenerate_input(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(cli.DegenerateInput):
            cli.read_cloud(str(path))

    @pytest.mark.parametrize("filtration", ["alpha", "rips"])
    @pytest.mark.parametrize("m", [4, 6])
    def test_non_finite_cloud_exits_3(self, tmp_path, capsys, filtration, m):
        points = np.random.RandomState(0).rand(m, 3)
        points[m - 1, 1] = np.nan
        path = tmp_path / "nan.xyz"
        path.write_text("\n".join(" ".join(map(str, p)) for p in points))
        args = ["diagram", "-i", str(path), "--filtration", filtration, "--dim", "1"]
        assert cli.main(args) == 3
        assert cli.main(args + ["--no-gauge"]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [
        "5", "abc", "[1,2]", '[[8.4,"x"]]', "[[8.4, 8.9, 9.0]]", "[[8.4, NaN]]",
        "[[8.4, Infinity]]", '{"pairs": []}', "[[]]",
    ])
    def test_malformed_target_is_usage_error(self, ex1_file, tmp_path, capsys, target):
        out = str(tmp_path / "run")
        with pytest.raises(SystemExit) as exc:
            cli.main(["continue", "-i", ex1_file, "--dim", "2", "--target", target, "--out", out])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err

    def test_target_vector(self):
        np.testing.assert_array_equal(cli.target_vector("[[4.48, 4.66], [1, 2]]"), [4.48, 4.66, 1, 2])
        assert cli.target_vector("[]").shape == (0,)


class TestNumberRanges:
    """Numbers out of range are usage errors (exit 2), caught before any run."""

    @staticmethod
    def _usage_error(argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diagram", "jacobian", "continue"])
    @pytest.mark.parametrize("flag, value", [
        ("--dim", "-1"), ("--dim", "1.5"),
        ("--epsilon", "-1"), ("--epsilon", "nan"), ("--epsilon", "inf"),
    ])
    def test_dim_and_epsilon(self, ex1_file, tmp_path, capsys, command, flag, value):
        argv = [command, "-i", ex1_file, flag, value, "--out", str(tmp_path / "out")]
        if command == "continue":
            argv += ["--target", "[[4.48, 4.66]]"]
        self._usage_error(argv, flag, capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--step", "0"), ("--step", "-1"), ("--step", "nan"), ("--step", "inf"),
        ("--n-steps", "0"), ("--n-steps", "-2"), ("--max-iter", "-1"),
        ("--tol", "0"), ("--tie-window", "nan"),
    ])
    def test_continuation_numbers(self, ex1_file, tmp_path, capsys, flag, value):
        argv = [
            "continue", "-i", ex1_file, "--dim", "2", "--target", "[[4.48, 4.66]]",
            flag, value, "--out", str(tmp_path / "run"),
        ]
        self._usage_error(argv, flag, capsys)
        assert not (tmp_path / "run.jsonl").exists()

    def test_step_too_small_for_the_segment(self, ex1_file, tmp_path, capsys):
        # a positive step the parser accepts, but the segment would take an
        # unbounded number of steps: the step count once overflowed
        argv = [
            "continue", "-i", ex1_file, "--dim", "2", "--target", "[[8.4, 8.9]]",
            "--step", "5e-324", "--out", str(tmp_path / "run"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step 5e-324 is too small") and err.count("\n") == 1
        assert not (tmp_path / "run.jsonl").exists()

    @pytest.mark.parametrize("command", ["diagram", "check", "jacobian", "continue"])
    @pytest.mark.parametrize("flag, value", [
        ("--jitter-seed", "-1"), ("--jitter-seed", "4294967296"),
    ])
    def test_common_numbers(self, ex1_file, capsys, command, flag, value):
        argv = [command, "-i", ex1_file, flag, value]
        if command == "continue":
            argv += ["--target", "[[4.48, 4.66]]"]
        self._usage_error(argv, flag, capsys)

    def test_bounds_are_accepted(self):
        args = cli.build_parser().parse_args([
            "continue", "-i", "cloud.xyz", "--target", "[]", "--dim", "0", "--epsilon", "0",
            "--step", "1e-300", "--n-steps", "1", "--max-iter", "0", "--tol", "1e-300",
            "--tie-window", "0", "--jitter-seed", "4294967295",
        ])
        parsed = (
            args.dim, args.epsilon, args.step, args.n_steps, args.max_iter, args.tol,
            args.tie_window, args.jitter_seed,
        )
        assert parsed == (0, 0.0, 1e-300, 1, 0, 1e-300, 0.0, 2**32 - 1)
        assert cli.build_parser().parse_args(
            ["check", "-i", "cloud.xyz", "--jitter-seed", "0"]
        ).jitter_seed == 0


class TestDiagramCommand:
    def test_example1_values(self, ex1_file, tmp_path, capsys):
        out = str(tmp_path / "diag")
        code = cli.main(
            ["diagram", "-i", ex1_file, "--dim", "2", "--out", out]
        )
        assert code == 0
        payload = json.loads((tmp_path / "diag.json").read_text())
        assert payload["pairs"] == [[4.42718872, 4.59014645]]
        csv = (tmp_path / "diag.csv").read_text()
        assert "4.42718872,4.59014645" in csv

    def test_stdin_cloud(self, ex1_file, monkeypatch, capsys):
        with open(ex1_file) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        assert cli.main(["diagram", "-i", "-", "--dim", "2"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload["pairs"] == [[4.42718872, 4.59014645]]

    def test_essential_classes_written_as_inf_rows(self, ex1_file, tmp_path, capsys):
        out = str(tmp_path / "diag0")
        assert cli.main(["diagram", "-i", ex1_file, "--dim", "0", "--out", out]) == 0
        essential = json.loads((tmp_path / "diag0.json").read_text())["essential"]
        rows = (tmp_path / "diag0.csv").read_text().splitlines()[1:]
        assert essential == [0.0]
        assert [r for r in rows if r.endswith(",inf")] == ["0,inf"]
        assert len(rows) == 4  # three finite pairs of four vertices, one essential class

    def test_single_point(self, tmp_path, capsys):
        path = tmp_path / "one.xyz"
        path.write_text("1 2 3\n")
        code = cli.main(
            ["diagram", "-i", str(path), "--dim", "0", "--no-gauge"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload["pairs"] == []
        assert payload["essential"] == [0.0]
        for dim in (1, 2):
            code = cli.main(
                ["diagram", "-i", str(path), "--dim", str(dim), "--no-gauge"]
            )
            assert code == 0

    def test_determinism(self, ex1_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            cli.main(["diagram", "-i", ex1_file, "--dim", "2", "--out", out])
            outs.append((tmp_path / (name + ".json")).read_bytes())
        assert outs[0] == outs[1]

    def test_triangulates_once(self, tmp_path, monkeypatch, capsys):
        # the diagram and the general-position report share one complex
        pts = np.random.RandomState(5).rand(30, 3)
        path = tmp_path / "c.xyz"
        path.write_text("\n".join(" ".join(map(str, p)) for p in pts))
        calls = []
        triangulate = delaunay.delaunay3

        def counted(*args, **kwargs):
            calls.append(1)
            return triangulate(*args, **kwargs)

        monkeypatch.setattr(delaunay, "delaunay3", counted)
        assert cli.main(["diagram", "-i", str(path), "--dim", "1", "--no-gauge"]) == 0
        assert len(calls) == 1

    def test_sphere_sample_dominant_gap(self):
        pts = cli.apply_jitter(cli.fibonacci_sphere(100), seed=23, magnitude=1e-6)
        config = cli.to_gauge_frame(pts)
        from pdcont.persistence import diagram

        pd = diagram(config, "alpha", 2, 0.0)
        pers = sorted((p.persistence for p in pd.finite), reverse=True)
        assert pers[0] >= 5 * (pers[1] if len(pers) > 1 else pers[0] / 100)

    @pytest.mark.parametrize("filtration", ["alpha", "rips"])
    def test_far_cloud_scales_exactly(self, tmp_path, capsys, filtration):
        # squared distances pass the largest float; through the default gauge
        # the diagram is still the unit cloud's, scaled
        path = tmp_path / "far.xyz"
        diagrams = []
        for scale in (1.0, 1e200):
            path.write_text(f"0 0 0\n{scale!r} 0 0\n0 {scale!r} 0\n0 0 {scale!r}\n")
            assert cli.main(["diagram", "-i", str(path), "--filtration", filtration, "--dim", "0"]) == 0
            out, err = capsys.readouterr()
            assert "Warning" not in err
            pd = json.loads(out)
            diagrams.append(np.array(pd["pairs"] + [[b, 0.0] for b in pd["essential"]]))
        unit, far = diagrams
        assert len(unit) == 4
        np.testing.assert_allclose(far, 1e200 * unit, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("filtration", ["alpha", "rips"])
    def test_radius_past_the_float_range_exits_3(self, tmp_path, capsys, filtration):
        path = tmp_path / "past.xyz"
        path.write_text("\n".join(" ".join(map(repr, p)) for p in PAST_FLOAT.tolist()))
        args = ["diagram", "-i", str(path), "--filtration", filtration, "--dim", "1", "--no-gauge"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning before the refusal
            assert cli.main(args) == 3
        assert capsys.readouterr().err.startswith("error: radii overflow")

    def test_gauge_past_the_float_range_exits_3(self, tmp_path, capsys):
        path = tmp_path / "past.xyz"
        path.write_text("\n".join(" ".join(map(repr, p)) for p in PAST_FLOAT.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning before the refusal
            assert cli.main(["diagram", "-i", str(path), "--dim", "1"]) == 3
        assert capsys.readouterr().err == "error: the gauge frame's coordinates exceed the float range\n"

    @pytest.mark.parametrize("flags, error", [
        ([], "the gauge frame's coordinates exceed"), (["--no-gauge"], "radii overflow"),
    ])
    def test_jittered_past_the_float_range_exits_3(self, tmp_path, capsys, flags, error):
        path = tmp_path / "past.xyz"
        path.write_text("\n".join(" ".join(map(repr, p)) for p in PAST_FLOAT.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the column mean once overflowed here
            assert cli.main(["diagram", "-i", str(path), "--dim", "1", "--jitter-seed", "3", *flags]) == 3
        assert capsys.readouterr().err.startswith(f"error: {error}")

    def test_jitter_past_the_float_range_exits_3(self, tmp_path, capsys):
        """A cloud at the largest float, whose jitter leaves the float range."""
        path = tmp_path / "largest.xyz"
        largest = np.sign(PAST_FLOAT) * np.finfo(float).max
        path.write_text("\n".join(" ".join(map(repr, p)) for p in largest.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning before the refusal
            assert cli.main(["diagram", "-i", str(path), "--dim", "1", "--jitter-seed", "3"]) == 3
        assert capsys.readouterr().err == "error: the jittered coordinates exceed the float range\n"

    @pytest.mark.parametrize("command", ["diagram", "check", "jacobian", "continue"])
    @pytest.mark.parametrize("cloud", ["1 2 3\n", "0 0 0\n1 0 0\n"])
    def test_too_few_points_for_the_gauge_exit_5(self, tmp_path, capsys, command, cloud):
        path = tmp_path / "few.xyz"
        path.write_text(cloud)
        extra = ["--target", "[]", "--out", str(tmp_path / "run")] if command == "continue" else []
        assert cli.main([command, "-i", str(path), *extra]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: the gauge frame needs at least three points")
        assert err.count("\n") == 1 and "--no-gauge" in err


    def test_large_rips_complex_refused(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        points = np.random.RandomState(0).rand(400, 3)
        path.write_text("\n".join(" ".join(map(str, p)) for p in points))
        code = cli.main(["diagram", "-i", str(path), "--filtration", "rips", "--dim", "2"])
        assert code == 8  # library error: C(400, 4) simplices


class TestCheckCommand:
    def test_clean_cloud(self, tmp_path, capsys):
        rng = np.random.RandomState(3)
        pts = rng.rand(6, 3)
        path = tmp_path / "c.xyz"
        path.write_text("\n".join(" ".join(map(str, p)) for p in pts))
        code = cli.main(["check", "-i", str(path), "--no-gauge", "--filtration", "rips"])
        assert code == 0

    def test_tied_cloud_flagged(self, ex1_file):
        code = cli.main(["check", "-i", ex1_file, "--filtration", "rips"])
        assert code == 1


class TestJacobianCommand:
    def test_csv_output(self, ex1_file, tmp_path):
        out = tmp_path / "jac.csv"
        code = cli.main(["jacobian", "-i", ex1_file, "--dim", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("coord,")
        assert len(lines) == 3  # header + birth row + death row

    def test_builds_once(self, ex1_file, monkeypatch, capsys):
        # the diagram and the Jacobian share one complex
        calls = []
        build_alpha = filtration.build_alpha

        def counted(*args, **kwargs):
            calls.append(1)
            return build_alpha(*args, **kwargs)

        monkeypatch.setattr(filtration, "build_alpha", counted)
        assert cli.main(["jacobian", "-i", ex1_file, "--dim", "2"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("singular values: ")


class TestContinueCommand:
    def test_short_continuation(self, ex1_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = cli.main(
            [
                "continue", "-i", ex1_file, "--dim", "2",
                "--target", "[[4.48, 4.66]]", "--step", "0.01", "--out", out,
            ]
        )
        assert code == 0
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["termination"] == "ReachedTarget"
        first = json.loads(lines[0])
        assert set(first) >= {
            "k", "v_target", "u", "pairs", "singular_values", "newton_iters", "residual",
        }
        cloud = (tmp_path / "run_final.xyz").read_text().splitlines()
        assert len(cloud) == 4

    @pytest.mark.parametrize("flags, halvings", [([], 0), (["--adaptive"], 6)])
    def test_adaptive_allows_six_halvings(self, ex1_file, tmp_path, monkeypatch, flags, halvings):
        seen = []
        run = solver.continue_cloud
        monkeypatch.setattr(solver, "continue_cloud",
                            lambda *args, **kw: seen.append(kw["max_halvings"]) or run(*args, **kw))
        argv = ["continue", "-i", ex1_file, "--target", "[[4.48, 4.66]]",
                "--out", str(tmp_path / "run")]
        assert cli.main(argv + flags) == 0
        assert seen == [halvings]

    def test_exit_code_contract(self, tmp_path):
        flat = tmp_path / "flat.xyz"
        flat.write_text("0 0 0\n1 0 0\n0 1 0\n1 1 0\n2 0 0\n")
        code = cli.main(
            ["continue", "-i", str(flat), "--dim", "2", "--target", "[[1.0, 2.0]]"]
        )
        assert code == 3  # degenerate input


class TestExampleRunner:
    def test_example_1_passes(self, tmp_path, capsys):
        code = cli.main(["example", "1", "--out", str(tmp_path / "ex1")])
        assert code == 0
        out = capsys.readouterr().out
        assert "example 1: PASS" in out
        trace_lines = (tmp_path / "ex1.jsonl").read_text().splitlines()
        assert json.loads(trace_lines[-1])["termination"] == "ReachedTarget"

    def test_example_4_loads_no_scipy_solver(self):
        """Importing the package and running a 4-point continuation loads no
        Qhull or k-d tree (scipy.spatial), assignment solver (scipy.optimize),
        gelsy (scipy.linalg) or bipartite matching (scipy.sparse.csgraph)."""
        src = str(Path(pdcont.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = ("import json, sys, warnings; warnings.simplefilter('ignore'); import pdcont; "
                  "from pdcont import cli; cli._run_example(4, None); print(json.dumps(sorted(sys.modules)))")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        solvers = ("scipy.spatial", "scipy.optimize", "scipy.linalg", "scipy.sparse.csgraph")
        loaded = json.loads(run.stdout)
        assert not [m for m in loaded if any(m == s or m.startswith(s + ".") for s in solvers)]
