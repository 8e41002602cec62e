"""pdcont benchmark: one workload per process, a closed loop, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload cont_tetra --seed 0 --seconds 20 --trace 0

Repetitions run back to back (closed loop) until ``--seconds`` have passed,
at least one. Every repetition's outputs are checked. With ``--trace 0`` the
package runs uninstrumented and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced repetitions alternate, at least two traced,
and the per-layer metrics come from the traced ones (see tracing.py).

Times are measured twice: as they are (run_s, cpu_s, setup_raw_s) and scaled
to a reference core speed by the speed meter (run_norm_s, cpu_norm_s,
setup_s; see speed.py), because on a shared machine the core's speed moves by
up to half between runs. setup_s is the median of several fresh processes
that import the package and generate the inputs. In a traced run the meter's
ticks fall inside the spans and add about 1.5% to the layers' times.

The second-to-last line of standard output is the full report (environment,
every metric with its unit, checks, exact counts, digests); it is also
written to perfbench/out/, with the spans of a traced run. The last line is
the result: {"correct", "attempted", "failed", "metrics"}, where the metrics
are the ones BENCHMARK.json names for the mode.
"""

import os
from time import perf_counter

START = perf_counter()

# One BLAS/OpenMP thread, set before numpy is imported: never more threads
# than cores, and steadier timings on a shared machine.
BLAS_THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cont_tetra", "cont_shell", "diagram_batch")
SETUP_PROBES = 7
MIN_TRACED_REPS = 2
# exact counts of a traced repetition that must repeat from one to the next
TRACE_COUNTS = (
    "delaunay.exact_calls", "filtration.simplices", "geometry.gradient_calls",
    "solver.assignment_fallbacks", "solver.newton_solves", "persistence.pairs",
)
# units of the full report's end-to-end metrics; BENCHMARK.json names the ones
# the last line carries
UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "run_norm_s": "s", "cpu_norm_s": "s", "setup_raw_s": "s", "slowdown": "ratio",
    "newton_iters_per_s": "1/s", "steps_per_s": "1/s", "simplices_per_s": "1/s",
    "newton_iters": "count", "accepted_steps": "count", "failed_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_package():
    """Import pdcont from this checkout's src/, never from elsewhere."""
    if not (SRC / "pdcont" / "__init__.py").is_file():
        raise SystemExit(f"error: no pdcont package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdcont

    if Path(pdcont.__file__).resolve().parent != (SRC / "pdcont").resolve():
        raise SystemExit(f"error: pdcont imported from {pdcont.__file__}, not {SRC}")
    return pdcont


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def setup_probe(args):
    """Time to import the package and generate the workload's inputs."""
    meter = speed.SpeedMeter()
    meter.start()
    try:
        import_package()
        import workloads

        workloads.make(args.workload, args.seed, load_json(HERE / "reference.json"))
        end = perf_counter()
    finally:
        meter.stop()
    (setup_s,), slowdown = meter.normalize(START, end, end - START)
    print(json.dumps({"setup_s": setup_s, "setup_raw_s": end - START, "slowdown": slowdown}))


def measure_setup(args):
    samples = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(module):
        dep = module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
    }


def run_reps(args, wl, tracer, meter, near_tie_category):
    """Closed loop of repetitions; returns one record per repetition."""
    reps = []
    begin = perf_counter()
    while True:
        elapsed = perf_counter() - begin
        n_traced = sum(r["traced"] for r in reps)
        if reps and elapsed >= args.seconds and (
            tracer is None or (n_traced >= MIN_TRACED_REPS and len(reps) > n_traced)
        ):
            return reps
        traced = tracer is not None and (
            len(reps) % 2 == 1 or (elapsed >= args.seconds and n_traced < MIN_TRACED_REPS)
        )
        if traced:
            tracer.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c0, w0 = process_time(), perf_counter()
            result = wl.run()
            w1, c1 = perf_counter(), process_time()
        rep = {"traced": traced, "wall_s": w1 - w0, "cpu_s": c1 - c0}
        (rep["norm_wall_s"], rep["norm_cpu_s"]), rep["slowdown"] = meter.normalize(
            w0, w1, w1 - w0, c1 - c0
        )
        if traced:
            tracer.stop()
            rep["spans"] = (list(tracer.sites), tracer.spans)
            rep["layers"] = tracing.layer_metrics(tracer.sites, tracer.spans, tracer.counts, w1 - w0)
        rep["counts"] = wl.counts(result)
        rep["counts"]["near_tie_warnings"] = sum(
            issubclass(w.category, near_tie_category) for w in caught
        )
        rep["other_warnings"] = sorted({str(w.message) for w in caught if not issubclass(w.category, near_tie_category)})
        rep["checks"], rep["info"] = wl.check(result)
        # only the first result is kept (digests, reference values), so peak
        # memory does not grow with the number of repetitions
        rep["result"] = None if reps else result
        del result
        reps.append(rep)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    pdcont = import_package()
    bench = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(HERE / "reference.json")
    setup_samples = [] if args.trace else measure_setup(args)

    import workloads

    wl = workloads.make(args.workload, args.seed, reference)
    tracer = tracing.Tracer() if args.trace else None
    meter = speed.SpeedMeter()
    meter.start()
    try:
        reps = run_reps(args, wl, tracer, meter, pdcont.NearDegenerateJacobian)
    finally:
        meter.stop()

    OUT.mkdir(exist_ok=True)
    checks, failures = [], []
    for i, rep in enumerate(reps):
        rep_checks = rep["checks"]
        if i > 0:
            # the exact counts repeat from one repetition to the next
            rep_checks.append(("counts_repeat", rep["counts"] == reps[0]["counts"],
                               f"{rep['counts']} vs {reps[0]['counts']}"))
        checks.extend(rep_checks)
        failures.extend({"rep": i, "check": n, "detail": d} for n, ok, d in rep_checks if not ok)
    traced = [r for r in reps if r["traced"]]
    for r in traced[1:]:
        same = all(r["layers"][k] == traced[0]["layers"][k] for k in TRACE_COUNTS)
        checks.append(("trace_counts_repeat", same, ""))
        if not same:
            failures.append({"check": "trace_counts_repeat",
                             "detail": {k: (r["layers"][k], traced[0]["layers"][k]) for k in TRACE_COUNTS}})
    for r in traced:
        ok = abs(r["layers"]["self_sum_error_s"]) <= 1e-6
        checks.append(("trace_self_times_sum_to_wall", ok, ""))
        if not ok:
            failures.append({"check": "trace_self_times_sum_to_wall", "detail": r["layers"]["self_sum_error_s"]})

    attempted = len(checks)
    failed = sum(not ok for _, ok, _ in checks)
    untraced = [r for r in reps if not r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    run_s, run_q1, run_q3 = workloads.median_quartiles(walls)
    cpu_s = workloads.median_quartiles([r["cpu_s"] for r in untraced])[0]
    counts = reps[0]["counts"]

    e2e = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": failed / attempted,
    }
    if setup_samples:
        e2e["setup_s"] = workloads.median_quartiles([p["setup_s"] for p in setup_samples])[0]
        e2e["setup_raw_s"] = workloads.median_quartiles([p["setup_raw_s"] for p in setup_samples])[0]
    norm = [r["norm_wall_s"] for r in untraced]
    e2e["run_norm_s"], norm_q1, norm_q3 = workloads.median_quartiles(norm)
    e2e["cpu_norm_s"] = workloads.median_quartiles([r["norm_cpu_s"] for r in untraced])[0]
    e2e["slowdown"] = workloads.median_quartiles([r["slowdown"] for r in untraced])[0]
    if "newton_iters" in counts:
        e2e["newton_iters"] = counts["newton_iters"]
        e2e["accepted_steps"] = counts["accepted_steps"]
        e2e["newton_iters_per_s"] = counts["newton_iters"] / run_s
        e2e["steps_per_s"] = counts["accepted_steps"] / run_s
    if "simplices" in counts:
        e2e["simplices_per_s"] = counts["simplices"] / run_s

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "run_s_samples": {"n": len(walls), "median": run_s, "q1": run_q1, "q3": run_q3, "values": walls},
        "run_norm_s_samples": {
            "n": len(norm), "median": e2e["run_norm_s"], "q1": norm_q1, "q3": norm_q3, "values": norm,
            "slowdowns": [r["slowdown"] for r in untraced],
        },
        "setup_s_samples": setup_samples,
        "counts": counts,
        "checks": {"attempted": attempted, "failed": failed, "failures": failures},
        "info": reps[0]["info"],
        "digests": wl.digests(reps[0]["result"], OUT),
        "other_warnings": reps[0]["other_warnings"],
        "reference_values": wl.reference_values(reps[0]["result"]),
    }
    ref_counts = reference.get("roadmap_counts", {}).get(args.workload)
    if ref_counts and args.seed == workloads.DEFAULT_SEED:
        report["counts_vs_roadmap"] = {
            k: {"measured": counts.get(k), "roadmap": v} for k, v in ref_counts.items()
        }

    if tracer is not None:
        traced_walls = sorted(r["wall_s"] for r in traced)
        mid = traced_walls[(len(traced_walls) - 1) // 2]
        chosen = next(r for r in traced if r["wall_s"] == mid)
        layers = dict(chosen["layers"])
        layers["diffmap.near_tie_warnings"] = chosen["counts"]["near_tie_warnings"]
        # both sides scaled to the reference speed: the raw difference mostly
        # measures how the machine's load moved between the repetitions
        traced_norm = workloads.median_quartiles([r["norm_wall_s"] for r in traced])[0]
        layers["trace_overhead_s"] = traced_norm - e2e["run_norm_s"]
        layers["trace_overhead_raw_s"] = workloads.median_quartiles(traced_walls)[0] - run_s
        layers["untraced_run_s"] = run_s
        report["per_layer"] = layers
        report["traced_run_s_samples"] = traced_walls
        sites, spans = chosen["spans"]
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_path, "w") as fh:
            json.dump({"sites": sites, "spans": spans, "fields": ["site", "start", "end", "parent"]}, fh)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        names = [m["name"] for m in bench["per_layer"]]
        values = layers
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        values = e2e
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
