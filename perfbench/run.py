"""filmloop benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's inputs are made from the seed, then passes run
until S seconds have elapsed (at least two).  Every pass's outputs are
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries per-pass details and machine metadata, which are also written with
the traced spans to ``.perfbench/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; only the
counting shim is installed, and times are at reference speed (refclock.py:
the shared host's speed drifts too much for raw seconds to hold a bound).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, in seconds on the host, and the tracing overhead.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Each workload runs on one thread: cap the BLAS pool before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 2          # byte-identity needs two; a traced run needs one of each
SETUP_PROBES = 2        # fresh interpreters timed for setup_s, besides this one
SETUP_REF_SAMPLES = 20  # reference-kernel samples that scale a set-up time
RINGS = (8, 16, 32)
# the saddle quadratures one asymptotic-table row computes
QUADRATURES = {"energy_quadrature", "int_K_quadrature", "int_abs_kn_quadrature",
               "length_quadrature", "int_K_gauss_bonnet"}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds it took, exit")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on sys.path; refuse any other filmloop."""
    if not os.path.isfile(os.path.join(SRC, "filmloop", "__init__.py")):
        raise SystemExit(f"perfbench: no filmloop sources under {SRC}")
    sys.path.insert(0, SRC)
    import filmloop
    if not os.path.abspath(filmloop.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {filmloop.__file__}, not {SRC}")


def metadata():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform()}


@dataclasses.dataclass
class Pass:
    wall: float             # seconds at reference speed
    point_s: list           # seconds per point at reference speed
    raw_wall: float         # seconds on this host, reference kernel excluded
    rec: object             # layers.Recorder
    attempted: int
    failures: list          # one message per failed operation


def run_passes(workload, seconds, trace, work, clock):
    """Passes until `seconds` have elapsed; odd passes traced if `trace`."""
    import layers
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        rec = layers.Recorder(tracing=bool(trace) and len(passes) % 2 == 1,
                              clock=clock.now)
        out = os.path.join(work, f"pass{len(passes)}")
        first = len(clock.samples)
        with layers.instrument(rec), clock.sampling():
            t0 = clock.now()
            points = workload.run_pass(rec, out)
            wall = clock.now() - t0
        point_s = [(b - a) * clock.scale(first, a, b) for a, b in points]
        attempted, failures = workload.check(out)
        shutil.rmtree(out, ignore_errors=True)
        passes.append(Pass(wall * clock.scale(first), point_s, wall, rec,
                           attempted, failures))
    return passes


def quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def setup_samples(workload_name, seed, here_s):
    """This process's set-up seconds plus SETUP_PROBES fresh interpreters',
    each at reference speed."""
    samples = [here_s]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload_name, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(passes, setup):
    """The end-to-end metrics (untraced passes only)."""
    walls = [p.wall for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        # each pass has the same points, so quantiles are taken per pass
        # and the median over passes is reported
        "point_s_p50": statistics.median(
            quantile(p.point_s, 0.5) for p in passes),
        "point_s_p70": statistics.median(
            quantile(p.point_s, 0.7) for p in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - sum(len(p.failures) for p in passes)
            / sum(p.attempted for p in passes),
    }


def per_layer(passes, work):
    """The per-layer metrics from the traced passes of a traced run."""
    import layers
    import workloads
    traced = [p for p in passes if p.rec.tracing]
    plain = [p for p in passes if not p.rec.tracing]
    spans = []
    for p in traced:                    # parent indices are per pass
        base = len(spans)
        spans += [(*s[:4], s[4] + base if s[4] >= 0 else -1)
                  for s in p.rec.spans]
    n = len(traced)
    wall = sum(p.raw_wall for p in traced)      # the clock the spans use
    points = sum(len(p.point_s) for p in traced)
    self_s = layers.self_times(spans)
    solves = [s for p in traced for s in p.rec.solves]
    evals = sum(p.rec.energy_calls for p in traced)
    iters = sum(s[0] for s in solves)

    def rate(scale, probe, **match):
        """Per-call time from the workload's calls, else from a probe."""
        calls, secs = layers.totals(spans, **match)
        return scale * (secs / calls if calls else workloads.probe(probe, work))

    size = {r: 3 * r * (r + 1) + 1 for r in RINGS}   # vertices of a rings-r disk
    rows = layers.totals(spans, name="pitchfork_amplitude")[0]  # one a row
    quad_s = sum(t1 - t0 for _, name, t0, t1, parent in spans
                 if name in QUADRATURES
                 and (parent < 0 or spans[parent][0] != "saddle"))
    m = {
        "energy.eg_us": rate(1e6, "energy16", prefix="energy_and_gradient@"),
        "energy.eg_calls": evals / n,
        "energy.self_frac": self_s.get("energy", 0.0) / wall,
        "optimize.cg_iterations": iters / n,
        "optimize.evals_per_iter": evals / iters if iters else 0.0,
        "optimize.penalty_rounds_per_solve": (
            sum(s[1] for s in solves) / len(solves) if solves else 0.0),
        "optimize.precond_apply_us": rate(1e6, "precond_apply",
                                          name="precond_apply"),
        "optimize.self_frac": self_s.get("optimize", 0.0) / wall,
        "optimize.length_err_max": max(
            [s[2] for p in passes for s in p.rec.solves], default=0.0),
        "sweep.si_calls": layers.totals(spans, layer="sweep.si")[0] / n,
        "sweep.si_ms_per_call": rate(1e3, "si", layer="sweep.si"),
        "sweep.si_frac": self_s.get("sweep.si", 0.0) / wall,
        "sweep.driver_self_frac": self_s.get("sweep", 0.0) / wall,
        "diffgeo.obs_ms_per_point": (
            1e3 * layers.totals(spans, layer="diffgeo")[1] / points),
        "diffgeo.self_frac": self_s.get("diffgeo", 0.0) / wall,
        "stability.spectrum_us": rate(1e6, "spectrum",
                                      name="boundary_mode_spectrum"),
        "stability.self_frac": self_s.get("stability", 0.0) / wall,
        "saddle.quadrature_ms_per_row": 1e3 * (
            quad_s / rows if rows else workloads.probe("quadrature_row", work)),
        "saddle.int_abs_kn_calls_per_row": (
            layers.totals(spans, name="int_abs_kn_quadrature")[0] / rows
            if rows else 0.0),
        "saddle.self_frac": self_s.get("saddle", 0.0) / wall,
        "mesh.generate_ms": rate(1e3, "generate", name="generate_disk_mesh"),
        "mesh.self_frac": self_s.get("mesh", 0.0) / wall,
        "meshio.write_ms_per_file": rate(1e3, "write_obj", layer="meshio"),
        "meshio.self_frac": self_s.get("meshio", 0.0) / wall,
        "cli.self_frac": self_s.get("cli", 0.0) / wall,
        "trace.overhead_frac": (statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in plain)
                                - 1.0),
    }
    for r in RINGS:
        m[f"energy.eg_us.r{r}"] = rate(
            1e6, f"energy{r}", prefix=f"energy_and_gradient@{size[r]}")
    return m, spans


def with_units(values, section):
    """(value, unit) per metric, with the names and units of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(declared):
        raise SystemExit(f"perfbench: {section} metrics differ from "
                         f"BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    return {name: (values[name], unit) for name, unit in declared.items()}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import refclock
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload.setup(args.seed, work)
        setup_here = time.perf_counter() - T_START
        clock = refclock.RefClock()
        for _ in range(SETUP_REF_SAMPLES):
            clock.sample()
        setup_here *= clock.scale(0)
        if args.setup_only:
            print(repr(setup_here))
            return 0
        passes = run_passes(workload, args.seconds, args.trace, work, clock)
        if args.trace:
            values, spans = per_layer(passes, work)
        else:
            values = end_to_end(passes, setup_samples(
                args.workload, args.seed, setup_here))
            spans = []
        metrics = with_units(values, "per_layer" if args.trace else "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, passes, metrics, spans)


def report(args, passes, metrics, spans):
    import layers
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    values = {k: float(v) for k, (v, _) in metrics.items()}
    bad = [k for k, v in values.items() if v != v or v in (float("inf"),
                                                          float("-inf"))]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics {bad}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [p.raw_wall for p in passes],
        "pass_traced": [p.rec.tracing for p in passes],
        "point_s": [p.point_s for p in passes],
        "energy_evals": [p.rec.energy_calls for p in passes],
        "cg_iterations": [sum(s[0] for s in p.rec.solves) for p in passes],
        "length_err_max": max([s[2] for p in passes for s in p.rec.solves],
                              default=None),
        "failures": failures[:20], "metadata": metadata(),
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, (_, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if spans:
        layers.write_spans(os.path.join(OUT, f"spans-{tag}.csv"), spans,
                           min(s[2] for s in spans))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
