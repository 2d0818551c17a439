"""The benchmark's workloads and the checks on their outputs.

Each workload generates its inputs from the seed in setup(), runs one pass
through the filmloop command line (``filmloop.cli.main``) or its public
functions in run_pass(), which returns the (start, end) of each point on the
recorder's clock, and checks that pass's outputs in check().  A check
that fails counts one failed operation; checks run outside the timed pass.
BENCHMARK.json records why each workload exists.
"""

import contextlib
import json
import os
import sys
import time

import numpy as np

from filmloop import cli, saddle, stability, sweep
from filmloop.energy import SIGMA_PER_SPRING_K, EnergyParams, energy_and_gradient
from filmloop.mesh import generate_disk_mesh, scale_to_boundary_length
from filmloop.meshio import write_obj
from filmloop.optimize import MinimizeOptions, make_preconditioner, perturb

# The criterion-4/5/6 schedule: coarse approach, dense through the twist
# onset near kL^3/alpha = 866, short twisted tail.
SWEEP_VALUES = np.concatenate([np.arange(500.0, 851.0, 25.0),
                               np.arange(852.0, 887.0, 2.0),
                               np.arange(890.0, 900.5, 5.0)])

LENGTH_TOL = 1e-3
GAUSS_BONNET_TOL = 1e-9


def _cli(argv):
    """Run one filmloop command; its report goes to stderr, not our stdout."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


class SweepElongated:
    """The paper's shape-sequence run: a warm-started continuation sweep."""

    name = "sweep_elongated"

    def __init__(self, values=SWEEP_VALUES, rings=16, max_iterations=60000):
        self.values = np.asarray(values, dtype=float)
        self.rings = rings
        self.max_iterations = max_iterations

    def setup(self, seed, work):
        schedule = sweep.SweepSchedule(
            values=self.values, rings=self.rings, elongation=1.2,
            base_seed=seed,
            options=MinimizeOptions(max_iterations=self.max_iterations))
        self.manifest = os.path.join(work, "manifest.json")
        sweep.write_manifest(self.manifest, schedule)
        self.first_csv = None

    def run_pass(self, rec, out):
        self.code = _cli(["sweep", "--config", self.manifest, "--out", out])
        ends = rec.solve_starts[1:] + [rec.clock()]
        return list(zip(rec.solve_starts, ends))

    def check(self, out):
        # exit code, each point, twist bracket, onset fit, byte identity
        attempted = 1 + len(self.values) + 2 + (self.first_csv is not None)
        path = os.path.join(out, "diagram.csv")
        try:
            diagram = sweep.read_diagram_csv(path)
            with open(path, "rb") as fh:
                csv = fh.read()
        except (OSError, ValueError) as exc:
            return attempted, [f"diagram.csv: {exc}"] * attempted
        failures = [f"sweep exit code {self.code}"] if self.code != 0 else []
        failures += ["missing sweep point"] * max(
            0, len(self.values) - len(diagram.points))
        for p in diagram.points:
            if not (p.converged and p.length_rel_err < LENGTH_TOL
                    and abs(p.gauss_bonnet) < GAUSS_BONNET_TOL):
                failures.append(
                    f"point {p.index}: {p.status}, length err "
                    f"{p.length_rel_err:.3g}, Gauss-Bonnet {p.gauss_bonnet:.3g}")
        try:
            events = sweep.detect_transitions(diagram)
        except ValueError:
            events = []
        twist = [t for t in events if t.kind == "PLANAR->TWISTED"]
        if not twist:
            failures += ["no PLANAR->TWISTED bracket", "no onset to fit"]
        else:
            gamma_thr = 0.5 * (twist[0].lower + twist[0].upper) \
                * SIGMA_PER_SPRING_K
            try:
                fit = sweep.fit_exponent(diagram, gamma_thr)
                fit_ok = 0.4 <= fit.exponent <= 0.6 and fit.r_squared > 0.95
                fit_msg = f"p = {fit.exponent:.4f}, R^2 = {fit.r_squared:.4f}"
            except sweep.FitError as exc:
                fit_ok, fit_msg = False, str(exc)
            if not fit_ok:
                failures.append(f"onset fit {fit_msg}")
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            failures.append("diagram.csv differs from the first pass")
        return attempted, failures


class RelaxLadder:
    """Cold single solves into the twisted state at three mesh sizes."""

    name = "relax_ladder"

    def __init__(self, rings=(8, 16, 32), kl3a=900.0, max_iterations=60000):
        self.rings = tuple(rings)
        self.kl3a = kl3a
        self.max_iterations = max_iterations

    def setup(self, seed, work):
        # The cold solve's length depends on its perturbation seed by up to
        # 2x (13k-24k evaluations over seeds 0-5), which no bound could
        # absorb, so every run uses the acceptance seed 0.
        self.seed = 0

    def run_pass(self, rec, out):
        self.codes, points = [], []
        for rings in self.rings:
            t0 = rec.clock()
            self.codes.append(_cli([
                "relax", "--kl3a", repr(self.kl3a), "--rings", str(rings),
                "--max-iterations", str(self.max_iterations),
                "--seed", str(self.seed),
                "--out", os.path.join(out, f"rings{rings}")]))
            points.append((t0, rec.clock()))
        return points

    def check(self, out):
        failures = []
        for rings, code in zip(self.rings, self.codes):
            run = os.path.join(out, f"rings{rings}")
            try:
                with open(os.path.join(run, "summary.json")) as fh:
                    summary = json.load(fh)
                written = all(os.path.getsize(os.path.join(run, f)) > 0
                              for f in ("relaxed.obj", "boundary.csv"))
            except (OSError, ValueError) as exc:
                failures.append(f"rings={rings}: {exc}")
                continue
            if not (code == 0 and summary["status"] == "converged"
                    and summary["planarity"] > sweep.PLANARITY_THRESHOLD
                    and written):
                failures.append(
                    f"rings={rings}: exit {code}, {summary['status']}, "
                    f"planarity {summary['planarity']:.3g}")
        return len(self.rings), failures


class SaddleFamily:
    """The asymptotic table plus diagnostics on doubling-over saddle shapes."""

    name = "saddle_family"

    def __init__(self, ts=(0.3, 0.6, 0.9), rings=16, rows=50):
        self.ts = tuple(ts)
        self.rings = rings
        self.rows = rows

    def setup(self, seed, work):
        # The family has no random element; the seed does not change it.
        self.shapes = []
        for t in self.ts:
            fam = saddle.SaddleFamily(
                R=saddle.radius_for_length(2.0 * np.pi, t), t=t)
            self.shapes.append(saddle.family_trimesh(fam, self.rings))

    def run_pass(self, rec, out):
        t0 = rec.clock()
        self.code = _cli(["asymptotic", "--num", str(self.rows),
                          "--rings", str(self.rings), "--save-meshes",
                          "--out", out])
        points = [(t0, rec.clock())]
        self.results = []
        for mesh, x in self.shapes:
            t0 = rec.clock()
            self.results.append(shape_diagnostics(mesh, x))
            points.append((t0, rec.clock()))
        return points

    def check(self, out):
        failures = [f"asymptotic exit code {self.code}"] if self.code else []
        try:
            table = np.loadtxt(os.path.join(out, "family.csv"),
                               delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            table = np.empty((0, 0))
            failures.append(f"family.csv: {exc}")
        failures += ["family.csv row missing"] * max(0, self.rows - len(table))
        failures += [f"family.csv row {i} not finite"
                     for i, row in enumerate(table) if not np.all(np.isfinite(row))]
        for t, (si, gb) in zip(self.ts, self.results):
            if si != 0 or abs(gb) >= GAUSS_BONNET_TOL:
                failures.append(f"t={t}: {si} self-intersections, "
                                f"Gauss-Bonnet {gb:.3g}")
        return 1 + self.rows + len(self.ts), failures


def shape_diagnostics(mesh, x):
    """The sweep's per-point observables on one shape, called through the
    names the sweep driver uses (so a traced pass wraps them the same way).

    Returns (self-intersection count, Gauss-Bonnet defect).
    """
    si = sweep.count_self_intersections(mesh, x)
    sweep.boundary_geometry(mesh, x)
    sweep.gaussian_curvature(mesh, x)
    gb = sweep.gauss_bonnet_defect(mesh, x)
    sweep.boundary_mode_spectrum(mesh, x)
    return si, gb


WORKLOADS = {w.name: w for w in (SweepElongated, RelaxLadder, SaddleFamily)}


def _per_call(fn, calls):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _disk(rings):
    """A perturbed rings-r elongated disk with the penalties relax adds."""
    mesh, x = generate_disk_mesh(rings, 1.2)
    x = perturb(scale_to_boundary_length(mesh, x, 1.0), 1e-3 / (2 * np.pi), 0)
    stiff = 100.0 * (900.0 + 1.0)
    params = EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0,
                          length_penalty_k=stiff, edge_penalty_k=stiff)
    return mesh, x, params


def probe(kind, work):
    """Seconds per call of one layer entry point on a fixed input.

    A traced run reports every per-layer rate; when its workload never calls
    an entry point, the rate comes from this probe instead.
    """
    if kind.startswith("energy"):                  # energy8, energy16, ...
        mesh, x, params = _disk(int(kind[len("energy"):]))
        return _per_call(lambda: energy_and_gradient(mesh, x, params), 50)
    mesh, x, params = _disk(16)
    if kind == "precond_apply":
        apply = make_preconditioner(mesh, x, params)
        g = energy_and_gradient(mesh, x, params)[1]
        return _per_call(lambda: apply(g), 200)
    if kind == "si":
        return _per_call(lambda: sweep.count_self_intersections(mesh, x), 2)
    if kind == "spectrum":
        return _per_call(lambda: stability.boundary_mode_spectrum(mesh, x), 50)
    if kind == "generate":
        return _per_call(lambda: generate_disk_mesh(16, 1.2), 5)
    if kind == "write_obj":
        path = os.path.join(work, "probe.obj")
        return _per_call(lambda: write_obj(path, x, mesh.triangles), 5)
    if kind == "quadrature_row":
        t = saddle.pitchfork_amplitude(1.5 * 96 * np.pi**3)
        fam = saddle.SaddleFamily(R=saddle.radius_for_length(2 * np.pi, t), t=t)
        return _per_call(lambda: (
            saddle.energy_quadrature(fam, 1.0, 1.0), saddle.int_K_quadrature(fam),
            saddle.int_abs_kn_quadrature(fam), saddle.length_quadrature(fam),
            saddle.int_K_gauss_bonnet(fam)), 1)
    raise ValueError(f"no probe {kind!r}")
