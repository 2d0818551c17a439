"""Command-line interface.

Subcommands: mesh, relax, sweep, stability, asymptotic, fit.  Configuration
comes from an optional JSON file (--config) with individual flags taking
precedence; every sweep writes a manifest that can be fed back through
--config to reproduce the run byte for byte.  All physical inputs are
dimensionless with alpha = 1 and L = 1 unless overridden.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .mesh import generate_disk_mesh, validate_mesh, scale_to_boundary_length, MeshError
from .meshio import write_obj
from .energy import EnergyParams, EnergyError, gamma_numeric, SIGMA_PER_SPRING_K
from .optimize import (MinimizeOptions, NumericalError, kick_amplitude,
                       perturb, relax)
from .diffgeo import (boundary_geometry, gauss_bonnet_defect, planarity,
                      write_boundary_observables, DiffGeoError)
from .stability import threshold_table
from . import saddle
from .sweep import (SweepSchedule, run_sweep, detect_transitions, fit_exponent,
                    fit_linear_K, read_diagram_csv, read_manifest, FitError)

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="filmloop",
                     description="film-spanning elastic loop simulator")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate and validate a disk mesh")
    p_mesh.add_argument("--rings", type=int, default=16)
    p_mesh.add_argument("--elongation", type=float, default=1.0)
    p_mesh.add_argument("--out", default="runs/mesh")

    p_relax = sub.add_parser("relax", help="relax one configuration")
    p_relax.add_argument("--kl3a", type=float, default=100.0,
                         help="k L^3 / alpha")
    p_relax.add_argument("--rings", type=int, default=16)
    p_relax.add_argument("--elongation", type=float, default=1.2)
    p_relax.add_argument("--seed", type=int, default=0)
    p_relax.add_argument("--max-iterations", type=int, default=5000)
    p_relax.add_argument("--gradient-tolerance", type=float, default=1e-6)
    p_relax.add_argument("--out", default="runs/relax")

    p_sweep = sub.add_parser("sweep", help="parameter continuation sweep")
    p_sweep.add_argument("--config", help="JSON config or manifest")
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--num", type=int)
    p_sweep.add_argument("--rings", type=int)
    p_sweep.add_argument("--elongation", type=float)
    p_sweep.add_argument("--seed", type=int, dest="base_seed")
    p_sweep.add_argument("--direction", choices=["up", "down"])
    p_sweep.add_argument("--no-warm-start", action="store_true")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--save-meshes", action="store_true")
    p_sweep.add_argument("--out", default="runs/sweep")

    p_stab = sub.add_parser("stability", help="print buckling thresholds")
    p_stab.add_argument("--max-mode", type=int, default=6)

    p_asym = sub.add_parser("asymptotic",
                            help="twisted-saddle family tables and meshes")
    p_asym.add_argument("--gamma-min", type=float, default=0.9 * 96 * np.pi**3)
    p_asym.add_argument("--gamma-max", type=float, default=2.0 * 96 * np.pi**3)
    p_asym.add_argument("--num", type=int, default=50)
    p_asym.add_argument("--length", type=float, default=2.0 * np.pi)
    p_asym.add_argument("--rings", type=int, default=16)
    p_asym.add_argument("--save-meshes", action="store_true")
    p_asym.add_argument("--out", default="runs/asymptotic")

    p_fit = sub.add_parser("fit", help="scaling fits on an existing diagram")
    p_fit.add_argument("--diagram", required=True)
    p_fit.add_argument("--threshold", type=float, required=True,
                       help="onset estimate")
    p_fit.add_argument("--units", choices=["kl3a", "gamma"], default="kl3a")
    return parser


def cmd_mesh(args):
    mesh, x = generate_disk_mesh(args.rings, args.elongation)
    report = validate_mesh(mesh)
    os.makedirs(args.out, exist_ok=True)
    write_obj(os.path.join(args.out, "mesh.obj"), x, mesh.triangles)
    with open(os.path.join(args.out, "validation.json"), "w") as fh:
        json.dump(report.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.summary())
    return 0 if report.passed else 2


def cmd_relax(args):
    mesh, x0 = generate_disk_mesh(args.rings, args.elongation)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    x0 = perturb(x0, kick_amplitude(1.0), args.seed)
    params = EnergyParams(alpha=1.0, spring_k=args.kl3a, target_length=1.0)
    opts = MinimizeOptions(max_iterations=args.max_iterations,
                           gradient_tolerance=args.gradient_tolerance)
    res = relax(mesh, x0, params, opts)
    os.makedirs(args.out, exist_ok=True)
    write_obj(os.path.join(args.out, "relaxed.obj"), res.x, mesh.triangles)
    write_boundary_observables(os.path.join(args.out, "boundary.csv"),
                               mesh, res.x)
    bg = boundary_geometry(mesh, res.x)
    kl3a, gam = gamma_numeric(params.spring_k, 1.0, 1.0)
    summary = {
        "k_l3_alpha": kl3a, "gamma": gam,
        "status": res.status, "iterations": res.iterations,
        "energy_total": res.energy.total,
        "boundary_length": res.energy.boundary_length,
        "length_rel_err": res.length_error,
        "planarity": planarity(mesh, res.x),
        "mean_abs_kn": bg.mean_abs_kn,
        "int_kn_signed": bg.integral_kn,
        "gauss_bonnet_defect": gauss_bonnet_defect(mesh, res.x),
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{res.status}: kL^3/a={kl3a:g} energy={res.energy.total:.6g} "
          f"planarity={summary['planarity']:.3g} "
          f"length_err={res.length_error:.3g}")
    return 0 if res.converged else 2


def _sweep_schedule_from_args(args):
    """Schedule from --config (if any) with individual flags taking precedence."""
    config = read_manifest(args.config).to_dict() if args.config else {}
    given = [v is not None for v in (args.start, args.stop, args.num)]
    if all(given):
        config["values"] = [float(v) for v in
                            np.linspace(args.start, args.stop, args.num)]
    elif any(given):
        raise UsageError("--start, --stop and --num go together")
    elif not args.config:
        raise UsageError("sweep needs --config or --start/--stop/--num")
    for name in ("rings", "elongation", "base_seed", "direction"):
        v = getattr(args, name)
        if v is not None:
            config[name] = v
    if args.no_warm_start:
        config["warm_start"] = False
    return SweepSchedule.from_dict(config)


def cmd_sweep(args):
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    schedule = _sweep_schedule_from_args(args)
    if args.jobs > 1 and schedule.warm_start:
        raise UsageError("--jobs needs --no-warm-start: warm-started points "
                         "run one after another")
    diagram = run_sweep(schedule, out_dir=args.out, jobs=args.jobs,
                        save_meshes=args.save_meshes)
    n_conv = len(diagram.converged_points())
    print(f"sweep: {len(diagram.points)} points, {n_conv} converged, "
          f"diagram in {args.out}/diagram.csv")
    try:
        for tr in detect_transitions(diagram):
            print(f"  {tr.kind} in kL^3/a = ({tr.lower:g}, {tr.upper:g})")
    except ValueError:
        pass
    return 0 if n_conv == len(diagram.points) else 2


def cmd_stability(args):
    print("mode  gamma_crit        kL^3/alpha")
    for k, gam, kl3a in threshold_table(args.max_mode):
        print(f"{k:4d}  {gam:<16.6f}  {kl3a:.6f}")
    return 0


def cmd_asymptotic(args):
    os.makedirs(args.out, exist_ok=True)
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.num)
    L = args.length
    alpha = 1.0
    path = os.path.join(args.out, "family.csv")
    with open(path, "w") as fh:
        fh.write("gamma,t,radius,energy_series,energy_quadrature,"
                 "int_abs_kn,mean_abs_kn,int_K_quadrature,int_K_gauss_bonnet\n")
        for gam in gammas:
            sigma = gam * alpha / L**3
            t = saddle.pitchfork_amplitude(gam)
            fam = saddle.SaddleFamily(R=saddle.radius_for_length(L, t), t=t)
            e_series = saddle.constrained_energy_series(L, t, sigma, alpha)
            e_quad, _ = saddle.energy_quadrature(fam, sigma, alpha)
            ik_quad, _ = saddle.int_K_quadrature(fam)
            int_abs_kn = saddle.int_abs_kn_quadrature(fam)
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (gam, t, fam.R, e_series, e_quad, int_abs_kn,
                        int_abs_kn / saddle.length_quadrature(fam)[0],
                        ik_quad, saddle.int_K_gauss_bonnet(fam)))
    if args.save_meshes:
        for t in (0.05, 0.2, 0.5):
            fam = saddle.SaddleFamily(R=saddle.radius_for_length(L, t), t=t)
            mesh, x = saddle.family_trimesh(fam, args.rings)
            write_obj(os.path.join(args.out, f"family_t{t:.2f}.obj"),
                      x, mesh.triangles)
    print(f"asymptotic family table in {path}")
    return 0


def cmd_fit(args):
    diagram = read_diagram_csv(args.diagram)
    thr = args.threshold
    if args.units == "kl3a":
        thr = thr * SIGMA_PER_SPRING_K
    exp_fit = fit_exponent(diagram, thr)
    print(f"exponent fit: p = {exp_fit.exponent:.4f} +- {exp_fit.stderr:.4f}, "
          f"gamma_c = {exp_fit.gamma_c:.4f}, R^2 = {exp_fit.r_squared:.4f}, "
          f"n = {exp_fit.n_points}")
    lin_fit = fit_linear_K(diagram, exp_fit.gamma_c)
    print(f"linear K fit: slope = {lin_fit.slope:.6g}, "
          f"intercept = {lin_fit.intercept:.6g}, "
          f"R^2 = {lin_fit.r_squared:.4f}, n = {lin_fit.n_points}")
    return 0


_COMMANDS = {
    "mesh": cmd_mesh,
    "relax": cmd_relax,
    "sweep": cmd_sweep,
    "stability": cmd_stability,
    "asymptotic": cmd_asymptotic,
    "fit": cmd_fit,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.basicConfig(level=logging.INFO,
                                format="%(levelname)s %(name)s: %(message)s")
        return _COMMANDS[args.command](args)
    except (UsageError, MeshError, ValueError, json.JSONDecodeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnergyError, NumericalError, DiffGeoError, FitError,
            saddle.QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
