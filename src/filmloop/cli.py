"""Command-line interface.

Subcommands: mesh, relax, sweep, stability, asymptotic, fit.  Configuration
comes from an optional JSON file (--config) with individual flags taking
precedence; every sweep writes a manifest that can be fed back through
--config to reproduce the run byte for byte.  All physical inputs are
dimensionless with alpha = 1 and L = 1; only `asymptotic --length` sets
another L.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
"""

import argparse
import functools
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .mesh import generate_disk_mesh, validate_mesh, scale_to_boundary_length, MeshError
from .meshio import obj_faces, write_obj
from .energy import EnergyParams, EnergyError, SIGMA_PER_SPRING_K
from .optimize import (KICK_AMPLITUDE, MinimizeOptions, NumericalError,
                       perturb, relax)
from .diffgeo import (boundary_geometry, corner_geometry,
                      gauss_bonnet_defect, gaussian_curvature, planarity,
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


@functools.cache                # parse_args leaves a parser as it was
def build_parser():
    parser = _Parser(prog="filmloop",
                     description="film-spanning elastic loop simulator")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    rings_help = ("hexagonal rings of the disk mesh; the loop has 6 x rings "
                  "vertices")
    elongation_help = ("elongation e of the flat disk, the area-preserving "
                       "stretch (x, y) -> (e x, y / e); 1 keeps the regular "
                       "hexagon")
    out_help = "output directory"

    p_mesh = sub.add_parser("mesh", help="generate and validate a disk mesh")
    p_mesh.add_argument("--rings", type=int, default=16, help=rings_help)
    p_mesh.add_argument("--elongation", type=float, default=1.0,
                        help=elongation_help)
    p_mesh.add_argument("--out", default="runs/mesh", help=out_help)

    p_relax = sub.add_parser("relax", help="relax one configuration")
    p_relax.add_argument("--kl3a", type=float, default=100.0,
                         help="k L^3 / alpha")
    p_relax.add_argument("--rings", type=int, default=16, help=rings_help)
    p_relax.add_argument("--elongation", type=float, default=1.2,
                         help=elongation_help)
    p_relax.add_argument("--seed", type=int, default=0,
                         help="seed of the cold start's random transverse "
                         "kick")
    p_relax.add_argument("--max-iterations", type=int, default=5000,
                         help="most L-BFGS iterations of a penalty round")
    p_relax.add_argument("--gradient-tolerance", type=float, default=1e-6,
                         help="gradient infinity norm to reach, relative to "
                         "spring_k L + alpha / L^2")
    p_relax.add_argument("--out", default="runs/relax", help=out_help)

    p_sweep = sub.add_parser("sweep", help="parameter continuation sweep")
    p_sweep.add_argument("--config", help="JSON config or manifest")
    p_sweep.add_argument("--start", type=float,
                         help="first k L^3 / alpha value, included")
    p_sweep.add_argument("--stop", type=float,
                         help="last k L^3 / alpha value, included")
    p_sweep.add_argument("--num", type=int,
                         help="number of evenly spaced k L^3 / alpha values "
                         "from --start to --stop, both ends included")
    p_sweep.add_argument("--rings", type=int,
                         help=rings_help + " (default 16)")
    p_sweep.add_argument("--elongation", type=float,
                         help=elongation_help + " (default 1)")
    p_sweep.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                         help="point i's seed is SEED + i, whose parity "
                         "picks the sign of the point's escape step after a "
                         "failed certificate; no point is kicked (default "
                         "0)")
    p_sweep.add_argument("--direction", choices=["up", "down"],
                         help="run the values ascending or descending "
                         "(default up)")
    p_sweep.add_argument("--no-warm-start", action="store_true",
                         help="start every point from the flat mesh, not "
                         "from the previous relaxed state")
    p_sweep.add_argument("--save-meshes", action="store_true",
                         help="also write each point's relaxed mesh as OBJ")
    p_sweep.add_argument("--out", default="runs/sweep", help=out_help)

    p_stab = sub.add_parser("stability", help="print buckling thresholds")
    p_stab.add_argument("--max-mode", type=int, default=6,
                        help="highest loop mode of the table, >= 2")

    p_asym = sub.add_parser("asymptotic",
                            help="twisted-saddle family tables and meshes")
    p_asym.add_argument("--gamma-min", type=float, default=0.9 * 96 * np.pi**3,
                        help="first gamma of the table, included")
    p_asym.add_argument("--gamma-max", type=float, default=2.0 * 96 * np.pi**3,
                        help="last gamma of the table, included")
    p_asym.add_argument("--num", type=int, default=50,
                        help="number of evenly spaced gamma rows")
    p_asym.add_argument("--length", type=float, default=2.0 * np.pi,
                        help="loop length L")
    p_asym.add_argument("--rings", type=int,
                        help="rings of the --save-meshes meshes (default 16)")
    p_asym.add_argument("--save-meshes", action="store_true",
                        help="also write the family's shapes at t = 0.05, "
                        "0.2 and 0.5 as OBJ")
    p_asym.add_argument("--out", default="runs/asymptotic", help=out_help)

    p_fit = sub.add_parser(
        "fit", help="scaling fits on an existing diagram",
        description="Fit <|kappa_n|> = A (gamma - gamma_c)^p near the onset "
        "and the integrated Gaussian curvature linearly.  The power-law fit "
        "is one local search from one start, as scipy's curve_fit was, so "
        "on very noisy data it can end in another local minimum: on power "
        "laws with 50% noise, 3 of 300 ended with a sum of squares 0.014% "
        "to 3.5% above curve_fit's (and 2 curve_fits up to 6.9% above it).")
    p_fit.add_argument("--diagram", required=True,
                       help="diagram.csv written by sweep")
    p_fit.add_argument("--threshold", type=float, required=True,
                       help="onset estimate")
    p_fit.add_argument("--units", choices=["kl3a", "gamma"], default="kl3a",
                       help="units of --threshold")
    return parser


def _require_positive(args, *names):
    """UsageError naming the first flag whose value is not finite and > 0."""
    for name in names:
        v = getattr(args, name)
        if not (np.isfinite(v) and v > 0):
            raise UsageError(f"--{name.replace('_', '-')} must be finite and "
                             f"positive, got {v!r}")


def _linspace(args, lo, hi):
    """np.linspace from flag lo to flag hi in --num points.  One point is
    the lo end alone, so --num 1 with ends that differ is a UsageError: it
    would drop flag hi."""
    a, b = getattr(args, lo), getattr(args, hi)
    if args.num == 1 and a != b:
        lo, hi = (f"--{name.replace('_', '-')}" for name in (lo, hi))
        raise UsageError(f"--num 1 gives one point, at {lo}, and ignores "
                         f"{hi}; give --num 2 or more, or {lo} equal to "
                         f"{hi}, got {a!r} and {b!r}")
    return np.linspace(a, b, args.num)


def cmd_mesh(args):
    mesh, x = generate_disk_mesh(args.rings, args.elongation)
    report = validate_mesh(mesh)
    os.makedirs(args.out, exist_ok=True)
    write_obj(os.path.join(args.out, "mesh.obj"), x, mesh.triangles)
    with open(os.path.join(args.out, "validation.json"), "w") as fh:
        json.dump(report.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(report.summary())
    return 0


def cmd_relax(args):
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if not (np.isfinite(args.kl3a) and args.kl3a >= 0):
        raise UsageError(f"--kl3a must be finite and >= 0, got {args.kl3a!r}")
    mesh, x0 = generate_disk_mesh(args.rings, args.elongation)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    x0 = perturb(x0, KICK_AMPLITUDE, args.seed)
    params = EnergyParams(alpha=1.0, spring_k=args.kl3a, target_length=1.0)
    opts = MinimizeOptions(max_iterations=args.max_iterations,
                           gradient_tolerance=args.gradient_tolerance)
    res = relax(mesh, x0, params, opts)
    os.makedirs(args.out, exist_ok=True)
    write_obj(os.path.join(args.out, "relaxed.obj"), res.x, mesh.triangles)
    geometry = corner_geometry(mesh.triangles, res.x)
    field = gaussian_curvature(mesh, res.x, geometry)
    bg = boundary_geometry(mesh, res.x, geometry)
    write_boundary_observables(os.path.join(args.out, "boundary.csv"),
                               field, bg)
    summary = {
        "k_l3_alpha": args.kl3a, "gamma": SIGMA_PER_SPRING_K * args.kl3a,
        "status": res.status, "iterations": res.iterations,
        "function_evals": res.function_evals,
        "energy_total": res.energy.total,
        "boundary_length": res.energy.boundary_length,
        "length_rel_err": res.length_error,
        "line_tension": res.line_tension,
        "planarity": planarity(mesh, res.x),
        "mean_abs_kn": bg.mean_abs_kn,
        "int_kn_signed": bg.integral_kn,
        "gauss_bonnet_defect": gauss_bonnet_defect(mesh, res.x, field),
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{res.status}: kL^3/a={args.kl3a:g} energy={res.energy.total:.6g} "
          f"planarity={summary['planarity']:.3g} "
          f"length_err={res.length_error:.3g}")
    return 0 if res.converged else 2


def _sweep_schedule_from_args(args):
    """Schedule from --config (if any) with individual flags taking precedence."""
    config = read_manifest(args.config).to_dict() if args.config else {}
    given = [v is not None for v in (args.start, args.stop, args.num)]
    if all(given):
        _require_positive(args, "num")
        config["values"] = [float(v) for v in
                            _linspace(args, "start", "stop")]
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
    schedule = _sweep_schedule_from_args(args)
    diagram = run_sweep(schedule, out_dir=args.out,
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
    if args.max_mode < 2:
        raise UsageError(f"--max-mode must be >= 2, got {args.max_mode}")
    print("mode  gamma_crit        kL^3/alpha")
    for k, gam, kl3a in threshold_table(args.max_mode):
        print(f"{k:4d}  {gam:<16.6f}  {kl3a:.6f}")
    return 0


def cmd_asymptotic(args):
    if args.rings is None:
        args.rings = 16
    elif not args.save_meshes:
        raise UsageError("--rings only sets the meshes of --save-meshes; "
                         "give --save-meshes too")
    _require_positive(args, "length", "gamma_min", "gamma_max", "num", "rings")
    t_max = saddle.TABLE_T_MAX    # gamma = 288 pi^3 / (3 - 2 t^2) there
    gamma_max = 3.0 * saddle.gamma_star() / (3.0 - 2.0 * t_max**2)
    for name in ("gamma_min", "gamma_max"):
        if getattr(args, name) > gamma_max:
            raise UsageError(f"--{name.replace('_', '-')} must be at most "
                             f"{gamma_max!r}, where the amplitude t reaches "
                             f"{t_max:g} (the flat eight, t = 1, is at "
                             f"288 pi^3), got {getattr(args, name)!r}")
    gammas = _linspace(args, "gamma_min", "gamma_max")
    if args.save_meshes:        # so an oversized mesh fails before the table
        mesh, rho, theta = saddle.disk_polar(args.rings)
    os.makedirs(args.out, exist_ok=True)
    L = args.length
    path = os.path.join(args.out, "family.csv")
    row = ",".join(["%.17g"] * len(saddle.TABLE_COLUMNS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(saddle.TABLE_COLUMNS) + "\n")
        for block in saddle.family_table(gammas, L):
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    if args.save_meshes:
        faces = obj_faces(mesh.triangles)
        for t in (0.05, 0.2, 0.5):
            fam = saddle.SaddleFamily(R=saddle.radius_for_length(L, t), t=t)
            write_obj(os.path.join(args.out, f"family_t{t:.2f}.obj"),
                      saddle.family_point(fam, fam.R * rho, theta), faces)
    print(f"asymptotic family table in {path}")
    return 0


def cmd_fit(args):
    _require_positive(args, "threshold")
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
            OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnergyError, NumericalError, DiffGeoError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
