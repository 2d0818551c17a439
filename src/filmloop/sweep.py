"""Continuation driver: ramp the dimensionless tension and record observables.

A sweep relaxes the mesh at each scheduled value of k L^3 / alpha, warm
starting from the previous relaxed state (or from the initial flat mesh when
warm starts are off), applies a small deterministic transverse perturbation
before each relaxation, and records boundary curvature, Gaussian curvature,
planarity and Fourier-mode observables per point.  Detection of the
transition sequence (circle -> ellipse -> twisted -> flat eight) and the
near-onset scaling fits operate on the recorded diagram.

Determinism: identical schedules produce byte-identical CSV output.  Seeds
are assigned per ascending schedule position, so an ascending and a
descending run of the same values perturb each point identically.
"""

import dataclasses
import json
import logging
import os
from dataclasses import dataclass, field, asdict
from typing import List, Optional

import numpy as np
import scipy.optimize
import scipy.spatial

from . import __version__
from .mesh import generate_disk_mesh, scale_to_boundary_length
from .energy import EnergyParams, energy, gamma_numeric
from .optimize import (LENGTH_TOL, MinimizeOptions, check_field_types,
                       kick_amplitude, perturb, relax)
from .diffgeo import (boundary_geometry, gaussian_curvature, gauss_bonnet_defect,
                      planarity)
from .stability import boundary_mode_spectrum

logger = logging.getLogger(__name__)


class FitError(RuntimeError):
    pass


PLANARITY_THRESHOLD = 1e-3      # separates perturbation noise from buckling
MODE_AMP_FACTOR = 1e-3          # ellipse detection floor, in units of R
KN_NOISE_FLOOR_FACTOR = 1e-4    # fit-window floor for <|kappa_n|>, in 1/R


@dataclass
class SweepSchedule:
    """Ascending k L^3 / alpha values plus everything needed to rerun them."""

    values: np.ndarray
    rings: int = 16
    elongation: float = 1.0
    alpha: float = 1.0
    target_length: float = 1.0
    base_seed: int = 0
    warm_start: bool = True
    direction: str = "up"                     # "down" iterates in reverse
    options: MinimizeOptions = field(default_factory=MinimizeOptions)

    def __post_init__(self):
        try:
            self.values = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"sweep config 'values' must be a list of "
                             f"numbers, got {self.values!r}") from None
        check_field_types(self, "sweep config")
        for name in ("alpha", "target_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"sweep config {name!r} must be positive")
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError("schedule needs a nonempty 1D value array")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("schedule values must be strictly increasing")
        if self.direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")

    def to_dict(self):
        d = asdict(self)
        d["values"] = [float(v) for v in self.values]
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; ValueError names any key it does not know."""
        _check_keys(d, cls, "sweep config")
        opts = d.get("options", {})
        _check_keys(opts, MinimizeOptions, "sweep options")
        if "values" not in d:
            raise ValueError("sweep config has no 'values'")
        return cls(**dict(d, options=MinimizeOptions(**opts)))


def _check_keys(d, cls, what):
    """ValueError unless d is a dict whose keys are all fields of cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


@dataclass
class SweepPoint:
    index: int
    k_l3_alpha: float
    gamma: float
    spring_k: float
    energy_total: float
    energy_bending: float
    energy_springs: float
    energy_penalty: float
    start_energy: float          # warm-start energy under this point's params,
                                 # penalty off, before perturbation
    boundary_length: float
    length_rel_err: float
    mean_abs_kn: float
    int_abs_kn: float
    int_K: float
    mean_K: float
    area: float
    planarity: float
    dominant_mode: int
    mode2_amp: float
    gauss_bonnet: float
    self_intersections: int
    iterations: int
    penalty_rounds: int
    seed: int
    converged: int
    status: str


CSV_COLUMNS = [f.name for f in dataclasses.fields(SweepPoint)]
_COLUMN_TYPES = {f.name: f.type for f in dataclasses.fields(SweepPoint)}


@dataclass
class BifurcationDiagram:
    points: List[SweepPoint]
    schedule: Optional[SweepSchedule] = None

    def column(self, name):
        vals = [getattr(p, name) for p in self.points]
        if name == "status":
            return np.array(vals, dtype=object)
        return np.array(vals)

    def converged_points(self):
        return [p for p in self.points if p.converged]

    @property
    def target_length(self):
        return self.schedule.target_length if self.schedule else 1.0


# ---------------------------------------------------------------------------
# running a sweep


def _fmt(v):
    """Shortest round-trip decimal form; byte-stable for identical floats."""
    return repr(float(v))


def _evaluate_point(mesh, x_start, x0_cold, schedule, idx, kl3a):
    """Relax one sweep point and collect its observables."""
    L = schedule.target_length
    spring_k = kl3a * schedule.alpha / L**3
    params = EnergyParams(alpha=schedule.alpha, spring_k=spring_k,
                          target_length=L)
    seed = schedule.base_seed + idx
    start = x_start if x_start is not None else x0_cold
    start_energy = energy(mesh, start, params).total

    x_pert = perturb(start, kick_amplitude(L), seed)
    res = relax(mesh, x_pert, params, schedule.options)

    bg = boundary_geometry(mesh, res.x)
    field_k = gaussian_curvature(mesh, res.x)
    modes, amps = boundary_mode_spectrum(mesh, res.x)
    dom = int(modes[np.argmax(amps)])
    mode2 = float(amps[1]) if len(amps) > 1 else 0.0
    _, gam = gamma_numeric(spring_k, L, schedule.alpha)

    point = SweepPoint(
        index=idx, k_l3_alpha=kl3a, gamma=gam, spring_k=spring_k,
        energy_total=res.energy.total, energy_bending=res.energy.bending,
        energy_springs=res.energy.springs,
        energy_penalty=res.energy.length_penalty,
        start_energy=start_energy,
        boundary_length=res.energy.boundary_length,
        length_rel_err=res.length_error,
        mean_abs_kn=bg.mean_abs_kn, int_abs_kn=bg.integral_abs_kn,
        int_K=field_k.integral_K, mean_K=field_k.mean_K,
        area=field_k.total_area,
        planarity=planarity(mesh, res.x),
        dominant_mode=dom, mode2_amp=mode2,
        gauss_bonnet=gauss_bonnet_defect(mesh, res.x),
        self_intersections=count_self_intersections(mesh, res.x),
        iterations=res.iterations, penalty_rounds=res.penalty_rounds,
        seed=seed, converged=int(res.converged and res.length_error < LENGTH_TOL),
        status=res.status)
    return point, res.x


def _cold_start(schedule):
    mesh, x0 = generate_disk_mesh(schedule.rings, schedule.elongation)
    x0 = scale_to_boundary_length(mesh, x0, schedule.target_length)
    return mesh, x0


def _parallel_worker(args):
    schedule_dict, idx, kl3a = args
    schedule = SweepSchedule.from_dict(schedule_dict)
    mesh, x0 = _cold_start(schedule)
    point, _ = _evaluate_point(mesh, None, x0, schedule, idx, kl3a)
    return point


def run_sweep(schedule, out_dir=None, jobs=1, save_meshes=False):
    """Run the continuation protocol; returns a BifurcationDiagram.

    With warm_start on, points run sequentially in schedule order (reversed
    for direction "down"), each starting from the previous relaxed state.
    With warm_start off and jobs > 1, points run in parallel processes.
    Every point perturbs its start transversally with seed base_seed + index
    (index = position in the ascending value list).
    """
    mesh, x0 = _cold_start(schedule)
    order = range(len(schedule.values))
    if schedule.direction == "down":
        order = reversed(list(order))

    points = {}
    saved = {}
    if schedule.warm_start or jobs <= 1:
        prev_x = None
        for idx in order:
            kl3a = float(schedule.values[idx])
            start = prev_x if schedule.warm_start else None
            point, x_final = _evaluate_point(mesh, start, x0, schedule, idx, kl3a)
            points[idx] = point
            if save_meshes:
                saved[idx] = x_final
            if schedule.warm_start:
                prev_x = x_final   # continue from best-so-far even if unconverged
            logger.info("point %d: kL^3/a=%.6g planarity=%.3g mode=%d %s",
                        idx, kl3a, point.planarity, point.dominant_mode,
                        point.status)
    else:
        import concurrent.futures
        sched_dict = schedule.to_dict()
        tasks = [(sched_dict, idx, float(schedule.values[idx])) for idx in order]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for point in pool.map(_parallel_worker, tasks):
                points[point.index] = point

    diagram = BifurcationDiagram(
        points=[points[i] for i in sorted(points)], schedule=schedule)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_diagram_csv(os.path.join(out_dir, "diagram.csv"), diagram)
        write_manifest(os.path.join(out_dir, "manifest.json"), schedule)
        if save_meshes:
            from .meshio import write_obj
            for idx, x_final in saved.items():
                write_obj(os.path.join(out_dir, f"point_{idx:04d}.obj"),
                          x_final, mesh.triangles)
    return diagram


# ---------------------------------------------------------------------------
# transition detection


@dataclass
class Transition:
    kind: str                    # CIRCLE->ELLIPSE | PLANAR->TWISTED | TWISTED->FLAT-EIGHT
    lower: float                 # bracketing k L^3 / alpha interval
    upper: float


def detect_transitions(diagram):
    """Scan converged points in ascending order for the transition sequence."""
    rows = diagram.converged_points()
    if len(rows) < 3:
        raise ValueError("need at least 3 converged points")
    radius = diagram.target_length / (2.0 * np.pi)
    amp_thr = MODE_AMP_FACTOR * radius

    events = []
    ellipse_seen = False
    twisted = False
    for prev, cur in zip(rows[:-1], rows[1:]):
        planar_prev = prev.planarity <= PLANARITY_THRESHOLD
        planar_cur = cur.planarity <= PLANARITY_THRESHOLD
        if (not ellipse_seen and planar_cur and cur.dominant_mode == 2
                and cur.mode2_amp > amp_thr
                and (prev.mode2_amp <= amp_thr or prev.dominant_mode != 2)):
            events.append(Transition("CIRCLE->ELLIPSE",
                                     prev.k_l3_alpha, cur.k_l3_alpha))
            ellipse_seen = True
        if not twisted and planar_prev and not planar_cur:
            events.append(Transition("PLANAR->TWISTED",
                                     prev.k_l3_alpha, cur.k_l3_alpha))
            twisted = True
        elif twisted and not planar_prev and planar_cur and cur.mode2_amp > amp_thr:
            events.append(Transition("TWISTED->FLAT-EIGHT",
                                     prev.k_l3_alpha, cur.k_l3_alpha))
            twisted = False
    return events


# ---------------------------------------------------------------------------
# scaling fits near the twist onset


@dataclass
class ExponentFit:
    exponent: float
    stderr: float
    gamma_c: float
    amplitude: float
    r_squared: float
    n_points: int


@dataclass
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _fit_window(diagram, gamma_lo, gamma_hi, require_twisted=True):
    """Converged points with gamma in (gamma_lo, gamma_hi], on the twisted branch.

    The flat-eight branch past the second transition has kappa_n ~ 0 again,
    so fits restrict to points with planarity above threshold and a mean
    |kappa_n| above the noise floor.
    """
    radius = diagram.target_length / (2.0 * np.pi)
    floor = KN_NOISE_FLOOR_FACTOR / radius
    rows = []
    for p in diagram.converged_points():
        if not (gamma_lo < p.gamma <= gamma_hi):
            continue
        if require_twisted and (p.planarity <= PLANARITY_THRESHOLD
                                or p.mean_abs_kn <= floor):
            continue
        rows.append(p)
    return rows


def fit_exponent(diagram, gamma_threshold):
    """Power-law fit <|kappa_n|> = A (gamma - gamma_c)^p near the onset.

    gamma_threshold is an estimate of the onset (gamma units); the window is
    (gamma_threshold, 1.25 * gamma_threshold] and gamma_c is fitted freely
    below the first data point.
    """
    rows = _fit_window(diagram, gamma_threshold, 1.25 * gamma_threshold)
    if len(rows) < 6:
        raise FitError(f"only {len(rows)} usable points in the fit window")
    g = np.array([p.gamma for p in rows])
    a = np.array([p.mean_abs_kn for p in rows])

    def model(gamma, amp, gamma_c, p):
        return amp * np.clip(gamma - gamma_c, 1e-12, None) ** p

    g_min = g.min()
    p0 = (a.max() / max(np.sqrt(g.max() - gamma_threshold), 1e-6),
          gamma_threshold, 0.5)
    bounds = ([1e-12, 0.5 * gamma_threshold, 0.1],
              [np.inf, g_min - 1e-9 * gamma_threshold, 1.5])
    try:
        popt, pcov = scipy.optimize.curve_fit(
            model, g, a, p0=p0, bounds=bounds, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"power-law fit did not converge: {exc}") from exc
    pred = model(g, *popt)
    ss_res = float(np.sum((a - pred) ** 2))
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    stderr = float(np.sqrt(pcov[2, 2])) if np.all(np.isfinite(pcov)) else np.inf
    return ExponentFit(exponent=float(popt[2]), stderr=stderr,
                       gamma_c=float(popt[1]), amplitude=float(popt[0]),
                       r_squared=r2, n_points=len(rows))


def fit_linear_K(diagram, gamma_c):
    """Ordinary least squares of the integrated Gaussian curvature vs gamma."""
    rows = _fit_window(diagram, gamma_c, 1.25 * gamma_c)
    if len(rows) < 6:
        raise FitError(f"only {len(rows)} usable points in the fit window")
    g = np.array([p.gamma for p in rows])
    y = np.array([p.int_K for p in rows])
    slope, intercept = np.polyfit(g, y, 1)
    pred = slope * g + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=r2, n_points=len(rows))


# ---------------------------------------------------------------------------
# self-intersection diagnostic


def count_self_intersections(mesh, x):
    """Number of transversally intersecting non-adjacent triangle pairs.

    Candidate pairs come from a centroid KD-tree query; a pair counts when
    an edge of one triangle crosses the interior of the other.  Triangles
    sharing a vertex are skipped, as are exactly coplanar overlaps (the
    diagnostic targets genuine crossings of the immersed surface).
    """
    tris = mesh.triangles
    pts = x[tris]                                        # (f, 3, 3)
    centroids = pts.mean(axis=1)
    crad = np.linalg.norm(pts - centroids[:, None, :], axis=2).max(axis=1)
    tree = scipy.spatial.cKDTree(centroids)
    pairs = tree.query_pairs(2.0 * float(crad.max()), output_type="ndarray")
    if len(pairs) == 0:
        return 0

    # drop pairs sharing any vertex
    va, vb = tris[pairs[:, 0]], tris[pairs[:, 1]]
    shares = (va[:, :, None] == vb[:, None, :]).any(axis=(1, 2))
    pairs = pairs[~shares]

    count = 0
    for i, j in pairs:
        if _tri_tri_cross(pts[i], pts[j]) or _tri_tri_cross(pts[j], pts[i]):
            count += 1
    return count


def _tri_tri_cross(tri_a, tri_b, eps=1e-12):
    """True if any edge of tri_a crosses the interior of tri_b transversally."""
    a0, a1, a2 = tri_b
    e1, e2 = a1 - a0, a2 - a0
    for k in range(3):
        p, q = tri_a[k], tri_a[(k + 1) % 3]
        d = q - p
        h = np.cross(d, e2)
        det = e1 @ h
        if abs(det) < eps:
            continue                      # parallel or coplanar edge
        inv = 1.0 / det
        s = p - a0
        u = inv * (s @ h)
        if u <= eps or u >= 1.0 - eps:
            continue
        qv = np.cross(s, e1)
        v = inv * (d @ qv)
        if v <= eps or u + v >= 1.0 - eps:
            continue
        t = inv * (e2 @ qv)
        if eps < t < 1.0 - eps:
            return True
    return False


# ---------------------------------------------------------------------------
# persistence


def write_diagram_csv(path, diagram):
    """One CSV row per sweep point; float formatting is repr round-trip."""
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for p in diagram.points:
            cells = []
            for name in CSV_COLUMNS:
                v = getattr(p, name)
                if isinstance(v, str):
                    cells.append(v)
                elif isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append(_fmt(v))
            fh.write(",".join(cells) + "\n")


def read_diagram_csv(path):
    """Load a diagram written by write_diagram_csv (schedule not restored)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected diagram columns in {path}")
        points = []
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {lineno}: {len(cells)} cells, "
                                 f"header has {len(CSV_COLUMNS)}")
            points.append(SweepPoint(**{
                name: _COLUMN_TYPES[name](cell)
                for name, cell in zip(CSV_COLUMNS, cells)}))
    return BifurcationDiagram(points=points, schedule=None)


def write_manifest(path, schedule, extra=None):
    """JSON manifest sufficient to rerun the sweep bit for bit."""
    doc = {"command": "sweep", "version": __version__,
           "config": schedule.to_dict()}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    """Load a manifest (or plain config) back into a SweepSchedule."""
    with open(path) as fh:
        doc = json.load(fh)
    cfg = doc.get("config", doc) if isinstance(doc, dict) else doc
    return SweepSchedule.from_dict(cfg)
