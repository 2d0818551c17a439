"""Continuation driver: ramp the dimensionless tension and record observables.

A sweep relaxes the mesh at each scheduled value of k L^3 / alpha, warm
starting from the previous relaxed state (or from the initial flat mesh when
warm starts are off), certifies each relaxed state by a Cholesky factor of
its loop Hessian plus a small shift, leaves a state that fails along its
unstable eigenvector and relaxes again, and records boundary curvature,
Gaussian curvature, planarity and Fourier-mode observables per point.  No
point is kicked at random: a planar start stays exactly planar, so the
Hessian splits into its z and in-plane blocks, and a buckling shows as a
failed certificate, the test-function approach to bifurcations (Seydel,
Practical Bifurcation and Stability Analysis, 3rd ed., 2010), not as the
response to noise.  Detection of the transition sequence (circle -> ellipse
-> twisted -> flat eight) and the near-onset scaling fits operate on the
recorded diagram.

Determinism: identical schedules produce byte-identical CSV output.  Seeds
are assigned per ascending schedule position, and a point's seed picks the
sign of its escape step, so an ascending and a descending run of the same
values step each point the same way.
"""

import dataclasses
import json
import logging
import numbers
import os
from dataclasses import dataclass, field, asdict
from typing import List

import numpy as np

from . import __version__
from .mesh import generate_disk_mesh, scale_to_boundary_length
from .energy import EnergyParams, SIGMA_PER_SPRING_K, loop_hessian
from .optimize import (MinimizeOptions, absolute_tolerance, check_field_types,
                       relax)
# the sweep kicks no point and reads start_energy off relax's result, but
# perfbench's traced pass wraps filmloop.sweep.perturb and .energy by name,
# so the names stay
from .energy import energy  # noqa: F401
from .optimize import perturb  # noqa: F401
from .diffgeo import (boundary_geometry, corner_geometry,
                      count_self_intersections, gaussian_curvature,
                      gauss_bonnet_defect, planarity)
from .stability import boundary_mode_spectrum

logger = logging.getLogger(__name__)


class FitError(RuntimeError):
    pass


PLANARITY_THRESHOLD = 1e-3      # separates perturbation noise from buckling
MODE_AMP_FACTOR = 1e-3          # ellipse detection floor, in units of R
KN_NOISE_FLOOR_FACTOR = 1e-4    # fit-window floor for <|kappa_n|>, in 1/R
RADIUS = 1.0 / (2.0 * np.pi)    # R of the flat disk: sweeps run at alpha = L = 1

# the power-law fit converges on a step that moves log(min gamma - gamma_c)
# by at most FIT_XTOL and p by at most FIT_XTOL relative, or lowers the sum
# of squares by at most its rounding, within FIT_MAX_ITERATIONS
# Levenberg-Marquardt steps.  The fits of the tests take 7-24 steps; over
# 900 random power laws with 1-50 % noise the most was 242
FIT_XTOL = 1e-12
FIT_SSR_ROUNDING = 4.0 * np.finfo(float).eps
FIT_MAX_ITERATIONS = 1000

# The certificate tests H + tau I, tau = CERTIFICATE_SHIFT * gtol / L for
# relax's absolute gradient tolerance gtol.  The energy does not change
# along a rotation x -> x + w x x, so the Hessian's curvature along that
# rigid mode is -g . (w x (w x x)) over |w x x|^2, at most
# sqrt(3) |g|_inf / R in size on a loop at distance R = L / 2 pi from the
# axis: the curvature a converged gradient alone can leave there.  On the
# acceptance sweeps (rings 16, tolerances 1e-6 and 1e-8) the least rigid
# eigenvalue read -0.09 tau and -0.24 tau, and the twist's planar saddle
# at kL^3/alpha = 860 reads -0.52, 55 tau.
CERTIFICATE_SHIFT = 2.0 * np.pi * np.sqrt(3.0)
# a failing state is left by ESCAPE_STEP * gtol / |lambda| along its
# eigenvector, where the mode's own gradient is ESCAPE_STEP tolerances: at
# 3 every restart measured fell back to the planar saddle, at 30 one
# restart left every failing state of the acceptance sweeps
ESCAPE_STEP = 30.0
# restarts of one point before it is reported unstable; one has sufficed
# on every state measured, so more would mean a step that falls back
MAX_RESTARTS = 3


@dataclass
class SweepSchedule:
    """Ascending k L^3 / alpha values plus everything needed to rerun them."""

    values: np.ndarray
    rings: int = 16
    elongation: float = 1.0
    base_seed: int = 0
    warm_start: bool = True
    direction: str = "up"                     # "down" iterates in reverse
    options: MinimizeOptions = field(default_factory=MinimizeOptions)

    def __post_init__(self):
        # a bool or a numeric string would pass np.asarray's float parse
        values = np.asarray(self.values, dtype=object).ravel().tolist()
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in values):
            raise ValueError(f"sweep config 'values' must be a list of "
                             f"numbers, got {self.values!r}")
        self.values = np.asarray(self.values, dtype=float)
        check_field_types(self, "sweep config")
        if not (np.isfinite(self.elongation) and self.elongation > 0):
            raise ValueError(f"sweep config 'elongation' must be finite and "
                             f"positive, got {self.elongation!r}")
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError("schedule needs a nonempty 1D value array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"sweep config 'values' must be finite, got "
                             f"{self.values.tolist()!r}")
        if np.any(self.values < 0):
            raise ValueError(f"sweep config 'values' must be >= 0, got "
                             f"{self.values.tolist()!r}")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("schedule values must be strictly increasing")
        if self.base_seed < 0:
            raise ValueError(f"sweep config 'base_seed' must be >= 0, got "
                             f"{self.base_seed!r}")
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
    energy_total: float
    energy_bending: float
    energy_springs: float
    energy_penalty: float
    start_energy: float          # loop energy of the warm start under this
                                 # point's params, penalty off: bending +
                                 # springs of the first relax's start
    boundary_length: float
    length_rel_err: float
    line_tension: float          # beta, the length constraint's multiplier
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
    function_evals: int          # energy_and_gradient calls, all relaxes
    penalty_rounds: int
    restarts: int                # relaxes after a failed certificate
    seed: int
    converged: int
    status: str


CSV_COLUMNS = [f.name for f in dataclasses.fields(SweepPoint)]
_COLUMN_TYPES = {f.name: f.type for f in dataclasses.fields(SweepPoint)}


@dataclass
class BifurcationDiagram:
    points: List[SweepPoint]

    def converged_points(self):
        return [p for p in self.points if p.converged]


# ---------------------------------------------------------------------------
# running a sweep


def _fmt(v):
    """Shortest round-trip decimal form; byte-stable for identical floats."""
    return repr(float(v))


def unstable_mode(mesh, x_b, params, tau):
    """None when loop_hessian(mesh, x_b, params) + tau I is positive
    definite, for the loop mesh and its positions; else the lowest
    eigenvalue of the block that fails and its unit eigenvector as (B, 3)
    loop rows.

    The Hessian is built once and tau is added to its diagonal in place.
    On a planar loop (z = 0 exactly) its xz and yz blocks are 0, so the z
    block [2B:, 2B:] and the in-plane block [:2B, :2B] are factored apart,
    z first; otherwise the whole matrix is one block.  A failing block's
    eigenpairs are read from the same matrix once its diagonal is back."""
    from scipy.linalg.lapack import dpotrf

    nb = len(x_b)
    hess = loop_hessian(mesh, x_b, params)
    diag = hess.diagonal().copy()
    hess.flat[::3 * nb + 1] += tau
    blocks = ((slice(0, 3 * nb),) if x_b[:, 2].any()
              else (slice(2 * nb, 3 * nb), slice(0, 2 * nb)))
    for block in blocks:
        # dpotrf's lower factor of the Fortran-order transpose writes only
        # hess's upper triangle and diagonal (a planar slice's in f2py's
        # copy), and eigh's default UPLO='L' reads only the lower triangle
        # and diagonal: with diag written back ((d + tau) - tau need not
        # round to d), eigh sees the unshifted Hessian bit for bit
        if dpotrf(hess[block, block].T, lower=1, clean=0, overwrite_a=1)[1]:
            break
    else:
        return None
    hess.flat[::3 * nb + 1] = diag
    lam, vec = np.linalg.eigh(hess[block, block])
    mode = np.zeros(3 * nb)
    mode[block] = vec[:, 0]
    return float(lam[0]), mode.reshape(3, nb).T


def _evaluate_point(mesh, start, schedule, idx, kl3a, length_multiplier=0.0):
    """Relax one sweep point from start, certify it and collect its
    observables; returns the point and the last relax result.
    length_multiplier starts the length constraint's multiplier (0 for a
    cold start).

    The certificate is unstable_mode at the relaxed loop and the result's
    own params, with the shift CERTIFICATE_SHIFT * gtol / L, gtol relax's
    absolute gradient tolerance; it builds the loop Hessian once, pass or
    fail.  A state that fails it is left along the failing eigenvector, by
    ESCAPE_STEP * gtol / |lambda| with the sign (-1)^seed, and relaxed
    again from there under the same params; after MAX_RESTARTS such
    restarts a state that still fails is status "unstable".  iterations,
    function_evals and penalty_rounds sum over the point's relaxes."""
    params = EnergyParams(alpha=1.0, spring_k=kl3a, target_length=1.0)
    seed = schedule.base_seed + idx
    loop, loop_mesh = mesh.boundary_loop, mesh.loop_mesh()
    res = relax(mesh, start,
                dataclasses.replace(params, length_multiplier=length_multiplier),
                schedule.options)
    # bending and springs do not read the penalty terms, which add exactly
    # 0.0 under params: this is energy(loop_mesh, start loop, params).total
    start_energy = res.start.bending + res.start.springs
    solves = [res]
    status = res.status
    while res.converged:
        gtol = absolute_tolerance(res.params, schedule.options)
        mode = unstable_mode(loop_mesh, res.x.take(loop, axis=0), res.params,
                             CERTIFICATE_SHIFT * gtol
                             / res.params.target_length)
        if mode is None:
            break
        lam, vec = mode
        if len(solves) > MAX_RESTARTS:
            status = "unstable"
            break
        logger.info("point %d: kL^3/a=%.6g fails the certificate, "
                    "eigenvalue %.6g; restart %d", idx, kl3a, lam,
                    len(solves))
        x = res.x.copy()
        x[loop] += (-1.0) ** seed * (ESCAPE_STEP * gtol / abs(lam)) * vec
        res = relax(mesh, x, res.params, schedule.options)
        solves.append(res)
        status = res.status

    geometry = corner_geometry(mesh.triangles, res.x)
    bg = boundary_geometry(mesh, res.x, geometry)
    field_k = gaussian_curvature(mesh, res.x, geometry)
    modes, amps = boundary_mode_spectrum(mesh, res.x)
    dom = int(modes[np.argmax(amps)])
    mode2 = float(amps[1]) if len(amps) > 1 else 0.0

    point = SweepPoint(
        index=idx, k_l3_alpha=kl3a, gamma=SIGMA_PER_SPRING_K * kl3a,
        energy_total=res.energy.total, energy_bending=res.energy.bending,
        energy_springs=res.energy.springs,
        energy_penalty=res.energy.length_penalty,
        start_energy=start_energy,
        boundary_length=res.energy.boundary_length,
        length_rel_err=res.length_error, line_tension=res.line_tension,
        mean_abs_kn=bg.mean_abs_kn, int_abs_kn=bg.integral_abs_kn,
        int_K=field_k.integral_K, mean_K=field_k.mean_K,
        area=field_k.total_area,
        planarity=planarity(mesh, res.x),
        dominant_mode=dom, mode2_amp=mode2,
        gauss_bonnet=gauss_bonnet_defect(mesh, res.x, field_k),
        self_intersections=count_self_intersections(mesh, res.x, geometry),
        iterations=sum(r.iterations for r in solves),
        function_evals=sum(r.function_evals for r in solves),
        penalty_rounds=sum(r.penalty_rounds for r in solves),
        restarts=len(solves) - 1,
        seed=seed, converged=int(status == "converged"),
        status=status)
    return point, res


def run_sweep(schedule, out_dir=None, save_meshes=False):
    """Run the continuation protocol; returns a BifurcationDiagram.

    Points run one after another in schedule order (reversed for direction
    "down").  With warm_start on, each starts from the previous relaxed
    state and from its length multiplier scaled by the ratio of the
    kL^3/alpha values (the line tension grows with the film tension),
    unscaled after a value of 0; with it off, every point starts from the
    flat mesh and a zero multiplier.
    No start is perturbed; each relaxed state is certified, and one that
    fails is stepped along its unstable eigenvector with the sign of
    (-1)^seed, seed = base_seed + index (index = position in the ascending
    value list), and relaxed again (_evaluate_point).
    """
    mesh, x0 = generate_disk_mesh(schedule.rings, schedule.elongation)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    order = range(len(schedule.values))
    if schedule.direction == "down":
        order = reversed(order)

    points = {}
    saved = {}
    prev_x, prev_kl3a, prev_lam = None, None, 0.0
    for idx in order:
        kl3a = float(schedule.values[idx])
        start, lam = x0, 0.0
        if schedule.warm_start and prev_x is not None:
            # continue from best-so-far even if unconverged
            start, lam = prev_x, prev_lam
            if prev_kl3a:               # no ratio to scale by after 0
                lam = prev_lam * kl3a / prev_kl3a
        point, res = _evaluate_point(mesh, start, schedule, idx, kl3a, lam)
        points[idx] = point
        if save_meshes:
            saved[idx] = res.x
        prev_x, prev_kl3a = res.x, kl3a
        prev_lam = res.params.length_multiplier
        logger.info("point %d: kL^3/a=%.6g planarity=%.3g mode=%d %s",
                    idx, kl3a, point.planarity, point.dominant_mode,
                    point.status)

    diagram = BifurcationDiagram(points=[points[i] for i in sorted(points)])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_diagram_csv(os.path.join(out_dir, "diagram.csv"), diagram)
        write_manifest(os.path.join(out_dir, "manifest.json"), schedule)
        if save_meshes:
            from .meshio import obj_faces, write_obj
            faces = obj_faces(mesh.triangles)
            for idx, x_final in saved.items():
                write_obj(os.path.join(out_dir, f"point_{idx:04d}.obj"),
                          x_final, faces)
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
    amp_thr = MODE_AMP_FACTOR * RADIUS

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


def _fit_window(diagram, gamma_lo):
    """Converged twisted-branch points with gamma in (gamma_lo, 1.25 gamma_lo].

    The flat-eight branch past the second transition has kappa_n ~ 0 again,
    so fits restrict to points with planarity above threshold and a mean
    |kappa_n| above the noise floor.  FitError below six points; ValueError
    naming the point when a converged point's gamma, or a window point's
    mean_abs_kn, is not finite.
    """
    floor = KN_NOISE_FLOOR_FACTOR / RADIUS
    rows = []
    for p in diagram.converged_points():
        _check_finite(p, "gamma")
        if gamma_lo < p.gamma <= 1.25 * gamma_lo:
            _check_finite(p, "mean_abs_kn")
            if not (p.planarity <= PLANARITY_THRESHOLD
                    or p.mean_abs_kn <= floor):
                rows.append(p)
    if len(rows) < 6:
        raise FitError(f"only {len(rows)} usable points in the fit window")
    return rows


def _check_finite(point, name):
    value = getattr(point, name)
    if not np.isfinite(value):
        raise ValueError(f"diagram point {point.index}: {name} is {value!r}, "
                         f"not finite")


def _r_squared(y, pred):
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def _power_law(g, gamma_c, p):
    """phi = clip(g - gamma_c, 1e-12)^p and its (n, 2) derivatives in
    (gamma_c, p)."""
    d = g - gamma_c
    live = d > 1e-12
    d = np.where(live, d, 1e-12)
    phi = d ** p
    return phi, np.stack([np.where(live, -p * phi / d, 0.0),
                          phi * np.log(d)], axis=1)


def _projected_residual(g, a, theta):
    """Residual a - A phi at the least-squares amplitude A = phi.a / phi.phi
    of theta = (u, p), gamma_c = min g - e^u, its (n, 2) Jacobian in theta
    (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413), and A."""
    offset = np.exp(theta[0])
    phi, dphi = _power_law(g, g.min() - offset, theta[1])
    dphi[:, 0] *= -offset
    pp = phi @ phi
    amp = (phi @ a) / pp
    r = a - amp * phi
    jac = -amp * (dphi - np.outer(phi, phi @ dphi) / pp) \
        - np.outer(phi, r @ dphi) / pp
    return r, jac, amp


def fit_exponent(diagram, gamma_threshold):
    """Power-law fit <|kappa_n|> = A (gamma - gamma_c)^p near the onset.

    gamma_threshold is an estimate of the onset (gamma units); the window is
    (gamma_threshold, 1.25 * gamma_threshold] and gamma_c is fitted freely
    below the first data point, inside [0.5 gamma_threshold, min gamma -
    1e-9 gamma_threshold], with p in [0.1, 1.5].  The fit is variable
    projection: A is the least-squares amplitude of each (gamma_c, p),
    positive since every window value is, and a Levenberg-Marquardt search
    moves u = log(min gamma - gamma_c) and p inside the box, holding a
    coordinate at its bound while the gradient pushes it out.  In u the
    first point's phi = e^(u p) stays smooth as gamma_c nears that point,
    where d phi / d gamma_c grows without bound for p < 1.  FitError when
    FIT_MAX_ITERATIONS steps do not converge.  stderr is sqrt(s^2 (J^T
    J)^-1) of p, with J the Jacobian of the model in (A, gamma_c, p) and
    s^2 = SSR / (n - 3), as curve_fit reports it, inf when not finite.

    The search is one local search from one start, as curve_fit's was, so
    on very noisy data it can end in another local minimum than curve_fit
    does: on 300 random power laws with 50 % noise (n 6-19, gamma_c
    700-1100, p 0.2-1.4), 3 fits ended with an SSR 0.014 %, 0.98 % and
    3.5 % above curve_fit's, and 2 curve_fits 6.9 % and 0.014 % above this
    fit's; at 1 % and 10 % noise none of 600 ended above curve_fit's.
    """
    rows = _fit_window(diagram, gamma_threshold)
    g = np.array([p.gamma for p in rows])
    a = np.array([p.mean_abs_kn for p in rows])

    # gamma_c starts at the threshold, or at its upper bound when the first
    # point lies within 1e-9 relative above the threshold
    gamma_c_max = g.min() - 1e-9 * gamma_threshold
    lo = np.array([np.log(g.min() - gamma_c_max), 0.1])
    hi = np.array([np.log(g.min() - 0.5 * gamma_threshold), 1.5])
    theta = np.array([np.log(g.min() - min(gamma_threshold, gamma_c_max)),
                      0.5])
    r, jac, amp = _projected_residual(g, a, theta)
    ssr, damping, grow, norms = r @ r, 1e-3, 2.0, np.zeros(2)
    for _ in range(FIT_MAX_ITERATIONS):
        grad = jac.T @ r
        free = ~(((theta <= lo) & (grad > 0.0)) | ((theta >= hi) & (grad < 0.0)))
        j = jac[:, free]
        # the step minimizes |j step + r|^2 + damping |diag(norms) step|^2,
        # norms the largest column norms so far (More's scaling)
        norms = np.maximum(norms, np.linalg.norm(jac, axis=0))
        scale = np.diag(np.sqrt(damping) * norms[free])
        step = np.zeros(2)
        step[free] = np.linalg.lstsq(np.vstack([j, scale]),
                                     np.concatenate([-r, np.zeros(len(scale))]),
                                     rcond=None)[0]
        trial = np.clip(theta + step, lo, hi)
        step = trial - theta
        r_t, jac_t, amp_t = _projected_residual(g, a, trial)
        ssr_t = r_t @ r_t
        rounding = False
        if ssr_t < ssr:
            # Nielsen's update from the ratio of actual to predicted decrease
            lin = r + jac @ step
            rho = min((ssr - ssr_t) / max(ssr - lin @ lin, 1e-300), 1.0)
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            grow = 2.0
            rounding = ssr - ssr_t <= FIT_SSR_ROUNDING * ssr
            theta, r, jac, amp, ssr = trial, r_t, jac_t, amp_t, ssr_t
        else:
            damping *= grow
            grow *= 2.0
        if rounding or (abs(step[0]) <= FIT_XTOL
                        and abs(step[1]) <= FIT_XTOL * theta[1]):
            break
    else:
        raise FitError(f"power-law fit did not converge in "
                       f"{FIT_MAX_ITERATIONS} iterations")

    gamma_c, p = g.min() - np.exp(theta[0]), theta[1]
    phi, dphi = _power_law(g, gamma_c, p)
    _, s, vt = np.linalg.svd(np.column_stack([phi, amp * dphi]),
                             full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = ssr / (len(g) - 3) * np.sum(vt[:, 2] ** 2 / s ** 2)
    return ExponentFit(exponent=float(p),
                       stderr=float(np.sqrt(var)) if np.isfinite(var) else np.inf,
                       gamma_c=float(gamma_c), amplitude=float(amp),
                       r_squared=_r_squared(a, amp * phi), n_points=len(rows))


def fit_linear_K(diagram, gamma_c):
    """Ordinary least squares of the integrated Gaussian curvature vs gamma."""
    rows = _fit_window(diagram, gamma_c)
    g = np.array([p.gamma for p in rows])
    y = np.array([p.int_K for p in rows])
    slope, intercept = np.polyfit(g, y, 1)
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=_r_squared(y, slope * g + intercept),
                     n_points=len(rows))


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
    """Load a diagram written by write_diagram_csv.  A cell its column's
    type does not parse, or a float cell that is not finite (no sweep
    writes one), is a ValueError naming the path, line and column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: {_header_mismatch(header)}")
        points = []
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {lineno}: {len(cells)} cells, "
                                 f"header has {len(CSV_COLUMNS)}")
            row = {}
            for name, cell in zip(CSV_COLUMNS, cells):
                try:
                    row[name] = value = _COLUMN_TYPES[name](cell)
                    if isinstance(value, float) and not np.isfinite(value):
                        raise ValueError(f"{cell!r} is not finite")
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}, column "
                                     f"{name!r}: {exc}") from None
            points.append(SweepPoint(**row))
    return BifurcationDiagram(points=points)


def _header_mismatch(header):
    """Names the first column where header departs from CSV_COLUMNS, as
    missing when the header lacks it altogether."""
    for got, want in zip(header, CSV_COLUMNS):
        if got != want:
            if want not in header:
                return f"diagram column {want!r} missing"
            return f"unexpected diagram column {got!r} where {want!r} belongs"
    if len(header) > len(CSV_COLUMNS):
        return f"unexpected diagram column {header[len(CSV_COLUMNS)]!r}"
    return f"diagram column {CSV_COLUMNS[len(header)]!r} missing"


def write_manifest(path, schedule):
    """JSON manifest sufficient to rerun the sweep bit for bit."""
    doc = {"command": "sweep", "version": __version__,
           "config": schedule.to_dict()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    """Load a manifest (or plain config) back into a SweepSchedule.

    A manifest reruns bit for bit only under the filmloop version that wrote
    it, so one whose version differs is a ValueError naming both.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "config" in doc:
        if doc.get("version") != __version__:
            raise ValueError(f"{path}: manifest written by filmloop "
                             f"{doc.get('version')!r}, this is "
                             f"{__version__!r}")
        doc = doc["config"]
    return SweepSchedule.from_dict(doc)
