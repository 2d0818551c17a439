"""Energy minimization by nonlinear conjugate gradient.

Polak-Ribiere(+) directions with a strong-Wolfe cubic-interpolation line
search (constants WOLFE_C1, WOLFE_C2), a steepest-descent restart every
RESTART_INTERVAL iterations, and a scale-aware gradient tolerance:

    converged  iff  ||g||_inf <= gradient_tolerance * (spring_k * L + alpha / L^2)

so the stopping rule is invariant under rescaling the energy unit.  A failed
line search retries once from steepest descent, then returns the best
iterate found, flagged with its own status; non-finite energies or
gradients abort with NumericalError.  MinimizeOptions holds the two
settings a caller may change: max_iterations and gradient_tolerance.

The vertex-wise bending stiffness grows like alpha / spacing^3, so at fine
boundary resolution the Hessian spectrum spans six or more decades and
plain CG stalls.  minimize() therefore preconditions (make_preconditioner)
with the exact inverse of a circulant bending + edge-penalty operator along
the boundary loop and the spring-graph diagonal elsewhere, built from the
starting configuration; convergence is still judged on the raw gradient.

relax() wraps minimize() in the boundary-length penalty escalation loop:
the quadratic penalty stiffness is multiplied by 10 between rounds until the
boundary length matches its target to LENGTH_TOL relative.

Nothing here perturbs its input: callers that need to break the planar
symmetry (the sweep driver, the relax command) apply perturb() first, with
half-width kick_amplitude(L).

polish() continues from a minimized state with a gradient-only secant line
search, for use when residuals below the energy-difference resolution of
the Wolfe search are needed (near-exact planarity, curvature cancellation
checks).
"""

import dataclasses
import logging
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .energy import energy_and_gradient
from .mesh import boundary_frame

logger = logging.getLogger(__name__)

_LOG_HEADER = "iteration,total_energy,gradient_inf_norm,boundary_length_error\n"


class NumericalError(RuntimeError):
    """Energy or gradient became non-finite during minimization."""


# strong-Wolfe constants (sufficient decrease, curvature) and the number of
# CG iterations between forced steepest-descent restarts
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.1
RESTART_INTERVAL = 200

# relative boundary-length error a relaxed state must reach
LENGTH_TOL = 1e-3


def kick_amplitude(target_length):
    """Half-width of the transverse kick before a solve: 1e-3 R, R = L / 2pi."""
    return 1e-3 * target_length / (2.0 * np.pi)


def check_field_types(obj, what):
    """ValueError naming the first field of dataclass obj whose value does not
    match its annotation; a bool passes only for a bool field."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        kind = {int: numbers.Integral, float: numbers.Real}.get(f.type, f.type)
        if not isinstance(v, kind) or (isinstance(v, bool) and f.type is not bool):
            raise ValueError(f"{what} {f.name!r} must be {f.type.__name__}, "
                             f"got {v!r}")


@dataclass
class MinimizeOptions:
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        check_field_types(self, "option")
        if not (np.isfinite(self.gradient_tolerance)
                and self.gradient_tolerance > 0):
            raise ValueError(f"option 'gradient_tolerance' must be finite and "
                             f"positive, got {self.gradient_tolerance!r}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


@dataclass
class MinimizeResult:
    x: np.ndarray
    energy: object                   # EnergyBreakdown at x
    iterations: int
    converged: bool
    status: str                      # converged | max_iterations | line_search_failed
    gradient_norm_history: np.ndarray
    energy_history: np.ndarray
    params: object = None            # EnergyParams actually used (after escalation)
    penalty_rounds: int = 0
    length_error: float = 0.0


def perturb(x, amplitude, seed):
    """Add independent uniform noise in [-amplitude, amplitude] to every z."""
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    out = np.array(x, dtype=float)
    rng = np.random.default_rng(seed)
    out[:, 2] += rng.uniform(-amplitude, amplitude, len(out))
    return out


def _check_finite(f, g):
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalError("non-finite energy or gradient")


def minimize_function(fun, x0, opts, gtol_abs, step_scale=1.0, callback=None,
                      minv=None):
    """Conjugate-gradient core on a generic objective fun(x) -> (value, grad).

    Polak-Ribiere(+) with strong-Wolfe line search; stops when the raw
    gradient infinity norm reaches gtol_abs.  minv, when given, is a callable
    g -> M^{-1} g applying a positive-definite inverse preconditioner:
    directions use minv(g) and the PR+ numerator and denominator use the
    preconditioned inner product.  step_scale sets the displacement of the
    very first trial step.  callback(it, f, ginf) runs per accepted iterate.
    Returns (x, f, grad, iterations, status, f_history, ginf_history).
    """
    apply_minv = minv if minv is not None else (lambda g: g)

    x = np.array(x0, dtype=float)
    f, g = fun(x)
    _check_finite(f, g)
    z = apply_minv(g)                       # preconditioned gradient
    d = -z
    gz = float(g.ravel() @ z.ravel())

    ghist = [float(np.max(np.abs(g)))]
    fhist = [f]
    if callback is not None:
        callback(0, f, ghist[-1])

    status = "max_iterations"
    step_prev = None
    dphi_prev = None
    just_reset = False
    it = 0
    while True:
        if ghist[-1] <= gtol_abs:
            status = "converged"
            break
        if it >= opts.max_iterations:
            status = "max_iterations"
            break

        dphi0 = float(g.ravel() @ d.ravel())
        if dphi0 >= 0.0:                    # not a descent direction, reset
            d = -z
            dphi0 = -gz
            step_prev = None

        if step_prev is None:
            # move a small fraction of the problem length scale
            dnorm = float(np.linalg.norm(d.ravel()))
            a0 = 0.01 * step_scale / max(dnorm, 1e-300)
        else:
            a0 = step_prev * dphi_prev / dphi0
            a0 = float(np.clip(a0, 1e-14 * step_prev, 1e4 * step_prev))

        ls = _wolfe_search(fun, x, d, f, dphi0, a0, WOLFE_C1, WOLFE_C2)
        if ls is None:
            if not just_reset:
                # retry once from steepest descent with a fresh step size
                logger.debug("line search stalled at iteration %d, resetting",
                             it)
                d = -z
                step_prev = None
                just_reset = True
                continue
            status = "line_search_failed"
            logger.debug("line search failed at iteration %d", it)
            break
        just_reset = False
        a, x_new, f_new, g_new, _ = ls

        z_new = apply_minv(g_new)
        g_new_flat = g_new.ravel()
        gz_new = float(g_new_flat @ z_new.ravel())
        beta = max(0.0, float((z_new - z).ravel() @ g_new_flat) / gz)
        it += 1
        if it % RESTART_INTERVAL == 0:
            beta = 0.0
        d = -z_new + beta * d
        step_prev, dphi_prev = a, dphi0
        x, f, g, z, gz = x_new, f_new, g_new, z_new, gz_new

        ghist.append(float(np.max(np.abs(g))))
        fhist.append(f)
        if callback is not None:
            callback(it, f, ghist[-1])

    return x, f, g, it, status, np.array(fhist), np.array(ghist)


def make_preconditioner(mesh, x0, params):
    """Inverse-stiffness operator combining a boundary circulant with a
    vertex diagonal; returns a callable g -> M^{-1} g.

    The boundary bending energy is, for near-uniform spacing s, a periodic
    fourth-difference operator with Fourier symbol 2*alpha*(2-2cos(theta))^2
    / s^3 whose eigenvalue spread scales like (B/2pi)^4; no diagonal can
    flatten that, but the exact circulant inverse applied along the loop
    index does.  Interior vertices use the spring-graph diagonal.  All three
    coordinates share one scale per mode, so no orientation bias.  Built
    once from the starting geometry; a stale positive-definite scaling stays
    a valid preconditioner even after the shape evolves.
    """
    n = mesh.vertex_count
    loop = mesh.boundary_loop
    nb = len(loop)

    diag = np.zeros(n)
    if params.spring_k > 0:
        deg = np.asarray(mesh.interior_laplacian().diagonal()).ravel()
        diag += 2.0 * params.spring_k * deg

    sbar = max(float(boundary_frame(mesh, x0).length.mean()), 1e-300)
    w = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(nb))
    symbol = 2.0 * params.alpha * w**2 / sbar**3
    symbol = symbol + 2.0 * params.edge_penalty_k * w  # boundary edge chain
    symbol = symbol + diag[loop].mean()     # spokes anchoring the loop

    top = max(diag.max(), symbol.max())
    if top <= 0.0:
        return None
    diag = np.maximum(diag, 1e-12 * top)
    symbol = np.maximum(symbol, 1e-12 * top)
    inv_diag = (1.0 / diag)[:, None]
    inv_symbol = (1.0 / symbol)[:, None]

    def apply(g):
        z = g * inv_diag
        gb = np.fft.rfft(g[loop], axis=0)
        z[loop] = np.fft.irfft(gb * inv_symbol, n=nb, axis=0)
        return z

    return apply


def minimize(mesh, x0, params, opts=None, log_stream=None):
    """Minimize the discrete energy from x0; deterministic for fixed inputs.

    log_stream, when given, receives one CSV row per iteration.
    """
    opts = opts or MinimizeOptions()
    x = np.array(x0, dtype=float)

    L = params.target_length
    gscale = params.spring_k * L + params.alpha / L**2
    if gscale == 0.0:
        gscale = 1.0
    gtol = opts.gradient_tolerance * gscale

    # The line search always returns the most recently evaluated point, so
    # this cell holds the breakdown matching each accepted iterate.
    last_fb = [None]

    def fun(xc):
        fb, g = energy_and_gradient(mesh, xc, params)
        _check_finite(fb.total, g)
        last_fb[0] = fb
        return fb.total, g

    log_cb = None
    if log_stream is not None:
        log_stream.write(_LOG_HEADER)

        def log_cb(it, f, ginf):
            blen_err = abs(last_fb[0].boundary_length - L)
            log_stream.write("%d,%.17g,%.17g,%.17g\n" % (it, f, ginf, blen_err))

    minv = make_preconditioner(mesh, x, params)
    x_fin, f_fin, g_fin, it, status, fhist, ghist = minimize_function(
        fun, x, opts, gtol, step_scale=L, callback=log_cb, minv=minv)
    fb_fin, _ = energy_and_gradient(mesh, x_fin, params)
    return MinimizeResult(
        x=x_fin, energy=fb_fin, iterations=it, converged=(status == "converged"),
        status=status, gradient_norm_history=ghist, energy_history=fhist,
        params=params, penalty_rounds=0,
        length_error=abs(fb_fin.boundary_length - L) / L)


def _wolfe_search(fun, x, d, f0, dphi0, a0, c1, c2,
                  max_bracket=30, max_zoom=40):
    """Strong-Wolfe line search along d; returns (a, x, f, g, dphi)."""

    def phi(a):
        xa = x + a * d
        fa, ga = fun(xa)
        return xa, fa, ga, float(ga.ravel() @ d.ravel())

    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    a = a0
    for i in range(max_bracket):
        xa, fa, ga, dphia = phi(a)
        if fa > f0 + c1 * a * dphi0 or (i > 0 and fa >= f_prev):
            return _zoom(phi, f0, dphi0, a_prev, f_prev, dphi_prev,
                         a, fa, dphia, c1, c2, max_zoom)
        if abs(dphia) <= -c2 * dphi0:
            return a, xa, fa, ga, dphia
        if dphia >= 0.0:
            return _zoom(phi, f0, dphi0, a, fa, dphia,
                         a_prev, f_prev, dphi_prev, c1, c2, max_zoom)
        a_prev, f_prev, dphi_prev = a, fa, dphia
        a *= 2.0
    return None


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic matching values/slopes at a and b, or None."""
    with np.errstate(all="ignore"):
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        disc = d1 * d1 - da * db
        if disc < 0.0:
            return None
        s = np.sqrt(disc) * np.sign(b - a)
        denom = db - da + 2.0 * s
        if denom == 0.0:
            return None
        am = b - (b - a) * (db + s - d1) / denom
    return am if np.isfinite(am) else None


def _zoom(phi, f0, dphi0, lo, f_lo, d_lo, hi, f_hi, d_hi, c1, c2, max_zoom):
    for _ in range(max_zoom):
        if abs(hi - lo) <= 1e-12 * max(abs(lo), abs(hi)):
            return None
        a = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
        lo_, hi_ = min(lo, hi), max(lo, hi)
        safety = 0.1 * (hi_ - lo_)
        if a is None or not (lo_ + safety <= a <= hi_ - safety):
            a = 0.5 * (lo + hi)
        xa, fa, ga, dphia = phi(a)
        if fa > f0 + c1 * a * dphi0 or fa >= f_lo:
            hi, f_hi, d_hi = a, fa, dphia
        else:
            if abs(dphia) <= -c2 * dphi0:
                return a, xa, fa, ga, dphia
            if dphia * (hi - lo) >= 0.0:
                hi, f_hi, d_hi = lo, f_lo, d_lo
            lo, f_lo, d_lo = a, fa, dphia
    return None


def relax(mesh, x0, params, opts=None, max_rounds=5, log_stream=None):
    """Minimize with automatic boundary-length penalty escalation.

    If params.length_penalty_k is 0 a starting stiffness of
    100 * (spring_k + alpha / L^3) is chosen; it is multiplied by 10 after
    every round whose boundary length misses the target by more than
    LENGTH_TOL relative, for at most max_rounds (>= 1) rounds.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    opts = opts or MinimizeOptions()
    p = params
    L = p.target_length
    stiffness = p.spring_k + p.alpha / L**3
    if p.length_penalty_k == 0.0:
        p = replace(p, length_penalty_k=100.0 * stiffness)
    if p.edge_penalty_k == 0.0:
        # suppresses tangential crowding of boundary vertices; the global
        # term alone leaves that mode free and the spring energy abuses it
        p = replace(p, edge_penalty_k=100.0 * stiffness)

    x = np.array(x0, dtype=float)
    total_iters = 0
    for rnd in range(1, max_rounds + 1):
        res = minimize(mesh, x, p, opts, log_stream=log_stream)
        total_iters += res.iterations
        x = res.x
        err = res.length_error
        logger.debug("penalty round %d: length error %.3g, status %s",
                     rnd, err, res.status)
        if err < LENGTH_TOL:
            break
        p = replace(p, length_penalty_k=10.0 * p.length_penalty_k)

    res.iterations = total_iters
    res.penalty_rounds = rnd
    return res


def polish(mesh, x0, params, iterations=400):
    """Gradient-only refinement of an already minimized configuration.

    A Wolfe search compares energies, so it stops resolving steps once the
    energy decrease falls below machine epsilon times the energy, which
    leaves displacement residuals of order sqrt(eps).  Gradient components
    are plain sums with no such cancellation floor, so within the quadratic
    basin a preconditioned CG whose line search is a single secant step on
    the directional derivative keeps converging down to the gradient
    rounding level.  Returns the iterate with the smallest gradient
    infinity norm encountered; status is "polished".
    """
    x = np.array(x0, dtype=float)

    def grad(xc):
        fb, g = energy_and_gradient(mesh, xc, params)
        _check_finite(fb.total, g)
        return g

    minv = make_preconditioner(mesh, x, params)
    apply_minv = minv if minv is not None else (lambda g: g)

    g = grad(x)
    z = apply_minv(g)
    gz = float(g.ravel() @ z.ravel())
    d = -z
    ginf = float(np.max(np.abs(g)))
    best_x, best_ginf = x.copy(), ginf
    ghist = [ginf]

    L = params.target_length
    a_prev = 0.01 * L / max(float(np.linalg.norm(d.ravel())), 1e-300)
    for it in range(iterations):
        dphi0 = float(g.ravel() @ d.ravel())
        if dphi0 >= 0.0:
            d = -z
            dphi0 = -gz
        if dphi0 == 0.0:
            break
        g_probe = grad(x + a_prev * d)
        dphi1 = float(g_probe.ravel() @ d.ravel())
        denom = dphi0 - dphi1
        if denom >= -1e-12 * abs(dphi0):    # no usable positive curvature
            a = a_prev
        else:
            a = float(np.clip(a_prev * dphi0 / denom,
                              1e-3 * a_prev, 1e3 * a_prev))
        x = x + a * d
        g_new = grad(x)
        z_new = apply_minv(g_new)
        gz_new = float(g_new.ravel() @ z_new.ravel())
        beta = max(0.0, float((z_new - z).ravel() @ g_new.ravel()) / gz)
        if (it + 1) % RESTART_INTERVAL == 0:
            beta = 0.0
        d = -z_new + beta * d
        g, z, gz, a_prev = g_new, z_new, gz_new, a
        ginf = float(np.max(np.abs(g)))
        ghist.append(ginf)
        if ginf < best_ginf:
            best_ginf = ginf
            best_x = x.copy()

    fb, g_best = energy_and_gradient(mesh, best_x, params)
    return MinimizeResult(
        x=best_x, energy=fb, iterations=len(ghist) - 1,
        converged=best_ginf <= ghist[0], status="polished",
        gradient_norm_history=np.array(ghist), energy_history=np.array([fb.total]),
        params=params, penalty_rounds=0,
        length_error=abs(fb.boundary_length - params.target_length) / params.target_length)
