"""Energy minimization by limited-memory BFGS under a length constraint.

L-BFGS directions (Nocedal, Math. Comp. 35 (1980) 773; Liu & Nocedal,
Math. Prog. 45 (1989) 503): the two-loop recursion over the last
LBFGS_MEMORY step / gradient-change pairs, started from the preconditioner
below, with a strong-Wolfe cubic-interpolation line search (constants
WOLFE_C1, WOLFE_C2) that first tries the unit step, and a scale-aware
gradient tolerance:

    converged  iff  ||g||_inf <= gradient_tolerance * (spring_k * L + alpha / L^2)

so the stopping rule is invariant under rescaling the energy unit.  The
search compares energies only to within their rounding, ENERGY_ROUNDING *
|f| (Hager & Zhang, SIAM J. Optim. 16 (2005) 170): below that the
gradient-only curvature test decides, so the one search runs every
iteration, down to tolerances under the energy's resolution.  A direction
that does not descend, or a failed line search, clears the memory and
retries from preconditioned steepest descent; a search that fails again
ends the solve, relax's remaining penalty rounds included, with status
line_search_failed.  A gradient that cannot reach the tolerance ends a
round with that status too: from the first accepted step that does not
lower the energy, the round has FINISH_ITERATIONS more iterations, and
relax goes on to its next penalty round, if any.  Every evaluation,
line-search trials included, gets one finiteness check, isfinite(f) and
isfinite(max |g|) (max propagates NaN), and a non-finite energy or
gradient aborts with NumericalError.

The loop keeps its state as one flat float64 vector and reshapes only to
call the objective, the preconditioner and the callback, and to return.
The pairs live in a ring of two preallocated (LBFGS_MEMORY, n) arrays plus
their 1 / s.y, and the two-loop recursion updates its work vector in place
with BLAS ddot / daxpy.  Those come from scipy.linalg.blas, imported by
minimize_function and make_preconditioner when they run (a command that
solves nothing loads no scipy module) and passed on to the pair ring and
the line search; daxpy fuses its multiply-add, so b + c * a would not give
its bits, and np.dot gives ddot's at three times its per-call cost.

The vertex-wise bending stiffness grows like alpha / spacing^3, so at fine
boundary resolution the Hessian spectrum spans six or more decades.
Each round therefore starts the L-BFGS recursion from the inverse
(make_preconditioner) of a circulant bending + edge-penalty + film operator
along the boundary loop, plus the length penalty's rank-one stiffness,
built from the starting configuration; the circulant inverse is one dense
B x B matrix (mesh.circulant), built once per round, and the rank-one term
joins it by Sherman-Morrison, so an apply is one small matrix product and
one scaled vector.  Convergence is still judged on the raw gradient.  That
operator is already the problem's stiffness, so it is used unscaled: the
textbook scaling s.y / y.M^{-1}y would apply it a second time.

relax() holds the boundary length with an augmented Lagrangian (Nocedal &
Wright, Numerical Optimization, ch. 17): between rounds the length
multiplier moves by 2 mu (l - L), and the quadratic stiffness mu grows
tenfold only when a round cut the length error by less than a factor 4,
until the boundary length matches its target to LENGTH_TOL relative,
MAX_PENALTY_ROUNDS rounds have run, or a round's search stalls with an
empty memory.  A caller that starts the multiplier near its final value
(the sweep's warm start) usually needs one round.
Its result carries the line tension beta, the length constraint's
multiplier.  relax solves on the loop alone (mesh.TriMesh.loop_film) and
is the one solve entry point; minimize_function is its L-BFGS core on a
generic objective.

Nothing here perturbs its input: callers that need to break the planar
symmetry (the sweep driver, the relax command) apply perturb() first, with
half-width KICK_AMPLITUDE.
"""

import dataclasses
import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .energy import energy_and_gradient
from .mesh import boundary_frame, circulant, film_operator

logger = logging.getLogger(__name__)

_LOG_HEADER = "iteration,total_energy,gradient_inf_norm,boundary_length_error\n"


class NumericalError(RuntimeError):
    """Energy or gradient became non-finite during minimization."""


# strong-Wolfe constants (sufficient decrease, curvature; the usual
# quasi-Newton values, Nocedal & Wright sec. 3.1), caps on one search's steps
# (beside each, the most the benchmark's sweep_elongated at seeds 0-9 and
# relax_ladder take) and the number of (s, y) pairs the L-BFGS directions
# remember
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
WOLFE_MAX_BRACKET = 30          # trial steps while bracketing: 5
WOLFE_MAX_ZOOM = 40             # interpolations inside the bracket: 3
LBFGS_MEMORY = 8

# relative boundary-length error a relaxed state must reach
LENGTH_TOL = 1e-3

# most iterations after the first accepted step that does not lower the energy
FINISH_ITERATIONS = 400

# the line search's energy comparisons allow this much relative to |f0|, the
# energy's rounding, below which the curvature test, reading only the
# gradient, decides the step (Hager & Zhang, SIAM J. Optim. 16 (2005) 170).
# On cold relaxes at rings 4-32 some searches still stalled at 1e-15
# (4.5 eps) and none at 64 eps, and every solve's status was the same for
# allowances from 1e-15 to 2.5e-13
ENERGY_ROUNDING = 64.0 * np.finfo(float).eps

# most augmented-Lagrangian rounds of one relax
MAX_PENALTY_ROUNDS = 5


# half-width of the transverse kick before a solve: 1e-3 R, R = L / 2pi, L = 1
KICK_AMPLITUDE = 1e-3 / (2.0 * np.pi)


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
    status: str                      # converged | max_iterations |
                                     # line_search_failed | max_penalty_rounds
    params: object                   # EnergyParams of the last penalty round
    penalty_rounds: int
    function_evals: int              # energy_and_gradient calls of the solve
    length_error: float
    line_tension: float              # beta, the length constraint's multiplier

    @property
    def converged(self):
        return self.status == "converged"


def perturb(x, amplitude, seed):
    """Add independent uniform noise in [-amplitude, amplitude] to every z."""
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    out = np.array(x, dtype=float)
    rng = np.random.default_rng(seed)
    out[:, 2] += rng.uniform(-amplitude, amplitude, len(out))
    return out


class _Total(float):
    """A total energy that carries its EnergyBreakdown as parts."""


class _Objective:
    """fun(x) -> (total energy, gradient) of the mesh energy; the total is
    a _Total, so whichever iterate minimize_function returns brings the
    breakdown computed when it was accepted.  Counts its
    energy_and_gradient calls in evals."""

    def __init__(self, mesh, params):
        self.mesh, self.params = mesh, params
        self.evals = 0

    def __call__(self, x):
        fb, g = energy_and_gradient(self.mesh, x, self.params)
        self.evals += 1
        f = _Total(fb.total)
        f.parts = fb
        return f, g


def minimize_function(fun, x0, opts, gtol_abs, step_scale=1.0, callback=None,
                      minv=None):
    """Limited-memory BFGS core on a generic objective fun(x) -> (value, grad).

    Directions come from the two-loop recursion over the last LBFGS_MEMORY
    pairs (s, y) = (step, gradient change), pairs with s.y <= 0 skipped;
    stops when the raw gradient infinity norm reaches gtol_abs.  minv, when
    given, is a callable g -> M^{-1} g applying a positive-definite inverse
    preconditioner, used unscaled as the recursion's starting inverse
    Hessian (the identity without it).  Steps come from the strong-Wolfe
    search, whose first trial is the unit step, or a move of 0.01 *
    step_scale when the memory is empty.  A direction that does not
    descend, or a stalled search, clears the memory; a search that stalls
    with an empty memory returns the current iterate with status
    search_stalled, and the FINISH_ITERATIONS-th iteration after the first
    accepted step that did not lower the value returns with status
    line_search_failed.  Every evaluation, line-search trials included,
    raises NumericalError when the value or the gradient is not finite;
    that check's max |g| is the accepted iterate's ginf.  callback(it, x, f, ginf) runs per accepted
    iterate, the start included (it = 0).  Returns (x, f, grad,
    iterations, status); f is the value fun returned at x.

    The loop runs on one flat float64 copy of x0; fun, minv and callback
    see, and the returned x and grad have, the shape of x0.
    """
    from scipy.linalg.blas import daxpy, ddot

    shape = np.shape(x0)

    def evaluate(v):
        f, g = fun(v.reshape(shape))
        g = g.reshape(-1)
        ginf = float(np.abs(g).max())
        if not (math.isfinite(f) and math.isfinite(ginf)):
            raise NumericalError("non-finite energy or gradient")
        return f, g, ginf

    def apply_minv(v):
        return v if minv is None else minv(v.reshape(shape)).reshape(-1)

    x = np.array(x0, dtype=float, order="C").reshape(-1)
    f, g, ginf = evaluate(x)
    pairs = _PairRing(len(x), ddot, daxpy)

    if callback is not None:
        callback(0, x.reshape(shape), f, ginf)

    it, limit, limit_status = 0, opts.max_iterations, "max_iterations"
    while True:
        if ginf <= gtol_abs:
            status = "converged"
            break
        if it >= limit:
            status = limit_status
            break

        d = pairs.direction(g, apply_minv)
        dphi0 = ddot(g, d)
        if dphi0 >= 0.0:                    # not a descent direction, reset
            pairs.clear()
            d = -apply_minv(g)
            dphi0 = ddot(g, d)

        a0 = 1.0
        if not pairs.count:
            # move a small fraction of the problem length scale
            a0 = 0.01 * step_scale / max(float(np.linalg.norm(d)), 1e-300)
        ls = _wolfe_search(evaluate, x, d, f, dphi0, a0, ddot)
        if ls is None:
            if pairs.count:
                # retry once from preconditioned steepest descent
                logger.debug("line search stalled at iteration %d", it)
                pairs.clear()
                continue
            logger.debug("line search failed at iteration %d", it)
            status = "search_stalled"
            break
        x_new, f_new, (_, g_new, ginf) = ls[1:4]
        pairs.push(x_new - x, g_new - g)
        it += 1
        if f_new >= f and it + FINISH_ITERATIONS < limit:
            # the energy no longer falls: FINISH_ITERATIONS more at most
            limit, limit_status = it + FINISH_ITERATIONS, "line_search_failed"
        x, f, g = x_new, f_new, g_new

        if callback is not None:
            callback(it, x.reshape(shape), f, ginf)

    return x.reshape(shape), f, g.reshape(shape), it, status


class _PairRing:
    """The last LBFGS_MEMORY step / gradient-change pairs (s, y) with
    s.y > 0, as rows of two preallocated (LBFGS_MEMORY, n) arrays used as a
    ring, with rho = 1 / s.y; direction() is the two-loop recursion, with
    the BLAS ddot and daxpy given."""

    def __init__(self, n, ddot, daxpy):
        self.n = n
        self.ddot, self.daxpy = ddot, daxpy
        self.s = list(np.empty((LBFGS_MEMORY, n)))      # row views
        self.y = list(np.empty((LBFGS_MEMORY, n)))
        self.rho = [0.0] * LBFGS_MEMORY
        self.q = np.empty(n)            # the recursion's work vector
        self.count = 0                  # pairs held
        self.next = 0                   # row the next pair goes to

    def clear(self):
        self.count = 0

    def push(self, s, y):
        """Keep (s, y) unless s.y <= 0; the oldest pair leaves a full ring."""
        sy = self.ddot(s, y)
        if sy > 0.0:
            k = self.next
            self.s[k][:] = s
            self.y[k][:] = y
            self.rho[k] = 1.0 / sy
            self.next = (k + 1) % LBFGS_MEMORY
            self.count = min(self.count + 1, LBFGS_MEMORY)

    def direction(self, g, apply_minv):
        """L-BFGS direction -H g by the two-loop recursion (Nocedal & Wright,
        Alg. 7.4) with starting inverse Hessian apply_minv, updated in
        place by BLAS daxpy."""
        s, y, rho, n = self.s, self.y, self.rho, self.n
        ddot, daxpy = self.ddot, self.daxpy
        newest_first = [(self.next - 1 - i) % LBFGS_MEMORY
                        for i in range(self.count)]
        # the recursion is linear, so running it on -g yields -H g directly
        alpha = {}
        q = np.negative(g, out=self.q)
        for k in newest_first:
            alpha[k] = a = rho[k] * ddot(s[k], q)
            q = daxpy(y[k], q, n, -a)       # positional: no keyword parsing
        r = apply_minv(q)
        for k in reversed(newest_first):
            r = daxpy(s[k], r, n, alpha[k] - rho[k] * ddot(y[k], r))
        return r


def make_preconditioner(mesh, x0, params):
    """Inverse-stiffness operator of a boundary circulant plus the length
    penalty's rank-one stiffness; returns a callable g -> M^{-1} g, or None
    when the energy has no stiffness.

    The boundary bending energy is, for near-uniform spacing s, a periodic
    fourth-difference operator with Fourier symbol 2*alpha*(2-2cos(theta))^2
    / s^3 whose eigenvalue spread scales like (B/2pi)^4; no diagonal can
    flatten that, but the exact circulant inverse applied along the loop
    index does.  The symbol adds the edge chain and the film: 2k rfft(c),
    with c the first column of mesh.film_operator(B) (exactly
    2k * 2 sqrt(3) pi |m| / B), except at m = 0, the translations, where it
    takes the mean of the film's diagonal.  The circulant inverse C^{-1} is
    built once as a dense symmetric B x B matrix from its first column
    irfft(1 / symbol).
    The length penalty mu (l - L)^2 adds 2 mu u u^T, u = dl/dx_B =
    t_{v-1} - t_v, the loop's stiffest direction; Sherman-Morrison inverts
    C + 2 mu u u^T as C^{-1} g - coef (v.g) v with v = C^{-1} u and coef =
    2 mu / (1 + 2 mu u.v), so one apply is one small matrix product, one
    dot product and one scaled subtraction.  On a full mesh the loop rows
    are its loop mesh's (mesh.TriMesh.loop_mesh), and the other rows, where
    the energy has no stiffness, pass through; relax builds it on the loop
    mesh, and that branch stays for callers holding a full state, such as
    the benchmark's per-call probe on full rings-8/16/32 meshes.  All three
    coordinates share one scale per mode, so no orientation bias.  Built once from the
    starting geometry; a stale positive-definite scaling stays a valid
    preconditioner even after the shape evolves.
    """
    from scipy.linalg.blas import daxpy, ddot

    if not mesh.loop_only:
        loop = mesh.boundary_loop
        loop_rows = make_preconditioner(mesh.loop_mesh(),
                                        x0.take(loop, axis=0), params)
        if loop_rows is None:
            return None

        def apply(g):
            z = g.copy()
            z[loop] = loop_rows(g.take(loop, axis=0))
            return z

        return apply

    nb = mesh.vertex_count
    film = 0.0
    if params.spring_k > 0:
        op = film_operator(nb)
        film = 2.0 * params.spring_k * np.fft.rfft(op[:, 0]).real
        film[0] = (2.0 * params.spring_k * np.diag(op)).mean()

    frame = boundary_frame(mesh, x0)
    sbar = max(float(frame.length.mean()), 1e-300)
    w = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(nb))
    symbol = 2.0 * params.alpha * w**2 / sbar**3
    symbol = symbol + 2.0 * params.edge_penalty_k * w  # boundary edge chain
    symbol = symbol + film                  # the film anchoring the loop

    top = symbol.max()
    if top <= 0.0:
        return None
    symbol = np.maximum(symbol, 1e-12 * top)
    inv_circulant = circulant(np.fft.irfft(1.0 / symbol, n=nb))

    t = frame.edge / np.maximum(frame.length, 1e-300)
    u = (t.take(mesh.loop_prev, axis=1) - t).T.copy()   # (B, 3), C order
    v = (inv_circulant @ u).reshape(-1)
    mu2 = 2.0 * params.length_penalty_k
    coef = mu2 / (1.0 + mu2 * ddot(u.reshape(-1), v))

    def apply(gb):
        z = inv_circulant @ gb
        # z -= coef (v.g) v, in place on z's flat view
        daxpy(v, z.reshape(-1), 3 * nb, -coef * ddot(v, gb.reshape(-1)))
        return z

    return apply


def _log_writer(stream):
    """Write the iteration-log CSV header to stream; returns the row writer
    row(it, f, ginf, length_error)."""
    stream.write(_LOG_HEADER)

    def row(it, f, ginf, blen_err):
        stream.write("%d,%.17g,%.17g,%.17g\n" % (it, f, ginf, blen_err))

    return row


def _line_tension(mesh, fb, params):
    """Boundary line tension beta at a minimum of the penalized energy.

    The length terms pull on the loop with multiplier + 2 k (l - L) through
    the total length l and with 2 k_e (s_i - L/B) through each edge; the
    mean of the latter over the B edges is 2 k_e (l - L) / B.
    """
    excess = fb.boundary_length - params.target_length
    nb = len(mesh.boundary_loop)
    return (params.length_multiplier
            + 2.0 * params.length_penalty_k * excess
            + 2.0 * params.edge_penalty_k * excess / nb)


def _wolfe_search(fun, x, d, f0, dphi0, a0, ddot):
    """Strong-Wolfe line search along d (WOLFE_C1, WOLFE_C2, and at most
    WOLFE_MAX_BRACKET doubling trials, then WOLFE_MAX_ZOOM interpolations)
    for fun(x) -> (f, g, ...), whose energy comparisons allow
    ENERGY_ROUNDING * |f0|; slopes are ddot(g, d).
    Returns (a, x, f, fun(x), dphi) at the accepted point, or None."""
    tol = ENERGY_ROUNDING * abs(f0)

    def phi(a):
        xa = x + a * d
        ea = fun(xa)
        return xa, ea[0], ea, ddot(ea[1], d)

    def zoom(lo, f_lo, d_lo, hi, f_hi, d_hi):
        for _ in range(WOLFE_MAX_ZOOM):
            if abs(hi - lo) <= 1e-12 * max(abs(lo), abs(hi)):
                return None
            a = _cubic_min(lo, f_lo, d_lo, hi, f_hi, d_hi)
            lo_, hi_ = min(lo, hi), max(lo, hi)
            safety = 0.1 * (hi_ - lo_)
            if a is None or not (lo_ + safety <= a <= hi_ - safety):
                a = 0.5 * (lo + hi)
            xa, fa, ea, dphia = phi(a)
            if fa > f0 + WOLFE_C1 * a * dphi0 + tol or fa >= f_lo + tol:
                hi, f_hi, d_hi = a, fa, dphia
            else:
                if abs(dphia) <= -WOLFE_C2 * dphi0:
                    return a, xa, fa, ea, dphia
                if dphia * (hi - lo) >= 0.0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = a, fa, dphia
        return None

    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    a = a0
    for i in range(WOLFE_MAX_BRACKET):
        xa, fa, ea, dphia = phi(a)
        if (fa > f0 + WOLFE_C1 * a * dphi0 + tol
                or (i > 0 and fa >= f_prev + tol)):
            return zoom(a_prev, f_prev, dphi_prev, a, fa, dphia)
        if abs(dphia) <= -WOLFE_C2 * dphi0:
            return a, xa, fa, ea, dphia
        if dphia >= 0.0:
            return zoom(a, fa, dphia, a_prev, f_prev, dphi_prev)
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


def relax(mesh, x0, params, opts=None, log_stream=None):
    """Minimize with the boundary length held by an augmented Lagrangian.

    The solve runs on the loop alone: the rounds minimize over the B
    boundary positions of x0 on mesh.loop_film()'s loop mesh, whose spring
    term is the closed-form film k x_B^T (2 sqrt(3) D) x_B, and the result
    is the extension of the last iterate, whose interior is the harmonic
    disk spanning it (mesh.TriMesh.loop_film).  So the result depends on
    x0 only through its boundary loop.
    The result's energy is the last round's breakdown on the loop mesh, the
    energy the rounds minimized, and function_evals counts the loop-mesh
    calls of all rounds.

    If params.length_penalty_k (mu) is 0 a starting stiffness of
    100 * (spring_k + alpha / L^3) is chosen (edge_penalty_k's too;
    ValueError if it is not finite).  After every round whose
    boundary length l misses the target by more than LENGTH_TOL relative,
    the multiplier becomes length_multiplier + 2 mu (l - L), and mu is
    multiplied by 10 unless the length error fell below a quarter of the
    previous round's; at most MAX_PENALTY_ROUNDS rounds.  A round whose
    search stalls with an empty memory ends the relax line_search_failed
    and leaves the multiplier as it was; a round that ends
    line_search_failed on its FINISH_ITERATIONS budget is followed by the
    next round, whose new multiplier and stiffness change the objective.
    A last round that converges with the length still off returns
    converged False and status max_penalty_rounds.  params'
    length_multiplier is the first round's multiplier, so a caller
    continuing from a nearby solve can warm-start it; the result's params
    hold the last round's multiplier and stiffness.

    log_stream, when given, receives one CSV for the whole relax: one
    header, and an iteration column that counts on across rounds.  A later
    round starts from the previous round's last iterate, whose number is
    already logged, so that round's starting row is left out.
    """
    opts = opts or MinimizeOptions()
    p = params
    L = p.target_length
    stiffness = 100.0 * (p.spring_k + p.alpha / L**3)
    chosen = p.length_penalty_k == 0.0 or p.edge_penalty_k == 0.0
    if chosen and not math.isfinite(stiffness):
        raise ValueError(f"the starting penalty 100 * (spring_k + alpha / "
                         f"L^3) is not finite: spring_k = {p.spring_k!r}, "
                         f"alpha / L^3 = {p.alpha / L**3!r}")
    if p.length_penalty_k == 0.0:
        p = replace(p, length_penalty_k=stiffness)
    if p.edge_penalty_k == 0.0:
        # suppresses tangential crowding of boundary vertices; the global
        # term alone leaves that mode free and the film term abuses it
        p = replace(p, edge_penalty_k=stiffness)
    gscale = p.spring_k * L + p.alpha / L**2
    gtol = opts.gradient_tolerance * (gscale if gscale != 0.0 else 1.0)

    loop_mesh, extend = mesh.loop_film()
    x = np.array(x0, dtype=float).take(mesh.boundary_loop, axis=0)
    total_iters = total_evals = 0
    log_cb = None
    if log_stream is not None:
        write_row = _log_writer(log_stream)

        def log_cb(it, x, f, ginf):
            if it or rnd == 1:
                write_row(total_iters + it, f, ginf,
                          abs(f.parts.boundary_length - L))

    prev_err = np.inf
    for rnd in range(1, MAX_PENALTY_ROUNDS + 1):
        fun = _Objective(loop_mesh, p)
        x, f, _, it, status = minimize_function(
            fun, x, opts, gtol, step_scale=L, callback=log_cb,
            minv=make_preconditioner(loop_mesh, x, p))
        total_iters += it
        total_evals += fun.evals
        fb = f.parts
        err = abs(fb.boundary_length - L) / L
        logger.debug("penalty round %d: length error %.3g, status %s",
                     rnd, err, status)
        if status == "search_stalled":
            status = "line_search_failed"
            break
        if err < LENGTH_TOL or rnd == MAX_PENALTY_ROUNDS:
            break
        mu = p.length_penalty_k
        lam = p.length_multiplier + 2.0 * mu * (fb.boundary_length - L)
        if err >= 0.25 * prev_err:
            mu *= 10.0
        p = replace(p, length_penalty_k=mu, length_multiplier=lam)
        prev_err = err

    if status == "converged" and err >= LENGTH_TOL:
        status = "max_penalty_rounds"
    return MinimizeResult(
        x=extend(x), energy=fb, iterations=total_iters, status=status,
        params=p, penalty_rounds=rnd, function_evals=total_evals,
        length_error=err, line_tension=_line_tension(loop_mesh, fb, p))
