"""One-parameter twisted-saddle trial family and its weakly nonlinear theory.

The family

    x = r (1 + t^2) cos(phi),  y = r (1 - t^2) sin(phi),  z = t (r^2/R) sin(2 phi)

interpolates between a flat disk of radius R (t = 0) and a flat figure-eight
bounded by a lemniscate of Gerono (t = +-1); t -> -t flips handedness.  For
small t it models the twisted shape at the onset of non-planarity.

The `asymptotic` table pairs the constrained energy series below with
quadratures of the exact embedding, and the tests pair every other series
expression (metric, boundary arc length and curvature, energy, boundary
length, leading-order curvatures), which they hold, with the same
quadratures, because small coefficient mistakes in the series are the
main risk.  The integrands are scalar closed forms of the embedding, not of
the series, built on its normal

    x_r x x_phi = r (-(2tbr/R) sin phi, -(2tar/R) cos phi, ab),
    a = 1 + t^2,  b = 1 - t^2

(do Carmo, Differential Geometry of Curves and Surfaces, 3-3 and 4-4), and
on the boundary curve's c', c'' and c' x c''.  On the disk,
dA = r sqrt(Q) dr dphi and, since (n.x_rr)(n.x_phiphi) - (n.x_rphi)^2
= -4 t^2 A^2 r^4 / R^2 for n = x_r x x_phi, K dA = -(2tA/R)^2 r Q^(-3/2)
dr dphi, with A = ab and

    Q = |x_r x x_phi|^2 / r^2 = A^2 + (2tr/R)^2 W,
    W = (b sin phi)^2 + (a cos phi)^2.

Q is linear in r^2, so with X = Q(R) = A^2 + 4 t^2 W (the boundary's
N^2 below) both radial integrals are elementary:

    int_0^R r sqrt(Q) dr   = R^2 (X + A sqrt(X) + A^2) / (3 (sqrt(X) + A)),
    int_0^R r Q^(-3/2) dr  = R^2 / (A sqrt(X) (sqrt(X) + A)),

written without the factor 1 / (X - A^2) = 1 / (4 t^2 W) of the
substitution u = Q, so they hold at t = 0.  Every quadrature is then a
1-D integral in phi at one fixed resolution, whose measured accuracy is
given with the resolution constants below.  All the integrands are
invariant under phi -> -phi and phi -> pi - phi, so each samples one
quarter of the phi period.  The table (family_table) takes its rows in
blocks: a SaddleFamily may hold t and R as (rows, 1) columns, which each
integrand reads as it reads one family's floats, so one array pass
evaluates a block.  Every square of t, R or a factor of them is a product,
t * t, or np.square of a node array (for a float, t**2 is libm's pow,
which rounds otherwise than t * t), so every row keeps the bits its
family's own quadratures give.

Eliminating R through the boundary-length series L = pi R (2 + 2 t^2 - t^4)
turns the energy into a quartic in t whose stationarity condition

    t (96 pi^3 - gamma) + (2/3) gamma t^3 = 0

is a supercritical pitchfork with threshold gamma = 96 pi^3 and amplitude
t = sqrt(3 (gamma - 96 pi^3) / (2 gamma)) above it.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import generate_disk_mesh


@dataclass(frozen=True)
class SaddleFamily:
    """Radial scale R and family parameter t in [-1, 1]: floats for one
    family, or equal-shaped (rows, 1) columns for a block of families, one
    a row.  Given a block, each quadrature returns an array of one value a
    family, in order, each with the bits of that family's own quadrature.
    """

    R: float
    t: float

    def __post_init__(self):
        for name in ("R", "t"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if np.shape(self.R) != np.shape(self.t):
            raise ValueError("R and t must have one shape")
        if np.any(self.R <= 0):
            raise ValueError("R must be positive")
        if np.any(abs(self.t) > 1.0):
            raise ValueError("t must lie in [-1, 1]")

    @functools.cached_property
    def _sample(self):
        """Read-only (|c'|^2, |c'|, N) at the _trapezoid_quarter(PHI_PANELS)
        nodes, computed once and shared by the five trapezoid quadratures
        of the family (one table row) or block (one row a family)."""
        tr = _trapezoid_quarter(PHI_PANELS)[0]
        sp2 = _speed_sq(self, tr)
        return _read_only((sp2, np.sqrt(sp2), _boundary_normal(self, tr)))


# ---------------------------------------------------------------------------
# embedding


def family_point(fam, r, phi):
    """Embedding of the family surface; broadcasts over r and phi."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    t = fam.t
    x = r * (1.0 + t**2) * np.cos(phi)
    y = r * (1.0 - t**2) * np.sin(phi)
    z = t * (r**2 / fam.R) * np.sin(2.0 * phi)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


# ---------------------------------------------------------------------------
# quadratures at one fixed resolution

# All table quadratures but |kappa_n|'s are periodic trapezoid sums in phi
# over PHI_PANELS panels, which converge exponentially for smooth periodic
# integrands (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The disk and
# boundary integrands are all invariant under phi -> -phi and
# phi -> pi - phi, so each sum is taken exactly over the closed quarter
# (PHI_PANELS must stay divisible by 4).  Over the default table range
# (t = 0 to 0.87) 1024 panels move no integral by more than 2.2e-15
# relative against 2048, and the two integral-of-K routes agree to 3.6e-15;
# at t = 0.98, 1024 panels move the integral of K by 1.1e-13 relative.
# |kappa_n| has kinks where kappa_n changes sign, which is exactly at
# phi = 0, pi/2, pi, 3pi/2, so its integral is 4 times a Gauss-Legendre
# integral over the first quarter with KN_QUARTER_NODES nodes (against 256
# nodes the difference is below 1e-12).
PHI_PANELS = 2048
KN_QUARTER_NODES = 64
# largest amplitude t the table accepts, which fixes the gamma range of
# `asymptotic`: the last t on a 0.01 grid at which the two integral-of-K
# routes agree within 1e-12 relative.  They agree to 4.3e-16 at 0.97,
# 1.8e-15 at 0.98 and 1.2e-13 at 0.99 (3.6e-7 with 1024 panels), as X's
# dip toward the flat eight at t = 1 narrows to a width of order 1 - t^2
# around phi = pi/2, and t = 1 has no integral of K (N = 0 at phi = pi/2)
TABLE_T_MAX = 0.99


# rows of the asymptotic table evaluated together (family_table): a
# (rows, 513) array of a block is 32 x 513 x 8 B = 0.13 MB, and about six
# are live at once, so a table of any length allocates under 1 MB for its
# quadratures.  On the 50-row default table, 64 rows raised the benchmark
# pass's peak resident set by 1.4-1.7 MB and 32 rows by 0.5-0.7 MB, at
# the same speed within the host's noise
TABLE_BLOCK_ROWS = 32


class _Trig(NamedTuple):
    """sin and cos of phi and 2 phi at boundary nodes, and the two
    combinations u = sin phi cos 2phi - 2 cos phi sin 2phi and
    v = cos phi cos 2phi + 2 sin phi sin 2phi that c' x c'' is made of."""

    s: np.ndarray
    c: np.ndarray
    s2: np.ndarray
    c2: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _trig(phi):
    """_Trig of the boundary parameter phi (any shape)."""
    s, c = np.sin(phi), np.cos(phi)
    s2, c2 = np.sin(2.0 * phi), np.cos(2.0 * phi)
    return _Trig(s, c, s2, c2, s * c2 - 2.0 * c * s2, c * c2 + 2.0 * s * s2)


def _read_only(arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _trapezoid_quarter(n):
    """Read-only (_trig, weights) at phi_k = 2 pi k / n, k = 0 .. n / 4, the
    closed quarter [0, pi/2] of the n-panel trapezoid rule.  For an
    integrand invariant under phi -> -phi and phi -> pi - phi, the weighted
    sum times 2 pi / n is the full-period trapezoid sum: an end node stands
    for an orbit of 2 nodes (weight 2), an inner node for one of 4."""
    w = np.full(n // 4 + 1, 4.0)
    w[[0, -1]] = 2.0
    w.setflags(write=False)
    return _read_only(_trig(np.arange(n // 4 + 1) * (2.0 * np.pi / n))), w


@functools.lru_cache(maxsize=None)
def _gauss_quarter(n):
    """Read-only (_trig, weights) at the n Gauss-Legendre nodes of the
    quarter [0, pi/2], the weights those of [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    w.setflags(write=False)
    return _read_only(_trig(0.5 * (x + 1.0) * (0.5 * np.pi))), w


def _value(x):
    """A quadrature's result: a float for one family, the array of a
    block's rows as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _phi_sum(per_dphi):
    """PHI_PANELS-panel periodic trapezoid sum of a symmetric integrand
    given at the _trapezoid_quarter nodes, one sum a row of a block.
    np.vecdot takes each row's dot product as the one-row w @ row does (a
    matrix-vector product, block @ w, sums in another order)."""
    return _value(np.vecdot(per_dphi, _trapezoid_quarter(PHI_PANELS)[1])
                  * (2.0 * np.pi / PHI_PANELS))


# The boundary integrands, per dphi.  With A = R a, B = R b, T = t R the
# boundary is c = (A cos phi, B sin phi, T sin 2phi), so
# c' = (-A sin phi, B cos phi, 2T cos 2phi), c'' = -(A cos phi, B sin phi,
# 4T sin 2phi) and c' x c'' = (2BTu, -2ATv, AB).  The surface normal there
# is x_r x x_phi = R^2 (-2tb sin phi, -2ta cos phi, ab), of length R^2 N.
# kappa_n = c''.n / |c'|^2 and kappa_g = (c' x c'').n / |c'|^3, n the unit
# normal (the inward co-normal is n x c' / |c'|).


def _speed_sq(fam, tr):
    """|c'|^2 = (A sin phi)^2 + (B cos phi)^2 + (2T cos 2phi)^2."""
    t, R = fam.t, fam.R
    return (np.square(R * (1.0 + t * t) * tr.s)
            + np.square(R * (1.0 - t * t) * tr.c)
            + np.square(2.0 * t * R * tr.c2))


def _boundary_normal(fam, tr):
    """N = |x_r x x_phi| / R^2 at r = R
    = sqrt((2tb sin phi)^2 + (2ta cos phi)^2 + (ab)^2)."""
    t = fam.t
    a, b = 1.0 + t * t, 1.0 - t * t
    return np.sqrt(np.square(2.0 * t * b * tr.s)
                   + np.square(2.0 * t * a * tr.c) + (a * b) * (a * b))


def _kappa2_ds(fam, tr, sp2, sp):
    """kappa^2 ds / dphi = |c' x c''|^2 / |c'|^5
    = [(2BTu)^2 + (2ATv)^2 + (AB)^2] / |c'|^5, given sp2 = |c'|^2 and
    sp = |c'|."""
    t, R = fam.t, fam.R
    A, B, T = R * (1.0 + t * t), R * (1.0 - t * t), t * R
    return (np.square(2.0 * B * T * tr.u) + np.square(2.0 * A * T * tr.v)
            + (A * B) * (A * B)) / (sp2 * sp2 * sp)


def _kappa_g_ds(fam, tr, sp2, n):
    """kappa_g ds / dphi = (c' x c'').n / |c'|^2
    = R^2 [4t^2 (a^2 cos phi v - b^2 sin phi u) + (ab)^2] / (N |c'|^2),
    given sp2 = |c'|^2 and n = N."""
    t, R = fam.t, fam.R
    a, b = 1.0 + t * t, 1.0 - t * t
    return R * R * (4.0 * t * t * (a * a * tr.c * tr.v - b * b * tr.s * tr.u)
                    + (a * b) * (a * b)) / (n * sp2)


def _kappa_n_ds(fam, tr, sp, n):
    """kappa_n ds / dphi = c''.n / |c'| = -2tRab sin 2phi / (N |c'|), given
    sp = |c'| and n = N."""
    t = fam.t
    return -2.0 * t * fam.R * (1.0 + t * t) * (1.0 - t * t) * tr.s2 / (n * sp)


# The disk integrands, per dphi: the radial integrals over [0, R] of
# dA / (dr dphi) = r sqrt(Q) and K dA / (dr dphi) = -(2tab/R)^2 r / Q^(3/2)
# in closed form (module docstring), given n = N = sqrt(X).


def _area_dphi(fam, n):
    """R^2 (X + A N + A^2) / (3 (N + A)), A = ab."""
    t = fam.t
    ab = (1.0 + t * t) * (1.0 - t * t)
    return fam.R * fam.R * (n * n + ab * n + ab * ab) / (3.0 * (n + ab))


def _K_dA_dphi(fam, n):
    """-(2tA/R)^2 R^2 / (A N (N + A)) = -4 t^2 A / (N (N + A)), A = ab."""
    t = fam.t
    ab = (1.0 + t * t) * (1.0 - t * t)
    return -4.0 * t * t * ab / (n * (n + ab))


def length_quadrature(fam):
    """Boundary length by the periodic trapezoid rule."""
    return _phi_sum(fam._sample[1])


def area_quadrature(fam):
    """Surface area: closed form in r, periodic trapezoid rule in phi."""
    return _phi_sum(_area_dphi(fam, fam._sample[2]))


def bending_quadrature(fam):
    """Integral of kappa^2 ds around the boundary, from exact derivatives."""
    sp2, sp, _ = fam._sample
    return _phi_sum(_kappa2_ds(fam, _trapezoid_quarter(PHI_PANELS)[0],
                               sp2, sp))


def energy_quadrature(fam, sigma, alpha):
    """sigma * area + alpha * bending by quadrature (sigma may hold one
    value a row of a block)."""
    return sigma * area_quadrature(fam) + alpha * bending_quadrature(fam)


def int_K_quadrature(fam):
    """Integral of K dA from the second fundamental form of the embedding:
    closed form in r, periodic trapezoid rule in phi."""
    return _phi_sum(_K_dA_dphi(fam, fam._sample[2]))


def int_K_gauss_bonnet(fam):
    """Integral of K dA via 2 pi minus the integrated geodesic curvature.

    The value is 2 pi - (integral of kappa_g ds), so its error has an
    absolute floor of one ulp of 2 pi (8.9e-16) whatever the quadrature:
    4.1e-15 relative on the t = 0.135 row of the asymptotic table (value
    -0.216), more at smaller t.  A relative gate on the low-t rows of this
    column below that floor is a bit-identity gate.
    """
    sp2, _, n = fam._sample
    return 2.0 * np.pi - _phi_sum(_kappa_g_ds(
        fam, _trapezoid_quarter(PHI_PANELS)[0], sp2, n))


def int_abs_kn_quadrature(fam):
    """Integral of |kappa_n| ds around the boundary (exact curvatures).

    kappa_n keeps one sign on each quarter between phi = 0, pi/2, pi, 3pi/2,
    and |kappa_n| ds is invariant under phi -> -phi and phi -> pi - phi, so
    the integral is 4 |integral of kappa_n ds over [0, pi/2]|, a smooth
    Gauss-Legendre integral (pi/4 per unit weight, times 4 quarters).
    """
    tr, w = _gauss_quarter(KN_QUARTER_NODES)
    kn_ds = _kappa_n_ds(fam, tr, np.sqrt(_speed_sq(fam, tr)),
                        _boundary_normal(fam, tr))
    return _value(np.abs(np.vecdot(kn_ds, w)) * np.pi)


# ---------------------------------------------------------------------------
# length constraint and pitchfork


def radius_for_length(length, t):
    """R making the series boundary length equal `length` (linear in R)."""
    if length <= 0:
        raise ValueError("length must be positive")
    return length / (np.pi * (2.0 + 2.0 * t**2 - t**4))


def constrained_energy_series(length, t, sigma, alpha):
    """Series energy with R eliminated by the length constraint.

    Consistently truncated at fourth order this is the quartic

        (pi alpha / R0) (2 + 12 t^2) + pi sigma R0^2 (1 - t^2 + t^4 / 3),

    R0 = length / (2 pi), whose stationary points are exactly the roots of
    the pitchfork normal form.
    """
    r0 = length / (2.0 * np.pi)
    t = np.asarray(t, dtype=float)
    return (np.pi * alpha / r0) * (2.0 + 12.0 * t**2) \
        + np.pi * sigma * r0**2 * (1.0 - t**2 + t**4 / 3.0)


def gamma_star():
    """Pitchfork threshold of the trial family: 96 pi^3."""
    return 96.0 * np.pi**3


def pitchfork_amplitude(gamma):
    """Nonnegative root of t (96 pi^3 - gamma) + (2/3) gamma t^3 = 0."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    gs = gamma_star()
    if gamma <= gs:
        return 0.0
    return float(np.sqrt(3.0 * (gamma - gs) / (2.0 * gamma)))


# ---------------------------------------------------------------------------
# the asymptotic table

TABLE_COLUMNS = ("gamma", "t", "radius", "energy_series", "energy_quadrature",
                 "int_abs_kn", "mean_abs_kn", "int_K_quadrature",
                 "int_K_gauss_bonnet")


def family_table(gammas, length):
    """The series against the quadratures along the pitchfork branch, one
    row (TABLE_COLUMNS) a film tension gamma = sigma L^3 (alpha = 1): the
    amplitude t, the R of boundary length L = `length`, the constrained
    series energy and the quadrature energy, the integral of |kappa_n| ds
    and its mean over the boundary, and the two integrals of K.

    Yields the rows in (rows, 9) arrays of up to TABLE_BLOCK_ROWS, each
    block's quadratures taken once on a SaddleFamily of columns; t and R
    are computed a row at a time on floats, and every row has the bits of
    the one-family quadratures of its gamma.
    """
    gammas = np.asarray(gammas, dtype=float)
    for start in range(0, len(gammas), TABLE_BLOCK_ROWS):
        gamma = gammas[start:start + TABLE_BLOCK_ROWS]
        t = np.array([pitchfork_amplitude(g) for g in gamma.tolist()])
        R = np.array([radius_for_length(length, x) for x in t.tolist()])
        block = SaddleFamily(R=R[:, None], t=t[:, None])
        sigma = gamma / length**3
        int_abs_kn = int_abs_kn_quadrature(block)
        yield np.column_stack([
            gamma, t, R, constrained_energy_series(length, t, sigma, 1.0),
            energy_quadrature(block, sigma, 1.0), int_abs_kn,
            int_abs_kn / length_quadrature(block), int_K_quadrature(block),
            int_K_gauss_bonnet(block)])


# ---------------------------------------------------------------------------
# sampling the family onto a disk mesh


def _hexagon_radius(theta, m):
    """Distance from the center to the perimeter of a radius-m hexagon."""
    reduced = np.mod(theta, np.pi / 3.0) - np.pi / 6.0
    return (np.sqrt(3.0) / 2.0) * m / np.cos(reduced)


def disk_polar(rings):
    """A hex-lattice disk mesh with its vertices' polar coordinates
    (TriMesh, rho, theta), rho scaled radially so the hexagonal perimeter
    lands on rho = 1; any family samples onto it as
    family_point(fam, fam.R * rho, theta).  generate_disk_mesh raises
    MeshError, before the scaling, for a rings that is not an integer."""
    mesh, flat = generate_disk_mesh(rings, 1.0)
    r_lat = np.hypot(flat[:, 0], flat[:, 1])
    theta = np.arctan2(flat[:, 1], flat[:, 0])
    rho = np.zeros_like(r_lat)
    nz = r_lat > 0
    rho[nz] = r_lat[nz] / _hexagon_radius(theta[nz], rings)
    return mesh, rho, theta


def family_trimesh(fam, rings):
    """Sample the family on a hex-lattice disk mesh; returns (TriMesh, positions).

    Lattice vertices are mapped radially so the hexagonal perimeter lands on
    the r = R boundary circle of the family parametrization (disk_polar).
    """
    mesh, rho, theta = disk_polar(rings)
    return mesh, family_point(fam, fam.R * rho, theta)
