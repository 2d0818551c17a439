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
on the boundary curve's c', c'' and c' x c''.  Quadratures
use Gauss-Legendre nodes radially and the periodic trapezoid rule in phi
(spectrally accurate for smooth periodic integrands), each at one fixed
resolution whose measured accuracy is given with the resolution constants
below.  The disk integrands are invariant under phi -> -phi and
phi -> pi - phi, so the disk integrals sample one quarter of the phi
period and weight it to the full trapezoid sum, at unchanged resolution
and accuracy.

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
    """Radial scale R and family parameter t in [-1, 1]."""

    R: float
    t: float

    def __post_init__(self):
        for name in ("R", "t"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.R <= 0:
            raise ValueError("R must be positive")
        if abs(self.t) > 1.0:
            raise ValueError("t must lie in [-1, 1]")


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


def _normal_sq(fam, r, phi):
    """Q = |x_r x x_phi|^2 / r^2 = a^2 b^2 + (2tr/R)^2 (b^2 sin^2 phi
    + a^2 cos^2 phi)."""
    t, R = fam.t, fam.R
    a, b = 1.0 + t**2, 1.0 - t**2
    return (a * b) ** 2 + (2.0 * t * r / R) ** 2 \
        * ((b * np.sin(phi)) ** 2 + (a * np.cos(phi)) ** 2)


# ---------------------------------------------------------------------------
# quadratures at one fixed resolution

# Gauss-Legendre nodes in r and trapezoid panels in phi on the disk, and
# trapezoid panels on the boundary.  These are full-period resolutions: the
# disk integrals evaluate only the DISK_PANELS / 4 + 1 nodes of one
# symmetric quarter, weighted to the same trapezoid sum (equal to the
# full-period sum within 6e-16 relative up to t = 0.95).  Over the
# default table range (t = 0 to 0.87) halving either resolution moves no
# smooth integral by more than 1.8e-13, and the two integral-of-K routes
# agree to 9e-15: the periodic trapezoid rule converges exponentially for
# smooth integrands (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).
# DISK_PANELS must stay divisible by 4 for the quarter.  |kappa_n| has kinks
# where kappa_n changes sign, which is exactly at phi = 0, pi/2, pi, 3pi/2,
# so its integral is taken per quarter by Gauss-Legendre with
# KN_QUARTER_NODES nodes (against 256 nodes the difference is below 1e-12).
# The disk integrands are closed forms of the exact embedding's normal.
GL_NODES = 96
DISK_PANELS = 1024
BOUNDARY_PANELS = 2048
KN_QUARTER_NODES = 64
# largest amplitude t, on a 0.01 grid, at which the two integral-of-K routes
# agree within 1e-12 relative (1.1e-13 at 0.98, 3.6e-7 at 0.99): beyond it
# the disk grid cannot resolve Q's dip toward the flat eight at t = 1
TABLE_T_MAX = 0.98


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]; the
    eigenvalue solve behind them costs more than one quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _disk_integral(fam, integrand):
    """Gauss-Legendre (r) x trapezoid (phi) integral of an integrand dr dphi.

    integrand(fam, r, Q, sqrt(Q)) takes _disk_sample(fam), and must be
    invariant under phi -> -phi and phi -> pi - phi (both family integrands
    are: these are rotations by pi about the x and y axes).  The periodic
    trapezoid sum over DISK_PANELS (divisible by 4) panels is then taken
    exactly over the closed quarter phi_k = 2 pi k / DISK_PANELS,
    k = 0 .. DISK_PANELS / 4: the end nodes stand for orbits of 2 nodes,
    the inner nodes for orbits of 4.
    """
    wr = 0.5 * fam.R * _gauss_legendre(GL_NODES)[1]
    wphi = np.full(DISK_PANELS // 4 + 1, 4.0)
    wphi[[0, -1]] = 2.0
    rows = integrand(fam, *_disk_sample(fam)) @ wphi
    return float(wr @ rows) * (2.0 * np.pi / DISK_PANELS)


@functools.lru_cache(maxsize=1)
def _disk_sample(fam):
    """Read-only (r, Q, sqrt(Q)) on _disk_integral's quarter grid, r a
    column, shared by the two disk quadratures of one family (a table row)."""
    r = (0.5 * (_gauss_legendre(GL_NODES)[0] + 1.0) * fam.R)[:, None]
    phi = np.arange(DISK_PANELS // 4 + 1) * (2.0 * np.pi / DISK_PANELS)
    q = _normal_sq(fam, r, phi[None, :])
    return _read_only((r, q, np.sqrt(q)))


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
def _panel_trig(n):
    """Read-only _trig at the n trapezoid nodes 2 pi k / n of the period."""
    return _read_only(_trig(np.arange(n) * (2.0 * np.pi / n)))


@functools.lru_cache(maxsize=None)
def _quarter_trig(n):
    """Read-only _trig at the n Gauss-Legendre nodes of each quarter between
    phi = 0, pi/2, pi, 3pi/2: rows are quarters, shape (4, n)."""
    xg, _ = _gauss_legendre(n)
    return _read_only(
        _trig((np.arange(4)[:, None] + 0.5 * (xg + 1.0)) * (0.5 * np.pi)))


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
    return (R * (1.0 + t**2) * tr.s) ** 2 + (R * (1.0 - t**2) * tr.c) ** 2 \
        + (2.0 * t * R * tr.c2) ** 2


def _boundary_normal(fam, tr):
    """N = |x_r x x_phi| / R^2 at r = R
    = sqrt((2tb sin phi)^2 + (2ta cos phi)^2 + (ab)^2)."""
    t = fam.t
    a, b = 1.0 + t**2, 1.0 - t**2
    return np.sqrt((2.0 * t * b * tr.s) ** 2 + (2.0 * t * a * tr.c) ** 2
                   + (a * b) ** 2)


def _kappa2_ds(fam, tr, sp2, sp):
    """kappa^2 ds / dphi = |c' x c''|^2 / |c'|^5
    = [(2BTu)^2 + (2ATv)^2 + (AB)^2] / |c'|^5, given sp2 = |c'|^2 and
    sp = |c'|."""
    t, R = fam.t, fam.R
    A, B, T = R * (1.0 + t**2), R * (1.0 - t**2), t * R
    return ((2.0 * B * T * tr.u) ** 2 + (2.0 * A * T * tr.v) ** 2
            + (A * B) ** 2) / (sp2 * sp2 * sp)


def _kappa_g_ds(fam, tr, sp2):
    """kappa_g ds / dphi = (c' x c'').n / |c'|^2
    = R^2 [4t^2 (a^2 cos phi v - b^2 sin phi u) + (ab)^2] / (N |c'|^2),
    given sp2 = |c'|^2."""
    t, R = fam.t, fam.R
    a, b = 1.0 + t**2, 1.0 - t**2
    return R**2 * (4.0 * t**2 * (a**2 * tr.c * tr.v - b**2 * tr.s * tr.u)
                   + (a * b) ** 2) / (_boundary_normal(fam, tr) * sp2)


def _kappa_n_ds(fam, tr, sp):
    """kappa_n ds / dphi = c''.n / |c'| = -2tRab sin 2phi / (N |c'|), given
    sp = |c'|."""
    t = fam.t
    return -2.0 * t * fam.R * (1.0 + t**2) * (1.0 - t**2) * tr.s2 \
        / (_boundary_normal(fam, tr) * sp)


@functools.lru_cache(maxsize=1)
def _boundary_sample(fam):
    """Read-only (|c'|^2, |c'|) at the BOUNDARY_PANELS trapezoid nodes,
    shared by the boundary quadratures of one family (one table row)."""
    sp2 = _speed_sq(fam, _panel_trig(BOUNDARY_PANELS))
    return _read_only((sp2, np.sqrt(sp2)))


def _boundary_sum(per_dphi):
    """Periodic trapezoid sum of per_dphi at the BOUNDARY_PANELS nodes."""
    return float(per_dphi.sum()) * (2.0 * np.pi / BOUNDARY_PANELS)


def length_quadrature(fam):
    """Boundary length by the periodic trapezoid rule."""
    return _boundary_sum(_boundary_sample(fam)[1])


def _dA(fam, r, q, sqrt_q):
    """Area element dA / (dr dphi) = |x_r x x_phi| = r sqrt(Q)."""
    return r * sqrt_q


def _K_dA(fam, r, q, sqrt_q):
    """Gaussian curvature times the area element, K dA / (dr dphi).

    With n = x_r x x_phi, (n.x_rr)(n.x_phiphi) - (n.x_rphi)^2 is exactly
    -4 t^2 a^2 b^2 r^4 / R^2, so K |n| = -(2tab/R)^2 r / Q^(3/2).
    """
    t = fam.t
    return -(2.0 * t * (1.0 + t**2) * (1.0 - t**2) / fam.R) ** 2 * r \
        / (q * sqrt_q)


def area_quadrature(fam):
    """Surface area by Gauss-Legendre (r) x trapezoid (phi)."""
    return _disk_integral(fam, _dA)


def bending_quadrature(fam):
    """Integral of kappa^2 ds around the boundary, from exact derivatives."""
    return _boundary_sum(_kappa2_ds(fam, _panel_trig(BOUNDARY_PANELS),
                                    *_boundary_sample(fam)))


def energy_quadrature(fam, sigma, alpha):
    """sigma * area + alpha * bending by quadrature."""
    return sigma * area_quadrature(fam) + alpha * bending_quadrature(fam)


def int_K_quadrature(fam):
    """Integral of K dA from the second fundamental form of the embedding."""
    return _disk_integral(fam, _K_dA)


def int_K_gauss_bonnet(fam):
    """Integral of K dA via 2 pi minus the integrated geodesic curvature.

    The value is 2 pi - (integral of kappa_g ds), so its error has an
    absolute floor of one ulp of 2 pi (8.9e-16) whatever the quadrature:
    4.1e-15 relative on the t = 0.135 row of the asymptotic table (value
    -0.216), more at smaller t.  A relative gate on the low-t rows of this
    column below that floor is a bit-identity gate.
    """
    return 2.0 * np.pi - _boundary_sum(_kappa_g_ds(
        fam, _panel_trig(BOUNDARY_PANELS), _boundary_sample(fam)[0]))


def int_abs_kn_quadrature(fam):
    """Integral of |kappa_n| ds around the boundary (exact curvatures).

    kappa_n keeps one sign on each quarter between phi = 0, pi/2, pi, 3pi/2,
    so the integral is the sum of |integral of kappa_n ds| over the quarters,
    each a smooth Gauss-Legendre integral.
    """
    tr = _quarter_trig(KN_QUARTER_NODES)
    kn_ds = _kappa_n_ds(fam, tr, np.sqrt(_speed_sq(fam, tr)))
    return float(np.abs(kn_ds @ _gauss_legendre(KN_QUARTER_NODES)[1]).sum()) \
        * (0.25 * np.pi)


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
