"""Discrete energy of a film-spanning elastic loop, with analytic gradient.

The energy has three parts:

  bending        alpha * sum over boundary vertices of <s_v> * kappa_v^2,
                 kappa_v = |t_v - t_{v-1}| / <s_v> with unit edge tangents
                 t_v and the average  <s_v> = (s_v + s_{v-1}) / 2  of the two
                 incident boundary edge lengths;
  springs        spring_k * sum over interior edges of |e|^2
                 (zero-rest-length springs standing in for film tension);
  length penalty length_penalty_k * (total boundary length - L)^2
                 plus edge_penalty_k * sum (|e_i| - L/B)^2 over the B
                 boundary edges.

The global term pins the total length but is indifferent to how vertices
distribute along the loop; because the spring term is a Dirichlet energy,
not an area, it pays to crowd boundary vertices together, and relaxation
exploits that freedom until the boundary geometry degrades.  The per-edge
term removes the degeneracy at modest stiffness without taking over the
length constraint.

The continuum tension equivalent of the spring stiffness on this lattice is
sigma = 4 k / sqrt(3), so the control parameter k L^3 / alpha maps to
gamma = sigma L^3 / alpha = (4 / sqrt(3)) k L^3 / alpha.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import boundary_frame


class EnergyError(RuntimeError):
    pass


class DegenerateBoundaryError(EnergyError):
    """A boundary edge collapsed below the degeneracy threshold."""


@dataclass
class EnergyParams:
    """Physical parameters of the discrete energy.

    alpha >= 0 (bending modulus), spring_k >= 0, target_length > 0,
    length_penalty_k >= 0, edge_penalty_k >= 0, all finite.  A springs-only
    model (alpha = 0) is allowed; it is useful for testing the optimizer
    against a linear solve.
    """

    alpha: float = 1.0
    spring_k: float = 0.0
    target_length: float = 1.0
    length_penalty_k: float = 0.0
    edge_penalty_k: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "spring_k", "length_penalty_k", "edge_penalty_k"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"energy parameter {name!r} must be finite "
                                 f"and nonnegative, got {v!r}")
        if not (np.isfinite(self.target_length) and self.target_length > 0):
            raise ValueError(f"energy parameter 'target_length' must be finite "
                             f"and positive, got {self.target_length!r}")


@dataclass
class EnergyBreakdown:
    bending: float
    springs: float
    length_penalty: float
    total: float
    boundary_length: float


# continuum surface tension represented by a unit-lattice spring network
SIGMA_PER_SPRING_K = 4.0 / np.sqrt(3.0)


def sigma_from_spring_k(spring_k):
    """Surface tension equivalent to interior spring stiffness: sigma = 4k/sqrt(3)."""
    return SIGMA_PER_SPRING_K * spring_k


def spring_k_from_sigma(sigma):
    """Inverse of sigma_from_spring_k: k = sqrt(3) sigma / 4."""
    return sigma / SIGMA_PER_SPRING_K


def gamma_numeric(spring_k, target_length, alpha):
    """Dimensionless groups (k L^3 / alpha, gamma = sigma L^3 / alpha)."""
    kl3a = spring_k * target_length**3 / alpha
    return kl3a, SIGMA_PER_SPRING_K * kl3a


def _penalty_terms(s, p):
    """Penalty energy and its derivative with respect to each edge length."""
    e_pen = 0.0
    dpen_ds = None
    if p.length_penalty_k != 0.0:
        excess = float(s.sum()) - p.target_length
        e_pen += p.length_penalty_k * excess**2
        dpen_ds = np.full(len(s), 2.0 * p.length_penalty_k * excess)
    if p.edge_penalty_k != 0.0:
        diff = s - p.target_length / len(s)
        e_pen += p.edge_penalty_k * float(diff @ diff)
        d_edge = 2.0 * p.edge_penalty_k * diff
        dpen_ds = d_edge if dpen_ds is None else dpen_ds + d_edge
    return e_pen, dpen_ds


def energy(mesh, x, p):
    """Evaluate the energy breakdown at configuration x."""
    return energy_and_gradient(mesh, x, p)[0]


def energy_and_gradient(mesh, x, p):
    """Energy breakdown and its exact gradient, one fused evaluation."""
    _, s, t, savg = boundary_frame(mesh, x)
    if np.any(s < 1e-12 * p.target_length):
        raise DegenerateBoundaryError(
            "boundary edge shorter than 1e-12 * L, curvature undefined")
    c = t - np.roll(t, 1, axis=0)               # curvature vector numerator at v
    c_sq = np.einsum("ij,ij->i", c, c)
    bending = p.alpha * float(np.sum(c_sq / savg))

    grad = np.zeros_like(x)
    springs = 0.0
    if p.spring_k != 0.0 and len(mesh.interior_edges):
        lap = mesh.interior_laplacian()
        lx = lap @ x
        springs = p.spring_k * float(np.sum(x * lx))
        grad += 2.0 * p.spring_k * lx

    # bending gradient through unit tangents and edge lengths.
    # dE/dt_v collects c_v (positive sign) and c_{v+1} (negative sign);
    # dE/ds_v comes from the two <s> averages containing s_v.
    if p.alpha != 0.0:
        c_next = np.roll(c, -1, axis=0)
        savg_next = np.roll(savg, -1)
        csq_next = np.roll(c_sq, -1)
        g_t = 2.0 * p.alpha * (c / savg[:, None] - c_next / savg_next[:, None])
        g_s = -0.5 * p.alpha * (c_sq / savg**2 + csq_next / savg_next**2)
    else:
        g_t = np.zeros_like(t)
        g_s = np.zeros(len(s))

    e_pen, dpen_ds = _penalty_terms(s, p)
    if dpen_ds is not None:
        g_s = g_s + dpen_ds

    # chain rule to edge endpoints: dt/de = (I - t t^T)/s, ds/de = t
    g_e = (g_t - np.einsum("ij,ij->i", g_t, t)[:, None] * t) / s[:, None] \
        + g_s[:, None] * t
    np.add.at(grad, mesh.boundary_edges[:, 1], g_e)
    np.subtract.at(grad, mesh.boundary_edges[:, 0], g_e)

    blen = float(s.sum())
    breakdown = EnergyBreakdown(bending=bending, springs=springs,
                                length_penalty=e_pen,
                                total=bending + springs + e_pen,
                                boundary_length=blen)
    return breakdown, grad
