"""Discrete energy of a film-spanning elastic loop, with analytic gradient.

The energy has three parts:

  bending        alpha * sum over boundary vertices of <s_v> * kappa_v^2,
                 kappa_v = |t_v - t_{v-1}| / <s_v> with unit edge tangents
                 t_v and the average  <s_v> = (s_v + s_{v-1}) / 2  of the two
                 incident boundary edge lengths;
  springs        spring_k * x^T L x with L the mesh's interior_laplacian():
                 on a full mesh the sum over interior edges of |e|^2
                 (zero-rest-length springs standing in for film tension), on
                 the loop mesh the film 2 sqrt(3) x_B^T D x_B
                 (mesh.TriMesh.loop_film);
  length penalty length_multiplier * (total boundary length - L)
                 plus length_penalty_k * (total boundary length - L)^2
                 plus edge_penalty_k * sum (|e_i| - L/B)^2 over the B
                 boundary edges.

The linear term is the augmented-Lagrangian multiplier of the length
constraint (optimize.relax updates it between rounds); at a minimum the
boundary line tension is the multiplier plus the two penalties' pulls.

The global term pins the total length but is indifferent to how vertices
distribute along the loop; because the spring term is a Dirichlet energy,
not an area, it pays to crowd boundary vertices together, and relaxation
exploits that freedom until the boundary geometry degrades.  The per-edge
term removes the degeneracy at modest stiffness without taking over the
length constraint.

energy_and_gradient gathers the boundary loop once (boundary_frame), shifts
along it with the index arrays cached on the mesh (loop_prev, loop_next) and
scatters the edge gradients back in one step, keeping every float operation
of the np.roll / np.add.at formulation in its order: results are bit-identical.
On a loop mesh (TriMesh.loop_only) both are identity permutations, which the
same body skips; a zero fill is made only when there is no film term.

The control parameter k L^3 / alpha maps to gamma = sigma L^3 / alpha with
sigma = SIGMA_PER_SPRING_K * k = (4 / sqrt(3)) k.  That factor is the
convention the reference transition values are written in (48 pi^3 * sqrt(3)
/ 4 = 644.5 for the mode-2 threshold), not the film's own tension: the loop
film is exactly sigma = 2 sqrt(3) k times the Douglas form (a circle of
radius R costs 2 sqrt(3) k pi R^2), the unit lattice's tension, so the
model's own gamma is 1.5 times the gamma column.
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
    length_penalty_k >= 0, edge_penalty_k >= 0 and a length_multiplier of
    either sign, all finite.  A springs-only model (alpha = 0) is allowed;
    it is useful for testing the optimizer against a linear solve.
    """

    alpha: float = 1.0
    spring_k: float = 0.0
    target_length: float = 1.0
    length_penalty_k: float = 0.0
    edge_penalty_k: float = 0.0
    length_multiplier: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "spring_k", "length_penalty_k", "edge_penalty_k"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"energy parameter {name!r} must be finite "
                                 f"and nonnegative, got {v!r}")
        if not (np.isfinite(self.target_length) and self.target_length > 0):
            raise ValueError(f"energy parameter 'target_length' must be finite "
                             f"and positive, got {self.target_length!r}")
        if not np.isfinite(self.length_multiplier):
            raise ValueError(f"energy parameter 'length_multiplier' must be "
                             f"finite, got {self.length_multiplier!r}")


@dataclass
class EnergyBreakdown:
    bending: float
    springs: float
    length_penalty: float
    total: float
    boundary_length: float


# continuum surface tension represented by a unit-lattice spring network
SIGMA_PER_SPRING_K = 4.0 / np.sqrt(3.0)


def energy(mesh, x, p):
    """Evaluate the energy breakdown at configuration x."""
    return energy_and_gradient(mesh, x, p)[0]


def energy_and_gradient(mesh, x, p):
    """Energy breakdown and its exact gradient, one fused evaluation."""
    loop, prev, nxt = mesh.boundary_loop, mesh.loop_prev, mesh.loop_next
    s, e, savg = boundary_frame(mesh, x)
    if (s < 1e-12 * p.target_length).any():
        raise DegenerateBoundaryError(
            "boundary edge shorter than 1e-12 * L, curvature undefined")
    t = e / s[:, None]
    c = t - t.take(prev, axis=0)        # curvature vector numerator at v
    c_sq = np.einsum("ij,ij->i", c, c)
    bending = p.alpha * float((c_sq / savg).sum())

    if p.spring_k != 0.0:
        lx = mesh.interior_laplacian() @ x
        springs = p.spring_k * float((x * lx).sum())
        grad = 2.0 * p.spring_k * lx
    else:
        springs, grad = 0.0, np.zeros_like(x)

    # bending gradient through unit tangents and edge lengths.
    # dE/dt_v collects c_v (positive sign) and c_{v+1} (negative sign);
    # dE/ds_v comes from the two <s> averages containing s_v.
    c_s = c / savg[:, None]
    csq_s2 = c_sq / savg**2
    g_t = 2.0 * p.alpha * (c_s - c_s.take(nxt, axis=0))
    g_s = -0.5 * p.alpha * (csq_s2 + csq_s2[nxt])

    # length penalties; their derivative in s is summed before joining g_s
    blen = float(s.sum())
    excess = blen - p.target_length
    diff = s - p.target_length / len(s)
    e_pen = (p.length_penalty_k * excess**2 + p.length_multiplier * excess
             + p.edge_penalty_k * float(diff @ diff))
    g_s = g_s + ((2.0 * p.length_penalty_k * excess + p.length_multiplier)
                 + 2.0 * p.edge_penalty_k * diff)

    # chain rule to edge endpoints: dt/de = (I - t t^T)/s, ds/de = t.  Edge
    # i runs loop[i] -> loop[i+1] and the loop repeats no vertex, so loop[i]
    # gets + g_e[i-1] then - g_e[i], the order of np.add.at, np.subtract.at
    g_e = (g_t - np.einsum("ij,ij->i", g_t, t)[:, None] * t) / s[:, None] \
        + g_s[:, None] * t
    gl = grad if mesh.loop_only else grad.take(loop, axis=0)
    gl += g_e.take(prev, axis=0)
    gl -= g_e
    if not mesh.loop_only:
        grad[loop] = gl

    breakdown = EnergyBreakdown(bending=bending, springs=springs,
                                length_penalty=e_pen,
                                total=bending + springs + e_pen,
                                boundary_length=blen)
    return breakdown, grad
