"""Discrete energy of a film-spanning elastic loop, with analytic gradient.

The energy has three parts:

  bending        alpha * sum over boundary vertices of <s_v> * kappa_v^2,
                 kappa_v = |t_v - t_{v-1}| / <s_v> with unit edge tangents
                 t_v and the average  <s_v> = (s_v + s_{v-1}) / 2  of the two
                 incident boundary edge lengths;
  springs        spring_k * x_B^T (2 sqrt(3) D) x_B over the loop positions
                 x_B, with D the Douglas form (mesh.film_operator): the film
                 slaved to its loop, 2 sqrt(3) spring_k times the Dirichlet
                 energy of the harmonic disk spanning the loop;
  length penalty length_multiplier * (total boundary length - L)
                 plus length_penalty_k * (total boundary length - L)^2
                 plus edge_penalty_k * sum (|e_i| - L/B)^2 over the B
                 boundary edges.

The linear term is the augmented-Lagrangian multiplier of the length
constraint (optimize.relax updates it between rounds); at a minimum the
boundary line tension is the multiplier plus the two penalties' pulls.

The global term pins the total length but is indifferent to how vertices
distribute along the loop; because the film term is a Dirichlet energy,
not an area, it pays to crowd boundary vertices together, and relaxation
exploits that freedom until the boundary geometry degrades.  The per-edge
term removes the degeneracy at modest stiffness without taking over the
length constraint.

Every term lives on the loop, so every mesh's energy is its loop mesh's
(mesh.TriMesh.loop_mesh): energy_and_gradient gathers a full mesh's loop
rows once, evaluates them on the loop mesh and scatters the loop gradient
back, so the gradient's other rows are exactly 0.  The loop body runs
component-first, on (3, B) rows of one coordinate each, starting from the
edges and lengths of mesh.boundary_frame: the tangents, curvature
numerators and edge gradients are row operations against (B,) vectors,
shifted along the loop with the index arrays cached on the mesh
(loop_prev, loop_next), and the gradient accumulates in place through
grad.T.  The film term, film_operator(B) @ x, stays on the (B, 3) rows.
Every float operation of the np.roll / np.einsum / np.add.at formulation
keeps its order, so results are bit-identical: a squared edge length sums
its components as np.add.reduce(e * e, axis=1) rounds, (p0 + p1) + p2, and
the two row dot products as einsum("ij,ij->i") rounds over three columns,
(p0 + p2) + p1.

The control parameter k L^3 / alpha maps to gamma = sigma L^3 / alpha with
sigma = SIGMA_PER_SPRING_K * k = (4 / sqrt(3)) k.  That factor is the
convention the reference transition values are written in (48 pi^3 * sqrt(3)
/ 4 = 644.5 for the mode-2 threshold), not the film's own tension: the film
is exactly sigma = 2 sqrt(3) k times the Douglas form (a circle of radius R
costs 2 sqrt(3) k pi R^2), so the model's own gamma is 1.5 times the gamma
column.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import boundary_frame, film_operator


class EnergyError(RuntimeError):
    pass


class DegenerateBoundaryError(EnergyError):
    """A boundary edge collapsed below the degeneracy threshold."""


@dataclass
class EnergyParams:
    """Physical parameters of the discrete energy.

    alpha >= 0 (bending modulus), spring_k >= 0 (the film's tension over
    mesh.LATTICE_TENSION), target_length > 0, length_penalty_k >= 0,
    edge_penalty_k >= 0 and a length_multiplier of either sign, all finite.
    A film-only model (alpha = 0) is allowed.
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


# the kL^3/alpha -> gamma convention of the reference transition values
SIGMA_PER_SPRING_K = 4.0 / np.sqrt(3.0)


def energy(mesh, x, p):
    """Evaluate the energy breakdown at configuration x."""
    return energy_and_gradient(mesh, x, p)[0]


def energy_and_gradient(mesh, x, p):
    """Energy breakdown and its exact gradient, one fused evaluation.

    A full mesh's are its loop mesh's (mesh.TriMesh.loop_mesh) at x's loop
    rows, with the loop gradient scattered back and every other row 0.
    relax calls it on loop meshes only; the full-mesh branch stays because
    the public energy() takes full states and the benchmark's per-call
    probe evaluates full rings-8/16/32 meshes."""
    if not mesh.loop_only:
        loop = mesh.boundary_loop
        breakdown, g_loop = energy_and_gradient(
            mesh.loop_mesh(), x.take(loop, axis=0), p)
        grad = np.zeros_like(x)
        grad[loop] = g_loop
        return breakdown, grad
    prev, nxt = mesh.loop_prev, mesh.loop_next
    s, e, savg = boundary_frame(mesh, x)            # e is (3, B)
    # not s.min(): a NaN would mask a short edge
    if np.count_nonzero(s < 1e-12 * p.target_length):
        raise DegenerateBoundaryError(
            "boundary edge shorter than 1e-12 * L, curvature undefined")
    t = np.divide(e, s, out=e)
    c = t - t.take(prev, axis=1)        # curvature vector numerator at v
    sq = c * c
    c_sq = sq[0] + sq[2]                # einsum("ij,ij->i")'s (p0 + p2) + p1
    c_sq += sq[1]
    bending = p.alpha * float((c_sq / savg).sum())

    if p.spring_k != 0.0:
        lx = film_operator(mesh.vertex_count) @ x
        springs = p.spring_k * float((x * lx).sum())
        grad = 2.0 * p.spring_k * lx
    else:
        springs, grad = 0.0, np.zeros_like(x)

    # bending gradient through unit tangents and edge lengths.
    # dE/dt_v collects c_v (positive sign) and c_{v+1} (negative sign);
    # dE/ds_v comes from the two <s> averages containing s_v.
    c_s = c / savg
    csq_s2 = c_sq / savg**2
    g_t = 2.0 * p.alpha * (c_s - c_s.take(nxt, axis=1))
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
    # i runs from vertex i to i+1 and the loop repeats no vertex, so vertex
    # i gets + g_e[i-1] then - g_e[i], the order of np.add.at, np.subtract.at
    np.multiply(g_t, t, out=sq)
    g_dot_t = sq[0] + sq[2]             # einsum's order again
    g_dot_t += sq[1]
    g_e = np.subtract(g_t, np.multiply(g_dot_t, t, out=sq), out=g_t)
    g_e /= s
    g_e += np.multiply(g_s, t, out=sq)
    grad_t = grad.T
    grad_t += g_e.take(prev, axis=1)
    grad_t -= g_e

    breakdown = EnergyBreakdown(bending=bending, springs=springs,
                                length_penalty=e_pen,
                                total=bending + springs + e_pen,
                                boundary_length=blen)
    return breakdown, grad
