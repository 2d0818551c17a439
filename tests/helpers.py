"""Small constructions shared across test modules."""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.spatial

from filmloop.diffgeo import DiffGeoError
from filmloop.energy import (DegenerateBoundaryError, EnergyBreakdown,
                             EnergyParams, energy_and_gradient)
from filmloop.mesh import (LATTICE_TENSION, TriMesh, film_operator,
                           generate_disk_mesh, hex_ring_place)
from filmloop import saddle
from filmloop.saddle import family_point
from filmloop.sweep import ExponentFit, FitError, _fit_window, _r_squared


def fan_mesh(n, radius=1.0):
    """Triangle fan: hub vertex 0 plus a regular n-gon rim in the z = 0 plane.

    Every interior edge is a spoke of length `radius`, every boundary edge a
    rim chord of length 2 radius sin(pi/n); most closed-form energy and
    curvature oracles below are written against this mesh.
    """
    ang = np.arange(n) * 2.0 * np.pi / n
    pts = np.zeros((n + 1, 3))
    pts[1:, 0] = radius * np.cos(ang)
    pts[1:, 1] = radius * np.sin(ang)
    tris = np.array([[0, 1 + i, 1 + (i + 1) % n] for i in range(n)],
                    dtype=np.int64)
    return TriMesh.from_triangles(n + 1, tris), pts


def reference_disk_mesh(rings, elongation=1.0):
    """Reference for mesh.generate_disk_mesh: the lattice points (q, r) in
    lexicographic order in a dict, then a scan of the cells (q, r) over
    [-m - 1, m]^2, each adding its up and then its down triangle when all
    three corners are lattice points."""
    m = int(rings)
    index = {}
    coords = []
    for q in range(-m, m + 1):
        for r in range(max(-m, -q - m), min(m, -q + m) + 1):
            index[(q, r)] = len(coords)
            coords.append((q + 0.5 * r, 0.5 * np.sqrt(3.0) * r))
    positions = np.zeros((len(coords), 3))
    positions[:, :2] = coords

    tris = []
    for q in range(-m - 1, m + 1):
        for r in range(-m - 1, m + 1):
            up = ((q, r), (q + 1, r), (q, r + 1))
            if all(k in index for k in up):
                tris.append(tuple(index[k] for k in up))
            down = ((q + 1, r), (q + 1, r + 1), (q, r + 1))
            if all(k in index for k in down):
                tris.append(tuple(index[k] for k in down))

    mesh = TriMesh.from_triangles(len(coords), np.array(tris, dtype=np.int64))
    positions[:, 0] *= float(elongation)
    positions[:, 1] /= float(elongation)
    return mesh, positions


def poisson_extension(mesh, x_b):
    """Reference for loop_film's extend: the harmonic disk
    x(rho, theta) = Re sum_m X_m rho^|m| e^{i m theta}, X = fft(x_b) / B over
    all B modes (the Nyquist mode at m = -B/2), summed densely at every
    interior vertex with rho**|m| and exp, and no sixfold symmetry.  A
    vertex on hex ring k at place p (hex_ring_place of its lattice
    coordinates) has rho = k / m and theta = 2 pi (p / 6k - p_0 / 6m), m
    and p_0 those of boundary_loop[0]."""
    loop = mesh.boundary_loop
    nb = len(loop)
    k, p = hex_ring_place(mesh.lattice)
    m, p0 = k[loop[0]], p[loop[0]]
    rho = k / m
    theta = np.zeros(mesh.vertex_count)
    ring = k > 0
    theta[ring] = 2.0 * np.pi * (p[ring] / (6.0 * k[ring]) - p0 / (6.0 * m))
    modes = np.rint(np.fft.fftfreq(nb, 1.0 / nb)).astype(int)
    kernel = (rho[:, None] ** np.abs(modes)
              * np.exp(1j * modes * theta[:, None]))
    x = (kernel @ (np.fft.fft(x_b, axis=0) / nb)).real
    x[loop] = x_b
    return x


def polygon_mesh(n, radius=1.0):
    """Regular n-gon in the z = 0 plane triangulated by the diagonals from
    vertex 0: every vertex lies on the boundary, and the diagonals are the
    interior edges."""
    ang = np.arange(n) * 2.0 * np.pi / n
    pts = np.zeros((n, 3))
    pts[:, 0] = radius * np.cos(ang)
    pts[:, 1] = radius * np.sin(ang)
    tris = np.array([[0, i, i + 1] for i in range(1, n - 1)], dtype=np.int64)
    return TriMesh.from_triangles(n, tris), pts


def stationary_bgon(nb, kl3a):
    """The regular B-gon of perimeter 1 in the z = 0 plane, counterclockwise
    from (R, 0, 0), and the EnergyParams (alpha = L = 1, spring_k = kl3a)
    that make it stationary: relax's starting penalties 100 (k + alpha), which
    pull on nothing there, and the length multiplier that balances the
    bending and film gradient against the length's."""
    theta = 2.0 * np.pi * np.arange(nb) / nb
    R = 1.0 / (2.0 * nb * np.sin(np.pi / nb))
    xb = np.stack([R * np.cos(theta), R * np.sin(theta), np.zeros(nb)], axis=1)
    stiff = 100.0 * (kl3a + 1.0)
    p = EnergyParams(alpha=1.0, spring_k=kl3a, target_length=1.0,
                     length_penalty_k=stiff, edge_penalty_k=stiff)
    loop_mesh = generate_disk_mesh(nb // 6)[0].loop_mesh()
    g = energy_and_gradient(loop_mesh, xb, p)[1]
    t = np.roll(xb, -1, axis=0) - xb
    t /= np.linalg.norm(t, axis=1)[:, None]
    u = np.roll(t, 1, axis=0) - t                  # the length's gradient
    p.length_multiplier = -float((g * u).sum() / (u * u).sum())
    return xb, p


def circle_samples(n, radius=1.0):
    """Uniform samples of a circle of given radius in the z = 0 plane."""
    u = np.arange(n) * 2.0 * np.pi / n
    return np.stack([radius * np.cos(u), radius * np.sin(u), np.zeros(n)],
                    axis=1)


def reference_triangle_geometry(mesh, x):
    """Reference for diffgeo.corner_geometry, transposed to rows:
    per-triangle (unit normals, areas, corner angles) from (f, 3) row
    gathers, np.cross, np.linalg.norm(axis=1) and np.einsum("ij,ij->i")."""
    tris = mesh.triangles
    a, b, c = x[tris[:, 0]], x[tris[:, 1]], x[tris[:, 2]]
    n = np.cross(b - a, c - a)
    nlen = np.linalg.norm(n, axis=1)
    if np.any(nlen <= 0.0):
        raise DiffGeoError("zero-area triangle")
    angles = np.empty((len(tris), 3))
    for k, (p, q, r) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
        u, v = q - p, r - p
        cr = np.linalg.norm(np.cross(u, v), axis=1)
        angles[:, k] = np.arctan2(cr, np.einsum("ij,ij->i", u, v))
    return n / nlen[:, None], 0.5 * nlen, angles


def vertex_normals(mesh, x):
    """Reference for boundary_geometry's normals: the angle-weighted average
    of incident triangle normals at every vertex, normalized, over a pass of
    all triangles."""
    nhat, _, angles = reference_triangle_geometry(mesh, x)
    acc = np.zeros((mesh.vertex_count, 3))
    for k in range(3):
        np.add.at(acc, mesh.triangles[:, k], angles[:, k][:, None] * nhat)
    norms = np.linalg.norm(acc, axis=1)
    used = np.unique(mesh.triangles)
    if np.any(norms[used] <= 0.0):
        raise DiffGeoError("degenerate vertex normal (zero incident-angle fan)")
    norms[norms == 0.0] = 1.0
    return acc / norms[:, None]


def reference_curvature_field(mesh, x):
    """Reference for gaussian_curvature: (defect, barycentric vertex areas
    (1/3 of the incident triangles'), total area) of
    reference_triangle_geometry, the corners added by np.add.at."""
    _, areas, angles = reference_triangle_geometry(mesh, x)
    angle_sum = np.zeros(mesh.vertex_count)
    area_w = np.zeros(mesh.vertex_count)
    for k in range(3):
        np.add.at(angle_sum, mesh.triangles[:, k], angles[:, k])
        np.add.at(area_w, mesh.triangles[:, k], areas / 3.0)
    defect = 2.0 * np.pi - angle_sum
    defect[mesh.boundary_loop] = np.pi - angle_sum[mesh.boundary_loop]
    return defect, area_w, float(areas.sum())


def reference_loop_curvatures(mesh, x):
    """Reference for diffgeo._loop_normals and boundary_geometry: (normal,
    kappa, kappa_n, kappa_g) along the loop from (B, 3) rows,
    np.linalg.norm(axis=1), np.cross and np.einsum, with vertex_normals'
    normals."""
    loop = mesh.boundary_loop
    xb = x[loop]
    e = np.roll(xb, -1, axis=0) - xb
    s = np.linalg.norm(e, axis=1)
    t = e / s[:, None]
    savg = 0.5 * (s + np.roll(s, 1))
    cvec = (t - np.roll(t, 1, axis=0)) / savg[:, None]
    normals = vertex_normals(mesh, x)[loop]
    tbar = t + np.roll(t, 1, axis=0)
    tnorm = np.linalg.norm(tbar, axis=1)
    bad = tnorm < 1e-8
    tbar[bad] = t[bad]
    tbar = tbar / np.linalg.norm(tbar, axis=1)[:, None]
    conormal = np.cross(normals, tbar)
    return (normals, np.linalg.norm(cvec, axis=1),
            np.einsum("ij,ij->i", cvec, normals),
            np.einsum("ij,ij->i", cvec, conormal))


def reference_is_graph(mesh, x, margin):
    """Reference for diffgeo._is_graph: the same two conditions on (f, 3)
    row gathers, np.cross and matrix-vector products."""
    tris = mesh.triangles
    p0 = x[tris[:, 0]]
    n = np.cross(x[tris[:, 1]] - p0, x[tris[:, 2]] - p0)
    v = n.sum(axis=0)
    if not np.linalg.norm(v) > 0.0:
        return False
    v = v / np.linalg.norm(v)
    if not np.all(n @ v > margin * np.linalg.norm(n, axis=1)):
        return False
    r = x[mesh.boundary_loop]
    r = r - r.mean(axis=0)
    r = r - np.outer(r @ v, v)
    r_next = np.roll(r, -1, axis=0)
    sin = np.cross(r, r_next) @ v
    r_len = np.linalg.norm(r, axis=1)
    if not np.all(sin > margin * r_len * np.roll(r_len, -1)):
        return False
    cos = np.einsum("ij,ij->i", r, r_next)
    return float(np.arctan2(sin, cos).sum()) < 3.0 * np.pi


def folded_pierced_disk(rings, degrees, bump=2.0):
    """A flat rings-r disk whose right half is folded back over its left
    half by `degrees`; a Gaussian bump of height `bump` on the left half
    pierces the flap (at the default height), and a gentle warp keeps every
    pair of triangles non-coplanar."""
    mesh, x = generate_disk_mesh(rings)
    x[:, 2] = (bump * np.exp(-((x[:, 0] + 3.0) ** 2 + x[:, 1] ** 2) / 2.0)
               + 0.01 * (x[:, 0] ** 2 + 2.0 * x[:, 1] ** 2))
    flap = x[:, 0] > 0
    hinge_dist = x[flap, 0]
    x[flap, 0] = hinge_dist * np.cos(np.radians(degrees))
    x[flap, 2] += hinge_dist * np.sin(np.radians(degrees))
    return mesh, x


def saddle_shape(rings, t):
    """The rings-r mesh of the twisted saddle of boundary length 2 pi at
    amplitude t."""
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(2.0 * np.pi, t), t=t)
    return saddle.family_trimesh(fam, rings)


def loop_crossing_pairs(mesh, x):
    """Reference for diffgeo._crossing_pairs: the same KD-tree candidates and
    vertex-sharing filter, then one scalar Moller-Trumbore test per pair and
    edge, with no bounding-box prefilter."""
    tris = mesh.triangles
    pts = x[tris]
    centroids = pts.mean(axis=1)
    crad = np.linalg.norm(pts - centroids[:, None, :], axis=2).max(axis=1)
    tree = scipy.spatial.cKDTree(centroids)
    pairs = tree.query_pairs(2.0 * float(crad.max()), output_type="ndarray")
    if len(pairs) == 0:
        return pairs
    va, vb = tris[pairs[:, 0]], tris[pairs[:, 1]]
    shares = (va[:, :, None] == vb[:, None, :]).any(axis=(1, 2))
    pairs = pairs[~shares]
    return np.array([(i, j) for i, j in pairs
                     if _tri_tri_cross(pts[i], pts[j])
                     or _tri_tri_cross(pts[j], pts[i])],
                    dtype=pairs.dtype).reshape(-1, 2)


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


def reference_energy_and_gradient(mesh, x, p):
    """Reference for energy.energy_and_gradient: the boundary frame gathered
    per edge end, loop shifts by np.roll, the penalty derivative built by
    np.full, and the edge gradients scattered by np.add.at and
    np.subtract.at.  The length multiplier joins the global penalty's
    energy and derivative before the edge term, in the kernel's order of
    operations.  The springs are the film
    k x_B^T (2 sqrt(3) D) x_B of film_operator at the loop rows, added to
    the zero gradient there, so every other row stays 0."""
    loop = mesh.boundary_loop
    ends = np.stack([loop, np.roll(loop, -1)], axis=1)
    e = x[ends[:, 1]] - x[ends[:, 0]]
    s = np.linalg.norm(e, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = e / s[:, None]
    savg = 0.5 * (s + np.roll(s, 1))
    if np.any(s < 1e-12 * p.target_length):
        raise DegenerateBoundaryError(
            "boundary edge shorter than 1e-12 * L, curvature undefined")
    c = t - np.roll(t, 1, axis=0)
    c_sq = np.einsum("ij,ij->i", c, c)
    bending = p.alpha * float(np.sum(c_sq / savg))

    grad = np.zeros_like(x)
    springs = 0.0
    if p.spring_k != 0.0:
        lx = film_operator(len(loop)) @ x[loop]
        springs = p.spring_k * float(np.sum(x[loop] * lx))
        grad[loop] += 2.0 * p.spring_k * lx

    if p.alpha != 0.0:
        c_next = np.roll(c, -1, axis=0)
        savg_next = np.roll(savg, -1)
        csq_next = np.roll(c_sq, -1)
        g_t = 2.0 * p.alpha * (c / savg[:, None] - c_next / savg_next[:, None])
        g_s = -0.5 * p.alpha * (c_sq / savg**2 + csq_next / savg_next**2)
    else:
        g_t = np.zeros_like(t)
        g_s = np.zeros(len(s))

    e_pen = 0.0
    dpen_ds = None
    excess = float(s.sum()) - p.target_length
    if p.length_penalty_k != 0.0 or p.length_multiplier != 0.0:
        e_pen += p.length_penalty_k * excess**2 + p.length_multiplier * excess
        dpen_ds = np.full(len(s), 2.0 * p.length_penalty_k * excess
                          + p.length_multiplier)
    if p.edge_penalty_k != 0.0:
        diff = s - p.target_length / len(s)
        e_pen += p.edge_penalty_k * float(diff @ diff)
        d_edge = 2.0 * p.edge_penalty_k * diff
        dpen_ds = d_edge if dpen_ds is None else dpen_ds + d_edge
    if dpen_ds is not None:
        g_s = g_s + dpen_ds

    g_e = (g_t - np.einsum("ij,ij->i", g_t, t)[:, None] * t) / s[:, None] \
        + g_s[:, None] * t
    np.add.at(grad, ends[:, 1], g_e)
    np.subtract.at(grad, ends[:, 0], g_e)

    blen = float(s.sum())
    breakdown = EnergyBreakdown(bending=bending, springs=springs,
                                length_penalty=e_pen,
                                total=bending + springs + e_pen,
                                boundary_length=blen)
    return breakdown, grad


def _normal_sq(fam, r, phi):
    """Q = |x_r x x_phi|^2 / r^2 = a^2 b^2 + (2tr/R)^2 (b^2 sin^2 phi
    + a^2 cos^2 phi)."""
    t, R = fam.t, fam.R
    a, b = 1.0 + t**2, 1.0 - t**2
    return (a * b) ** 2 + (2.0 * t * r / R) ** 2 \
        * ((b * np.sin(phi)) ** 2 + (a * np.cos(phi)) ** 2)


def reference_disk_integrals(fam):
    """Reference for saddle's area and integral-of-K quadratures: (area,
    integral of K dA) by 32-node Gauss-Legendre on each of the r panels
    [0, 0.05, 0.2, 0.5, 1] R, graded toward Q's complex zero near r = 0,
    times the 1024-panel periodic trapezoid rule in phi over the full grid,
    with dA = |x_r x x_phi| from surface_derivs and K dA from
    reference_K_dA.  Against mpmath at 40 digits the graded rule of
    r Q^(-3/2) is off by up to 1.7e-15 relative (one 96-node panel:
    4.2e-15)."""
    panels = 1024
    xg, wg = np.polynomial.legendre.leggauss(32)
    cuts = fam.R * np.array([0.0, 0.05, 0.2, 0.5, 1.0])
    r = (cuts[:-1, None] + 0.5 * (xg + 1.0) * np.diff(cuts)[:, None]).ravel()
    phi = np.arange(panels) * (2.0 * np.pi / panels)
    rg, pg = np.meshgrid(r, phi, indexing="ij")
    x_r, x_p, *_ = surface_derivs(fam, rg, pg)
    dA = np.linalg.norm(np.cross(x_r, x_p), axis=-1)
    w = (0.5 * np.diff(cuts)[:, None] * wg).ravel() * (2.0 * np.pi / panels)
    return (float(w @ dA.sum(axis=1)),
            float(w @ reference_K_dA(fam, rg, pg).sum(axis=1)))


def diagram_column(diagram, name):
    """The named SweepPoint field of every point of a BifurcationDiagram."""
    return np.array([getattr(p, name) for p in diagram.points])


def one_family_table_row(gamma, length):
    """The asymptotic-table row of one gamma from the one-family
    quadratures, as `asymptotic` computed each row alone before its rows
    were taken in blocks (saddle.family_table)."""
    sigma = gamma / length**3
    t = saddle.pitchfork_amplitude(gamma)
    fam = saddle.SaddleFamily(R=saddle.radius_for_length(length, t), t=t)
    int_abs_kn = saddle.int_abs_kn_quadrature(fam)
    return (gamma, t, fam.R,
            saddle.constrained_energy_series(length, t, sigma, 1.0),
            saddle.energy_quadrature(fam, sigma, 1.0), int_abs_kn,
            int_abs_kn / saddle.length_quadrature(fam),
            saddle.int_K_quadrature(fam), saddle.int_K_gauss_bonnet(fam))


def surface_derivs(fam, r, phi):
    """First and second partial derivatives (x_r, x_phi, x_rr, x_rphi,
    x_phiphi) of the saddle family's embedding, stacked on a last axis of 3."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    cp, sp = np.cos(phi), np.sin(phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    a, b = 1.0 + t**2, 1.0 - t**2
    zero = np.zeros(np.broadcast(r, phi).shape)

    x_r = np.stack(np.broadcast_arrays(a * cp, b * sp, 2.0 * t * r / R * s2), -1)
    x_p = np.stack(np.broadcast_arrays(-r * a * sp, r * b * cp,
                                       2.0 * t * r**2 / R * c2), -1)
    x_rr = np.stack(np.broadcast_arrays(zero, zero, 2.0 * t / R * s2), -1)
    x_rp = np.stack(np.broadcast_arrays(-a * sp, b * cp,
                                        4.0 * t * r / R * c2), -1)
    x_pp = np.stack(np.broadcast_arrays(-r * a * cp, -r * b * sp,
                                        -4.0 * t * r**2 / R * s2), -1)
    return x_r, x_p, x_rr, x_rp, x_pp


def reference_K_dA(fam, r, phi):
    """Reference for saddle's integral of K dA: K dA / (dr dphi)
    = (LN - M^2) / |n| from the full second fundamental form, with
    n = x_r x x_phi."""
    x_r, x_p, x_rr, x_rp, x_pp = surface_derivs(fam, r, phi)
    n = np.cross(x_r, x_p)
    nn = np.linalg.norm(n, axis=-1)
    nhat = n / nn[..., None]
    e = np.einsum("...i,...i->...", nhat, x_rr)
    f = np.einsum("...i,...i->...", nhat, x_rp)
    g = np.einsum("...i,...i->...", nhat, x_pp)
    return (e * g - f * f) / nn


def boundary_derivatives(fam, phi):
    """The saddle boundary's exact d/dphi derivatives (c', c''), each
    stacked on a last axis of 3."""
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    a, b = R * (1.0 + t**2), R * (1.0 - t**2)
    cp, sp = np.cos(phi), np.sin(phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    c1 = np.stack(np.broadcast_arrays(-a * sp, b * cp, 2.0 * t * R * c2), -1)
    c2_ = np.stack(np.broadcast_arrays(-a * cp, -b * sp, -4.0 * t * R * s2), -1)
    return c1, c2_


def family_normal(fam, r, phi):
    """The saddle family's normal x_r x x_phi in closed form,
    r (-(2tbr/R) sin phi, -(2tar/R) cos phi, ab), a = 1 + t^2, b = 1 - t^2,
    stacked on a last axis of 3; broadcasts over r and phi."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    a, b = 1.0 + t**2, 1.0 - t**2
    n = np.stack(np.broadcast_arrays(-2.0 * t * b * r / R * np.sin(phi),
                                     -2.0 * t * a * r / R * np.cos(phi),
                                     a * b), -1)
    return n * r[..., None]


def boundary_curvatures_exact(fam, phi):
    """Reference for saddle's boundary integrands: (kappa_n, kappa_g) of the
    boundary by cross products of stacked vectors.  The curvature vector
    c'' / |c'|^2 (its tangential part drops out) is projected on the unit
    family_normal n at r = R and on the inward co-normal n x t:
    kappa_n = c''.n / |c'|^2 and kappa_g = c''.(n x t) / |c'|^2."""
    c1, c2 = boundary_derivatives(fam, phi)
    sp = np.linalg.norm(c1, axis=-1)
    n = family_normal(fam, fam.R, phi)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    conormal = np.cross(n, c1 / sp[..., None])
    return (np.einsum("...i,...i->...", c2, n) / sp**2,
            np.einsum("...i,...i->...", c2, conormal) / sp**2)


def reference_boundary_curvatures(fam, phi):
    """Reference for boundary_curvatures_exact and saddle's boundary
    integrands: the boundary's curvature vector, its tangential part
    removed, projected on the unit normal of x_r x x_phi from
    surface_derivs at r = R and on the inward co-normal n x t."""
    c1, c2 = boundary_derivatives(fam, phi)
    x_r, x_p, *_ = surface_derivs(fam, fam.R, phi)
    n = np.cross(x_r, x_p)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    sp2 = np.einsum("...i,...i->...", c1, c1)
    that = c1 / np.sqrt(sp2)[..., None]
    kvec = (c2 - np.einsum("...i,...i->...", c2, that)[..., None] * that) \
        / sp2[..., None]
    kn = np.einsum("...i,...i->...", kvec, n)
    kg = np.einsum("...i,...i->...", kvec, np.cross(n, that))
    return kn, kg


def reference_two_loop(g, memory, apply_minv):
    """Reference for the optimizer's pair ring: the L-BFGS direction -H g by
    the two-loop recursion (Nocedal & Wright, Alg. 7.4) over a deque of
    (s, y, 1 / s.y) tuples, oldest first, with numpy vdot and out-of-place
    updates."""
    q = np.array(g, dtype=float)
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(np.vdot(s, q))
        q -= a * y
        alphas.append(a)
    r = apply_minv(q)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        r += (a - rho * float(np.vdot(y, r))) * s
    return -r


def real_fourier_basis(nb):
    """Orthonormal real Fourier rows over nb loop samples, (basis, modes):
    the constant, then cos and sin of each 0 < m < nb / 2, then (-1)^j for
    even nb; modes holds each row's m."""
    j = np.arange(nb)
    rows, modes = [np.full(nb, 1.0 / np.sqrt(nb))], [0]
    for m in range(1, (nb + 1) // 2):
        phase = 2.0 * np.pi * m * j / nb
        rows += [np.sqrt(2.0 / nb) * np.cos(phase),
                 np.sqrt(2.0 / nb) * np.sin(phase)]
        modes += [m, m]
    if nb % 2 == 0:
        rows.append((-1.0) ** j / np.sqrt(nb))
        modes.append(nb // 2)
    return np.array(rows), np.array(modes)


class PreconditionerModel(NamedTuple):
    """The stiffness optimize.make_preconditioner inverts on the loop rows,
    written out; the other rows pass through."""

    basis: np.ndarray       # (B, B) real_fourier_basis rows over the loop
    symbol: np.ndarray      # (B,) the circulant C's eigenvalue on each row
    u: np.ndarray           # (B, 3) dl/dx_B at the start
    mu: float               # the length penalty stiffness

    def loop_block(self):
        """The dense (3B, 3B) C kron I_3 + 2 mu u u^T over the loop rows'
        x, y, z in row-major order."""
        c = self.basis.T @ (self.symbol[:, None] * self.basis)
        u = self.u.ravel()
        return np.kron(c, np.eye(3)) + 2.0 * self.mu * np.outer(u, u)


def preconditioner_model(mesh, x0, params):
    """PreconditionerModel of optimize.make_preconditioner at x0.

    C's symbol is the bending and edge-chain symbol plus 2k times the
    film's eigenvalues 2 sqrt(3) pi |m| / B (the Douglas form's, tests/
    test_mesh.py), with its m = 0 entry the film's diagonal, 2k times the
    mean of those eigenvalues; u = t_{v-1} - t_v with the tangents from
    np.roll.  The symbol is floored at 1e-12 of its largest entry, as the
    preconditioner does.
    """
    loop = mesh.boundary_loop
    nb = len(loop)
    xb = np.asarray(x0, dtype=float)[loop]
    e = np.roll(xb, -1, axis=0) - xb
    s = np.linalg.norm(e, axis=1)
    t = e / s[:, None]

    m = np.arange(nb // 2 + 1)
    film = 2.0 * params.spring_k * LATTICE_TENSION * np.pi * m / nb
    film[0] = 2.0 * params.spring_k * LATTICE_TENSION * np.pi * np.mean(
        np.minimum(np.arange(nb), nb - np.arange(nb))) / nb
    w = 2.0 - 2.0 * np.cos(2.0 * np.pi * m / nb)
    symbol = (2.0 * params.alpha * w**2 / s.mean()**3
              + 2.0 * params.edge_penalty_k * w + film)
    top = symbol.max()
    basis, modes = real_fourier_basis(nb)
    return PreconditionerModel(
        basis=basis, symbol=np.maximum(symbol, 1e-12 * top)[modes],
        u=np.roll(t, 1, axis=0) - t, mu=params.length_penalty_k)


def fft_preconditioner(mesh, x0, params):
    """Reference for optimize.make_preconditioner: the rows off the loop
    passed through, the loop rows a dense solve with preconditioner_model's
    loop block on every call.  The solve runs in the real Fourier basis F,
    where C is the diagonal S and the block is S + 2 mu (F u)(F u)^T, scaled
    by S^{-1/2} on both sides to I + 2 mu w w^T: in the loop basis the
    block's condition number (7e5 at rings 32) would cost the solve that
    factor of its accuracy."""
    loop = mesh.boundary_loop
    model = preconditioner_model(mesh, x0, params)
    f = model.basis
    scale = np.repeat(model.symbol ** -0.5, 3)
    w = scale * (f @ model.u).ravel()
    block = np.eye(len(w)) + 2.0 * model.mu * np.outer(w, w)

    def apply(g):
        z = np.array(g, dtype=float)
        y = np.linalg.solve(block, scale * (f @ g[loop]).ravel())
        z[loop] = f.T @ (scale * y).reshape(-1, 3)
        return z

    return apply


def read_obj(path):
    """Reader for meshio.write_obj's files: (positions, triangles) with
    0-based indices.

    Only `v` and triangular `f` records are interpreted; `f` entries of the
    form i/j/k keep their leading vertex index.
    """
    verts, tris = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                if len(idx) != 3:
                    raise ValueError(f"non-triangular face in {path}: {line.strip()}")
                if any(i < 1 for i in idx):
                    raise ValueError("negative OBJ indices are not supported")
                tris.append([i - 1 for i in idx])
    return np.array(verts, dtype=float), np.array(tris, dtype=np.int64)


def curve_fit_exponent(diagram, gamma_threshold):
    """Reference for sweep.fit_exponent: the same model, window, start and
    bounds through scipy.optimize.curve_fit (trust-region reflective, its
    stderr from the finite-difference Jacobian at the solution)."""
    import scipy.optimize

    rows = _fit_window(diagram, gamma_threshold)
    g = np.array([p.gamma for p in rows])
    a = np.array([p.mean_abs_kn for p in rows])

    def model(gamma, amp, gamma_c, p):
        return amp * np.clip(gamma - gamma_c, 1e-12, None) ** p

    # gamma_c starts at the threshold, or at its upper bound when the first
    # point lies within 1e-9 relative above the threshold
    gamma_c_max = g.min() - 1e-9 * gamma_threshold
    p0 = (a.max() / max(np.sqrt(g.max() - gamma_threshold), 1e-6),
          min(gamma_threshold, gamma_c_max), 0.5)
    bounds = ([1e-12, 0.5 * gamma_threshold, 0.1],
              [np.inf, gamma_c_max, 1.5])
    try:
        popt, pcov = scipy.optimize.curve_fit(
            model, g, a, p0=p0, bounds=bounds, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"power-law fit did not converge: {exc}") from exc
    stderr = float(np.sqrt(pcov[2, 2])) if np.all(np.isfinite(pcov)) else np.inf
    return ExponentFit(exponent=float(popt[2]), stderr=stderr,
                       gamma_c=float(popt[1]), amplitude=float(popt[0]),
                       r_squared=_r_squared(a, model(g, *popt)),
                       n_points=len(rows))


def exponent_fit_ssr(diagram, gamma_threshold, fit):
    """Sum of squared residuals of fit's A (gamma - gamma_c)^p over the
    fit window."""
    rows = _fit_window(diagram, gamma_threshold)
    g = np.array([p.gamma for p in rows])
    a = np.array([p.mean_abs_kn for p in rows])
    pred = fit.amplitude * np.clip(g - fit.gamma_c, 1e-12, None) ** fit.exponent
    return float(np.sum((a - pred) ** 2))


# ---------------------------------------------------------------------------
# closed-form oracles of the paper's analysis: the flat-disk equilibrium and
# the second-order coefficient of its radial modes, the twisted saddle's
# series, and the Frenet analysis and equilibrium residuals of closed curves


@dataclass
class DiskSolution:
    radius: float
    beta: float
    gamma: float
    sigma: float
    alpha: float

    @property
    def cubic_residual(self):
        """sigma R^3 + beta R^2 - alpha, zero for a valid solution."""
        return self.sigma * self.radius**3 + self.beta * self.radius**2 - self.alpha


def disk_solution(length, sigma, alpha):
    """Flat-disk equilibrium for boundary length L, tension sigma, modulus alpha."""
    if length <= 0 or alpha <= 0:
        raise ValueError("need length > 0 and alpha > 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    radius = length / (2.0 * np.pi)
    beta = (alpha - sigma * radius**3) / radius**2
    gamma = sigma * length**3 / alpha
    return DiskSolution(radius=radius, beta=beta, gamma=gamma,
                        sigma=sigma, alpha=alpha)


def second_order_coefficient(k, gamma):
    """Dimensionless second-order energy coefficient of radial mode k."""
    if k < 1:
        raise ValueError("mode number must be >= 1")
    k2 = float(k) ** 2
    return (1.0 - k2) * gamma / (8.0 * np.pi**3) + 2.0 * (k2 - 1.0) ** 2


def family_metric(fam, r, phi):
    """Analytic first fundamental form (g_rr, g_rphi, g_phiphi)."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    rho2 = (r / R) ** 2
    c2, c4 = np.cos(2.0 * phi), np.cos(4.0 * phi)
    s2, s4 = np.sin(2.0 * phi), np.sin(4.0 * phi)
    g_rr = t**4 + 2.0 * t**2 * (rho2 + c2 - rho2 * c4) + 1.0
    g_rp = 2.0 * r * t**2 * (rho2 * s4 - s2)
    g_pp = r**2 * (t**4 + 2.0 * t**2 * (rho2 - c2 + rho2 * c4) + 1.0)
    return g_rr, g_rp, g_pp


def boundary_curve(fam, phi):
    """Boundary (r = R) position samples."""
    return family_point(fam, fam.R, phi)


def ds2_series(fam, phi):
    """Series squared line element of the boundary: (ds/dphi)^2."""
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    return R**2 * ((1.0 + t**2) ** 2
                   - 2.0 * t**2 * (np.cos(2.0 * phi) - np.cos(4.0 * phi)))


def kappa2_series(fam, phi):
    """Series squared curvature of the boundary curve."""
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    c2, c4, c6 = (np.cos(2.0 * phi), np.cos(4.0 * phi), np.cos(6.0 * phi))
    num = (1.0 + t**2 * (10.0 - 6.0 * c4)
           - t**4 * (2.0 - 6.0 * c2 - 2.0 * c6)
           + t**6 * (10.0 - 6.0 * c4) + t**8)
    den = R**2 * ((1.0 + t**2) ** 2 - 2.0 * t**2 * (c2 - c4)) ** 3
    return num / den


def boundary_curvature_series(fam, phi):
    """Series normal and geodesic curvature (kappa_n, kappa_g) of the boundary."""
    phi = np.asarray(phi, dtype=float)
    t, R = fam.t, fam.R
    s2, s4, s6 = np.sin(2 * phi), np.sin(4 * phi), np.sin(6 * phi)
    c2, c4 = np.cos(2 * phi), np.cos(4 * phi)
    kn = -(2.0 * t / R) * s2 + (t**3 / R) * (3.0 * s2 - s4 + s6)
    kg = 1.0 / R + t**2 * (1.0 + 3.0 * c2 - 5.0 * c4) / (2.0 * R)
    return kn, kg


def length_series(fam):
    """Boundary length series pi R (2 + 2 t^2 - t^4)."""
    t = fam.t
    return np.pi * fam.R * (2.0 + 2.0 * t**2 - t**4)


def energy_series(fam, sigma, alpha):
    """Series energy (pi alpha / R) [2 + s + t^2 (10 + s) - t^4 (9 + 5 s / 3)]."""
    t, R = fam.t, fam.R
    s = sigma * R**3 / alpha
    return (np.pi * alpha / R) * (2.0 + s + t**2 * (10.0 + s)
                                  - t**4 * (9.0 + 5.0 * s / 3.0))


def gaussian_K_leading(fam):
    """Leading-order Gaussian curvature -(2t/R)^2 (uniform over the surface)."""
    return -((2.0 * fam.t / fam.R) ** 2)


def int_abs_kn_leading(fam):
    """Leading-order integral of |kappa_n| ds: 8 |t|, independent of R."""
    return 8.0 * abs(fam.t)


def mean_abs_kn_leading(fam):
    """Leading-order length average of |kappa_n|: 4 |t| / (pi R)."""
    return 4.0 * abs(fam.t) / (np.pi * fam.R)


class InflectionError(DiffGeoError):
    """Torsion or equilibrium residuals requested at a curvature zero."""


@dataclass(eq=False)
class FrenetData:
    """Closed-curve samples with tangent/curvature/torsion per sample.

    speed is |dx/du| with u the (uniform) sample parameter; arc-length
    derivatives of any per-sample field are available via deriv_s.
    """

    points: np.ndarray
    speed: np.ndarray
    tangent: np.ndarray
    normal: Optional[np.ndarray]
    binormal: Optional[np.ndarray]
    kappa: np.ndarray
    tau: np.ndarray
    tau_defined: np.ndarray

    @property
    def total_length(self):
        seg = np.linalg.norm(np.roll(self.points, -1, axis=0) - self.points, axis=1)
        return float(seg.sum())

    def deriv_u(self, f):
        return 0.5 * (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0))

    def deriv_s(self, f):
        """Cyclic central-difference derivative with respect to arc length."""
        if np.ndim(f) == 1:
            return self.deriv_u(f) / self.speed
        return self.deriv_u(f) / self.speed[:, None]


def frenet_analyze(points):
    """Curvature, torsion and frames of a closed curve by cyclic differences.

    Second-order central differences in the sample parameter; the formulas
    kappa = |x' x x''| / |x'|^3 and tau = (x' x x'') . x''' / |x' x x''|^2
    are parametrization invariant, so uniform parameter sampling suffices.
    Torsion is marked undefined where kappa < 1e-10 / L.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3 or len(x) < 5:
        raise DiffGeoError("need at least 5 samples of a closed 3D curve")
    d1 = 0.5 * (np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0))
    d2 = np.roll(x, -1, axis=0) - 2.0 * x + np.roll(x, 1, axis=0)
    d3 = 0.5 * (np.roll(x, -2, axis=0) - 2.0 * np.roll(x, -1, axis=0)
                + 2.0 * np.roll(x, 1, axis=0) - np.roll(x, 2, axis=0))

    speed = np.linalg.norm(d1, axis=1)
    if np.any(speed <= 0.0):
        raise DiffGeoError("stationary sample point (zero speed)")
    tangent = d1 / speed[:, None]
    cr = np.cross(d1, d2)
    crn = np.linalg.norm(cr, axis=1)
    kappa = crn / speed**3

    seg = np.linalg.norm(np.roll(x, -1, axis=0) - x, axis=1)
    L = float(seg.sum())
    defined = kappa >= 1e-10 / L

    tau = np.zeros(len(x))
    tau[defined] = np.einsum("ij,ij->i", cr[defined], d3[defined]) / crn[defined]**2

    binormal = np.zeros_like(x)
    normal = np.zeros_like(x)
    binormal[defined] = cr[defined] / crn[defined][:, None]
    normal[defined] = np.cross(binormal[defined], tangent[defined])
    return FrenetData(points=x, speed=speed, tangent=tangent, normal=normal,
                      binormal=binormal, kappa=kappa, tau=tau,
                      tau_defined=defined)


def el_residuals(curve, contact_angle, alpha, sigma, beta):
    """Equilibrium residuals of the boundary curve equations.

    residual_a = kappa'' + kappa^3/2 - (tau^2 + beta/(2 alpha)) kappa
                 - sigma/(2 alpha) * sin(theta)
    residual_b = 2 kappa' tau + kappa tau' + sigma/(2 alpha) * cos(theta)

    with ' the arc-length derivative (same cyclic scheme as frenet_analyze)
    and theta the film contact angle along the curve.  curve is a FrenetData;
    analytic kappa/tau arrays may be substituted before the call.
    """
    if not np.all(curve.tau_defined):
        i = int(np.argmin(curve.tau_defined))
        s_at = float(np.linalg.norm(
            np.roll(curve.points, -1, axis=0) - curve.points, axis=1)[:i].sum())
        raise InflectionError(
            f"curvature vanishes at sample {i} (arc length {s_at:.6g})")
    theta = np.broadcast_to(np.asarray(contact_angle, dtype=float),
                            curve.kappa.shape)
    kappa, tau = curve.kappa, curve.tau
    kp = curve.deriv_s(kappa)
    kpp = curve.deriv_s(kp)
    taup = curve.deriv_s(tau)
    half = sigma / (2.0 * alpha)
    res_a = kpp + 0.5 * kappa**3 - (tau**2 + beta / (2.0 * alpha)) * kappa \
        - half * np.sin(theta)
    res_b = 2.0 * kp * tau + kappa * taup + half * np.cos(theta)
    return res_a, res_b
