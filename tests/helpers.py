"""Small constructions shared across test modules."""

import numpy as np
import scipy.spatial

from filmloop.mesh import TriMesh


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


def circle_samples(n, radius=1.0):
    """Uniform samples of a circle of given radius in the z = 0 plane."""
    u = np.arange(n) * 2.0 * np.pi / n
    return np.stack([radius * np.cos(u), radius * np.sin(u), np.zeros(n)],
                    axis=1)


def loop_crossing_pairs(mesh, x):
    """Reference for sweep._crossing_pairs: the same KD-tree candidates and
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
