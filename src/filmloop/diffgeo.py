"""Discrete differential-geometry observables of a relaxed film.

Boundary curvature and its normal/geodesic decomposition, angle-defect
Gaussian curvature with the (exact) discrete Gauss-Bonnet audit, a
planarity metric, the self-intersection count and the per-boundary-vertex
CSV, from one state's triangle geometry (corner_geometry).  The
smooth-curve oracles the tests hold these to (the Frenet analysis of closed
sampled curves and the equilibrium residuals of the boundary curve
equations) live in the tests.

Sign conventions: the boundary loop is oriented counterclockwise with
respect to the surface orientation, vertex normals are angle-weighted face
normal averages, and the co-normal nu = N x t points into the surface, so a
flat counterclockwise disk of radius R has kappa_g = +1/R and the boundary
turning angles sum to +2 pi.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import boundary_frame, boundary_length


class DiffGeoError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# surface helpers


def _cross(a, b, out=None):
    """a x b of component-first (3, ...) arrays, by np.cross's float ops,
    written row by row into out (a new array if None)."""
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[k])
        out[k] -= a[j] * b[i]
    return out


def _norm(a):
    """|a| of a component-first array, by np.linalg.norm's float ops."""
    return np.sqrt((a * a).sum(axis=0))


def _dot(u, v):
    """u . v of component-first arrays, paired as np.einsum("ij,ij->i") pairs
    rows on x86-64 numpy (left to right moves the corner angles an ulp)."""
    return u[0] * v[0] + u[2] * v[2] + u[1] * v[1]


def _corners(tris, x):
    """Corners of the (f, 3) triangles tris as (3 xyz, 3 corners, f)."""
    return np.ascontiguousarray(x.T).take(tris.T, axis=1)


class CornerGeometry(NamedTuple):
    """Per-triangle geometry of one state, component-first."""

    unit_normal: np.ndarray   # (3 xyz, f)
    area: np.ndarray          # (f,)
    angle: np.ndarray         # (3 corners, f)
    normal: np.ndarray        # (3 xyz, f): (b - a) x (c - a), twice the area


def corner_geometry(tris, x):
    """CornerGeometry of the (f, 3) triangles tris, by np.cross's,
    np.linalg.norm's and np.einsum's float ops on (f, 3) rows; a subset of
    the triangles gets the same bits.  boundary_geometry,
    gaussian_curvature and count_self_intersections take it for
    mesh.triangles as an argument, so one state's observables compute it
    once.  The three cross products are written row by row into (3, f)
    arrays, the two corner ones sharing one."""
    pts = _corners(tris, x)
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    u, v = b - a, c - a
    n = _cross(u, v)
    nlen = _norm(n)
    if np.any(nlen <= 0.0):
        raise DiffGeoError("zero-area triangle")
    angles = np.empty((3, len(tris)))
    angles[0] = np.arctan2(nlen, _dot(u, v))      # corner a's u x v is n
    cross = np.empty_like(n)
    for k, (p, q, r) in enumerate(((b, c, a), (c, a, b)), 1):
        u, v = q - p, r - p
        angles[k] = np.arctan2(_norm(_cross(u, v, cross)), _dot(u, v))
    return CornerGeometry(n / nlen, 0.5 * nlen, angles, n)


def _loop_normals(mesh, x, geometry=None):
    """Angle-weighted average of the triangle normals incident on each loop
    vertex, normalized, in loop order, as (3, B).  Only the triangles
    touching the loop (mesh.loop_triangles) are read, added corner by corner
    in increasing triangle order as a pass over every triangle adds them, so
    each normal has the bits of the all-vertex average at that vertex.
    geometry, when given, is corner_geometry(mesh.triangles, x)."""
    lt = mesh.loop_triangles()
    tris = mesh.triangles[lt]
    if geometry is None:
        nhat, _, angles, _ = corner_geometry(tris, x)
    else:
        nhat, angles = geometry.unit_normal[:, lt], geometry.angle[:, lt]
    acc = np.stack([np.bincount(tris.T.ravel(), (angles * ni).ravel(),
                                minlength=mesh.vertex_count)
                    for ni in nhat])[:, mesh.boundary_loop]
    norms = _norm(acc)
    if np.any(norms <= 0.0):
        raise DiffGeoError("degenerate vertex normal (zero incident-angle fan)")
    return acc / norms


# ---------------------------------------------------------------------------
# boundary curvature decomposition


@dataclass(eq=False)
class BoundaryGeometry:
    """Per-boundary-vertex curvature data, ordered along the boundary loop."""

    loop: np.ndarray          # vertex indices
    edge_length: np.ndarray   # length of edge loop[i] -> loop[i+1]
    s_weight: np.ndarray      # <s_v>, average of the two incident edges
    kappa: np.ndarray
    kappa_n: np.ndarray
    kappa_g: np.ndarray

    @property
    def integral_kn(self):
        """Signed discrete integral of kappa_n ds (an equilibrium invariant)."""
        return float(np.sum(self.s_weight * self.kappa_n))

    @property
    def integral_abs_kn(self):
        return float(np.sum(self.s_weight * np.abs(self.kappa_n)))

    @property
    def mean_abs_kn(self):
        return self.integral_abs_kn / float(self.s_weight.sum())


def boundary_geometry(mesh, x, geometry=None):
    """Curvature of the boundary loop decomposed along the surface frame.

    kappa_v = |t_v - t_{v-1}| / <s_v> with unit tangents; kappa_n is the
    projection of the discrete curvature vector on the vertex normal and
    kappa_g its projection on the inward co-normal N x t_bar.  geometry,
    when given, is corner_geometry(mesh.triangles, x), already computed.
    """
    loop = mesh.boundary_loop
    s, e, savg = boundary_frame(mesh, x)
    if np.any(s <= 0.0):
        raise DiffGeoError("degenerate boundary edge")
    t = e / s                                     # component-first (3, B)
    cvec = (t - t[:, mesh.loop_prev]) / savg
    kappa = _norm(cvec)

    normals = _loop_normals(mesh, x, geometry)
    tbar = t + t[:, mesh.loop_prev]
    # a nearly reversing corner leaves the averaged tangent ill-defined;
    # fall back to the outgoing edge direction there
    tbar = np.where(_norm(tbar) < 1e-8, t, tbar)
    tbar = tbar / _norm(tbar)

    kappa_n = _dot(cvec, normals)
    kappa_g = _dot(cvec, _cross(normals, tbar))
    return BoundaryGeometry(loop=loop, edge_length=s, s_weight=savg,
                            kappa=kappa, kappa_n=kappa_n, kappa_g=kappa_g)


# ---------------------------------------------------------------------------
# angle defects and Gauss-Bonnet


@dataclass(eq=False)
class CurvatureField:
    """Angle defects (interior) and turning angles (boundary), and the area."""

    defect: np.ndarray        # 2 pi - angle sum (interior), pi - angle sum (boundary)
    interior_mask: np.ndarray
    total_area: float

    @property
    def integral_K(self):
        """Integrated Gaussian curvature: sum of interior defects."""
        return float(self.defect[self.interior_mask].sum())

    @property
    def mean_K(self):
        """Area-averaged Gaussian curvature."""
        return self.integral_K / self.total_area


def gaussian_curvature(mesh, x, geometry=None):
    """Angle-defect curvature of every vertex and the total area.
    geometry, when given, is corner_geometry(mesh.triangles, x), already
    computed."""
    if geometry is None:
        geometry = corner_geometry(mesh.triangles, x)
    _, areas, angles, _ = geometry
    # one bincount over the corners, k-major: the order np.add.at took them
    angle_sum = np.bincount(mesh.triangles.T.ravel(), angles.ravel(),
                            minlength=mesh.vertex_count)
    interior = np.ones(mesh.vertex_count, dtype=bool)
    interior[mesh.boundary_loop] = False
    defect = np.where(interior, 2.0 * np.pi - angle_sum, np.pi - angle_sum)
    return CurvatureField(defect=defect, interior_mask=interior,
                          total_area=float(areas.sum()))


def gauss_bonnet_defect(mesh, x, field=None):
    """|sum of defects + turnings - 2 pi|; identically ~0 for any disk mesh.
    field, when given, is gaussian_curvature(mesh, x), already computed."""
    field = gaussian_curvature(mesh, x) if field is None else field
    return abs(float(field.defect.sum()) - 2.0 * np.pi)


# ---------------------------------------------------------------------------
# self-intersection diagnostic


# least cosine between a triangle normal and the vector area, and least sine
# of a boundary turn about the loop's centroid, for the graph certificate:
# far above the rounding of a cross product (~1e-15), far below the tilts
# and turns of the shapes it certifies (cosines >= 0.88 on sweep states and
# 0.1 on the t = 0.9 saddle, sines >= 0.0058)
GRAPH_MARGIN = 1e-9

# the crossing test's margin: an edge whose |det| is below it (parallel to
# the other triangle) or that crosses within it of an edge or a corner
# (barycentric units) does not count; touching is not crossing
EDGE_CROSS_EPS = 1e-12


def count_self_intersections(mesh, x, geometry=None):
    """Number of transversally intersecting non-adjacent triangle pairs.

    A state that _is_graph certifies has none, and no pair is searched.
    Otherwise candidate pairs come from a centroid KD-tree query; pairs
    sharing a vertex (a 3 x 3 comparison of their corner indices) and pairs
    whose axis-aligned bounding boxes do not overlap are dropped.  One
    array pass of the Moller-Trumbore ray-triangle test over the rest then
    counts a pair when an edge of one triangle crosses the interior of the
    other.  Exactly coplanar overlaps are skipped (the diagnostic targets
    genuine crossings of the immersed surface).  The graph test reads the
    face normals of geometry, corner_geometry(mesh.triangles, x), if given.
    """
    if _is_graph(mesh, x, geometry):
        return 0
    return len(_crossing_pairs(mesh, x))


def _is_graph(mesh, x, geometry=None):
    """True when the surface is a graph over the plane normal to its vector
    area v, which makes it embedded.

    Two conditions, each with GRAPH_MARGIN to spare: every triangle normal
    has a positive component along v, and the boundary loop seen along v
    turns monotonically about its centroid, once (turns summing to 2 pi,
    not 4 pi or more).  The projection along v then keeps every triangle's
    orientation and maps the boundary onto a simple, star-shaped curve, so
    it is one-to-one (the degree argument of Lipman, SIAM J. Imaging Sci. 7
    (2014) 1263), and triangles that share no vertex are disjoint.
    """
    if geometry is None:
        pts = _corners(mesh.triangles, x)
        n = _cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])  # (3, f)
    else:
        n = geometry.normal
    v = n.sum(axis=1)
    v_len = float(np.sqrt(v @ v))
    if not v_len > 0.0:            # a flat eight's two lobes cancel
        return False
    v = v / v_len
    if not np.all(v @ n > GRAPH_MARGIN * np.sqrt(_dot(n, n))):
        return False
    r = x[mesh.boundary_loop].T
    r = r - r.mean(axis=1, keepdims=True)
    r = r - np.outer(v, v @ r)                    # in the plane normal to v
    r_next = r[:, mesh.loop_next]
    sin = v @ _cross(r, r_next)
    cos = _dot(r, r_next)
    r_len = np.sqrt(_dot(r, r))
    if not np.all(sin > GRAPH_MARGIN * r_len * r_len[mesh.loop_next]):
        return False
    return float(np.arctan2(sin, cos).sum()) < 3.0 * np.pi


def _crossing_pairs(mesh, x):
    """(n, 2) triangle index pairs i < j counted by count_self_intersections."""
    import scipy.spatial

    pts = _corners(mesh.triangles, x)             # (3 xyz, 3 corners, f)
    p0, p1, p2 = pts[:, 0], pts[:, 1], pts[:, 2]
    centroids = (p0 + p1 + p2) / 3.0
    crad = _norm(pts - centroids[:, None])               # (3 corners, f)
    tree = scipy.spatial.cKDTree(centroids.T)
    pairs = tree.query_pairs(2.0 * float(crad.max()), output_type="ndarray")

    # drop pairs sharing any vertex, then pairs whose bounding boxes are apart
    ta, tb = mesh.triangles[pairs[:, 0]], mesh.triangles[pairs[:, 1]]
    pairs = pairs[~(ta[:, :, None] == tb[:, None, :]).any(axis=(1, 2))]
    lo = np.minimum(np.minimum(p0, p1), p2)
    hi = np.maximum(np.maximum(p0, p1), p2)
    i, j = pairs[:, 0], pairs[:, 1]
    pairs = pairs[((lo[:, i] <= hi[:, j]) & (lo[:, j] <= hi[:, i])).all(0)]
    if len(pairs) == 0:       # spare the edge test's fixed numpy overhead
        return pairs

    a, b = pts[..., pairs[:, 0]], pts[..., pairs[:, 1]]
    return pairs[_edges_cross(a, b) | _edges_cross(b, a)]


def _edges_cross(tri_a, tri_b):
    """Per pair of component-first (3 xyz, 3 corners, n) triangles: does
    any edge of tri_a cross the interior of tri_b transversally?

    A lane with |det| < EDGE_CROSS_EPS (edge parallel to or in the plane of
    tri_b) is masked out; its division by a zero or tiny det is no error.
    """
    eps = EDGE_CROSS_EPS
    a0 = tri_b[:, 0]
    e1, e2 = tri_b[:, 1] - a0, tri_b[:, 2] - a0
    hit = np.zeros(tri_a.shape[2], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(3):
            p = tri_a[:, k]
            d = tri_a[:, (k + 1) % 3] - p
            h = _cross(d, e2)
            det = _dot(e1, h)
            inv = 1.0 / det
            s = p - a0
            u = inv * _dot(s, h)
            qv = _cross(s, e1)
            v = inv * _dot(d, qv)
            t = inv * _dot(e2, qv)
            hit |= ((np.abs(det) >= eps) & (u > eps) & (u < 1.0 - eps)
                    & (v > eps) & (u + v < 1.0 - eps)
                    & (t > eps) & (t < 1.0 - eps))
    return hit


# ---------------------------------------------------------------------------
# global shape diagnostics


def planarity(mesh, x):
    """RMS distance to the best-fit plane, normalized by L_boundary / (2 pi)."""
    centered = x - x.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    rms = svals[-1] / np.sqrt(len(x))
    scale = boundary_length(mesh, x) / (2.0 * np.pi)
    return float(rms / scale)


def write_boundary_observables(path, field, bg):
    """CSV of per-boundary-vertex observables: index, s, curvatures, turning,
    the rows written by one formatting call.  field and bg are
    gaussian_curvature(mesh, x) and boundary_geometry(mesh, x) of one
    state."""
    s_cum = np.concatenate([[0.0], np.cumsum(bg.edge_length[:-1])])
    # the loop indices ride as floats, exact, and %d prints them as ints
    table = np.column_stack([bg.loop, s_cum, bg.kappa, bg.kappa_n,
                             bg.kappa_g, field.defect[bg.loop]])
    with open(path, "w") as fh:
        fh.write("index,s,kappa,kappa_n,kappa_g,defect\n")
        fh.write(("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(table))
                 % tuple(table.ravel().tolist()))
