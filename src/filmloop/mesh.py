"""Triangulated disk meshes with an ordered boundary loop.

Meshes live on a triangular lattice: a central vertex surrounded by m
concentric hexagonal rings gives 1 + 3m(m+1) vertices, 6m^2 triangles and
6m boundary vertices.  Connectivity (a TriMesh) is fixed after construction;
vertex positions travel separately as plain (n, 3) float arrays so the same
mesh can be shared read-only by many configurations.

The boundary loop is stored explicitly, oriented counterclockwise in the
construction plane and consistent with the (counterclockwise) triangle
winding.  Downstream code relies on that orientation for signed curvatures.

The film is slaved to its loop.  The Dirichlet energy (1/2) int |grad x|^2 of
the harmonic disk spanning a loop x(theta) is Douglas's form (Trans. AMS 33
(1931) 263) pi sum_m |m| |X_m|^2 in the loop's Fourier coefficients X_m, and
it is the film's area when the parametrization is conformal.  On the B
loop vertices, at uniform parameter, the film is the dense circulant
2 sqrt(3) D (film_operator), and every mesh's film is its loop's:
TriMesh.loop_mesh holds the loop alone, and TriMesh.loop_film adds the map
back to the full state, the harmonic disk itself,
x(rho, theta) = sum_m X_m rho^|m| e^{i m theta}, sampled at each vertex's
hex ring and place.
"""

import functools
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

# film tension per unit spring_k: the unit spring lattice's, whose
# k sum |e|^2 tends to 2 sqrt(3) k times the Dirichlet energy, kept so that
# k L^3 / alpha means what the transition brackets were measured in
LATTICE_TENSION = 2.0 * np.sqrt(3.0)
# most rings: extend's Poisson-kernel rows and powers, the largest dense
# arrays of a mesh and its loop film, hold n m float64 and complex128 for the
# n = 3m(m + 1) + 1 vertices, 0.15 + 0.15 GB at rings 182 (n = 100,171)
MAX_RINGS = 182


class MeshError(ValueError):
    """Raised when mesh data does not describe an oriented triangulated disk."""


@dataclass(eq=False)
class TriMesh:
    """Connectivity of a triangulated disk.

    triangles are (f, 3) vertex indices with counterclockwise winding and
    boundary_loop is the ordered cycle of boundary vertices; lattice holds
    generate_disk_mesh's (n, 2) hex-lattice coordinates (q, r), None for
    other meshes.  Derived: loop_prev and loop_next, the loop positions i-1
    and i+1 (mod B), so loop edge i runs from boundary_loop[i] to
    boundary_loop[loop_next[i]]; loop_only, for a mesh with no triangles,
    which only loop_mesh builds (from_triangles refuses one): its
    boundary_loop is arange(B), so no gathers.
    """

    vertex_count: int
    triangles: np.ndarray
    boundary_loop: np.ndarray
    lattice: Optional[np.ndarray] = field(default=None, repr=False)
    loop_prev: np.ndarray = field(init=False, repr=False)
    loop_next: np.ndarray = field(init=False, repr=False)
    loop_only: bool = field(init=False, repr=False)

    def __post_init__(self):
        b = np.arange(len(self.boundary_loop))
        self.loop_prev, self.loop_next = np.roll(b, 1), np.roll(b, -1)
        self.loop_only = len(self.triangles) == 0
        self._loop = self._film = self._loop_tris = None     # caches

    @classmethod
    def from_triangles(cls, vertex_count, triangles):
        """Build a TriMesh from raw triangles, extracting edges and the boundary loop.

        Raises MeshError carrying validate_mesh's summary line unless the
        triangles are a consistently oriented topological disk with a single
        boundary cycle.
        """
        tris = np.asarray(triangles, dtype=np.int64)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("triangles must be an (f, 3) index array")
        if tris.size and (tris.min() < 0 or tris.max() >= vertex_count):
            raise MeshError("triangle indices out of range")

        report, boundary_dir = _classify_edges(vertex_count, tris)
        if not report.passed:
            raise MeshError(report.summary())
        succ = dict(boundary_dir.tolist())
        loop = [int(boundary_dir[0, 0])]
        while succ[loop[-1]] != loop[0]:
            loop.append(succ[loop[-1]])
        return cls(vertex_count=vertex_count, triangles=tris,
                   boundary_loop=np.array(loop, dtype=np.int64))

    def loop_mesh(self):
        """The B loop vertices, in loop order, as a loop-only mesh with no
        triangles (cached; a loop mesh is its own).  Every mesh's energy is
        its loop mesh's at its loop rows, whose film term
        k x_B^T (2 sqrt(3) D) x_B (film_operator(B)) is 2 sqrt(3) k times
        the Dirichlet energy of the harmonic disk spanning the loop."""
        if self.loop_only:
            return self
        if self._loop is None:
            nb = len(self.boundary_loop)
            self._loop = TriMesh(
                vertex_count=nb, triangles=np.empty((0, 3), dtype=np.int64),
                boundary_loop=np.arange(nb))
        return self._loop

    def loop_film(self):
        """The film on the boundary loop (cached): (loop_mesh(), extend).

        extend(x_B) returns the full (n, 3) state: the loop rows are x_B,
        and an interior vertex on hex ring k at place p (hex_ring_place) is
        the harmonic disk spanning the loop at rho = k / m,
        theta = 2 pi (p / 6k - p_0 / 6m), m the loop's ring and p_0 the
        place of boundary_loop[0], so loop vertex j sits at
        theta_j = 2 pi j / B.  Raises MeshError for a mesh with interior
        vertices but no lattice coordinates.
        """
        if self._film is None:
            self._film = self.loop_mesh(), _extension(self)
        return self._film

    def loop_triangles(self):
        """Increasing indices of the triangles with a corner on the boundary
        loop (cached): every triangle that adds to a loop vertex's normal."""
        if self._loop_tris is None:
            on_loop = np.zeros(self.vertex_count, dtype=bool)
            on_loop[self.boundary_loop] = True
            self._loop_tris = np.flatnonzero(
                on_loop[self.triangles].any(axis=1))
        return self._loop_tris


def circulant(col):
    """Dense circulant matrix with first column col: entry (i, j) is
    col[(i - j) % B].  Row i is the window of B entries of the doubled,
    reversed column that starts at B - 1 - i."""
    nb = len(col)
    rev = col[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([rev, rev[:-1]]), nb)
    return windows[::-1].copy()


def douglas_form(nb):
    """First column of the Douglas form D over B = nb loop samples at uniform
    parameter: the symmetric circulant with eigenvalues pi |m| / B, so
    x_B^T D x_B = pi sum_m |m| |X_m|^2 with X_m = fft(x_B)_m / B."""
    return np.fft.irfft(np.pi * np.arange(nb // 2 + 1) / nb, n=nb)


@functools.cache
def film_operator(nb):
    """The film on B = nb loop samples (cached, read-only): the dense
    circulant LATTICE_TENSION * D of douglas_form(nb)."""
    op = circulant(LATTICE_TENSION * douglas_form(nb))
    op.flags.writeable = False
    return op


def _extension(mesh):
    """loop_film's extend, built uncached.

    The interior is the truncated Poisson kernel applied to x_B: the row of
    a vertex at (rho, theta) is irfft over m of (rho e^{-i theta})^m.  The
    vertex at place p + r k of ring k sits r m loop samples on from the one
    at place p, so only the first sextant (places p < k, and the centre)
    gets rows, and each row serves its six rotations through the six shifted
    copies of x_B.
    """
    n, loop = mesh.vertex_count, mesh.boundary_loop
    nb = len(loop)

    inner = np.setdiff1d(np.arange(n), loop)
    if len(inner) == 0:

        def extend(x_b):
            x = np.empty((n, 3))
            x[loop] = x_b
            return x

        return extend
    if mesh.lattice is None:
        raise MeshError("the film's interior needs each vertex's hex ring "
                        "and place, from the lattice coordinates that only "
                        "generate_disk_mesh records")

    # the rotations (k, j + r k), r = 0..5, of sextant vertex (k, j) as row
    # k (k - 1) / 2 + j of `orbits`, column r; the centre is its own orbit
    ring, place = hex_ring_place(mesh.lattice)
    m, p0 = ring[loop[0]], place[loop[0]]
    k = ring[inner]
    centre, inner = inner[k == 0], inner[k > 0]
    k = k[k > 0]
    r, j = np.divmod(place[inner], k)
    orbits = np.empty(len(inner), dtype=np.int64)
    orbits[6 * (k * (k - 1) // 2 + j) + r] = inner

    k, j = ring[orbits[::6]], place[orbits[::6]]
    z = np.zeros(len(k) + 1, dtype=complex)
    z[1:] = (k / m) * np.exp(-2j * np.pi * (j / (6 * k) - p0 / (6 * m)))
    powers = np.empty((len(z), nb // 2 + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = z[:, None]
    rows = np.fft.irfft(np.cumprod(powers, axis=1, out=powers), n=nb, axis=1)
    # column block r of x_b[shifted] is the loop seen from rotation r:
    # row i holds x_b[(i + r m) % B]
    shifted = (np.arange(nb)[:, None] + m * np.arange(6)) % nb

    def extend(x_b):
        x = np.empty((n, 3))
        x[loop] = x_b
        inside = rows @ x_b[shifted].reshape(nb, 18)
        x[centre] = inside[0, :3]
        x[orbits] = inside[1:].reshape(-1, 3)
        return x

    return extend


@dataclass
class ValidationReport:
    """Result of validate_mesh: topological invariants recomputed from triangles."""

    vertex_count: int
    triangle_count: int
    edge_count: int
    euler_characteristic: int
    boundary_cycle_count: int
    orientation_violations: int
    nonmanifold_edges: int
    passed: bool

    def summary(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{status}: V={self.vertex_count} E={self.edge_count} "
                f"F={self.triangle_count} chi={self.euler_characteristic} "
                f"boundary_cycles={self.boundary_cycle_count} "
                f"orientation_violations={self.orientation_violations} "
                f"nonmanifold_edges={self.nonmanifold_edges}")


def _classify_edges(vertex_count, tris):
    """Sort the directed edges of (f, 3) triangles into boundary and interior.

    Returns (ValidationReport, directed boundary edges in triangle order).
    An undirected edge in one triangle is a boundary edge, in two an interior
    edge, in more a non-manifold edge; a directed edge seen twice is an
    orientation violation.  The boundary cycle count is the number of
    independent cycles of the boundary graph (edges - vertices +
    components), so a boundary that touches itself at a vertex counts at
    least 2.
    """
    n = int(vertex_count)
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    und = np.sort(directed, axis=1)
    uniq, inverse, counts = np.unique(und[:, 0] * n + und[:, 1],
                                      return_inverse=True, return_counts=True)
    dir_counts = np.unique(directed[:, 0] * n + directed[:, 1],
                           return_counts=True)[1]
    boundary_dir = directed[counts[inverse] == 1]

    root = {}                               # union-find over boundary vertices

    def find(v):
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    for a, b in boundary_dir.tolist():
        root[find(a)] = find(b)
    components = sum(1 for v, r in root.items() if v == r)
    cycles = len(boundary_dir) - len(root) + components

    chi = n - len(uniq) + len(tris)
    violations = int(np.sum(dir_counts > 1))
    nonmanifold = int(np.sum(counts > 2))
    report = ValidationReport(
        vertex_count=n, triangle_count=len(tris), edge_count=len(uniq),
        euler_characteristic=int(chi), boundary_cycle_count=cycles,
        orientation_violations=violations, nonmanifold_edges=nonmanifold,
        passed=(chi == 1 and cycles == 1 and violations == 0
                and nonmanifold == 0))
    return report, boundary_dir


def validate_mesh(mesh):
    """Recompute disk invariants from mesh.triangles alone and report them.

    Never raises for bad meshes; the report carries the failures.  Checks:
    Euler characteristic 1, single boundary cycle, every edge in one or two
    triangles, opposite directions on shared edges.
    """
    return _classify_edges(mesh.vertex_count,
                           np.asarray(mesh.triangles, dtype=np.int64))[0]


def hex_ring_place(lattice):
    """Hex ring k = max(|q|, |r|, |q + r|) and counterclockwise place
    p in [0, 6k) of each (q, r) row of lattice: the corners (k, 0), (0, k),
    (-k, k), (-k, 0), (0, -k), (k, -k) sit at places 0, k, ..., 5k, and the
    centre at ring 0, place 0.  Returns (ring, place)."""
    q, r = lattice[:, 0], lattice[:, 1]
    s = q + r
    k = np.maximum(np.maximum(np.abs(q), np.abs(r)), np.abs(s))
    p = np.select(
        [(q > 0) & (r >= 0), (q <= 0) & (s > 0), (q < 0) & (s <= 0),
         (q >= 0) & (s < 0)],
        [r, k - q, 3 * k - r, 4 * k + q], 5 * k + s)
    return k, p


def generate_disk_mesh(rings, elongation=1.0):
    """Hexagonal-lattice disk with `rings` concentric rings, optionally stretched.

    Returns (TriMesh, positions).  Lattice edges have unit length; positions
    lie in the z = 0 plane and are mapped (x, y) -> (x * elongation,
    y / elongation), an area-preserving stretch.  elongation = 1 keeps the
    regular hexagonal perimeter.  rings must be an integer (a bool is not).
    """
    if not isinstance(rings, numbers.Integral) or isinstance(rings, bool):
        raise MeshError(f"rings must be an integer, got {rings!r}")
    m = int(rings)
    if not 1 <= m <= MAX_RINGS:
        raise MeshError(f"rings must be in 1 .. {MAX_RINGS}, got {m}")
    elongation = float(elongation)
    if not np.isfinite(elongation) or elongation <= 0:
        raise MeshError("elongation must be positive and finite")

    # index[q + m + 1, r + m + 1] of lattice point (q, r), -1 off the disk
    # |q|, |r|, |q + r| <= m; the margin of one lets the cells below look one
    # step beyond the lattice
    span = np.arange(-m - 1, m + 2)
    q, r = np.meshgrid(span, span, indexing="ij")
    on = (np.abs(q) <= m) & (np.abs(r) <= m) & (np.abs(q + r) <= m)
    n = np.count_nonzero(on)
    index = np.full(q.shape, -1, dtype=np.int64)
    index[on] = np.arange(n)
    q, r = q[on], r[on]
    positions = np.zeros((n, 3))
    positions[:, 0] = q + 0.5 * r
    positions[:, 1] = 0.5 * np.sqrt(3.0) * r

    # cells are indexed by their lower-left lattice coordinate (q, r) for
    # q, r in [-m - 1, m], which for down-pointing triangles is not itself a
    # triangle vertex; each cell gives its up triangle, then its down one
    here, right = index[:-1, :-1], index[1:, :-1]
    above, right_above = index[:-1, 1:], index[1:, 1:]
    up = np.stack([here, right, above], axis=-1)
    down = np.stack([right, right_above, above], axis=-1)
    tris = np.stack([up, down], axis=2).reshape(-1, 3)
    tris = tris[(tris >= 0).all(axis=1)]

    mesh = TriMesh.from_triangles(n, tris)
    mesh.lattice = np.stack([q, r], axis=1)
    positions[:, 0] *= elongation
    positions[:, 1] /= elongation
    return mesh, positions


class BoundaryFrame(NamedTuple):
    """Edge data of the boundary loop; row i is loop edge i, which runs
    boundary_loop[i] -> boundary_loop[i + 1]."""

    length: np.ndarray        # (B,) edge lengths s_i
    edge: np.ndarray          # (3, B) edge vectors, component-first; the
                              # tangents are edge / length
    s_weight: np.ndarray      # (B,) <s_v> = (s_i + s_{i-1}) / 2 at boundary_loop[i]


def boundary_frame(mesh, x):
    """Edge lengths, edge vectors and vertex arc weights of the loop.

    The edges are built component-first, on x.T as (3, B) rows of one
    coordinate each, so every later step is a row operation against a (B,)
    vector.  A squared length sums its components (p0 + p1) + p2, the order
    in which np.add.reduce(e * e, axis=1) rounds on (B, 3) rows, so the
    lengths are np.linalg.norm's bit for bit.  The edge array is the
    caller's to overwrite.  The unit tangents are edge / length, which each
    caller divides out after checking the lengths against its own
    degeneracy bound and raising its own error, so a zero-length edge never
    reaches a division.
    """
    xb = x if mesh.loop_only else x.take(mesh.boundary_loop, axis=0)
    xt = xb.T
    e = xt.take(mesh.loop_next, axis=1) - xt
    sq = e * e
    s = sq[0] + sq[1]
    s += sq[2]
    np.sqrt(s, out=s)
    return BoundaryFrame(s, e, 0.5 * (s + s[mesh.loop_prev]))


def boundary_length(mesh, x):
    """Total length of the boundary loop polyline."""
    return float(boundary_frame(mesh, x).length.sum())


def scale_to_boundary_length(mesh, x, target):
    """Uniformly rescale positions so the boundary loop has length `target`."""
    cur = boundary_length(mesh, x)
    if cur <= 0:
        raise MeshError("degenerate boundary, cannot rescale")
    return np.asarray(x, dtype=float) * (target / cur)
