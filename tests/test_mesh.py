"""Disk mesh construction, topological validation, and boundary bookkeeping.

Counting oracles: an m-ring hexagonal lattice disk has 3m^2 + 3m + 1
vertices, 6m^2 triangles, 9m^2 + 3m edges of which 6m are boundary, and
Euler characteristic 1.
"""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import scipy.linalg

from filmloop.mesh import (LATTICE_TENSION, MAX_RINGS, MeshError, TriMesh,
                           boundary_length, circulant, douglas_form,
                           film_operator, generate_disk_mesh, hex_ring_place,
                           scale_to_boundary_length, validate_mesh)

from helpers import (fan_mesh, mesh_from_triangles, poisson_extension,
                     polygon_mesh, reference_disk_mesh)

ANNULUS_TRIS = np.array([[0, 1, 4], [0, 4, 3], [1, 2, 5],
                         [1, 5, 4], [2, 0, 3], [2, 3, 5]], dtype=np.int64)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_disk_counts(m):
    mesh, x = generate_disk_mesh(m)
    assert mesh.vertex_count == 3 * m * m + 3 * m + 1
    assert len(mesh.triangles) == 6 * m * m
    assert len(mesh.boundary_loop) == 6 * m
    assert len(mesh.loop_next) == 6 * m
    assert validate_mesh(mesh).edge_count - 6 * m == 9 * m * m - 3 * m
    assert x.shape == (mesh.vertex_count, 3)
    assert np.all(x[:, 2] == 0.0)


def test_trimesh_derives_its_loop_data():
    # the loop shifts and the loop-only mark follow from the loop and the
    # triangles, so no caller can give a mesh loop data out of step
    assert list(inspect.signature(TriMesh).parameters) == [
        "vertex_count", "triangles", "boundary_loop", "lattice"]
    mesh, _ = generate_disk_mesh(2)
    for m in (mesh, mesh.loop_mesh(), fan_mesh(7)[0]):
        b = np.arange(len(m.boundary_loop))
        np.testing.assert_array_equal(m.loop_prev, np.roll(b, 1))
        np.testing.assert_array_equal(m.loop_next, np.roll(b, -1))
        assert m.loop_only == (len(m.triangles) == 0)
    assert mesh.loop_mesh().loop_only


def test_disk_has_unit_lattice_edges():
    mesh, x = generate_disk_mesh(3)
    loop = mesh.boundary_loop
    loop_edges = np.stack([loop, loop[mesh.loop_next]], axis=1)
    tri_edges = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    for edges in (tri_edges, loop_edges):
        e = x[edges[:, 1]] - x[edges[:, 0]]
        assert np.allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-12)


def test_validate_disk_passes():
    mesh, _ = generate_disk_mesh(4)
    report = validate_mesh(mesh)
    assert report.passed
    assert report.euler_characteristic == 1
    assert report.boundary_cycle_count == 1
    assert report.orientation_violations == 0
    assert report.nonmanifold_edges == 0
    assert report.edge_count == 9 * 16 + 12
    assert "pass" in report.summary()


def test_elongation_scales_extents():
    _, x1 = generate_disk_mesh(4, 1.0)
    _, xe = generate_disk_mesh(4, 1.5)
    span = lambda a, c: a[:, c].max() - a[:, c].min()
    assert np.isclose(span(xe, 0) / span(x1, 0), 1.5, rtol=1e-12)
    assert np.isclose(span(xe, 1) / span(x1, 1), 1.0 / 1.5, rtol=1e-12)


def test_elongation_keeps_connectivity():
    m1, _ = generate_disk_mesh(3, 1.0)
    m2, _ = generate_disk_mesh(3, 1.4)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.boundary_loop, m2.boundary_loop)


def test_loop_next_walks_boundary_loop():
    mesh, _ = generate_disk_mesh(3)
    loop = mesh.boundary_loop
    walked = {frozenset(p) for p in zip(loop, np.roll(loop, -1))}
    listed = {frozenset(p) for p in zip(loop, loop[mesh.loop_next])}
    assert walked == listed


def test_boundary_loop_is_counterclockwise():
    mesh, x = generate_disk_mesh(2)
    p = x[mesh.boundary_loop][:, :2]
    q = np.roll(p, -1, axis=0)
    signed_area = 0.5 * np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1])
    assert signed_area > 0


def test_from_triangles_rejects_duplicate_directed_edge():
    with pytest.raises(MeshError):
        mesh_from_triangles(4, np.array([[0, 1, 2], [0, 1, 3]]))


def test_from_triangles_rejects_annulus():
    with pytest.raises(MeshError):
        mesh_from_triangles(6, ANNULUS_TRIS)


def test_validate_reports_annulus_without_raising():
    report = validate_mesh(SimpleNamespace(vertex_count=6,
                                           triangles=ANNULUS_TRIS))
    assert not report.passed
    assert report.euler_characteristic == 0
    assert report.boundary_cycle_count == 2


def test_validate_and_from_triangles_reject_bowtie():
    # two rings-2 disks joined at one boundary vertex: chi is 1, but the
    # boundary touches itself there, so this is not a disk
    mesh, _ = generate_disk_mesh(2)
    n = mesh.vertex_count
    assert {0, n - 1} <= set(mesh.boundary_loop.tolist())
    tris = np.concatenate([mesh.triangles, mesh.triangles + n - 1])
    report = validate_mesh(SimpleNamespace(vertex_count=2 * n - 1,
                                           triangles=tris))
    assert not report.passed
    assert report.euler_characteristic == 1
    assert report.boundary_cycle_count >= 2
    with pytest.raises(MeshError):
        mesh_from_triangles(2 * n - 1, tris)


def test_validate_reports_orientation_violation():
    report = validate_mesh(SimpleNamespace(
        vertex_count=4, triangles=np.array([[0, 1, 2], [0, 1, 3]])))
    assert not report.passed
    assert report.orientation_violations >= 1
    assert "FAIL" in report.summary()


def test_generate_rejects_bad_arguments():
    with pytest.raises(MeshError):
        generate_disk_mesh(0)
    with pytest.raises(MeshError):
        generate_disk_mesh(3, 0.0)
    with pytest.raises(MeshError):
        generate_disk_mesh(3, np.inf)


def test_boundary_length_and_rescale():
    mesh, x = generate_disk_mesh(3)
    assert np.isclose(boundary_length(mesh, x), 18.0, rtol=1e-12)
    y = scale_to_boundary_length(mesh, x, 1.0)
    assert np.isclose(boundary_length(mesh, y), 1.0, rtol=1e-12)
    # uniform scaling, not a reshaping
    assert np.allclose(y, x / 18.0, atol=1e-15)


def test_rescale_degenerate_raises():
    mesh, x = generate_disk_mesh(2)
    with pytest.raises(MeshError):
        scale_to_boundary_length(mesh, np.zeros_like(x), 1.0)


@pytest.mark.parametrize("rings", [2.5, 3.0, True])
def test_generate_rejects_non_integral_rings(rings):
    # int() would truncate 2.5 to 2 rings without a word
    with pytest.raises(MeshError, match="rings must be an integer"):
        generate_disk_mesh(rings)


def test_generate_accepts_numpy_integer_rings():
    mesh, x = generate_disk_mesh(np.int64(3))
    ref, x_ref = generate_disk_mesh(3)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("elongation", [1.0, 1.2])
@pytest.mark.parametrize("rings", [1, 2, 3, 8, 16, 32])
def test_disk_mesh_matches_the_cell_scan(rings, elongation):
    # every field and every byte of the per-cell reference construction
    mesh, x = generate_disk_mesh(rings, elongation)
    ref, x_ref = reference_disk_mesh(rings, elongation)
    assert mesh.vertex_count == ref.vertex_count
    for name in ("triangles", "boundary_loop", "loop_prev", "loop_next"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert x.dtype == x_ref.dtype and x.shape == x_ref.shape
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("rings", [64, MAX_RINGS])
def test_disk_loop_matches_the_boundary_walk(rings):
    # the loop read off the lattice is the walk of the triangles' directed
    # boundary edges, byte for byte, at sizes the cell scan does not reach
    mesh, _ = generate_disk_mesh(rings)
    walked = mesh_from_triangles(mesh.vertex_count, mesh.triangles)
    assert mesh.boundary_loop.dtype == walked.boundary_loop.dtype
    assert mesh.boundary_loop.tobytes() == walked.boundary_loop.tobytes()
    q, r = mesh.lattice[mesh.boundary_loop[0]]
    assert (q, r) == (0, -rings)


@pytest.mark.parametrize("nb", [48, 96, 192])
def test_circulant_matches_scipy(nb):
    col = np.random.default_rng(nb).standard_normal(nb)
    assert circulant(col).tobytes() == scipy.linalg.circulant(col).tobytes()


@pytest.mark.parametrize("nb", [6, 7, 48, 96, 192])
def test_douglas_form_spectrum(nb):
    # eigenvalues pi |m| / B on the Fourier modes, symmetric (to the
    # rounding of irfft), and zero on translations
    d = circulant(douglas_form(nb))
    m = np.arange(nb)
    eig = np.fft.fft(douglas_form(nb))
    np.testing.assert_allclose(eig.real, np.pi * np.minimum(m, nb - m) / nb,
                               rtol=0, atol=1e-13)
    assert np.abs(eig.imag).max() <= 1e-13
    assert np.abs(d - d.T).max() <= 1e-15 * np.abs(d).max()
    assert np.abs(d @ np.ones(nb)).max() <= 1e-15 * np.abs(d).max()


@pytest.mark.parametrize("rings", [1, 4, 16])
def test_loop_film_is_a_laplacian_on_the_loop(rings):
    # 2 sqrt(3) D over the B loop vertices in loop order: symmetric,
    # positive semidefinite with the constants as its only null vectors;
    # one read-only operator per B
    mesh, _ = generate_disk_mesh(rings)
    loop_mesh, _ = mesh.loop_film()
    nb = len(mesh.boundary_loop)
    film = film_operator(nb)
    assert loop_mesh.vertex_count == nb and film.shape == (nb, nb)
    assert loop_mesh.loop_only and not mesh.loop_only
    assert loop_mesh is mesh.loop_mesh() and loop_mesh.loop_mesh() is loop_mesh
    assert film_operator(nb) is film and not film.flags.writeable
    np.testing.assert_array_equal(loop_mesh.boundary_loop, np.arange(nb))
    np.testing.assert_array_equal(film,
                                  circulant(LATTICE_TENSION
                                            * douglas_form(nb)))
    assert np.abs(film - film.T).max() <= 1e-15 * np.abs(film).max()
    eig = np.linalg.eigvalsh(film)
    assert abs(eig[0]) <= 1e-12 * eig[-1] and eig[1] > 1e-3 * eig[-1]
    assert np.abs(film.sum(axis=1)).max() <= 1e-12 * np.abs(film).max()
    assert mesh.loop_film() is mesh.loop_film()             # built once


def test_fan_film_closed_form():
    # the fan's rim is a regular 12-gon: its film energy is 2 sqrt(3) pi R^2.
    # Its hub, labelled as the lattice centre and its rim as hex ring 2 in
    # place order, is the harmonic disk's value at rho = 0: the rim's
    # centroid
    R = 0.7
    mesh, x = fan_mesh(12, R)
    mesh.lattice = np.array([[0, 0], [2, 0], [1, 1], [0, 2], [-1, 2],
                             [-2, 2], [-2, 1], [-2, 0], [-1, -1], [0, -2],
                             [1, -2], [2, -2], [2, -1]])
    np.testing.assert_array_equal(hex_ring_place(mesh.lattice),
                                  [[0] + [2] * 12, [0, *range(12)]])
    loop_mesh, extend = mesh.loop_film()
    xb = x[mesh.boundary_loop]
    film = float((xb * (film_operator(12) @ xb)).sum())
    assert abs(film / (LATTICE_TENSION * np.pi * R * R) - 1.0) <= 1e-13
    rng = np.random.default_rng(12)
    xb = xb + [0.3, -0.2, 0.1] + 0.05 * rng.standard_normal(xb.shape)
    y = extend(xb)
    np.testing.assert_array_equal(y[mesh.boundary_loop], xb)
    np.testing.assert_allclose(y[0], xb.mean(axis=0), rtol=0, atol=1e-15)


def test_film_interior_needs_rings_and_places():
    # a mesh from bare triangles has no disk parameter for its hub
    mesh, _ = fan_mesh(12)
    assert mesh.lattice is None
    with pytest.raises(MeshError, match="ring and place"):
        mesh.loop_film()


@pytest.mark.parametrize("rings", [1, 2, 5, 8])
def test_disk_mesh_rings_and_places(rings):
    # ring k holds places 0..6k-1 once each, counterclockwise, place p + k is
    # place p turned by 60 degrees, and the loop runs through consecutive
    # places of ring m
    mesh, x = generate_disk_mesh(rings)
    k, p = hex_ring_place(mesh.lattice)
    assert np.count_nonzero(k == 0) == 1 and p[k == 0] == 0
    turn = np.array([[0.5, -0.5 * np.sqrt(3.0)], [0.5 * np.sqrt(3.0), 0.5]])
    for ring in range(1, rings + 1):
        on = np.flatnonzero(k == ring)
        on = on[np.argsort(p[on])]
        np.testing.assert_array_equal(p[on], np.arange(6 * ring))
        np.testing.assert_allclose(x[np.roll(on, -ring), :2],
                                   x[on, :2] @ turn.T, rtol=0, atol=1e-12)
        angle = np.unwrap(np.arctan2(x[on, 1], x[on, 0]))
        assert (np.diff(angle) > 0).all()
    loop = mesh.boundary_loop
    assert (k[loop] == rings).all()
    np.testing.assert_array_equal((p[loop] - p[loop[0]]) % (6 * rings),
                                  np.arange(6 * rings))


@pytest.mark.parametrize("rings", [1, 2, 5, 16, 32])
def test_extend_matches_the_dense_poisson_kernel(rings):
    mesh, _ = generate_disk_mesh(rings, 1.2)
    _, extend = mesh.loop_film()
    xb = np.random.default_rng(rings).standard_normal(
        (len(mesh.boundary_loop), 3))
    y = extend(xb)
    np.testing.assert_array_equal(y[mesh.boundary_loop], xb)
    np.testing.assert_allclose(y, poisson_extension(mesh, xb), rtol=0,
                               atol=1e-13)


@pytest.mark.parametrize("mode", [0, 1, 2, 5, 23])
def test_extend_of_one_fourier_mode(mode):
    # x_B = Re(c e^{i m theta_j}) extends to rho^m Re(c e^{i m theta})
    rings = 8
    mesh, _ = generate_disk_mesh(rings)
    loop = mesh.boundary_loop
    nb = len(loop)
    c = np.array([1.0 - 0.5j, 0.3 + 2.0j, -0.7j])
    theta_b = 2.0 * np.pi * np.arange(nb) / nb
    xb = (c * np.exp(1j * mode * theta_b)[:, None]).real
    k, p = hex_ring_place(mesh.lattice)
    theta = 2.0 * np.pi * (p / (6.0 * np.maximum(k, 1))
                           - p[loop[0]] / (6.0 * rings))
    want = ((k / rings) ** mode * np.exp(1j * mode * theta))[:, None] * c
    y = mesh.loop_film()[1](xb)
    np.testing.assert_allclose(y, want.real, rtol=0, atol=1e-13)


def test_extend_fills_a_harmonic_interior():
    # the maximum principle and the mean value property at the centre, and
    # constants and the linear map reproduced
    mesh, _ = generate_disk_mesh(5, 1.2)
    _, extend = mesh.loop_film()
    rng = np.random.default_rng(3)
    xb, zb = rng.standard_normal((2, len(mesh.boundary_loop), 3))
    y = extend(xb)
    np.testing.assert_array_equal(y[mesh.boundary_loop], xb)
    assert (y.min(axis=0) >= xb.min(axis=0)).all()
    assert (y.max(axis=0) <= xb.max(axis=0)).all()
    centre = (mesh.lattice == 0).all(axis=1)
    np.testing.assert_allclose(y[centre][0], xb.mean(axis=0),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(extend(np.ones_like(xb)), 1.0, rtol=0,
                               atol=1e-14)
    np.testing.assert_allclose(extend(2.0 * xb - zb), 2.0 * y - extend(zb),
                               rtol=0, atol=1e-14)


def test_film_without_interior_vertices_is_the_douglas_form():
    # the polygon's diagonals do not enter the film, and with no interior
    # vertex extend only reorders, with no rings or places needed
    mesh, x = polygon_mesh(9)
    assert mesh.lattice is None
    loop = mesh.boundary_loop
    loop_mesh, extend = mesh.loop_film()
    assert loop_mesh.loop_only and loop_mesh.vertex_count == 9
    np.testing.assert_array_equal(film_operator(9),
                                  circulant(LATTICE_TENSION
                                            * douglas_form(9)))
    np.testing.assert_array_equal(extend(x[loop]), x)
