"""Differential-geometry observables against analytic curves and surfaces.

Oracles: circle (kappa = 1/R, tau = 0, second-order convergence of the
cyclic difference scheme), helix (kappa = a/(a^2+c^2), tau = c/(a^2+c^2)),
regular polygon fan (vertex curvature exactly 1/R), spherical cap
(pointwise angle-defect curvature 1/rho^2), and the Gauss-Bonnet sum which
is a combinatorial identity on any disk mesh.  The Frenet analysis and the
equilibrium residuals are the tests' own oracles (helpers), checked here
before the acceptance criteria rely on them.
"""

import warnings

import numpy as np
import pytest

from filmloop.diffgeo import (DiffGeoError, _loop_normals, corner_geometry,
                              boundary_geometry, gauss_bonnet_defect,
                              gaussian_curvature, planarity,
                              write_boundary_observables)
from filmloop.mesh import generate_disk_mesh

from helpers import (InflectionError, circle_samples, el_residuals, fan_mesh,
                     folded_pierced_disk, frenet_analyze,
                     reference_curvature_field, reference_loop_curvatures,
                     reference_triangle_geometry, saddle_shape,
                     vertex_normals)


def test_frenet_circle_second_order_convergence():
    errs = []
    for n in (64, 128):
        fr = frenet_analyze(circle_samples(n, 2.0))
        assert fr.tau_defined.all()
        assert np.abs(fr.tau).max() < 1e-12
        assert np.allclose(np.linalg.norm(fr.tangent, axis=1), 1.0, atol=1e-13)
        errs.append(np.abs(fr.kappa - 0.5).max())
    assert 3.4 < errs[0] / errs[1] < 4.6


def test_frenet_helix_curvature_and_torsion():
    a, c, n = 1.0, 0.3, 512
    u = np.linspace(0.0, 4.0 * np.pi, n)
    pts = np.stack([a * np.cos(u), a * np.sin(u), c * u], axis=1)
    fr = frenet_analyze(pts)
    # the cyclic scheme corrupts a few samples at the seam of this open curve
    interior = slice(4, n - 4)
    k_true = a / (a * a + c * c)
    t_true = c / (a * a + c * c)
    assert np.abs(fr.kappa[interior] - k_true).max() / k_true < 1e-3
    assert np.abs(fr.tau[interior] - t_true).max() / t_true < 1e-3
    assert (fr.tau[interior] > 0).all()       # right-handed helix


def test_frenet_input_validation():
    with pytest.raises(DiffGeoError):
        frenet_analyze(circle_samples(4))
    pts = circle_samples(32)
    pts[10] = pts[9]
    pts[11] = pts[9]                          # stationary midpoint
    with pytest.raises(DiffGeoError):
        frenet_analyze(pts)


def test_total_length_matches_polygon():
    n = 128
    fr = frenet_analyze(circle_samples(n, 1.0))
    assert np.isclose(fr.total_length, 2.0 * n * np.sin(np.pi / n), rtol=1e-12)


def test_deriv_s_differentiates_arclength_fields():
    n = 256
    fr = frenet_analyze(circle_samples(n, 1.0))
    s = np.arange(n) * (2.0 * np.pi / n)
    f = np.sin(3.0 * s)
    df = fr.deriv_s(f)
    assert np.abs(df - 3.0 * np.cos(3.0 * s)).max() < 5e-3


def test_boundary_geometry_regular_polygon():
    n, R = 48, 0.9
    mesh, x = fan_mesh(n, R)
    bg = boundary_geometry(mesh, x)
    assert np.abs(bg.kappa - 1.0 / R).max() < 1e-12
    assert np.abs(bg.kappa_n).max() < 1e-12
    assert np.abs(bg.kappa_g - 1.0 / R).max() < 1e-12   # inward is positive
    length = bg.edge_length.sum()
    assert np.isclose(bg.s_weight.sum(), length, rtol=1e-12)
    assert np.isclose(length, 2 * n * R * np.sin(np.pi / n), rtol=1e-12)
    assert abs(bg.integral_kn) < 1e-12
    assert bg.mean_abs_kn < 1e-12


def test_boundary_geometry_rotation_invariant():
    mesh, x = fan_mesh(32, 1.0)
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    bg = boundary_geometry(mesh, x @ q.T)
    assert np.abs(bg.kappa - 1.0).max() < 1e-10
    assert np.abs(bg.kappa_n).max() < 1e-10


def test_gauss_bonnet_identity_on_warped_disk():
    mesh, x0 = generate_disk_mesh(4)
    rng = np.random.default_rng(9)
    x = x0.copy()
    x[:, 2] = 0.4 * np.sin(x0[:, 0]) * np.cos(x0[:, 1])
    x += 0.05 * rng.standard_normal(x.shape)
    assert gauss_bonnet_defect(mesh, x) < 1e-10
    field = gaussian_curvature(mesh, x)
    assert gauss_bonnet_defect(mesh, x, field) == gauss_bonnet_defect(mesh, x)


def test_gaussian_curvature_sums_corners_in_add_at_order():
    # one bincount over the corners, k-major, gives np.add.at's bits
    mesh, x = generate_disk_mesh(6, 1.2)
    x = x + 0.05 * np.random.default_rng(6).standard_normal(x.shape)
    angles = corner_geometry(mesh.triangles, x).angle
    angle_sum = np.zeros(mesh.vertex_count)
    for k in range(3):
        np.add.at(angle_sum, mesh.triangles[:, k], angles[k])
    cf = gaussian_curvature(mesh, x)
    m = cf.interior_mask
    assert cf.defect[m].tobytes() == (2.0 * np.pi - angle_sum[m]).tobytes()
    assert cf.defect[~m].tobytes() == (np.pi - angle_sum[~m]).tobytes()


def test_gaussian_curvature_flat_disk():
    mesh, x = generate_disk_mesh(3)
    cf = gaussian_curvature(mesh, x)
    assert abs(cf.integral_K) < 1e-12
    assert abs(cf.mean_K) < 1e-13
    assert np.isclose(cf.total_area, 6 * 9 * np.sqrt(3.0) / 4.0, rtol=1e-12)
    assert cf.interior_mask.sum() == mesh.vertex_count - len(mesh.boundary_loop)


def test_gaussian_curvature_spherical_cap():
    mesh, x = generate_disk_mesh(8)
    rho = 12.0
    x = x.copy()
    x[:, 2] = rho - np.sqrt(rho**2 - x[:, 0]**2 - x[:, 1]**2)
    cf = gaussian_curvature(mesh, x)
    m = cf.interior_mask
    area_w = reference_curvature_field(mesh, x)[1]   # barycentric areas
    pk = cf.defect[m] / area_w[m]
    assert (cf.defect[m] > 0).all()
    assert np.abs(pk - 1.0 / rho**2).max() < 0.05 / rho**2
    # interior defects only, so the integral undershoots area / rho^2 by the
    # boundary band
    assert 0 < cf.integral_K < cf.total_area / rho**2


def test_vertex_normals_flat_and_unit():
    mesh, x = generate_disk_mesh(3)
    nrm = vertex_normals(mesh, x)
    assert np.allclose(nrm, [0.0, 0.0, 1.0], atol=1e-12)
    x2 = x.copy()
    x2[:, 2] = 0.2 * np.sin(x[:, 0])
    nrm2 = vertex_normals(mesh, x2)
    assert np.allclose(np.linalg.norm(nrm2, axis=1), 1.0, atol=1e-12)


def _lifted_disk(rings):
    # no symmetry left: every normal differs from every other
    mesh, x = generate_disk_mesh(rings, 1.2)
    x[:, 2] = 0.3 * np.sin(x[:, 0] + 0.7) * np.cos(0.4 * x[:, 1]) / rings
    return mesh, x


def _reversing_fan():
    # rim vertex 3 sits 1e-10 off rim vertex 1, so the loop doubles back at
    # vertex 2, whose averaged tangent falls back to its outgoing edge
    mesh, x = fan_mesh(8)
    x[3] = x[1] + [0.0, 1e-10, 1e-10]
    return mesh, x


SHAPES = [
    *[pytest.param(_lifted_disk, (rings,), id=f"disk-r{rings}")
      for rings in (1, 4, 16)],
    *[pytest.param(saddle_shape, (16, t), id=f"saddle-r16-t{t}")
      for t in (0.3, 0.6, 0.9)],
    pytest.param(folded_pierced_disk, (6, 160.0), id="folded-pierced-r6"),
    pytest.param(_reversing_fan, (), id="fan-reversing-corner"),
]


@pytest.mark.parametrize("shape, args", SHAPES)
def test_boundary_normals_are_the_vertex_normals_bit_for_bit(shape, args):
    # boundary_geometry reads only the triangles touching the loop (all of
    # them at rings 1), in the order a pass over every triangle adds them
    mesh, x = shape(*args)
    np.testing.assert_array_equal(_loop_normals(mesh, x).T,
                                  vertex_normals(mesh, x)[mesh.boundary_loop])


@pytest.mark.parametrize("shape, args", SHAPES)
def test_surface_observables_match_the_row_reference_bit_for_bit(shape, args):
    # the component-first geometry takes the float operations of np.cross,
    # np.linalg.norm and np.einsum on (f, 3) rows, in their order
    mesh, x = shape(*args)
    nhat, areas, angles, _ = corner_geometry(mesh.triangles, x)
    for got, want in zip((nhat.T, areas, angles.T),
                         reference_triangle_geometry(mesh, x)):
        np.testing.assert_array_equal(got, want)
    cf = gaussian_curvature(mesh, x)
    defect, _, total_area = reference_curvature_field(mesh, x)
    np.testing.assert_array_equal(cf.defect, defect)
    assert cf.total_area == total_area
    bg = boundary_geometry(mesh, x)
    for got, want in zip((_loop_normals(mesh, x).T, bg.kappa, bg.kappa_n,
                          bg.kappa_g),
                         reference_loop_curvatures(mesh, x)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape, args", SHAPES)
def test_observables_from_one_corner_geometry_bit_for_bit(shape, args):
    # a state's corner geometry, computed once and passed in, gives the
    # bits each observable computes from the state alone
    mesh, x = shape(*args)
    geometry = corner_geometry(mesh.triangles, x)
    cf = gaussian_curvature(mesh, x, geometry)
    cf_own = gaussian_curvature(mesh, x)
    assert cf.defect.tobytes() == cf_own.defect.tobytes()
    assert cf.total_area == cf_own.total_area
    bg = boundary_geometry(mesh, x, geometry)
    bg_own = boundary_geometry(mesh, x)
    for name in ("kappa", "kappa_n", "kappa_g", "s_weight"):
        assert getattr(bg, name).tobytes() == getattr(bg_own, name).tobytes()
    assert (_loop_normals(mesh, x, geometry).tobytes()
            == _loop_normals(mesh, x).tobytes())


def test_zero_area_interior_triangle_still_raises():
    # boundary_geometry reads no interior triangle, so it cannot see one
    # collapse; the curvature field that every sweep point and relax run
    # computes on the same state does
    mesh, x = generate_disk_mesh(4)
    centre = int(np.argmin(np.linalg.norm(x, axis=1)))
    tri = mesh.triangles[(mesh.triangles == centre).any(axis=1)][0]
    assert not np.isin(tri, mesh.boundary_loop).any()
    x[tri[0]] = x[tri[1]]                     # two triangles collapse
    boundary_geometry(mesh, x)
    with pytest.raises(DiffGeoError, match="zero-area"):
        gaussian_curvature(mesh, x)
    with pytest.raises(DiffGeoError, match="zero-area"):
        gauss_bonnet_defect(mesh, x)


def test_planarity_flat_vs_lifted():
    mesh, x = generate_disk_mesh(4)
    assert planarity(mesh, x) < 1e-14
    x2 = x.copy()
    x2[:, 2] = 0.05 * np.sin(x[:, 0])
    assert planarity(mesh, x2) > 1e-3


def test_el_residuals_circle_with_flat_film_pull():
    # on the circle of radius R the force balance fixes
    # beta = (alpha - sigma R^3) / R^2; with the analytic curvature
    # substituted the residuals cancel exactly
    n, R = 512, 1.0
    sigma, alpha = 5.0, 1.0
    fr = frenet_analyze(circle_samples(n, R))
    fr.kappa = np.full(n, 1.0 / R)
    fr.tau = np.zeros(n)
    beta = (alpha - sigma * R**3) / R**2
    res_a, res_b = el_residuals(fr, np.pi / 2.0, alpha, sigma, beta)
    assert np.abs(res_a).max() < 1e-12
    assert np.abs(res_b).max() < 1e-12


def test_el_residuals_finite_difference_bias_is_second_order():
    # with the finite-difference curvature left in place the residual is the
    # O(h^2) curvature bias times the equation coefficients
    sigma, alpha, R = 5.0, 1.0, 1.0
    beta = (alpha - sigma * R**3) / R**2
    errs = []
    for n in (128, 256):
        fr = frenet_analyze(circle_samples(n, R))
        res_a, _ = el_residuals(fr, np.pi / 2.0, alpha, sigma, beta)
        errs.append(np.abs(res_a).max())
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_el_residuals_reject_inflection():
    u = np.arange(64) * 2.0 * np.pi / 64
    fig8 = np.stack([np.sin(u), np.sin(2 * u), np.zeros_like(u)], axis=1)
    fr = frenet_analyze(fig8)
    assert not fr.tau_defined.all()
    with pytest.raises(InflectionError):
        el_residuals(fr, np.pi / 2.0, 1.0, 1.0, 0.0)


def test_write_boundary_observables(tmp_path):
    mesh, x = fan_mesh(16, 1.0)
    path = tmp_path / "boundary.csv"
    write_boundary_observables(str(path), gaussian_curvature(mesh, x),
                               boundary_geometry(mesh, x))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "index,s,kappa,kappa_n,kappa_g,defect"
    assert len(lines) == 1 + len(mesh.boundary_loop)
    row = lines[1].split(",")
    assert len(row) == 6
    assert np.isclose(float(row[2]), 1.0, atol=1e-10)


@pytest.mark.parametrize("rings", [2, 8, 32])
def test_boundary_csv_bytes_match_the_per_row_writer(tmp_path, rings):
    # one formatting call writes the bytes a write per row wrote
    mesh, x = generate_disk_mesh(rings, 1.2)
    x = x.copy()
    x[:, 2] = 0.1 * np.sin(x[:, 0]) * np.cos(0.7 * x[:, 1])
    bg, field = boundary_geometry(mesh, x), gaussian_curvature(mesh, x)
    s_cum = np.concatenate([[0.0], np.cumsum(bg.edge_length[:-1])])
    lines = ["index,s,kappa,kappa_n,kappa_g,defect\n"]
    lines += ["%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
              % (v, s_cum[i], bg.kappa[i], bg.kappa_n[i], bg.kappa_g[i],
                 field.defect[v]) for i, v in enumerate(bg.loop)]
    path = tmp_path / "boundary.csv"
    write_boundary_observables(str(path), field, bg)
    assert path.read_bytes() == "".join(lines).encode()


def test_collapsed_edge_geometry_raises_without_runtime_warning():
    mesh, x = generate_disk_mesh(3)
    loop = mesh.boundary_loop
    x[loop[4]] = x[loop[3]]                # one zero-length boundary edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiffGeoError, match="degenerate boundary edge"):
            boundary_geometry(mesh, x)
