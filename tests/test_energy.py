"""Discrete energy terms against closed forms, plus gradient correctness.

On a triangle fan whose rim is a regular n-gon of radius R the pieces have
exact values: discrete bending 2 alpha n sin(pi/n) / R (the vertex curvature
of a regular polygon is exactly 1/R), film energy 2 sqrt(3) k pi R^2 (the
rim has only the m = +-1 modes), boundary length 2 n R sin(pi/n).  Every
mesh's energy is its loop mesh's, bit for bit.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from filmloop.energy import (SIGMA_PER_SPRING_K, DegenerateBoundaryError,
                             EnergyParams, energy, energy_and_gradient)
from filmloop.mesh import (LATTICE_TENSION, generate_disk_mesh,
                           scale_to_boundary_length)
from filmloop.optimize import perturb

from helpers import fan_mesh, polygon_mesh, reference_energy_and_gradient


def test_fan_energy_closed_form():
    n, R, alpha, k = 24, 0.7, 2.3, 11.0
    mesh, x = fan_mesh(n, R)
    p = EnergyParams(alpha=alpha, spring_k=k, target_length=1.0)
    fb = energy(mesh, x, p)
    assert np.isclose(fb.bending, 2.0 * alpha * n * np.sin(np.pi / n) / R,
                      rtol=1e-12)
    assert np.isclose(fb.springs, LATTICE_TENSION * k * np.pi * R * R,
                      rtol=1e-12)
    assert np.isclose(fb.boundary_length, 2.0 * n * R * np.sin(np.pi / n),
                      rtol=1e-12)
    assert fb.length_penalty == 0.0
    assert np.isclose(fb.total, fb.bending + fb.springs, rtol=1e-12)


def test_penalty_terms_closed_form():
    n, R = 12, 0.5
    mesh, x = fan_mesh(n, R)
    s = 2.0 * R * np.sin(np.pi / n)
    L = 2.0
    p = EnergyParams(alpha=1.0, target_length=L, length_penalty_k=7.0)
    assert np.isclose(energy(mesh, x, p).length_penalty,
                      7.0 * (n * s - L) ** 2, rtol=1e-12)
    p = EnergyParams(alpha=1.0, target_length=L, edge_penalty_k=3.0)
    assert np.isclose(energy(mesh, x, p).length_penalty,
                      3.0 * n * (s - L / n) ** 2, rtol=1e-12)


def test_multiplier_term_closed_form():
    n, R = 12, 0.5
    mesh, x = fan_mesh(n, R)
    excess = n * 2.0 * R * np.sin(np.pi / n) - 2.0
    p = EnergyParams(alpha=1.0, target_length=2.0, length_multiplier=-4.5)
    assert np.isclose(energy(mesh, x, p).length_penalty, -4.5 * excess,
                      rtol=1e-12)
    p = EnergyParams(alpha=1.0, target_length=2.0, length_penalty_k=7.0,
                     length_multiplier=-4.5)
    assert np.isclose(energy(mesh, x, p).length_penalty,
                      7.0 * excess**2 - 4.5 * excess, rtol=1e-12)


def test_breakdown_total_is_sum_of_parts():
    mesh, x0 = generate_disk_mesh(3)
    rng = np.random.default_rng(0)
    x = x0 + 0.1 * rng.standard_normal(x0.shape)
    p = EnergyParams(alpha=1.7, spring_k=4.0, target_length=17.0,
                     length_penalty_k=2.0, edge_penalty_k=1.0)
    fb = energy(mesh, x, p)
    assert np.isclose(fb.total, fb.bending + fb.springs + fb.length_penalty,
                      rtol=1e-12)


def test_gradient_matches_finite_differences():
    mesh, x0 = generate_disk_mesh(3)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    rng = np.random.default_rng(1)
    x = x0 + 0.05 * rng.standard_normal(x0.shape) / (2.0 * np.pi)
    p = EnergyParams(alpha=0.8, spring_k=300.0, target_length=1.0,
                     length_penalty_k=500.0, edge_penalty_k=200.0)
    _, g = energy_and_gradient(mesh, x, p)
    gscale = np.abs(g).max()
    h = 3e-6
    for i in rng.choice(mesh.vertex_count, size=10, replace=False):
        for c in range(3):
            xp = x.copy()
            xp[i, c] += h
            xm = x.copy()
            xm[i, c] -= h
            fd = (energy(mesh, xp, p).total - energy(mesh, xm, p).total) / (2 * h)
            assert abs(g[i, c] - fd) / gscale < 1e-6


@pytest.mark.parametrize("lam", [-450.0, 450.0])
@pytest.mark.parametrize("length_penalty_k", [0.0, 500.0])
def test_multiplier_gradient_matches_finite_differences(lam, length_penalty_k):
    mesh, x0 = generate_disk_mesh(3)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    rng = np.random.default_rng(2)
    x = x0 + 0.05 * rng.standard_normal(x0.shape) / (2.0 * np.pi)
    p = EnergyParams(alpha=0.8, spring_k=300.0, target_length=1.0,
                     length_penalty_k=length_penalty_k, edge_penalty_k=200.0,
                     length_multiplier=lam)
    _, g = energy_and_gradient(mesh, x, p)
    gscale = np.abs(g).max()
    h = 3e-6
    for i in mesh.boundary_loop[::3]:
        for c in range(3):
            xp = x.copy()
            xp[i, c] += h
            xm = x.copy()
            xm[i, c] -= h
            fd = (energy(mesh, xp, p).total - energy(mesh, xm, p).total) / (2 * h)
            assert abs(g[i, c] - fd) / gscale < 1e-6


def test_gradient_sums_to_zero():
    # every term depends on coordinate differences only, so the total force
    # on the configuration vanishes
    mesh, x0 = generate_disk_mesh(3)
    rng = np.random.default_rng(3)
    x = x0 + 0.2 * rng.standard_normal(x0.shape)
    p = EnergyParams(alpha=1.0, spring_k=5.0, target_length=10.0,
                     length_penalty_k=3.0, edge_penalty_k=2.0)
    _, g = energy_and_gradient(mesh, x, p)
    assert np.abs(g.sum(axis=0)).max() < 1e-10 * np.abs(g).max()


def test_energy_rotation_invariance():
    mesh, x0 = generate_disk_mesh(3)
    rng = np.random.default_rng(4)
    x = x0 + 0.1 * rng.standard_normal(x0.shape)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    p = EnergyParams(alpha=1.0, spring_k=5.0, target_length=10.0,
                     length_penalty_k=3.0, edge_penalty_k=2.0)
    assert np.isclose(energy(mesh, x, p).total, energy(mesh, x @ q.T, p).total,
                      rtol=1e-10)


def test_energy_scaling_laws():
    # bending ~ 1/scale, springs ~ scale^2 under uniform dilation
    mesh, x = fan_mesh(16, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=1.0, target_length=1.0)
    fb1 = energy(mesh, x, p)
    fb2 = energy(mesh, 2.0 * x, p)
    assert np.isclose(fb2.bending, fb1.bending / 2.0, rtol=1e-12)
    assert np.isclose(fb2.springs, fb1.springs * 4.0, rtol=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        EnergyParams(alpha=-1.0)
    with pytest.raises(ValueError):
        EnergyParams(spring_k=-0.1)
    with pytest.raises(ValueError):
        EnergyParams(length_penalty_k=-2.0)
    with pytest.raises(ValueError):
        EnergyParams(target_length=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_length_multiplier_must_be_finite(value):
    with pytest.raises(ValueError, match="length_multiplier"):
        EnergyParams(length_multiplier=value)
    assert EnergyParams(length_multiplier=-3.0).length_multiplier == -3.0


def test_degenerate_boundary_raises():
    mesh, x = fan_mesh(8)
    x[2] = x[1]                      # collapse one rim edge
    with pytest.raises(DegenerateBoundaryError):
        energy(mesh, x, EnergyParams())


# parameter sets for the reference comparison: all terms, each term or
# penalty switched off, each penalty alone, both penalties off, and a length
# multiplier, as every warm-started sweep round has, with and without the
# global penalty
KERNEL_PARAMS = {
    "all": EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0,
                        length_penalty_k=1e4, edge_penalty_k=100.0),
    "alpha0": EnergyParams(alpha=0.0, spring_k=900.0, target_length=1.0,
                           length_penalty_k=1e4, edge_penalty_k=100.0),
    "spring0": EnergyParams(alpha=1.3, spring_k=0.0, target_length=1.0,
                            length_penalty_k=1e4, edge_penalty_k=100.0),
    "length_only": EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.1,
                                length_penalty_k=2e3),
    "edge_only": EnergyParams(alpha=1.0, spring_k=900.0, target_length=0.9,
                              edge_penalty_k=300.0),
    "no_penalty": EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0),
    "multiplier": EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0,
                               length_penalty_k=1e4, edge_penalty_k=100.0,
                               length_multiplier=-3.0),
    "multiplier_only": EnergyParams(alpha=1.0, spring_k=900.0,
                                    target_length=0.9, edge_penalty_k=300.0,
                                    length_multiplier=2.5),
}


def assert_matches_reference(mesh, x, p):
    """Breakdown fields and gradient bytes equal the np.roll/np.add.at kernel."""
    fb, g = energy_and_gradient(mesh, x, p)
    fb_ref, g_ref = reference_energy_and_gradient(mesh, x, p)
    assert dataclasses.astuple(fb) == dataclasses.astuple(fb_ref)
    assert g.tobytes() == g_ref.tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("elongation", [1.0, 1.2])
@pytest.mark.parametrize("rings", [3, 8, 16, 32])
def test_kernel_matches_reference_bitwise(rings, elongation, name):
    mesh, x0 = generate_disk_mesh(rings, elongation)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    rng = np.random.default_rng(rings)
    scale = 0.2 / (6 * rings)                 # a fifth of a boundary edge
    for _ in range(3):
        x = x0 + scale * rng.standard_normal(x0.shape)
        assert_matches_reference(mesh, x, KERNEL_PARAMS[name])


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("rings", [3, 8, 16])
def test_kernel_matches_reference_on_loop_mesh(rings, name):
    # the loop mesh skips the identity gather, scatter and zero fill; its
    # springs are the dense film 2 sqrt(3) D.  The planar start has exact zeros in z, where
    # a changed order of operations would show as a flipped zero sign
    mesh, x0 = generate_disk_mesh(rings, 1.2)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)[mesh.boundary_loop]
    loop_mesh, _ = mesh.loop_film()
    assert loop_mesh.loop_only and not mesh.loop_only
    rng = np.random.default_rng(rings)
    scale = 0.2 / (6 * rings)
    assert_matches_reference(loop_mesh, x0, KERNEL_PARAMS[name])
    for _ in range(3):
        x = x0 + scale * rng.standard_normal(x0.shape)
        assert_matches_reference(loop_mesh, x, KERNEL_PARAMS[name])


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
def test_kernel_matches_reference_on_fan(name):
    mesh, x0 = fan_mesh(11, 0.2)
    rng = np.random.default_rng(11)
    x = x0 + 0.01 * rng.standard_normal(x0.shape)
    assert_matches_reference(mesh, x, KERNEL_PARAMS[name])


def test_kernel_shifts_belong_to_their_mesh():
    # two meshes built in a row must each use their own loop shifts
    mesh3, x3 = generate_disk_mesh(3)
    assert_matches_reference(mesh3, x3 + 0.01, KERNEL_PARAMS["all"])
    mesh4, x4 = generate_disk_mesh(4, 1.2)
    assert_matches_reference(mesh4, x4, KERNEL_PARAMS["all"])
    assert_matches_reference(mesh3, x3, KERNEL_PARAMS["all"])
    for mesh in (mesh3, mesh4):
        b = len(mesh.boundary_loop)
        assert np.array_equal(mesh.loop_next, (np.arange(b) + 1) % b)
        assert np.array_equal(mesh.loop_prev, (np.arange(b) - 1) % b)


def test_collapsed_edge_raises_without_runtime_warning():
    mesh, x0 = generate_disk_mesh(3)
    x = scale_to_boundary_length(mesh, x0, 1.0)
    loop = mesh.boundary_loop
    x[loop[4]] = x[loop[3]]                # one zero-length boundary edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateBoundaryError):
            energy_and_gradient(mesh, x, KERNEL_PARAMS["all"])


@pytest.mark.parametrize("loop_only", [False, True])
def test_nan_edge_does_not_mask_a_collapsed_edge(loop_only):
    # the degeneracy test reads every edge: a minimum over the lengths would
    # be NaN and let the collapsed edge through
    mesh, x = generate_disk_mesh(3)
    x = scale_to_boundary_length(mesh, x, 1.0)[mesh.boundary_loop]
    x[4] = x[3]                            # one zero-length boundary edge
    x[8, 2] = np.nan                       # two NaN edges elsewhere
    if loop_only:
        mesh = mesh.loop_mesh()
    else:
        full = np.zeros((mesh.vertex_count, 3))
        full[mesh.boundary_loop] = x
        x = full
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateBoundaryError):
            energy_and_gradient(mesh, x, KERNEL_PARAMS["multiplier"])


def test_tension_conversions():
    assert np.isclose(SIGMA_PER_SPRING_K, 4.0 / np.sqrt(3.0), rtol=1e-15)


# the penalties relax adds at kL^3/alpha = 900, with a multiplier
FULL_MESH_PARAMS = EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0,
                                length_penalty_k=90100.0,
                                edge_penalty_k=90100.0, length_multiplier=-3.0)


def assert_full_mesh_is_loop_call(mesh, x, p):
    """The full mesh's breakdown and loop gradient rows are the loop mesh's
    at x's loop rows, byte for byte, and every other gradient row is 0."""
    loop = mesh.boundary_loop
    fl, gl = energy_and_gradient(mesh.loop_mesh(), x[loop], p)
    ff, gf = energy_and_gradient(mesh, x, p)
    assert dataclasses.astuple(ff) == dataclasses.astuple(fl)
    assert gf.shape == x.shape and gf[loop].tobytes() == gl.tobytes()
    inner = np.setdiff1d(np.arange(mesh.vertex_count), loop)
    assert not gf[inner].any()


@pytest.mark.parametrize("rings", [4, 16])
def test_loop_mesh_energy_matches_full_mesh_at_extension(rings):
    # relax minimizes on the loop mesh and returns the extension: there the
    # full mesh's energy is the one it minimized
    mesh, x = generate_disk_mesh(rings, 1.2)
    x = perturb(scale_to_boundary_length(mesh, x, 1.0), 0.01, rings)
    loop_mesh, extend = mesh.loop_film()
    assert loop_mesh is mesh.loop_mesh()
    assert_full_mesh_is_loop_call(mesh, extend(x[mesh.boundary_loop]),
                                  FULL_MESH_PARAMS)


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("shape", ["disk3", "disk8", "disk16", "fan",
                                   "polygon"])
def test_full_mesh_energy_is_the_loop_call(shape, name):
    # at any interior, and on meshes without lattice coordinates
    if shape.startswith("disk"):
        mesh, x0 = generate_disk_mesh(int(shape[4:]), 1.2)
        x0 = scale_to_boundary_length(mesh, x0, 1.0)
    else:
        mesh, x0 = (fan_mesh if shape == "fan" else polygon_mesh)(11, 0.2)
    rng = np.random.default_rng(len(x0))
    x = x0 + 0.01 * rng.standard_normal(x0.shape) / len(mesh.boundary_loop)
    for p in (KERNEL_PARAMS[name], FULL_MESH_PARAMS):
        assert_full_mesh_is_loop_call(mesh, x, p)


@pytest.mark.parametrize("nb", [48, 96, 192])
def test_regular_polygon_film_energy(nb):
    # a regular B-gon of circumradius R has only the m = +-1 modes, so its
    # film energy is sigma pi R^2 with sigma = 2 sqrt(3) k, in any
    # orientation (translations are D's null space, tests/test_mesh.py)
    R, k = 0.37, 900.0
    mesh, _ = generate_disk_mesh(nb // 6)
    loop_mesh, _ = mesh.loop_film()
    phi = 2.0 * np.pi * np.arange(nb) / nb + 0.3
    xb = np.stack([R * np.cos(phi), R * np.sin(phi), np.zeros(nb)], axis=1)
    q, _ = np.linalg.qr(np.random.default_rng(nb).standard_normal((3, 3)))
    xb = xb @ q.T
    fb = energy(loop_mesh, xb, EnergyParams(alpha=0.0, spring_k=k))
    want = LATTICE_TENSION * k * np.pi * R * R
    assert abs(fb.springs / want - 1.0) <= 1e-13


@pytest.mark.parametrize("rings", [4, 8])
def test_loop_mesh_gradient_matches_finite_differences(rings):
    # criterion 2's check, on the loop mesh with its film term
    mesh, x0 = generate_disk_mesh(rings)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)[mesh.boundary_loop]
    loop_mesh, _ = mesh.loop_film()
    rng = np.random.default_rng(rings)
    h = 3e-6
    for _ in range(10):
        p = EnergyParams(alpha=rng.uniform(0.1, 3.0),
                         spring_k=rng.uniform(0.0, 500.0), target_length=1.0,
                         length_penalty_k=rng.choice([0.0, 100.0, 1000.0]),
                         edge_penalty_k=rng.choice([0.0, 100.0, 1000.0]),
                         length_multiplier=rng.uniform(-50.0, 50.0))
        x = x0 + 0.05 * rng.standard_normal(x0.shape) / (2.0 * np.pi)
        _, g = energy_and_gradient(loop_mesh, x, p)
        gscale = np.abs(g).max()
        for i in rng.choice(len(x), size=8, replace=False):
            for c in range(3):
                xp = x.copy()
                xp[i, c] += h
                xm = x.copy()
                xm[i, c] -= h
                fd = (energy(loop_mesh, xp, p).total
                      - energy(loop_mesh, xm, p).total) / (2.0 * h)
                assert abs(g[i, c] - fd) / gscale < 1e-6
