"""Discrete energy terms against closed forms, plus gradient correctness.

On a triangle fan whose rim is a regular n-gon of radius R the pieces have
exact values: discrete bending 2 alpha n sin(pi/n) / R (the vertex curvature
of a regular polygon is exactly 1/R), spring energy k n R^2 (the spokes are
the only interior edges), boundary length 2 n R sin(pi/n).
"""

import numpy as np
import pytest

from filmloop.energy import (SIGMA_PER_SPRING_K, DegenerateBoundaryError,
                             EnergyParams, energy, energy_and_gradient,
                             gamma_numeric)
from filmloop.mesh import generate_disk_mesh, scale_to_boundary_length

from helpers import fan_mesh


def test_fan_energy_closed_form():
    n, R, alpha, k = 24, 0.7, 2.3, 11.0
    mesh, x = fan_mesh(n, R)
    p = EnergyParams(alpha=alpha, spring_k=k, target_length=1.0)
    fb = energy(mesh, x, p)
    assert np.isclose(fb.bending, 2.0 * alpha * n * np.sin(np.pi / n) / R,
                      rtol=1e-12)
    assert np.isclose(fb.springs, k * n * R * R, rtol=1e-12)
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


def test_degenerate_boundary_raises():
    mesh, x = fan_mesh(8)
    x[2] = x[1]                      # collapse one rim edge
    with pytest.raises(DegenerateBoundaryError):
        energy(mesh, x, EnergyParams())


def test_tension_conversions():
    assert np.isclose(SIGMA_PER_SPRING_K, 4.0 / np.sqrt(3.0), rtol=1e-15)
    kl3a, gam = gamma_numeric(3.0, 2.0, 1.5)
    assert np.isclose(kl3a, 3.0 * 8.0 / 1.5, rtol=1e-15)
    assert np.isclose(gam, SIGMA_PER_SPRING_K * kl3a, rtol=1e-15)
