"""Closed-form disk stability results and the boundary mode spectrum.
The flat-disk solution and the second-order coefficient are the tests' own
oracles, in helpers."""

import numpy as np
import pytest

from filmloop.stability import (boundary_mode_spectrum, critical_gamma,
                                kl3a_from_gamma, threshold_table)
from filmloop.mesh import generate_disk_mesh

from helpers import disk_solution, fan_mesh, second_order_coefficient


def test_mode_thresholds_closed_form():
    assert critical_gamma(2) == 16.0 * np.pi**3 * 3.0
    assert np.isclose(critical_gamma(2), 48.0 * np.pi**3, rtol=1e-15)
    assert np.isclose(critical_gamma(3), 128.0 * np.pi**3, rtol=1e-15)
    with pytest.raises(ValueError):
        critical_gamma(1)


def test_quadratic_coefficient_vanishes_at_threshold():
    for k in range(2, 7):
        scale = 2.0 * (k * k - 1.0) ** 2
        assert abs(second_order_coefficient(k, critical_gamma(k))) < 1e-12 * scale


def test_quadratic_coefficient_changes_sign():
    for k in (2, 4):
        gc = critical_gamma(k)
        assert second_order_coefficient(k, 0.9 * gc) > 0
        assert second_order_coefficient(k, 1.1 * gc) < 0


def test_threshold_table_values():
    table = threshold_table(6)
    assert [row[0] for row in table] == [2, 3, 4, 5, 6]
    k2 = table[0]
    assert np.isclose(k2[1], 48.0 * np.pi**3, rtol=1e-15)
    assert np.isclose(k2[2], np.sqrt(3.0) * 12.0 * np.pi**3, rtol=1e-15)
    for _, gam, kl3a in table:
        assert np.isclose(kl3a, kl3a_from_gamma(gam), rtol=1e-15)
        assert np.isclose(kl3a, np.sqrt(3.0) / 4.0 * gam, rtol=1e-15)


def test_disk_solution_solves_force_balance():
    L, sigma, alpha = 2.5, 7.0, 1.3
    sol = disk_solution(L, sigma, alpha)
    R = L / (2.0 * np.pi)
    assert np.isclose(sol.radius, R, rtol=1e-15)
    assert np.isclose(sol.beta, (alpha - sigma * R**3) / R**2, rtol=1e-14)
    assert abs(sol.cubic_residual) < 1e-12 * alpha
    assert np.isclose(sol.gamma, sigma * L**3 / alpha, rtol=1e-14)


def test_mode_spectrum_recovers_imposed_harmonic():
    n, eps, k = 128, 0.04, 5
    ang = np.arange(n) * 2.0 * np.pi / n
    mesh, x = fan_mesh(n, 1.0)
    r = 1.0 + eps * np.cos(k * ang)
    x[1:, 0] = r * np.cos(ang)
    x[1:, 1] = r * np.sin(ang)
    modes, amps = boundary_mode_spectrum(mesh, x)
    i = np.argmax(amps)
    assert modes[i] == k
    assert abs(amps[i] - eps) < 2e-3


def test_mode_spectrum_flat_for_regular_polygon():
    mesh, x = fan_mesh(128, 1.0)
    _, amps = boundary_mode_spectrum(mesh, x)
    assert amps.max() < 1e-3


def test_elongated_lattice_is_mode_two_dominated():
    mesh, x = generate_disk_mesh(8, 1.2)
    modes, amps = boundary_mode_spectrum(mesh, x)
    i = np.argmax(amps)
    assert modes[i] == 2
    assert amps[i] > 0.1
