"""Closed-form flat-disk solution and its linear stability.

A circular boundary of length L spanned by a flat film has radius R = L/2pi
and a length multiplier beta fixed by sigma R^3 + beta R^2 - alpha = 0.  A
radial boundary perturbation of integer mode k changes the energy at second
order by a coefficient proportional to

    C(k, gamma) = (1 - k^2) gamma / (8 pi^3) + 2 (k^2 - 1)^2,

which crosses zero at gamma = 16 pi^3 (k^2 - 1); mode 2 therefore destabilizes
the circle at gamma = 48 pi^3.  Also provides the boundary Fourier analysis
used to identify the dominant mode of simulated shapes.
"""

from dataclasses import dataclass

import numpy as np

from .energy import SIGMA_PER_SPRING_K
from .mesh import boundary_frame

# uniform arc-length samples of the boundary radius in the mode spectrum
_MODE_SAMPLES = 256


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


def critical_gamma(k):
    """Tension ratio at which radial mode k destabilizes the flat circle."""
    if k < 2:
        raise ValueError("no buckling mode below k = 2")
    return 16.0 * np.pi**3 * (float(k) ** 2 - 1.0)


def kl3a_from_gamma(gamma):
    """Convert gamma = sigma L^3/alpha to the spring-lattice group k L^3/alpha."""
    return gamma / SIGMA_PER_SPRING_K


def threshold_table(max_mode=6):
    """Rows (k, critical gamma, equivalent k L^3 / alpha) for k = 2..max_mode."""
    rows = []
    for k in range(2, max_mode + 1):
        g = critical_gamma(k)
        rows.append((k, g, kl3a_from_gamma(g)))
    return rows


def boundary_mode_spectrum(mesh, x):
    """Fourier amplitudes of the boundary's radial deviation from its centroid.

    The radius (3D distance to the boundary centroid) is resampled at
    _MODE_SAMPLES points uniform in arc length before the transform; returns
    (modes, amplitudes) for modes 1 .. _MODE_SAMPLES // 2.
    """
    pts = x[mesh.boundary_loop]
    centroid = pts.mean(axis=0)
    r = np.linalg.norm(pts - centroid, axis=1)

    u = np.concatenate([[0.0], np.cumsum(boundary_frame(mesh, x).length)])
    total = u[-1]
    r_closed = np.concatenate([r, r[:1]])
    u_uniform = np.linspace(0.0, total, _MODE_SAMPLES, endpoint=False)
    r_uniform = np.interp(u_uniform, u, r_closed)

    dev = r_uniform - r_uniform.mean()
    coef = np.fft.rfft(dev) / _MODE_SAMPLES
    amps = 2.0 * np.abs(coef[1:])
    modes = np.arange(1, len(amps) + 1)
    return modes, amps
