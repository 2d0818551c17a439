"""Buckling thresholds of the flat circular state, and the boundary mode
spectrum of simulated shapes.

A circular boundary of length L spanned by a flat film has radius R = L/2pi
and a length multiplier beta fixed by sigma R^3 + beta R^2 - alpha = 0.  A
radial boundary perturbation of integer mode k changes the energy at second
order by a coefficient proportional to

    C(k, gamma) = (1 - k^2) gamma / (8 pi^3) + 2 (k^2 - 1)^2,

which crosses zero at gamma = 16 pi^3 (k^2 - 1); mode 2 therefore destabilizes
the circle at gamma = 48 pi^3.  The `stability` command prints these
thresholds (threshold_table); the flat-disk solution and C itself are the
tests' oracles.  The boundary Fourier analysis identifies the dominant mode
of simulated shapes.
"""

import numpy as np

from .energy import SIGMA_PER_SPRING_K
from .mesh import boundary_frame

# uniform arc-length samples of the boundary radius in the mode spectrum
_MODE_SAMPLES = 256


def critical_gamma(k):
    """Tension ratio at which radial mode k destabilizes the flat circle."""
    if k < 2:
        raise ValueError("no buckling mode below k = 2")
    return 16.0 * np.pi**3 * (float(k) ** 2 - 1.0)


def kl3a_from_gamma(gamma):
    """Convert gamma = sigma L^3/alpha to the sweep's control group k L^3/alpha."""
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
