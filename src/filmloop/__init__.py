"""Soap films spanning inextensible elastic loops.

Discrete bending + spring energies on triangulated disks, relaxation by
limited-memory BFGS started from a circulant boundary preconditioner,
boundary curvature analysis, closed-form stability thresholds for the flat
circular state, a one-parameter twisted-saddle trial family, and a
continuation driver that sweeps the dimensionless tension and records the
resulting bifurcation diagram.
"""

__version__ = "0.8.1"

from .mesh import TriMesh, generate_disk_mesh, validate_mesh
from .energy import EnergyParams, EnergyBreakdown, energy, energy_and_gradient
from .optimize import MinimizeOptions, MinimizeResult, minimize, perturb, relax
from .stability import disk_solution, second_order_coefficient, critical_gamma
from .saddle import SaddleFamily, pitchfork_amplitude, gamma_star
from .sweep import SweepSchedule, BifurcationDiagram, run_sweep, detect_transitions

__all__ = [
    "TriMesh", "generate_disk_mesh", "validate_mesh",
    "EnergyParams", "EnergyBreakdown", "energy", "energy_and_gradient",
    "MinimizeOptions", "MinimizeResult", "minimize", "perturb", "relax",
    "disk_solution", "second_order_coefficient", "critical_gamma",
    "SaddleFamily", "pitchfork_amplitude", "gamma_star",
    "SweepSchedule", "BifurcationDiagram", "run_sweep", "detect_transitions",
]
