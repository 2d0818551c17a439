"""Soap films spanning inextensible elastic loops.

The discrete energy of a loop (bending, the Douglas film slaved to the loop,
length penalties), relaxation by limited-memory BFGS from a circulant
boundary preconditioner under an augmented-Lagrangian length constraint,
boundary and surface curvature observables, the buckling thresholds of the
flat circular state, a one-parameter twisted-saddle trial family, and a
continuation driver that sweeps the dimensionless tension and records the
resulting bifurcation diagram.
"""

__version__ = "0.9.7"

from .mesh import TriMesh, generate_disk_mesh, validate_mesh
from .energy import EnergyParams, EnergyBreakdown, energy, energy_and_gradient
from .optimize import MinimizeOptions, MinimizeResult, perturb, relax
from .stability import critical_gamma
from .saddle import SaddleFamily, pitchfork_amplitude, gamma_star
from .sweep import SweepSchedule, BifurcationDiagram, run_sweep, detect_transitions

__all__ = [
    "TriMesh", "generate_disk_mesh", "validate_mesh",
    "EnergyParams", "EnergyBreakdown", "energy", "energy_and_gradient",
    "MinimizeOptions", "MinimizeResult", "perturb", "relax",
    "critical_gamma",
    "SaddleFamily", "pitchfork_amplitude", "gamma_star",
    "SweepSchedule", "BifurcationDiagram", "run_sweep", "detect_transitions",
]
