"""Coalescent point processes of multi-type branching trees.

Modules by concern:

- `model`: the offspring-law interface both model kinds share, finite-support
  specs, and the generating-function calculus
- `lf`: the linear-fractional parametric class and its closed-form laws
- `forest`: planar tree simulation and coalescent extraction
- `dchain`: the reduced ancestry chain over surviving-offspring states
- `analytics`: exact first-pair laws and the law table
- `harness`: run configuration, Monte Carlo drivers, validation and emission
- `cli`: the command-line entry point
"""

from .model import ModelSpec, SpectralInfo
from .lf import LFParams, LFIterates

__all__ = ["ModelSpec", "SpectralInfo", "LFParams", "LFIterates"]
