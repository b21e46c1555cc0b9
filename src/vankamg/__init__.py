"""Geometric multigrid with additive Vanka smoothers for the Poisson equation.

The package has four layers:

* :mod:`vankamg.stencils` - exact-rational stencils on uniform grids;
* :mod:`vankamg.vanka`    - overlapping patch smoothers and their assembly;
* :mod:`vankamg.lfa`      - local Fourier analysis: smoothing factors,
  closed-form optimal damping, two-grid convergence factors;
* :mod:`vankamg.solver`   - two-grid and V-cycle solvers with measured
  convergence factors.

``python -m vankamg.cli`` (or the ``vankamg`` script) exposes the analysis
tables, eigenvalue fields, the solver and a damping scan.
"""

from .stencils import (GridSpec, Stencil, apply, delta_stencil,
                       laplacian_stencil, mass_stencil, tensor_product)
from .vanka import (PatchLayout, VankaOperator, assemble_dense, assemble_sparse,
                    build_vanka, closed_form_stencil, export_triplets)
from .lfa import (EigenField, FrequencyGrid, OptimalDamping, SmootherKind,
                  SmootherSpec, TwoGridSymbol, eigenfield, exact_optimum,
                  optimal_omega, smoother_symbol, smoothing_factor,
                  spectral_radius, symbol, transfer_symbols, two_grid_factor,
                  two_grid_symbol)
from .solver import (ConvergenceRun, CycleSpec, Hierarchy, Level,
                     StagnationError, build_hierarchy, cycle,
                     measured_convergence_factor, relax, run_convergence,
                     transfer_ops)

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "Stencil", "apply", "delta_stencil", "laplacian_stencil",
    "mass_stencil", "tensor_product",
    "PatchLayout", "VankaOperator", "assemble_dense", "assemble_sparse",
    "build_vanka", "closed_form_stencil", "export_triplets",
    "EigenField", "FrequencyGrid", "OptimalDamping", "SmootherKind",
    "SmootherSpec", "TwoGridSymbol", "eigenfield", "exact_optimum",
    "optimal_omega", "smoother_symbol", "smoothing_factor", "spectral_radius",
    "symbol", "transfer_symbols", "two_grid_factor", "two_grid_symbol",
    "ConvergenceRun", "CycleSpec", "Hierarchy", "Level", "StagnationError",
    "build_hierarchy", "cycle", "measured_convergence_factor", "relax",
    "run_convergence", "transfer_ops",
    "__version__",
]
