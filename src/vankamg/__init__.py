"""Geometric multigrid with additive Vanka smoothers for the Poisson equation.

The package has four layers:

* :mod:`vankamg.stencils` - exact-rational stencils on uniform grids, and the
  closed-form interior stencils of the Vanka smoothers;
* :mod:`vankamg.vanka`    - overlapping patch smoothers and their assembly;
* :mod:`vankamg.lfa`      - local Fourier analysis: smoothing factors,
  closed-form optimal damping, two-grid convergence factors;
* :mod:`vankamg.solver`   - two-grid and V-cycle solvers with measured
  convergence factors.

``stencils`` and ``lfa`` need numpy only.  ``vanka`` and ``solver`` import
``scipy.sparse`` (``solver`` also ``scipy.sparse.linalg``), so their names
are resolved lazily: ``import vankamg`` and the analysis itself never load
scipy, and the first use of a solver or Vanka name does.

``python -m vankamg.cli`` (or the ``vankamg`` script) exposes the analysis
tables, eigenvalue fields, the solver and a damping scan.
"""

from importlib import import_module

from .stencils import (GridSpec, PatchLayout, Stencil, apply, closed_form_stencil,
                       delta_stencil, galerkin_stencil, laplacian_stencil, mass_stencil,
                       restriction_stencil, tensor_product)
from .lfa import (EigenField, FrequencyGrid, OptimalDamping, SmootherKind,
                  SmootherSpec, TwoGridSymbol, eigenfield, exact_optimum,
                  optimal_omega, smoother_symbol, smoothing_factor,
                  spectral_radius, symbol, transfer_symbols, two_grid_factor,
                  two_grid_symbol)

__version__ = "0.1.0"

# names resolved on first access (PEP 562), by the module that defines them
_LAZY = {
    "vanka": ("VankaOperator", "assemble_dense", "assemble_sparse", "build_vanka",
              "export_triplets"),
    "solver": ("ConvergenceRun", "CycleSpec", "Hierarchy", "Level", "StagnationError",
               "build_hierarchy", "cycle", "measured_convergence_factor", "relax",
               "run_convergence", "transfer_ops"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "GridSpec", "Stencil", "apply", "delta_stencil", "laplacian_stencil",
    "mass_stencil", "tensor_product", "restriction_stencil", "galerkin_stencil",
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


def __getattr__(name):
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
