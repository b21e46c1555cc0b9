"""Two-grid and V-cycle solvers for the Dirichlet Poisson problem.

The hierarchy uses grids with ``n = 2**k - 1`` interior points per dimension
so that standard coarsening maps interior nodes onto interior nodes.  The
finest operator is applied by its stencil; coarse operators come from the
Galerkin product ``A_H = R A P`` with linear interpolation ``P`` and full
weighting ``R = 2**-dim P^T``, which reproduces the coarse Laplacian exactly
in 1D and keeps the discrete two-grid operator aligned with its Fourier
symbol (the error operator is invariant under the common rescaling of ``R``
and ``A_H``, so transposed-interpolation restriction yields the same cycle).

``measured_convergence_factor`` runs homogeneous cycles (``b = 0``) from a
seeded random start, renormalising the iterate every cycle; the asymptotic
contraction is the geometric mean of the last per-cycle ratios.  Ratios at
rounding level raise :class:`StagnationError` instead of polluting the
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .lfa import SmootherKind, SmootherSpec
from .stencils import GridSpec, Stencil, laplacian_stencil, mass_stencil
from . import stencils
from .vanka import PatchLayout, build_vanka, assemble_sparse

__all__ = [
    "CycleSpec",
    "Level",
    "Hierarchy",
    "StagnationError",
    "ConvergenceRun",
    "transfer_ops",
    "build_hierarchy",
    "relax",
    "cycle",
    "two_grid_cycle",
    "v_cycle",
    "measured_convergence_factor",
    "run_convergence",
]

COARSEST_MAX = 7          # stop V-cycle coarsening at n in {3, ..., 7}
STAGNATION_RATIO = 1e-13  # per-cycle contraction at rounding level


class StagnationError(RuntimeError):
    """Raised when per-cycle ratios hit rounding level and stop being meaningful."""


@dataclass(frozen=True)
class CycleSpec:
    """Cycle shape: smoother, pre/post sweep counts and cycle type."""

    smoother: SmootherSpec
    nu1: int = 1
    nu2: int = 0
    cycle: str = "two-grid"

    def __post_init__(self):
        if self.nu1 < 0 or self.nu2 < 0 or self.nu1 + self.nu2 < 1:
            raise ValueError("need nonnegative sweep counts with nu1 + nu2 >= 1")
        if self.cycle not in ("two-grid", "v-cycle"):
            raise ValueError(f"unknown cycle type {self.cycle!r}")


@dataclass
class Level:
    """One grid level: operator, smoother applicator, transfer to the finer level."""

    grid: GridSpec
    stencil: Stencil | None
    matrix: sp.csr_matrix
    m_apply: object = None
    prolong: sp.csr_matrix | None = None   # from the next coarser level to here
    lu: tuple | None = None                # dense factorisation on the coarsest

    def matvec(self, u: np.ndarray) -> np.ndarray:
        if self.stencil is not None:
            return stencils.apply(self.stencil, self.grid, u)
        return self.matrix @ u


@dataclass
class Hierarchy:
    spec: CycleSpec
    levels: list = field(default_factory=list)

    @property
    def fine(self) -> Level:
        return self.levels[0]


def _p1_matrix(nc: int) -> sp.csr_matrix:
    """1D linear interpolation from nc coarse to 2*nc + 1 fine interior points."""
    nf = 2 * nc + 1
    rows, cols, vals = [], [], []
    for j in range(nc):
        rows += [2 * j + 1]
        cols += [j]
        vals += [1.0]
    for m in range(nc + 1):
        for j in (m - 1, m):
            if 0 <= j < nc:
                rows += [2 * m]
                cols += [j]
                vals += [0.5]
    return sp.csr_matrix((vals, (rows, cols)), shape=(nf, nc))


def transfer_ops(fine_grid: GridSpec) -> tuple:
    """Restriction and prolongation between ``n`` and ``(n-1)/2`` grids.

    Returns sparse ``(R, P)`` with ``R = 2**-dim P^T`` (full weighting) and
    ``P`` the tensor product of 1D linear interpolation.
    """
    n = fine_grid.n
    if n < 3 or (n - 1) % 2:
        raise ValueError(f"cannot coarsen n={n}")
    nc = (n - 1) // 2
    if nc < 1:
        raise ValueError(f"cannot coarsen n={n}")
    p1 = _p1_matrix(nc)
    p = p1
    for _ in range(fine_grid.dim - 1):
        p = sp.kron(p, p1, format="csr")
    r = (p.T * (2.0 ** -fine_grid.dim)).tocsr()
    return r, p


def _smoother_applicator(sm: SmootherSpec, level_grid: GridSpec, operator):
    """Return a callable evaluating ``M r`` for the level operator."""
    kind = sm.kind
    if kind in (SmootherKind.VANKA_ELEMENT, SmootherKind.VANKA_VERTEX):
        layout = PatchLayout("element" if kind is SmootherKind.VANKA_ELEMENT else "vertex",
                             level_grid.dim)
        op = build_vanka(layout, level_grid, operator)
        return op.apply
    if kind is SmootherKind.JACOBI:
        scale = level_grid.h**2 / (2 * level_grid.dim)
        return lambda r: scale * r
    m_st = mass_stencil(level_grid.dim, level_grid.h)
    return lambda r: stencils.apply(m_st, level_grid, r)


def build_hierarchy(spec: CycleSpec, fine_grid: GridSpec) -> Hierarchy:
    """Build grids, operators, smoothers and transfers for the requested cycle.

    The finest level keeps its stencil; coarser operators are Galerkin
    products.  Two-grid hierarchies have exactly two levels and need
    ``n >= 7``; V-cycles coarsen until at most :data:`COARSEST_MAX` points
    per dimension remain and need ``n >= 15``.  The coarsest level is
    factorised densely.
    """
    if fine_grid.boundary != "dirichlet":
        raise ValueError("the solver runs on Dirichlet grids")
    if fine_grid.dim != spec.smoother.dim:
        raise ValueError(f"smoother dim {spec.smoother.dim} != grid dim {fine_grid.dim}")
    n = fine_grid.n
    if n < 3 or (n + 1) & n:
        raise ValueError(f"need n = 2**k - 1 interior points, got n={n}")
    # a two-grid coarse level needs 3 points; a V-cycle must coarsen at least once
    min_n = 2 * COARSEST_MAX + 1 if spec.cycle == "v-cycle" else 7
    if n < min_n:
        raise ValueError(f"{spec.cycle} needs n >= {min_n} interior points "
                         f"per dimension, got n={n}")

    fine_stencil = laplacian_stencil(fine_grid.dim, fine_grid.h)
    levels = [Level(fine_grid, fine_stencil, assemble_sparse(fine_stencil, fine_grid))]
    while True:
        cur = levels[-1]
        stop = cur.grid.n <= COARSEST_MAX if spec.cycle == "v-cycle" else len(levels) == 2
        if stop:
            break
        r, p = transfer_ops(cur.grid)
        coarse_grid = GridSpec(cur.grid.dim, (cur.grid.n - 1) // 2, 2 * cur.grid.h)
        coarse_matrix = (r @ cur.matrix @ p).tocsr()
        cur.prolong = p
        levels.append(Level(coarse_grid, None, coarse_matrix))

    for level in levels[:-1]:
        level.m_apply = _smoother_applicator(spec.smoother, level.grid, level.matrix)
    coarsest = levels[-1]
    coarsest.lu = scipy.linalg.lu_factor(coarsest.matrix.toarray())
    return Hierarchy(spec, levels)


def relax(sm: SmootherSpec, level: Level, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One sweep of ``u + omega M (b - A u)``."""
    residual = b - level.matvec(u)
    return u + float(sm.omega) * level.m_apply(residual)


def _descend(hier: Hierarchy, idx: int, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    level = hier.levels[idx]
    if level.lu is not None:
        return scipy.linalg.lu_solve(level.lu, b)
    sm = hier.spec.smoother
    for _ in range(hier.spec.nu1):
        u = relax(sm, level, u, b)
    residual = b - level.matvec(u)
    coarse_b = (level.prolong.T @ residual) * 2.0 ** -level.grid.dim
    coarse_u = _descend(hier, idx + 1, np.zeros_like(coarse_b), coarse_b)
    u = u + level.prolong @ coarse_u
    for _ in range(hier.spec.nu2):
        u = relax(sm, level, u, b)
    return u


def cycle(hier: Hierarchy, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One multigrid cycle from the finest level."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    return _descend(hier, 0, u, b)


def two_grid_cycle(hier: Hierarchy, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One two-grid cycle (validates the hierarchy shape)."""
    if len(hier.levels) != 2:
        raise ValueError("two_grid_cycle expects a two-level hierarchy")
    return cycle(hier, u, b)


def v_cycle(hier: Hierarchy, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One V-cycle down to the direct coarsest solve."""
    return cycle(hier, u, b)


@dataclass(frozen=True)
class ConvergenceRun:
    """Per-cycle contraction ratios and the asymptotic estimate."""

    factor: float
    ratios: tuple


def _asymptotic_factor(ratios, tail: int) -> float:
    used = ratios[-tail:] if tail < len(ratios) else ratios
    for ratio in used:
        if ratio < STAGNATION_RATIO:
            raise StagnationError(
                f"per-cycle ratio {ratio:.3e} is at rounding level; "
                "the asymptotic factor is no longer measurable")
    return float(np.exp(np.mean(np.log(used))))


def run_convergence(hier: Hierarchy, cycles: int = 50, tail: int = 10,
                    seed: int = 0) -> ConvergenceRun:
    """Drive homogeneous cycles and measure the asymptotic contraction.

    The iterate is renormalised after every cycle, so the per-cycle ratio
    sequence is the quantity averaged and rounding-level underflow cannot
    masquerade as convergence.
    """
    if cycles < 2:
        raise ValueError("need at least 2 cycles")
    fine = hier.fine
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(fine.grid.npoints)
    u /= np.linalg.norm(u)
    b = np.zeros_like(u)
    ratios = []
    for _ in range(cycles):
        v = cycle(hier, u, b)
        ratio = float(np.linalg.norm(v))
        if ratio < STAGNATION_RATIO:
            raise StagnationError(
                f"error contracted to {ratio:.3e} of the iterate in one cycle; "
                "measurement stagnated at rounding level")
        ratios.append(ratio)
        u = v / ratio
    return ConvergenceRun(_asymptotic_factor(ratios, tail), tuple(ratios))


def measured_convergence_factor(spec: CycleSpec, fine_grid: GridSpec,
                                cycles: int = 50, seed: int = 0) -> float:
    """Asymptotic per-cycle contraction of the requested cycle on a grid."""
    hier = build_hierarchy(spec, fine_grid)
    return run_convergence(hier, cycles=cycles, seed=seed).factor
