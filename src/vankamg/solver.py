"""Two-grid and V-cycle solvers for the Dirichlet Poisson problem.

The hierarchy uses grids with ``n = 2**k - 1`` interior points per dimension
so that standard coarsening maps interior nodes onto interior nodes.  Every
level holds one CSR operator: the finest is the assembled Laplacian stencil,
coarser ones are the Galerkin operators ``A_H = 2**-dim P^T A P`` with linear
interpolation ``P``.  Each is assembled from its exact stencil,
``stencils.galerkin_stencil`` of the stencil one level up: on these grids
every hat of ``P`` lies inside the box, so the triple product is that
constant-coefficient stencil truncated at the Dirichlet boundary, the same
matrix without the sparse product's temporaries.  The cycle restricts with
the full weighting ``R = 2**-dim P^T`` of ``stencils.restriction_stencil``,
from which ``P`` is built, so ``A_H = R A P``; this reproduces the
coarse Laplacian exactly in 1D and keeps the discrete two-grid operator
aligned with its Fourier symbol (the error operator is invariant under the
common rescaling of ``R`` and ``A_H``, so transposed-interpolation restriction
yields the same cycle).  The coarsest level is solved by a sparse LU
factorisation.

``measured_convergence_factor`` runs homogeneous cycles (``b = 0``) from a
seeded random start, renormalising the iterate every cycle; the asymptotic
contraction is the geometric mean of the last per-cycle ratios.  Ratios at
rounding level raise :class:`StagnationError` instead of polluting the
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .lfa import SmootherKind, SmootherSpec
from .stencils import GridSpec, PatchLayout, laplacian_stencil, restriction_stencil
from . import stencils
from .vanka import build_vanka, assemble_sparse

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
    "measured_convergence_factor",
    "run_convergence",
]

COARSEST_MAX = 7          # stop V-cycle coarsening at n in {3, ..., 7}
STAGNATION_RATIO = 1e-13  # per-cycle contraction at rounding level

# cap on the estimated bytes of the coarsest sparse LU: a larger factor is
# refused before anything is assembled (3D two-grid at h = 1/64 is accepted)
COARSE_LU_BUDGET_BYTES = 2**31

# measured splu fill ``L.nnz + U.nnz`` of the Galerkin coarse operator,
# (coarse unknowns, fill) twice per dimension; the estimate is the power law
# through the two points.  COLAMD fill grows faster than any fixed power in
# 3D (N^1.56, then N^1.79), so the larger pair is used.
_LU_FILL = {
    1: ((63, 252), (1023, 4092)),
    2: ((16129, 1.74e6), (65025, 9.1e6)),
    3: ((3375, 1.16e6), (29791, 57.7e6)),
}
_LU_BYTES_PER_NNZ = 12    # float64 value plus int32 row index


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
    """One grid level: CSR operator, smoother applicator, transfer to the finer level.

    ``m_apply(r)`` evaluates ``M r`` into a fresh array and leaves ``r`` alone:
    :func:`relax` scales and updates its result in place.
    """

    grid: GridSpec
    matrix: sp.csr_matrix
    m_apply: object = None
    prolong: sp.csr_matrix | None = None   # from the next coarser level to here
    lu: object = None                      # sparse LU (``splu``) on the coarsest


@dataclass
class Hierarchy:
    spec: CycleSpec
    levels: list = field(default_factory=list)

    @property
    def fine(self) -> Level:
        return self.levels[0]


def _p1_matrix(nc: int) -> sp.csr_matrix:
    """1D linear interpolation ``2 R^T`` from nc coarse to 2*nc + 1 fine interior points."""
    j = np.arange(nc)
    # coarse point j sits on fine point 2j+1 and gives 2 r(o) to fine point 2j+1+o
    line = restriction_stencil(1).entries
    rows = np.concatenate([2 * j + 1 + o for (o,) in line])
    vals = np.repeat([2 * float(c) for c in line.values()], nc)
    return sp.csr_matrix((vals, (rows, np.tile(j, len(line)))), shape=(2 * nc + 1, nc))


def transfer_ops(fine_grid: GridSpec) -> sp.csr_matrix:
    """Prolongation ``P`` from the ``(n-1)/2`` grid to the ``n`` grid.

    ``P = 2**dim R^T`` for the full weighting ``R`` of
    ``stencils.restriction_stencil``: the tensor product of 1D linear
    interpolation.  The cycle restricts with ``2**-dim P^T``, never stored.
    """
    n = fine_grid.n
    if n < 3 or (n - 1) % 2:
        raise ValueError(f"cannot coarsen n={n}")
    p1 = _p1_matrix((n - 1) // 2)
    p = p1
    for _ in range(fine_grid.dim - 1):
        p = sp.kron(p, p1, format="csr")
    return p


def _smoother_applicator(sm: SmootherSpec, level_grid: GridSpec, operator):
    """Return a callable evaluating ``M r`` for the level operator.

    Vanka smoothers are one CSR matrix built from the level's patches.  For
    every other kind ``M`` is the stencil the analysis uses,
    ``lfa.smoother_m_stencil`` at the level's ``h``, applied matrix-free by
    ``stencils.apply``.  Those stencils are rank one (the mass stencils are
    ``[1 4 1]`` per axis, Jacobi a scaled identity), so ``apply`` sweeps one
    axis at a time.  On the 3D n = 63 grid that takes 4.3 ms, against
    9.7 ms for the product with the assembled 27-point mass matrix, which
    would also take 0.31 s and an 81 MiB peak to build (best of 20 and 5
    runs on a 2-CPU VM; peak by ``tracemalloc``).
    """
    kind = sm.kind
    if kind in (SmootherKind.VANKA_ELEMENT, SmootherKind.VANKA_VERTEX):
        layout = PatchLayout("element" if kind is SmootherKind.VANKA_ELEMENT else "vertex",
                             level_grid.dim)
        op = build_vanka(layout, level_grid, operator)
        return op.apply
    m_st = sm.m_stencil(level_grid.h)
    return lambda r: stencils.apply(m_st, level_grid, r)


def _coarse_lu_bytes(dim: int, n: int) -> float:
    """Estimated bytes of ``splu`` of the Galerkin operator on ``n**dim`` unknowns."""
    (n1, f1), (n2, f2) = _LU_FILL[dim]
    fill = f2 * (n**dim / n2) ** (np.log(f2 / f1) / np.log(n2 / n1))
    return _LU_BYTES_PER_NNZ * fill


def build_hierarchy(spec: CycleSpec, fine_grid: GridSpec) -> Hierarchy:
    """Build grids, operators, smoothers and transfers for the requested cycle.

    Every level holds one CSR operator: the assembled fine Laplacian and the
    Galerkin operators below it, each assembled from
    ``stencils.galerkin_stencil`` of the stencil one level up (equal to
    ``2**-dim P^T A P``, as every hat of ``P`` lies inside the grid); ``P``
    itself is kept on the finer level for the cycle.  Two-grid hierarchies
    have exactly two levels and need ``n >= 7``; V-cycles coarsen until at
    most :data:`COARSEST_MAX` points per dimension remain and need
    ``n >= 15``.  The coarsest level is factorised by sparse LU
    (``scipy.sparse.linalg.splu``); a factor whose ``_coarse_lu_bytes``
    estimate exceeds :data:`COARSE_LU_BUDGET_BYTES` is refused before any
    assembly.
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
    # a two-grid cycle coarsens once, a V-cycle down to COARSEST_MAX points
    grids = [fine_grid]
    while len(grids) == 1 or spec.cycle == "v-cycle" and grids[-1].n > COARSEST_MAX:
        g = grids[-1]
        grids.append(GridSpec(g.dim, (g.n - 1) // 2, 2 * g.h))
    coarsest = grids[-1]
    lu_bytes = _coarse_lu_bytes(coarsest.dim, coarsest.n)
    if lu_bytes > COARSE_LU_BUDGET_BYTES:
        raise ValueError(
            f"the coarse LU on {coarsest.n}^{coarsest.dim} unknowns needs about "
            f"{lu_bytes / 2**30:.0f} GiB, over the {COARSE_LU_BUDGET_BYTES / 2**30:.0f} GiB "
            "budget; a V-cycle (--cycle v-cycle) coarsens to n <= 7")

    st = laplacian_stencil(fine_grid.dim, fine_grid.h)
    levels = [Level(fine_grid, assemble_sparse(st, fine_grid))]
    for grid in grids[1:]:
        levels[-1].prolong = transfer_ops(levels[-1].grid)
        st = stencils.galerkin_stencil(st)
        levels.append(Level(grid, assemble_sparse(st, grid)))

    for level in levels[:-1]:
        level.m_apply = _smoother_applicator(spec.smoother, level.grid, level.matrix)
    levels[-1].lu = scipy.sparse.linalg.splu(levels[-1].matrix.tocsc())
    return Hierarchy(spec, levels)


def _residual(level: Level, u: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """``b - A u`` in a new array, or ``b`` itself for the zero iterate ``u = None``."""
    if u is None:
        return b
    residual = level.matrix @ u
    np.subtract(b, residual, out=residual)
    return residual


def relax(sm: SmootherSpec, level: Level, u: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """One sweep of ``u + omega M (b - A u)`` into a new array.

    ``u = None`` stands for the zero iterate, whose sweep is ``omega M b``.
    Neither ``u`` nor ``b`` is modified.
    """
    out = level.m_apply(_residual(level, u, b))
    out *= float(sm.omega)
    if u is not None:
        out += u
    return out


def _descend(hier: Hierarchy, idx: int, u: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """Cycle on level ``idx`` from ``u``; ``None`` is a coarse level's zero start.

    Starting from zero skips the product ``A 0`` and the additions of zero;
    in IEEE arithmetic ``b - 0 = b`` and ``0 + x = x``, so the result is the
    one the explicit zero vector gives.  Every other step writes into an
    array this cycle made, never into the caller's ``u`` or ``b``.
    """
    level = hier.levels[idx]
    if level.lu is not None:
        return level.lu.solve(b)
    sm = hier.spec.smoother
    for _ in range(hier.spec.nu1):
        u = relax(sm, level, u, b)
    coarse_b = level.prolong.T @ _residual(level, u, b)
    coarse_b *= 2.0 ** -level.grid.dim
    correction = level.prolong @ _descend(hier, idx + 1, None, coarse_b)
    if u is not None:
        correction += u
    u = correction
    for _ in range(hier.spec.nu2):
        u = relax(sm, level, u, b)
    return u


def cycle(hier: Hierarchy, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One cycle from the finest level: two-grid or V, as the hierarchy was built."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    return _descend(hier, 0, u, b)


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
