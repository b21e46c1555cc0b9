"""Two-grid and V-cycle solvers for the Dirichlet Poisson problem.

The hierarchy uses grids with ``n = 2**k - 1`` interior points per dimension
so that standard coarsening maps interior nodes onto interior nodes.  Every
level holds one operator in diagonal (DIA) storage: the finest is the
assembled Laplacian stencil, coarser ones are the Galerkin operators
``A_H = 2**-dim P^T A P`` with linear interpolation ``P``.  Each is
assembled from its exact stencil,
``stencils.galerkin_stencil`` of the stencil one level up: on these grids
every hat of ``P`` lies inside the box, so the triple product is that
constant-coefficient stencil truncated at the Dirichlet boundary, the same
matrix without the sparse product's temporaries.  Each level above the
coarsest stores one transfer, the full weighting ``R = 2**-dim P^T`` of
``stencils.restriction_stencil`` written straight into CSR; the cycle
restricts with ``R`` and prolongs with ``2**dim R^T`` through the stored
view ``R^T``, so ``A_H = R A P``.
This reproduces the coarse Laplacian exactly in 1D and keeps the discrete
two-grid operator aligned with its Fourier symbol (the error operator is
invariant under the common rescaling of ``R`` and ``A_H``, so
transposed-interpolation restriction yields the same cycle).  Each level's
stencil also builds its Vanka smoother.  The coarsest level is solved by a
sparse LU factorisation.  The bytes of the build are estimated from the
level stencils before anything is assembled, and a build over
:data:`BUILD_BUDGET_BYTES` is refused.  :meth:`Hierarchy.report` lists
what each level holds.

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

from .lfa import SmootherKind, SmootherSpec, _sweeps
from .stencils import GridSpec, PatchLayout, laplacian_stencil, restriction_stencil
from . import stencils
from .vanka import VankaOperator, _dia_bytes, _smoother_bytes, assemble_sparse, build_vanka

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

# cap on the estimated bytes of a build: a coarsest sparse LU above it is
# refused before anything is assembled (3D two-grid at h = 1/64 is accepted),
# and so is a hierarchy whose level matrices, transfers and smoothers add up
# to more (every 2D V-cycle up to h = 1/2048 is accepted, the vertex Vanka
# one at 1.0 GiB; no Vanka V-cycle at h = 1/4096)
BUILD_BUDGET_BYTES = 2**31

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
_CSR_BYTES_PER_NNZ = 12   # float64 value plus int32 column index


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
        if _sweeps(self.nu1) + _sweeps(self.nu2) < 1:
            raise ValueError("need nonnegative sweep counts with nu1 + nu2 >= 1")
        if self.cycle not in ("two-grid", "v-cycle"):
            raise ValueError(f"unknown cycle type {self.cycle!r}")


@dataclass
class Level:
    """One grid level: DIA operator, smoother applicator, transfers to the coarser level.

    ``m_apply(r)`` evaluates ``M r`` into a fresh array and leaves ``r`` alone:
    :func:`relax` scales and updates its result in place; on a Vanka level
    it is the bound ``apply`` of the level's :class:`~vankamg.vanka.VankaOperator`.
    ``restrict`` is the full weighting ``R`` onto the next coarser level
    (``transfer_ops``) and ``prolong`` the view ``R^T``, a CSC matrix on
    ``R``'s arrays; the cycle prolongs with ``2**dim R^T``.
    """

    grid: GridSpec
    matrix: sp.dia_matrix
    m_apply: object = None
    restrict: sp.csr_matrix | None = None  # from here to the next coarser level
    prolong: sp.csc_matrix | None = None   # ``restrict.T``, sharing its arrays
    lu: object = None                      # sparse LU (``splu``) on the coarsest


def _stored_bytes(matrix) -> int:
    """Bytes of the arrays a DIA or CSR matrix stores; 0 for None."""
    return sum(getattr(matrix, part).nbytes for part in ("data", "offsets", "indices", "indptr")
               if hasattr(matrix, part))


@dataclass
class Hierarchy:
    spec: CycleSpec
    levels: list = field(default_factory=list)

    @property
    def fine(self) -> Level:
        return self.levels[0]

    def report(self) -> list:
        """One dict per level, finest first: what the level holds.

        ``n`` and ``unknowns`` size the grid; ``diagonals`` and
        ``operator_bytes`` describe the level matrix, ``smoother_bytes`` a
        Vanka ``M`` with its weights (0 for the smoothers applied as
        stencils) and ``transfer_bytes`` the restriction (the prolongation
        shares its arrays).  The coarsest level adds ``lu_nnz``, the
        entries ``L.nnz + U.nnz`` of its sparse LU.  Everything is read
        from the built levels when called.
        """
        rows = []
        for level in self.levels:
            op = getattr(level.m_apply, "__self__", None)
            rows.append({"n": level.grid.n, "unknowns": level.grid.npoints,
                         "diagonals": len(level.matrix.offsets),
                         "operator_bytes": _stored_bytes(level.matrix),
                         "smoother_bytes": _stored_bytes(op.matrix) + op.weights.nbytes
                         if isinstance(op, VankaOperator) else 0,
                         "transfer_bytes": _stored_bytes(level.restrict)})
            if level.lu is not None:
                rows[-1]["lu_nnz"] = level.lu.L.nnz + level.lu.U.nnz
        return rows


def transfer_ops(fine_grid: GridSpec) -> sp.csr_matrix:
    """Full-weighting restriction ``R`` from the ``n`` grid to the ``(n-1)/2`` grid.

    ``R`` applies ``stencils.restriction_stencil`` at the fine points under
    the coarse ones (coarse ``J`` on fine ``2J + 1`` per axis), so every row
    keeps all ``3**dim`` weights and the CSR arrays are written directly:
    ``indptr`` steps by ``3**dim``, each row's columns are its centre plus the
    flat offsets in ascending order, and ``data`` repeats the weights.  The
    cycle prolongs with linear interpolation ``P = 2**dim R^T``, never stored.
    """
    n, dim = fine_grid.n, fine_grid.dim
    if n < 3 or (n - 1) % 2:
        raise ValueError(f"cannot coarsen n={n}")
    strides = n ** np.arange(dim - 1, -1, -1)
    weights = sorted((int(np.dot(o, strides)), float(c))
                     for o, c in restriction_stencil(dim).entries.items())
    rows = ((n - 1) // 2) ** dim
    index = np.int32 if max(len(weights) * rows, fine_grid.npoints) < 2**31 else np.int64
    axis = 2 * np.arange((n - 1) // 2, dtype=index) + 1
    centre = sum(np.ix_(*[axis * int(s) for s in strides])).reshape(-1)
    flat = np.array([f for f, _ in weights], dtype=index)
    indptr = len(weights) * np.arange(rows + 1, dtype=index)
    data = np.tile([c for _, c in weights], rows)
    return sp.csr_matrix((data, (centre[:, None] + flat).reshape(-1), indptr),
                         shape=(rows, fine_grid.npoints))


def _smoother_applicator(sm: SmootherSpec, level_grid: GridSpec, stencil):
    """Return a callable evaluating ``M r`` for the level operator ``stencil``.

    Vanka smoothers are one matrix in diagonal (DIA) storage built by
    ``build_vanka`` from the level's stencil: the patches of a template grid
    of at most 5 points per axis are inverted and scattered, and every
    diagonal of ``M`` is read from the template's, with no patch gathered
    from the assembled level matrix.
    For every other kind ``M`` is the stencil the analysis uses,
    ``lfa.smoother_m_stencil`` at the level's ``h`` (``stencil`` is not
    read), applied matrix-free by ``stencils.apply``.  Those stencils are
    rank one (the mass stencils are ``[1 4 1]`` per axis, Jacobi a scaled
    identity), so ``apply`` sweeps one axis at a time.  On the 3D n = 63
    grid that takes 4.3 ms, against 9.7 ms for the product with the
    assembled 27-point mass matrix, which would also take 0.31 s and an
    81 MiB peak to build (best of 20 and 5 runs on a 2-CPU VM; peak by
    ``tracemalloc``).
    """
    layout = _vanka_layout(sm)
    if layout is not None:
        return build_vanka(layout, level_grid, stencil).apply
    m_st = sm.m_stencil(level_grid.h)
    return lambda r: stencils.apply(m_st, level_grid, r)


def _vanka_layout(sm: SmootherSpec):
    """The patch layout of a Vanka smoother, None for every other kind."""
    kinds = {SmootherKind.VANKA_ELEMENT: "element", SmootherKind.VANKA_VERTEX: "vertex"}
    return PatchLayout(kinds[sm.kind], sm.dim) if sm.kind in kinds else None


def _coarse_lu_bytes(dim: int, n: int) -> float:
    """Estimated bytes of ``splu`` of the Galerkin operator on ``n**dim`` unknowns."""
    (n1, f1), (n2, f2) = _LU_FILL[dim]
    fill = f2 * (n**dim / n2) ** (np.log(f2 / f1) / np.log(n2 / n1))
    return _LU_BYTES_PER_NNZ * fill


def _transfer_bytes(coarse: GridSpec) -> int:
    """Bytes of the stored restriction onto ``coarse``: ``3**dim`` entries per row."""
    rows = coarse.npoints
    return _CSR_BYTES_PER_NNZ * 3**coarse.dim * rows + 4 * (rows + 1)


def _build_bytes(sm: SmootherSpec, grids, level_stencils) -> int:
    """Estimated peak bytes of the level matrices, transfers and smoothers of a hierarchy.

    Every level matrix, every restriction and every Vanka ``M`` and its
    weights stay held; nothing built on the way is of a grid's size.
    """
    held = sum(_dia_bytes([o for o, c in st.entries.items() if c != 0], grid)
               for grid, st in zip(grids, level_stencils))
    held += sum(_transfer_bytes(grid) for grid in grids[1:])
    layout = _vanka_layout(sm)
    if layout is not None:
        held += sum(_smoother_bytes(layout, grid) for grid in grids[:-1])
    return held


def _plan(spec: CycleSpec, fine_grid: GridSpec) -> tuple:
    """Check a hierarchy request; return its level grids and stencils, finest first.

    Two-grid hierarchies have exactly two levels and need ``n >= 7``;
    V-cycles coarsen until at most :data:`COARSEST_MAX` points per dimension
    remain and need ``n >= 15``.  The fine stencil is the Laplacian, each
    coarser one ``stencils.galerkin_stencil`` of the one above.  Nothing is
    assembled: a coarse LU whose ``_coarse_lu_bytes`` estimate exceeds
    :data:`BUILD_BUDGET_BYTES` is refused, and so is a build whose
    ``_build_bytes`` estimate plus that factor exceeds it.
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
    level_stencils = [laplacian_stencil(fine_grid.dim, fine_grid.h)]
    while len(grids) == 1 or spec.cycle == "v-cycle" and grids[-1].n > COARSEST_MAX:
        g = grids[-1]
        grids.append(GridSpec(g.dim, (g.n - 1) // 2, 2 * g.h))
        level_stencils.append(stencils.galerkin_stencil(level_stencils[-1]))
    coarsest = grids[-1]
    budget = f"{BUILD_BUDGET_BYTES / 2**30:.0f} GiB budget"
    lu_bytes = _coarse_lu_bytes(coarsest.dim, coarsest.n)
    if lu_bytes > BUILD_BUDGET_BYTES:
        raise ValueError(
            f"the coarse LU on {coarsest.n}^{coarsest.dim} unknowns needs about "
            f"{lu_bytes / 2**30:.0f} GiB, over the {budget}; "
            "a V-cycle (--cycle v-cycle) coarsens to n <= 7")
    build_bytes = _build_bytes(spec.smoother, grids, level_stencils) + lu_bytes
    if build_bytes > BUILD_BUDGET_BYTES:
        raise ValueError(
            f"building the {spec.cycle} hierarchy on {n}^{fine_grid.dim} unknowns "
            f"needs about {build_bytes / 2**30:.1f} GiB, over the {budget}")
    return grids, level_stencils


def build_hierarchy(spec: CycleSpec, fine_grid: GridSpec) -> Hierarchy:
    """Build grids, operators, smoothers and transfers for the requested cycle.

    The levels are those of ``_plan``, which refuses a request before any
    assembly.  Every level holds one operator in diagonal (DIA) storage:
    the assembled fine Laplacian and the Galerkin operators below it, each
    assembled from ``stencils.galerkin_stencil`` of the stencil one level up
    (equal to ``2**-dim P^T A P``, as every hat of ``P`` lies inside the
    grid).  Every level but the coarsest keeps the restriction ``R`` onto
    the next one and its transpose view, from which the cycle prolongs
    (``P = 2**dim R^T``, never stored), and each level's stencil builds its
    smoother.  The coarsest level is factorised by sparse LU
    (``scipy.sparse.linalg.splu``).
    """
    grids, level_stencils = _plan(spec, fine_grid)
    levels = [Level(fine_grid, assemble_sparse(level_stencils[0], fine_grid))]
    for grid, st in zip(grids[1:], level_stencils[1:]):
        levels[-1].restrict = transfer_ops(levels[-1].grid)
        levels[-1].prolong = levels[-1].restrict.T
        levels.append(Level(grid, assemble_sparse(st, grid)))
    for level, st in zip(levels[:-1], level_stencils):
        level.m_apply = _smoother_applicator(spec.smoother, level.grid, st)
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
    one the explicit zero vector gives.  The residual is restricted by
    ``R @ r`` and the coarse correction ``e`` prolonged by ``R^T @ (2**dim e)``
    through the stored view ``R^T``;
    scaling by a power of two is exact and both products sum in the order of
    ``2**-dim P^T r`` and ``P e``, so they match those bit for bit.  Every
    other step writes into an array this cycle made, never into the caller's
    ``u`` or ``b``.
    """
    level = hier.levels[idx]
    if level.lu is not None:
        return level.lu.solve(b)
    sm = hier.spec.smoother
    for _ in range(hier.spec.nu1):
        u = relax(sm, level, u, b)
    coarse = _descend(hier, idx + 1, None, level.restrict @ _residual(level, u, b))
    coarse *= 2.0 ** level.grid.dim
    correction = level.prolong @ coarse
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
    masquerade as convergence.  The factor averages the last ``tail`` ratios
    (all of them if there are fewer).
    """
    if cycles < 2:
        raise ValueError("need at least 2 cycles")
    if tail < 1:
        raise ValueError(f"need tail >= 1, got {tail}")
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
