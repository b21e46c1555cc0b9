"""Two-grid and V-cycle solvers for the Dirichlet Poisson problem.

The hierarchy uses grids with ``n = 2**k - 1`` interior points per dimension
so that standard coarsening maps interior nodes onto interior nodes.  Every
level holds the stencil of its operator: the finest the Laplacian, coarser
ones the Galerkin operators ``A_H = 2**-dim P^T A P`` with linear
interpolation ``P``, each ``stencils.galerkin_stencil`` of the stencil one
level up: on these grids every hat of ``P`` lies inside the box, so the
triple product is that constant-coefficient stencil truncated at the
Dirichlet boundary.  A level of at most :data:`~vankamg.stencils.SLAB_ROWS`
points also holds its operator assembled in diagonal (DIA) storage, the
same matrix without the sparse product's temporaries.  Each level above the
coarsest stores one transfer, the full weighting ``R = 2**-dim P^T`` of
``stencils.restriction_stencil`` written straight into CSR; the cycle
restricts with ``R`` and prolongs with ``2**dim R^T`` through the stored
view ``R^T``, so ``A_H = R A P``.
This reproduces the coarse Laplacian exactly in 1D and keeps the discrete
two-grid operator aligned with its Fourier symbol (the error operator is
invariant under the common rescaling of ``R`` and ``A_H``, so
transposed-interpolation restriction yields the same cycle).  Each level's
stencil also builds its Vanka smoother.  The coarsest level is solved
exactly by the type-I sine transform (:class:`SineSolve`): its operator is
a reflection-symmetric stencil of reach 1 truncated at the Dirichlet
boundary, which the sine modes diagonalise with the stencil's symbol as
eigenvalues (Hockney's fast Poisson solver).  The bytes of the build are
estimated from the level stencils before anything is assembled, and a
request whose build and cycle vectors exceed :data:`BUILD_BUDGET_BYTES` is
refused.  :meth:`Hierarchy.report` lists what each level holds.

On a level of at most ``SLAB_ROWS`` points the residual ``b - A u`` is one
product with the held DIA matrix.  A larger level stores no diagonals,
which would be copies of its stencil's few coefficients: its residual is
formed from the stencil, slab by slab of ``SLAB_ROWS`` rows, by
``vanka.stencil_residual``, which adds each row's terms in the DIA
product's order and gives its result bit for bit.  The rank-one smoothers
run in slabs of axis-0 planes (``stencils.apply``), and a Vanka smoother
is one product on the whole vector.

``measured_convergence_factor`` runs homogeneous cycles (``b = 0``) from a
seeded random start, renormalising the iterate every cycle; the asymptotic
contraction is the geometric mean of the last per-cycle ratios.  Ratios at
rounding level raise :class:`StagnationError` instead of polluting the
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np
import scipy.sparse

from .lfa import SmootherKind, SmootherSpec, _sweeps, symbol
from .stencils import GridSpec, PatchLayout, Stencil, laplacian_stencil, restriction_stencil
from . import stencils
from .vanka import (VankaOperator, _diagonal_offsets, _dia_bytes, _smoother_bytes,
                    assemble_sparse, build_vanka, stencil_residual)

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

# cap on the estimated bytes of a run: a request whose build (level
# diagonals, transfers, smoothers and coarse sine solve, ``_build_bytes``)
# and cycle vectors add up to more is refused before anything is assembled.
# Every 2D V-cycle up to h = 1/2048 is accepted, the vertex Vanka one with a
# 0.73 GiB build; no Vanka V-cycle at h = 1/4096 (element: a 2.25 GiB
# build); the 3D two-grid and V-cycle up to h = 1/256, with 0.64 and
# 0.72 GiB builds.  A ``run_convergence`` cycle holds at most about
# ``_CYCLE_VECTORS`` vectors of the fine grid besides the build (5.3 to 8.6
# by tracemalloc for every kind at nu1, nu2 <= 2 on 1D n = 1023, 2D n = 255
# and 3D n = 63).  As a level of more than ``SLAB_ROWS`` points stores no
# diagonals, they can outweigh the build: 1.1 GiB on the 3D V-cycle at
# h = 1/256, and 4.5 GiB against a 2.0 GiB build on the 2D Jacobi
# two-grid at h = 1/8192, which is refused.
BUILD_BUDGET_BYTES = 2**31
_CYCLE_VECTORS = 9

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


def _holds_diagonals(grid: GridSpec) -> bool:
    """Whether a level on ``grid`` stores its operator's diagonals: at most one slab of points."""
    return grid.npoints <= stencils.SLAB_ROWS


@dataclass
class Level:
    """One grid level: operator stencil, smoother applicator, transfers to the coarser level.

    ``stencil`` is the level operator's.  A level of at most
    :data:`~vankamg.stencils.SLAB_ROWS` points holds it assembled as
    ``dia`` (``vanka.assemble_sparse``), whose one product is the fastest
    residual there; a larger level holds no diagonals (``dia`` is None) but
    ``kernel``, the ``vanka.stencil_residual`` of its stencil.  ``matrix``
    is the DIA matrix either way, assembled on each access on a large level;
    the cycle, the build and :meth:`Hierarchy.report` never read it.
    ``m_apply(r)`` evaluates ``M r`` into a fresh array and leaves ``r`` alone:
    :func:`relax` scales and updates its result in place; on a Vanka level
    it is the bound ``apply`` of the level's :class:`~vankamg.vanka.VankaOperator`.
    ``restrict`` is the full weighting ``R`` onto the next coarser level
    (``transfer_ops``) and ``prolong`` the view ``R^T``, a CSC matrix on
    ``R``'s arrays; the cycle prolongs with ``2**dim R^T``.  Only the
    coarsest level holds ``sine``, its exact :class:`SineSolve`.
    """

    grid: GridSpec
    stencil: Stencil
    m_apply: object = None
    restrict: scipy.sparse.csr_matrix | None = None  # from here to the next coarser level
    prolong: scipy.sparse.csc_matrix | None = None   # ``restrict.T``, sharing its arrays
    sine: SineSolve | None = None                    # exact solve, on the coarsest only
    dia: scipy.sparse.dia_matrix | None = field(init=False, repr=False)
    kernel: object = field(init=False, repr=False)   # ``b - A u`` where ``dia`` is None

    def __post_init__(self):
        held = _holds_diagonals(self.grid)
        self.dia = assemble_sparse(self.stencil, self.grid) if held else None
        self.kernel = None if held else stencil_residual(self.stencil, self.grid)

    @property
    def matrix(self) -> scipy.sparse.dia_matrix:
        """The level operator in DIA storage: ``dia``, or assembled now on a large level."""
        return self.dia if self.dia is not None else assemble_sparse(self.stencil, self.grid)


@dataclass(frozen=True)
class SineSolve:
    """Exact solve with a reflection-symmetric stencil of reach 1 on a Dirichlet grid.

    The orthonormal DST-I matrix ``S[j, k] = sqrt(2/(n+1)) sin(pi j k/(n+1))``
    (``S = S^T = S^-1``) diagonalises the truncated stencil axis by axis; the
    eigenvalue of mode ``j`` is the stencil's symbol at ``theta = j pi/(n+1)``.
    So ``A^-1 b = S⊗…⊗S ((S⊗…⊗S b) / eigenvalues)``, each ``S⊗…⊗S`` applied
    one axis at a time.
    """

    sines: np.ndarray        # ``S``, shape (n, n)
    eigenvalues: np.ndarray  # ``lfa.symbol`` on the sine modes, shape (n,)*dim

    @classmethod
    def of(cls, stencil, grid: GridSpec) -> "SineSolve":
        """The solve with ``stencil`` truncated on the Dirichlet ``grid``."""
        j = np.arange(1, grid.n + 1)
        sines = np.sqrt(2 / (grid.n + 1)) * np.sin(np.pi / (grid.n + 1) * np.outer(j, j))
        modes = np.stack(np.meshgrid(*[np.pi / (grid.n + 1) * j] * grid.dim, indexing="ij"), -1)
        # one slab at a time: ``symbol`` holds a phase per point and stencil entry
        return cls(sines, np.array([symbol(stencil, slab) for slab in modes]).real)

    def _transform(self, x: np.ndarray) -> np.ndarray:
        for _ in range(x.ndim):   # transform the last axis, then rotate it to the front
            x = np.moveaxis(x @ self.sines, -1, 0)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^-1 b`` in a new array; ``b`` is left alone."""
        x = self._transform(b.reshape(self.eigenvalues.shape))
        x /= self.eigenvalues
        return self._transform(x).reshape(-1)


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

        ``n``, ``h`` and ``unknowns`` size the grid; ``diagonals`` and
        ``nonzeros`` describe the level operator, read from its stencil
        without assembling it: an entry at offset ``o`` reaches
        ``prod_k (n - |o_k|)`` rows of the Dirichlet grid (the DIA ``nnz``
        also counts the zeros a diagonal stores in rows whose neighbour lies
        off the grid).  ``operator_bytes`` are the diagonals the level holds,
        0 on a level of more than ``SLAB_ROWS`` points; ``smoother`` is the
        smoother kind (None on the coarsest level, which is solved exactly),
        ``smoother_bytes`` a Vanka ``M`` with its weights (0 for the
        smoothers applied as stencils) and ``transfer_bytes`` the restriction
        (the prolongation shares its arrays).  The coarsest level adds
        ``sine_bytes``, the sine matrix and eigenvalues of its
        :class:`SineSolve`.  Everything is read from the built levels when
        called.
        """
        rows = []
        for level in self.levels:
            op = getattr(level.m_apply, "__self__", None)
            n = level.grid.n
            entries = [o for o, c in level.stencil.entries.items() if c != 0]
            rows.append({"n": n, "h": level.grid.h, "unknowns": level.grid.npoints,
                         "diagonals": len(_diagonal_offsets(entries, level.grid)),
                         "nonzeros": sum(prod(n - abs(k) for k in o) for o in entries),
                         "operator_bytes": _stored_bytes(level.dia),
                         "smoother": None if level.sine is not None
                         else self.spec.smoother.kind.value,
                         "smoother_bytes": _stored_bytes(op.matrix) + op.weights.nbytes
                         if isinstance(op, VankaOperator) else 0,
                         "transfer_bytes": _stored_bytes(level.restrict)})
            if level.sine is not None:
                rows[-1]["sine_bytes"] = level.sine.sines.nbytes + level.sine.eigenvalues.nbytes
        return rows

    def complexities(self) -> dict:
        """Operator and grid complexity of the hierarchy.

        ``operator`` is the nonzeros of every level over those of the finest,
        ``grid`` the unknowns of every level over those of the finest.
        """
        rows = self.report()
        return {key: sum(row[count] for row in rows) / rows[0][count]
                for key, count in (("operator", "nonzeros"), ("grid", "unknowns"))}


def transfer_ops(fine_grid: GridSpec) -> scipy.sparse.csr_matrix:
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
    return scipy.sparse.csr_matrix((data, (centre[:, None] + flat).reshape(-1), indptr),
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
    identity), so ``apply`` sweeps one axis at a time, slab by slab.  On the
    3D n = 63 grid that takes 1.2-1.4 ms, against 5.2-5.4 ms for the
    product with the 27-point mass matrix ``assemble_sparse`` builds (3.1-3.2
    ms in row slabs), which would also take 0.01 s and a 51.5 MiB peak to
    build (best of 20 and 5 runs, three processes, one BLAS thread, 2-CPU
    VM; peak by ``tracemalloc``).
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


def _transfer_bytes(coarse: GridSpec) -> int:
    """Bytes of the stored restriction onto ``coarse``: ``3**dim`` entries per row."""
    rows = coarse.npoints
    return _CSR_BYTES_PER_NNZ * 3**coarse.dim * rows + 4 * (rows + 1)


def _build_bytes(sm: SmootherSpec, grids, level_stencils) -> int:
    """Estimated peak bytes of the level matrices, transfers, smoothers and coarse solve.

    The diagonals of every level of at most ``SLAB_ROWS`` points (a larger
    level holds only its stencil), every restriction, every Vanka ``M`` and
    its weights and the coarsest level's sine matrix (``n**2`` values) and
    eigenvalues (one per point) stay held.  Nothing built on the way is
    larger than a few vectors of a grid: the eigenvalues are evaluated one
    slab of sine modes at a time (on the 3D two-grid at h = 1/64 the
    tracemalloc peak is 1.05x the estimate).
    """
    held = sum(_dia_bytes([o for o, c in st.entries.items() if c != 0], grid)
               for grid, st in zip(grids, level_stencils) if _holds_diagonals(grid))
    held += sum(_transfer_bytes(grid) for grid in grids[1:])
    layout = _vanka_layout(sm)
    if layout is not None:
        held += sum(_smoother_bytes(layout, grid) for grid in grids[:-1])
    return held + 8 * (grids[-1].n ** 2 + grids[-1].npoints)


def _plan(spec: CycleSpec, fine_grid: GridSpec) -> tuple:
    """Check a hierarchy request; return its level grids and stencils, finest first.

    Two-grid hierarchies have exactly two levels and need ``n >= 7``;
    V-cycles coarsen until at most :data:`COARSEST_MAX` points per dimension
    remain and need ``n >= 15``.  The fine stencil is the Laplacian, each
    coarser one ``stencils.galerkin_stencil`` of the one above.  Nothing is
    assembled: a request whose ``_build_bytes`` estimate and
    ``_CYCLE_VECTORS`` fine-grid vectors exceed :data:`BUILD_BUDGET_BYTES`
    is refused.
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
    build_bytes = _build_bytes(spec.smoother, grids, level_stencils)
    vector_bytes = 8 * _CYCLE_VECTORS * fine_grid.npoints
    if build_bytes + vector_bytes > BUILD_BUDGET_BYTES:
        raise ValueError(
            f"building the {spec.cycle} hierarchy on {n}^{fine_grid.dim} unknowns "
            f"needs about {build_bytes / 2**30:.1f} GiB and its cycles "
            f"{vector_bytes / 2**30:.1f} GiB more, "
            f"over the {BUILD_BUDGET_BYTES / 2**30:.0f} GiB budget")
    return grids, level_stencils


def build_hierarchy(spec: CycleSpec, fine_grid: GridSpec) -> Hierarchy:
    """Build grids, operators, smoothers and transfers for the requested cycle.

    The levels are those of ``_plan``, which refuses a request before any
    assembly.  Every level holds its operator's stencil: the fine Laplacian
    and the Galerkin operators below it, each ``stencils.galerkin_stencil``
    of the stencil one level up (equal to ``2**-dim P^T A P``, as every hat
    of ``P`` lies inside the grid); a :class:`Level` of at most
    ``SLAB_ROWS`` points also assembles it in diagonal (DIA) storage.
    Every level but the coarsest keeps the restriction ``R`` onto
    the next one and its transpose view, from which the cycle prolongs
    (``P = 2**dim R^T``, never stored), and each level's stencil builds its
    smoother.  The coarsest level keeps the :class:`SineSolve` of its
    stencil.
    """
    grids, level_stencils = _plan(spec, fine_grid)
    levels = [Level(fine_grid, level_stencils[0])]
    for grid, st in zip(grids[1:], level_stencils[1:]):
        levels[-1].restrict = transfer_ops(levels[-1].grid)
        levels[-1].prolong = levels[-1].restrict.T
        levels.append(Level(grid, st))
    for level in levels[:-1]:
        level.m_apply = _smoother_applicator(spec.smoother, level.grid, level.stencil)
    levels[-1].sine = SineSolve.of(levels[-1].stencil, levels[-1].grid)
    return Hierarchy(spec, levels)


def _residual(level: Level, u: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """``b - A u`` in a new array, or ``b`` itself for the zero iterate ``u = None``.

    One product with the held DIA matrix, or on a level that holds none the
    ``vanka.stencil_residual`` kernel, which gives the same bytes slab by
    slab with each slab in cache.
    """
    if u is None:
        return b
    if level.dia is None:
        return level.kernel(u, b)
    residual = level.dia @ u
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

    The coarsest level returns its exact :class:`SineSolve` of ``b``.
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
    if level.sine is not None:
        return level.sine.solve(b)
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
