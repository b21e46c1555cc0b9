"""Two-grid and V-cycle solvers for the Dirichlet Poisson problem.

The hierarchy uses grids with ``n = 2**k - 1`` interior points per dimension
so that standard coarsening maps interior nodes onto interior nodes.  Every
level holds the stencil of its operator: the finest the Laplacian, coarser
ones the Galerkin operators ``A_H = 2**-dim P^T A P`` with linear
interpolation ``P``, each ``stencils.galerkin_stencil`` of the stencil one
level up: on these grids every hat of ``P`` lies inside the box, so the
triple product is that constant-coefficient stencil truncated at the
Dirichlet boundary.  No level stores its operator or a grid transfer:
the cycle restricts with the full weighting ``R = 2**-dim P^T`` of
``stencils.restriction_stencil`` and prolongs with ``P = 2**dim R^T``,
both applied from the stencil's 1D line one axis at a time
(``_restrict``, ``_prolong``), so ``A_H = R A P``; ``transfer_ops``
assembles ``R`` as their reference.
This reproduces the coarse Laplacian exactly in 1D and keeps the discrete
two-grid operator aligned with its Fourier symbol (the error operator is
invariant under the common rescaling of ``R`` and ``A_H``, so
transposed-interpolation restriction yields the same cycle).  Each level's
stencil also builds its Vanka smoother.  The coarsest level is solved
exactly by the type-I sine transform (:class:`SineSolve`): its operator is
a reflection-symmetric stencil of reach 1 truncated at the Dirichlet
boundary, which the sine modes diagonalise with the stencil's symbol as
eigenvalues (Hockney's fast Poisson solver).  Those eigenvalues come from
the analysis' own evaluator, ``lfa._cosine_contraction``, so they are the
LFA's harmonic-0 symbols at ``theta_j = j pi/(n+1)`` bit for bit: one
symbol for both engines.  The bytes of the build are
estimated from the level stencils before anything is assembled, and a
request whose build and cycle vectors exceed :data:`BUILD_BUDGET_BYTES` is
refused.  :meth:`Hierarchy.report` lists what each level holds.

Every smoothed level forms its residual ``b - A u`` from its stencil, slab
by slab of :data:`~vankamg.stencils.SLAB_ROWS` rows, by
``vanka.stencil_residual``, which adds each row's terms in the order of
the product with the assembled DIA matrix and gives its result bit for
bit.  The rank-one smoothers run in slabs of axis-0 planes
(``stencils.apply``), and a Vanka smoother is one product on the whole
vector.

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

from .lfa import SmootherKind, SmootherSpec, _cosine_contraction, _sweeps
from .stencils import GridSpec, PatchLayout, Stencil, laplacian_stencil, restriction_stencil
from . import stencils
from .vanka import (VankaOperator, _diagonal_offsets, _smoother_bytes, assemble_sparse,
                    build_vanka, stencil_residual)

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

# cap on the estimated bytes of a run: a request whose build (Vanka smoothers
# and coarse sine solve, ``_build_bytes``; the level operators and grid
# transfers hold nothing) and cycle vectors add up to more is refused before
# anything is assembled.  Every 2D V-cycle up to h = 1/2048 is accepted, the
# vertex Vanka one with a 0.58 GiB build; no Vanka V-cycle at h = 1/4096
# (element: a 1.7 GiB build and 1.1 GiB of vectors); the 3D two-grid and
# V-cycle up to h = 1/256, with 31 MiB (a 32 MiB tracemalloc peak) and
# 6 KiB builds.  A
# ``run_convergence`` cycle holds at most about ``_CYCLE_VECTORS`` vectors of
# the fine grid besides the build (5.9 to 8.6 by tracemalloc for every kind
# at nu1, nu2 <= 2 on 1D n = 1023, 2D n = 255 and 3D n = 63).  As no level
# stores its operator, the vectors outweigh the build in 2D and 3D but with
# a Vanka smoother: 1.1 GiB on the 3D V-cycle at h = 1/256, 8.9 GiB on the
# 3D two-grid at h = 1/512, and 4.5 GiB against a 0.4 GiB build on the 2D
# Jacobi two-grid at h = 1/8192, both refused.
BUILD_BUDGET_BYTES = 2**31
_CYCLE_VECTORS = 9


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
    """One grid level: operator stencil, smoother applicator or coarse solve.

    ``stencil`` is the level operator's, and a smoothed level holds
    ``kernel``, its ``vanka.stencil_residual``, in place of the assembled
    operator.  ``matrix`` is that operator in DIA storage
    (``vanka.assemble_sparse``), assembled on each access; the cycle, the
    build and :meth:`Hierarchy.report` never read it.
    ``m_apply(r)`` evaluates ``M r`` into a fresh array and leaves ``r`` alone:
    :func:`relax` scales and updates its result in place; on a Vanka level
    it is the bound ``apply`` of the level's :class:`~vankamg.vanka.VankaOperator`.
    Only the coarsest level holds ``sine``, its exact :class:`SineSolve`;
    the cycle forms no residual there, so it holds no ``kernel``.  No level
    holds a grid transfer: the cycle restricts with :func:`_restrict` and
    prolongs with :func:`_prolong`.
    """

    grid: GridSpec
    stencil: Stencil
    m_apply: object = None
    sine: SineSolve | None = None                    # exact solve, on the coarsest only
    kernel: object = field(init=False, repr=False)   # ``b - A u`` on a smoothed level

    def __post_init__(self):
        self.kernel = stencil_residual(self.stencil, self.grid) if self.sine is None else None

    @property
    def matrix(self) -> scipy.sparse.dia_matrix:
        """The level operator in DIA storage, assembled now."""
        return assemble_sparse(self.stencil, self.grid)


@dataclass(frozen=True)
class SineSolve:
    """Exact solve with a reflection-symmetric stencil of reach 1 on a Dirichlet grid.

    The orthonormal DST-I matrix ``S[j, k] = sqrt(2/(n+1)) sin(pi j k/(n+1))``
    (``S = S^T = S^-1``) diagonalises the truncated stencil axis by axis; the
    eigenvalue of mode ``j`` is the stencil's symbol at ``theta = j pi/(n+1)``.
    So ``A^-1 b = S⊗…⊗S ((S⊗…⊗S b) / eigenvalues)``, each ``S⊗…⊗S`` applied
    one axis at a time.  The eigenvalues are ``lfa._cosine_contraction`` with
    the table ``cos(o theta)`` of those angles, the LFA's harmonic-0 symbols
    there bit for bit; it refuses a stencil not symmetric under each axis
    reflection, which the sine modes do not diagonalise.  ``S`` is built in
    place, so the build peaks at ``n**2`` values and two arrays of one value
    per point (``_build_bytes``).
    """

    sines: np.ndarray        # ``S``, shape (n, n)
    eigenvalues: np.ndarray  # harmonic-0 LFA symbols at the sine angles, shape (n,)*dim

    @classmethod
    def of(cls, stencil, grid: GridSpec) -> "SineSolve":
        """The solve with ``stencil`` truncated on the Dirichlet ``grid``."""
        j = np.arange(1, grid.n + 1)
        sines = np.outer(j.astype(float), j)   # built in place: no ``n**2`` temporary
        sines *= np.pi / (grid.n + 1)
        np.sin(sines, out=sines)
        sines *= np.sqrt(2 / (grid.n + 1))
        theta = np.pi / (grid.n + 1) * j
        eigenvalues = _cosine_contraction(stencil, grid.dim,
                                          lambda orders: np.cos(np.multiply.outer(orders, theta)))
        return cls(sines, eigenvalues)

    def _transform(self, x: np.ndarray) -> np.ndarray:
        for _ in range(x.ndim):   # transform the last axis, then rotate it to the front
            x = np.moveaxis(x @ self.sines, -1, 0)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^-1 b`` in a new array; ``b`` is left alone."""
        x = self._transform(b.reshape(self.eigenvalues.shape))
        x /= self.eigenvalues
        return self._transform(x).reshape(-1)


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
        off the grid); no level holds the operator itself.  ``smoother`` is
        the smoother kind (None on the coarsest level, which is solved
        exactly) and ``smoother_bytes`` a Vanka ``M`` with its weights (0
        for the smoothers applied as stencils).  The coarsest
        level adds ``sine_bytes``, the sine matrix and eigenvalues of its
        :class:`SineSolve`.  The grid transfers hold nothing.  Everything is
        read from the built levels when called.
        """
        rows = []
        for level in self.levels:
            op = getattr(level.m_apply, "__self__", None)
            n = level.grid.n
            entries = [o for o, c in level.stencil.entries.items() if c != 0]
            rows.append({"n": n, "h": level.grid.h, "unknowns": level.grid.npoints,
                         "diagonals": len(_diagonal_offsets(entries, level.grid)),
                         "nonzeros": sum(prod(n - abs(k) for k in o) for o in entries),
                         "smoother": None if level.sine is not None
                         else self.spec.smoother.kind.value,
                         "smoother_bytes": op.matrix.data.nbytes + op.matrix.offsets.nbytes
                         + op.weights.nbytes if isinstance(op, VankaOperator) else 0})
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
    """Full-weighting restriction ``R`` from the ``n`` grid to the ``(n-1)/2`` grid, assembled.

    The rows of ``assemble_sparse(restriction_stencil(dim), fine_grid)`` at
    the fine points under the coarse ones (coarse ``J`` on fine ``2J + 1``
    per axis), each with all ``3**dim`` weights in ascending column order.
    Linear interpolation is ``P = 2**dim R^T``.  The solver stores neither:
    this matrix is the assembled reference of :func:`_restrict` and
    :func:`_prolong`.
    """
    n = fine_grid.n
    if n < 3 or (n - 1) % 2:
        raise ValueError(f"cannot coarsen n={n}")
    axis = np.arange(1, n, 2)
    under = np.ravel_multi_index(np.meshgrid(*[axis] * fine_grid.dim, indexing="ij"),
                                 fine_grid.shape).reshape(-1)
    rows = assemble_sparse(restriction_stencil(fine_grid.dim), fine_grid).tocsr()[under]
    rows.sort_indices()
    return rows


def _at(axis: int, start: int, stop: int, step: int = 1) -> tuple:
    """Index of positions ``start:stop:step`` along ``axis`` and all of every axis before it."""
    return (slice(None),) * axis + (slice(start, stop, step),)


def _restrict(fine: GridSpec, r: np.ndarray) -> np.ndarray:
    """Full weighting ``R r`` onto the coarse grid, in a new flat array.

    ``R`` is ``stencils.restriction_stencil`` read at the fine points under
    the coarse ones (coarse ``J`` on fine ``2J + 1`` per axis), each of which
    has all its neighbours inside the box.  The stencil's lines
    (``Stencil._axis_factors``: ``2`` at the centre and ``1`` on each side,
    then the scale ``0.25**dim``) are applied one axis at a time, axis 0
    first, at those points only, so every sweep halves the array, and the
    scale comes once at the end.  Every point adds the same terms in the
    same order as ``stencils.apply``, so the result is
    ``stencils.apply(restriction_stencil(dim), fine, r)`` at the coarse
    points bit for bit.
    """
    scale, sweeps = restriction_stencil(fine.dim)._axis_factors
    x = r.reshape(fine.shape)
    for axis, line in sweeps:
        (o, c), *rest = line
        y = c * x[_at(axis, 1 + o, fine.n - 1 + o, 2)]
        for o, c in rest:
            term = x[_at(axis, 1 + o, fine.n - 1 + o, 2)]
            y += term if c == 1.0 else c * term
        x = y
    x *= scale
    return x.reshape(-1)


def _prolong(fine: GridSpec, coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation ``P e = 2**dim R^T e`` onto ``fine``, in a new flat array.

    The transpose of :func:`_restrict`, sweep by sweep in the reverse order.
    The coarse values are scaled once by ``2**dim`` times the scale of
    ``stencils.restriction_stencil`` (``0.5**dim``) and expanded one axis at
    a time, the last axis first, by the stencil's lines
    (``Stencil._axis_factors`` scales each to ``1`` on its sides; the centre
    weight is ``2``): a fine point under a coarse one takes the centre
    weight times its value, every other fine point the sum of its two coarse
    neighbours, or the one neighbour at either end of the box.  So the small
    arrays take the strided last-axis sweep and the whole fine array is
    written in axis-0 planes.  Scaling by a power of two is exact, so with
    the axes reversed this is ``2**dim * stencils.apply(restriction_stencil(dim),
    fine, z)`` for ``z`` the coarse values injected at the fine points under
    them and zero elsewhere, bit for bit but for the sign of a zero result.
    """
    scale, sweeps = restriction_stencil(fine.dim)._axis_factors
    n, m = fine.n, (fine.n - 1) // 2
    x = coarse.reshape((m,) * fine.dim) * (scale * 2**fine.dim)
    for axis, line in reversed(sweeps):
        y = np.empty(x.shape[:axis] + (n,) + x.shape[axis + 1:])
        np.multiply(x, dict(line)[0], out=y[_at(axis, 1, n, 2)])
        np.add(x[_at(axis, 0, m - 1)], x[_at(axis, 1, m)], out=y[_at(axis, 2, n - 1, 2)])
        y[_at(axis, 0, 1)] = x[_at(axis, 0, 1)]
        y[_at(axis, n - 1, n)] = x[_at(axis, m - 1, m)]
        x = y
    return x.reshape(-1)


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


def _build_bytes(sm: SmootherSpec, grids) -> int:
    """Estimated peak bytes of the smoothers and coarse solve.

    Every Vanka ``M`` and its weights and the coarsest level's sine matrix
    (``n**2`` values) and eigenvalues (one per point) stay held; the level
    operators and grid transfers are applied from their stencils and hold
    nothing.  On top of that, the last axis of the eigenvalues'
    ``lfa._cosine_contraction`` holds one more array of one value per point,
    the term it adds.  Nothing else built on the way is larger.
    """
    layout = _vanka_layout(sm)
    held = 0 if layout is None else sum(_smoother_bytes(layout, grid) for grid in grids[:-1])
    coarse = grids[-1]
    return held + 8 * (coarse.n ** 2 + 2 * coarse.npoints)


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
    build_bytes = _build_bytes(spec.smoother, grids)
    vector_bytes = 8 * _CYCLE_VECTORS * fine_grid.npoints
    if build_bytes + vector_bytes > BUILD_BUDGET_BYTES:
        raise ValueError(
            f"building the {spec.cycle} hierarchy on {n}^{fine_grid.dim} unknowns "
            f"needs about {build_bytes / 2**30:.1f} GiB and its cycles "
            f"{vector_bytes / 2**30:.1f} GiB more, "
            f"over the {BUILD_BUDGET_BYTES / 2**30:.0f} GiB budget")
    return grids, level_stencils


def build_hierarchy(spec: CycleSpec, fine_grid: GridSpec) -> Hierarchy:
    """Build grids, operators, smoothers and the coarse solve for the requested cycle.

    The levels are those of ``_plan``, which refuses a request before any
    assembly.  Every level holds its operator's stencil: the fine Laplacian
    and the Galerkin operators below it, each ``stencils.galerkin_stencil``
    of the stencil one level up (equal to ``2**-dim P^T A P``, as every hat
    of ``P`` lies inside the grid).  Each level but the coarsest builds its
    smoother and its residual kernel from its stencil; no level assembles
    its operator.  The coarsest level keeps only the :class:`SineSolve` of
    its stencil.  No transfer is built: the cycle applies ``R`` and ``P``
    from ``stencils.restriction_stencil``.
    """
    grids, level_stencils = _plan(spec, fine_grid)
    levels = [Level(grid, st, _smoother_applicator(spec.smoother, grid, st))
              for grid, st in zip(grids[:-1], level_stencils)]
    levels.append(Level(grids[-1], level_stencils[-1],
                        sine=SineSolve.of(level_stencils[-1], grids[-1])))
    return Hierarchy(spec, levels)


def _residual(level: Level, u: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """``b - A u`` in a new array, or ``b`` itself for the zero iterate ``u = None``.

    The level's ``vanka.stencil_residual`` kernel, which gives the bytes of
    the product with the assembled DIA matrix slab by slab, each slab in
    cache.
    """
    return b if u is None else level.kernel(u, b)


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
    :func:`_restrict` and the coarse correction prolonged by
    :func:`_prolong`, each bit for bit a ``stencils.apply`` of
    ``stencils.restriction_stencil`` on the whole fine grid.  Every other
    step writes into an array this cycle made, never into the caller's
    ``u`` or ``b``.
    """
    level = hier.levels[idx]
    if level.sine is not None:
        return level.sine.solve(b)
    sm = hier.spec.smoother
    for _ in range(hier.spec.nu1):
        u = relax(sm, level, u, b)
    coarse = _descend(hier, idx + 1, None, _restrict(level.grid, _residual(level, u, b)))
    correction = _prolong(level.grid, coarse)
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
    return float(np.exp(np.mean(np.log(ratios[-tail:]))))


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
