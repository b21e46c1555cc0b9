"""Additive Vanka-type smoothers built from overlapping patch solves.

The smoother operator is ``M = sum_i V_i^T W_i A_i^{-1} V_i`` where ``V_i``
gathers the unknowns of patch ``i``, ``A_i`` is the principal submatrix of
the system operator on that patch, and ``W_i`` is the diagonal partition of
unity with entry ``1/m_j`` for an unknown contained in ``m_j`` patches.

Two patch layouts are supported:

* element-wise: one patch per mesh cell, covering the ``2**dim`` interior
  cell corners (boundary cells keep whatever corners are interior);
* vertex-wise: one patch per interior unknown, covering the unknown and its
  ``2*dim`` axis neighbours (truncated near the boundary).

:func:`build_vanka` assembles ``M`` as one CSR matrix in a single batched
pass: a ``(P, k)`` patch index array from broadcast offsets, one gather of
all ``(P, k, k)`` local blocks from the CSR system operator, one batched
inverse (truncated slots padded with the identity) and one COO scatter of
the weighted inverses.  Applying the smoother is then one sparse product.

In the interior both layouts reduce to translation-invariant stencils with
exact rational coefficients, exposed by :func:`closed_form_stencil` and used
as the oracle for assembly tests on periodic grids.

:func:`assemble_sparse` turns any stencil into a CSR matrix by one rule:
``sum_o c_o kron_k T(o_k)``, a Kronecker product of 1D shifts per offset
(periodic shifts carry the wrapped diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import scipy.sparse as sp

from .stencils import GridSpec, Stencil

__all__ = [
    "PatchLayout",
    "Patch",
    "VankaOperator",
    "build_vanka",
    "closed_form_stencil",
    "assemble_sparse",
    "assemble_dense",
    "export_triplets",
]

DENSE_CAP = 4096  # refuse to densify anything larger than this many unknowns


@dataclass(frozen=True)
class PatchLayout:
    """Which overlapping decomposition to use: ``element`` or ``vertex``."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("element", "vertex"):
            raise ValueError(f"unknown patch kind {self.kind!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")


@dataclass
class Patch:
    """One overlapping subdomain: its id, flat unknown indices, local matrix."""

    key: tuple
    dofs: np.ndarray
    matrix: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True, eq=False)
class VankaOperator:
    """Assembled additive Vanka operator for one grid and layout.

    Instances are built by :func:`build_vanka`.  ``matrix`` is the CSR
    smoother ``M``, ``weights`` the partition-of-unity entries ``1/m_j`` and
    ``operator`` the CSR system operator whose principal submatrices are the
    patch problems.
    """

    layout: PatchLayout
    grid: GridSpec
    matrix: sp.csr_matrix
    weights: np.ndarray
    operator: sp.csr_matrix

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Evaluate ``M r``."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.grid.npoints,):
            raise ValueError(f"expected flat array of length {self.grid.npoints}")
        return self.matrix @ r

    @property
    def patches(self) -> list:
        """Per-patch view (key, dofs, local matrix, inverse), rebuilt on each access.

        Keys are cell coordinates for element patches (``0..n`` per axis on
        Dirichlet grids) and centre coordinates for vertex patches.  Dofs
        are in lexicographic lattice order.
        """
        keys, index, blocks = _patch_blocks(self.layout, self.grid, self.operator)
        inverses = np.linalg.inv(blocks)
        first = (index < 0).sum(axis=1)
        return [Patch(tuple(keys[p].tolist()), index[p, f:], blocks[p, f:, f:],
                      inverses[p, f:, f:]) for p, f in enumerate(first)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _patch_index(layout: PatchLayout, grid: GridSpec) -> tuple:
    """Patch keys ``(P, dim)`` and flat unknown indices ``(P, k)``.

    Keys are cell (element) or centre (vertex) coordinates in lexicographic
    order.  Truncated slots hold ``-1``; each index row is sorted ascending,
    so truncated slots come first and the unknowns follow in lexicographic
    lattice order.
    """
    n, dim = grid.n, grid.dim
    periodic = grid.boundary == "periodic"
    if layout.kind == "element":
        offsets = np.array(list(product((0, 1), repeat=dim)))
        # Dirichlet cells run 0..n and their corners are nodes 0..n+1, of
        # which 1..n are interior; shift to the 0-based lattice
        extent = n if periodic else n + 1
        shift = 0 if periodic else -1
    else:
        unit = np.eye(dim, dtype=np.int64)
        offsets = np.concatenate([np.zeros((1, dim), dtype=np.int64), -unit, unit])
        extent, shift = n, 0
    keys = np.indices((extent,) * dim).reshape(dim, -1).T
    points = keys[:, None, :] + offsets + shift
    if periodic:
        points %= n
        valid = np.ones(points.shape[:2], dtype=bool)
    else:
        valid = ((points >= 0) & (points < n)).all(axis=2)
    index = points @ (n ** np.arange(dim - 1, -1, -1))
    index[~valid] = -1
    index.sort(axis=1)
    # 32-bit indices halve the (P, k, k) gather and scatter index arrays
    return keys, index.astype(np.int32 if grid.npoints < 2**31 else np.int64)


def _patch_blocks(layout: PatchLayout, grid: GridSpec, matrix: sp.csr_matrix):
    """Patch keys, index array and all local blocks, padded slots set to identity.

    Returns ``(keys, index, blocks)`` with ``blocks[p]`` the principal submatrix
    of ``matrix`` on ``index[p]``; a truncated slot holds a unit diagonal
    and no coupling, so the padded block inverts to the truncated inverse
    bordered by the identity.
    """
    keys, index = _patch_index(layout, grid)
    count, k = index.shape
    padded = index < 0
    safe = np.where(padded, 0, index)
    rows = np.broadcast_to(safe[:, :, None], (count, k, k)).reshape(-1)
    cols = np.broadcast_to(safe[:, None, :], (count, k, k)).reshape(-1)
    blocks = np.asarray(matrix[rows, cols]).reshape(count, k, k)
    blocks[padded[:, :, None] | padded[:, None, :]] = 0.0
    p, slot = np.nonzero(padded)
    blocks[p, slot, slot] = 1.0
    return keys, index, blocks


def build_vanka(layout: PatchLayout, grid: GridSpec, operator) -> VankaOperator:
    """Assemble the additive Vanka smoother ``M`` as one CSR matrix.

    Parameters
    ----------
    layout : PatchLayout
    grid : GridSpec
    operator : Stencil or scipy sparse matrix
        System operator whose principal submatrices define the patch solves.
        A stencil is assembled on ``grid`` first.

    Notes
    -----
    All local blocks are gathered and inverted in one batch; truncated
    boundary patches are padded with identity slots, which invert exactly
    and are dropped before the scatter.
    """
    if layout.dim == 3:
        raise NotImplementedError("patch assembly is implemented for dim 1 and 2 only")
    if layout.dim != grid.dim:
        raise ValueError(f"layout dim {layout.dim} != grid dim {grid.dim}")
    if isinstance(operator, Stencil):
        matrix = assemble_sparse(operator, grid)
    else:
        matrix = sp.csr_matrix(operator)
        if matrix.shape != (grid.npoints, grid.npoints):
            raise ValueError("operator matrix does not match the grid")

    _, index, blocks = _patch_blocks(layout, grid, matrix)
    valid = index >= 0
    counts = np.bincount(index[valid], minlength=grid.npoints)
    if counts.min() <= 0:
        raise RuntimeError("patch layout left some unknowns uncovered")
    weights = 1.0 / counts

    count, k = index.shape
    local = np.linalg.inv(blocks)
    del blocks  # lowers the peak memory of the scatter below
    local *= weights[index][:, :, None]  # padded rows are dropped by ``pairs``
    pairs = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(index[:, :, None], (count, k, k))[pairs]
    cols = np.broadcast_to(index[:, None, :], (count, k, k))[pairs]
    m = sp.coo_matrix((local[pairs], (rows, cols)),
                      shape=(grid.npoints, grid.npoints)).tocsr()
    return VankaOperator(layout, grid, m, weights, matrix)


# ---------------------------------------------------------------------------
# closed-form interior stencils
# ---------------------------------------------------------------------------

def _cross_entries(center, axis1, diag, axis2, dim):
    entries = {(0,) * dim: center}
    for axis in range(dim):
        for sign in (-1, 1):
            o = [0] * dim
            o[axis] = sign
            entries[tuple(o)] = axis1
            o = [0] * dim
            o[axis] = 2 * sign
            entries[tuple(o)] = axis2
    if dim == 2:
        for sx in (-1, 1):
            for sy in (-1, 1):
                entries[(sx, sy)] = diag
    return entries


def closed_form_stencil(layout: PatchLayout, h) -> Stencil:
    """Exact interior stencil of the additive Vanka operator.

    These are the translation-invariant rows the assembled operator takes
    away from the boundary (equivalently, everywhere on a periodic grid):

    * element 1D: ``h^2/6 [1 4 1]``
    * vertex 1D:  ``h^2/12 [1 4 10 4 1]``
    * element 2D: ``h^2/96 [[1 4 1] [4 28 4] [1 4 1]]``
    * vertex 2D:  ``h^2/240`` with centre 68, axis 8, diagonal 2, axis-2 1.
    """
    hh = Fraction(h) ** 2
    kind, dim = layout.kind, layout.dim
    if (kind, dim) == ("element", 1):
        entries = {(-1,): Fraction(1, 6), (0,): Fraction(4, 6), (1,): Fraction(1, 6)}
    elif (kind, dim) == ("vertex", 1):
        entries = {(-2,): Fraction(1, 12), (-1,): Fraction(4, 12), (0,): Fraction(10, 12),
                   (1,): Fraction(4, 12), (2,): Fraction(1, 12)}
    elif (kind, dim) == ("element", 2):
        entries = {}
        for (ox, cx) in ((-1, 1), (0, 4), (1, 1)):
            for (oy, cy) in ((-1, 1), (0, 4), (1, 1)):
                entries[(ox, oy)] = Fraction(cx * cy if (ox, oy) != (0, 0) else 28, 96)
        entries[(0, 0)] = Fraction(28, 96)
    elif (kind, dim) == ("vertex", 2):
        entries = _cross_entries(Fraction(68, 240), Fraction(8, 240),
                                 Fraction(2, 240), Fraction(1, 240), 2)
    else:
        raise NotImplementedError(f"no closed form for {kind} patches in dim {dim}")
    return Stencil(dim, entries).scaled(hh)


# ---------------------------------------------------------------------------
# dense/sparse assembly and export
# ---------------------------------------------------------------------------

def _shift(n: int, offset: int, periodic: bool) -> sp.csr_matrix:
    """1D shift ``T(o)`` with ``(T u)_i = u_(i+o)``, wrapped on periodic grids."""
    t = sp.eye(n, k=offset, format="csr")
    if periodic and offset:
        t = t + sp.eye(n, k=offset - n if offset > 0 else offset + n, format="csr")
    return t


def assemble_sparse(operator, grid: GridSpec = None) -> sp.csr_matrix:
    """Explicit sparse matrix of a stencil or Vanka operator.

    A stencil becomes ``sum_o c_o kron_k T(o_k)`` on the given grid, with
    ``T(o)`` the 1D shift by ``o`` along axis ``k`` (the first axis varies
    slowest).  On Dirichlet grids ``T(o)`` is the truncated diagonal
    ``eye(n, k=o)``; on periodic grids it also carries the wrapped diagonal
    ``k = o - n`` (``o > 0``) or ``k = o + n`` (``o < 0``).
    """
    if isinstance(operator, VankaOperator):
        return operator.matrix
    if grid is None:
        raise ValueError("assembling a stencil requires a grid")
    if operator.dim != grid.dim:
        raise ValueError(f"stencil dim {operator.dim} != grid dim {grid.dim}")
    n = grid.n
    periodic = grid.boundary == "periodic"
    if periodic and n <= 2 * operator.reach:
        raise ValueError(f"periodic wrap needs n > {2 * operator.reach}")
    mat = sp.csr_matrix((grid.npoints, grid.npoints))
    for offset, coef in operator.entries.items():
        if max(abs(o) for o in offset) >= n:
            continue  # shifts every Dirichlet neighbour off the grid
        term = _shift(n, offset[0], periodic)
        for o in offset[1:]:
            term = sp.kron(term, _shift(n, o, periodic), format="csr")
        mat = mat + float(coef) * term
    return mat


def assemble_dense(operator, grid: GridSpec = None) -> np.ndarray:
    """Dense matrix of a stencil or Vanka operator, capped at :data:`DENSE_CAP` unknowns."""
    if isinstance(operator, VankaOperator):
        grid = operator.grid
    elif grid is None:
        raise ValueError("assembling a stencil requires a grid")
    if grid.npoints > DENSE_CAP:
        raise ValueError(f"refusing dense assembly beyond {DENSE_CAP} unknowns")
    return assemble_sparse(operator, grid).toarray()


def export_triplets(matrix, path=None) -> str:
    """Serialize a matrix as ``row col value`` lines (sorted, zeros dropped)."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{int(coo.row[i])} {int(coo.col[i])} {float(coo.data[i])!r}"
             for i in order if coo.data[i] != 0.0]
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
