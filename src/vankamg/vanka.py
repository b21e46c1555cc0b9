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
as the oracle for assembly tests on periodic grids.  That function and
:class:`PatchLayout` are pure stencil data and live in
:mod:`vankamg.stencils`, so the analysis never imports scipy; they are
re-exported here.

:func:`assemble_sparse` turns any stencil into a CSR matrix by one rule:
``sum_o c_o kron_k T(o_k)``, a Kronecker product of 1D shifts per offset
(periodic shifts carry the wrapped diagonal), written straight into the CSR
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .stencils import GridSpec, PatchLayout, Stencil, closed_form_stencil

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
# dense/sparse assembly and export
# ---------------------------------------------------------------------------

def assemble_sparse(operator, grid: GridSpec = None) -> sp.csr_matrix:
    """Explicit sparse matrix of a stencil or Vanka operator.

    A stencil becomes ``sum_o c_o kron_k T(o_k)`` on the given grid, with
    ``T(o)`` the 1D shift by ``o`` along axis ``k`` (the first axis varies
    slowest).  On Dirichlet grids ``T(o)`` is the truncated diagonal
    ``eye(n, k=o)``; on periodic grids it also carries the wrapped diagonal
    ``k = o - n`` (``o > 0``) or ``k = o + n`` (``o < 0``).  Zero
    coefficients are not stored.

    The CSR arrays are written in one pass, with no COO copy and no
    per-term matrices: a row holds one entry per offset whose shifted point
    lies on the grid, and each offset writes its column and coefficient into
    the next free slot of every row it reaches.  Offsets go in ascending
    flat order, so Dirichlet rows come out sorted; periodic rows, whose
    wrapped columns are not, are sorted afterwards.  Distinct offsets never
    reach the same column (Dirichlet points are unique, and the periodic
    guard ``n > 2 reach`` keeps wrapped ones apart), so nothing is summed.
    """
    if isinstance(operator, VankaOperator):
        return operator.matrix
    if grid is None:
        raise ValueError("assembling a stencil requires a grid")
    if operator.dim != grid.dim:
        raise ValueError(f"stencil dim {operator.dim} != grid dim {grid.dim}")
    n, size = grid.n, grid.npoints
    periodic = grid.boundary == "periodic"
    if periodic and n <= 2 * operator.reach:
        raise ValueError(f"periodic wrap needs n > {2 * operator.reach}")
    strides = n ** np.arange(grid.dim - 1, -1, -1)
    # an offset with a component of n or more shifts every Dirichlet point off the grid
    terms = sorted((int(np.dot(o, strides)), o, float(c)) for o, c in operator.entries.items()
                   if c != 0 and max(map(abs, o)) < n)

    def rows(o):
        """The box of grid points that offset ``o`` keeps on the grid."""
        return tuple(slice(None) if periodic else slice(max(0, -k), n - max(0, k)) for k in o)

    counts = np.zeros(grid.shape, dtype=np.int64)
    for _, o, _ in terms:
        counts[rows(o)] += 1
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, size) < 2**31 else np.int64
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(counts.reshape(-1), out=indptr[1:])
    free = indptr[:-1].reshape(grid.shape).copy()
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    axis = np.arange(n)
    for _, o, c in terms:
        box = rows(o)
        slot = free[box]
        indices[slot] = sum(np.ix_(*[(axis[b] + k) % n * s for b, k, s in zip(box, o, strides)]))
        data[slot] = c
        slot += 1
    mat = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    if periodic:
        mat.sort_indices()
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
