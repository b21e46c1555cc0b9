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

:func:`build_vanka` assembles ``M`` as one CSR matrix from the system
stencil.  On a constant-coefficient operator a row of ``M`` depends only on
where its point sits against the boundary, within the patch span ``s``
(1 for element, 2 for vertex patches).  So the patches are built on a
template grid of ``2 s + 1`` points per axis only: a ``(P, k)`` patch index
array from broadcast offsets, the blocks gathered from the assembled
template operator (truncated slots padded with the identity), one batched
inverse and one COO scatter of the weighted inverses.  Every row of ``M``
on the full grid is then copied from the template row in the same place,
its columns translated, in a few passes over the entries.  Applying the
smoother is one sparse product.  The per-patch
:attr:`VankaOperator.patches` view gathers every block of the full grid
from its assembled operator, an independent reference for the tests.

In the interior both layouts reduce to translation-invariant stencils with
exact rational coefficients, given by :func:`vankamg.stencils.closed_form_stencil`
and used as the oracle for assembly tests on periodic grids.  That function
and :class:`~vankamg.stencils.PatchLayout` are pure stencil data and live in
:mod:`vankamg.stencils`, so the analysis never imports scipy.

:func:`assemble_sparse` turns any stencil into a CSR matrix by one rule:
``sum_o c_o kron_k T(o_k)``, a Kronecker product of 1D shifts per offset
(periodic shifts carry the wrapped diagonal), written straight into the CSR
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np
import scipy.sparse as sp

from .stencils import GridSpec, PatchLayout, Stencil

__all__ = [
    "Patch",
    "VankaOperator",
    "build_vanka",
    "assemble_sparse",
    "export_triplets",
]

_CSR_BYTES_PER_NNZ = 12  # float64 value plus int32 column index

# entries per slab of translated planes in ``assemble_sparse``: 384 KiB of
# slab templates, small against any matrix whose build time counts
_SLAB_ENTRIES = 1 << 15


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
    ``operator`` the system stencil whose assembled principal submatrices
    are the patch problems.
    """

    layout: PatchLayout
    grid: GridSpec
    matrix: sp.csr_matrix
    weights: np.ndarray
    operator: Stencil

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
        are in lexicographic lattice order.  Every block of the full grid is
        gathered from the assembled operator and inverted on its own,
        independently of the template grid :func:`build_vanka` inverts on.
        """
        matrix = assemble_sparse(self.operator, self.grid)
        keys, index, blocks = _patch_blocks(self.layout, self.grid, matrix)
        inverses = np.linalg.inv(blocks)
        first = (index < 0).sum(axis=1)
        return [Patch(tuple(keys[p].tolist()), index[p, f:], blocks[p, f:, f:],
                      inverses[p, f:, f:]) for p, f in enumerate(first)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _layout_offsets(layout: PatchLayout, grid: GridSpec) -> tuple:
    """Slot offsets ``(k, dim)`` of one patch, patches per axis, key-to-lattice shift."""
    n, dim = grid.n, grid.dim
    periodic = grid.boundary == "periodic"
    if layout.kind == "element":
        # Dirichlet cells run 0..n and their corners are nodes 0..n+1, of
        # which 1..n are interior; shift to the 0-based lattice
        offsets = np.array(list(product((0, 1), repeat=dim)))
        return offsets, n if periodic else n + 1, 0 if periodic else -1
    unit = np.eye(dim, dtype=np.int64)
    return np.concatenate([np.zeros((1, dim), dtype=np.int64), -unit, unit]), n, 0


def _patch_index(layout: PatchLayout, grid: GridSpec) -> tuple:
    """Patch keys ``(P, dim)`` and flat unknown indices ``(P, k)``.

    Keys are cell (element) or centre (vertex) coordinates in lexicographic
    order.  Truncated slots hold ``-1``; each index row is sorted ascending,
    so truncated slots come first and the unknowns follow in lexicographic
    lattice order.
    """
    n, dim = grid.n, grid.dim
    offsets, extent, shift = _layout_offsets(layout, grid)
    keys = np.indices((extent,) * dim).reshape(dim, -1).T
    points = keys[:, None, :] + offsets + shift
    if grid.boundary == "periodic":
        points %= n
        valid = np.ones(points.shape[:2], dtype=bool)
    else:
        valid = ((points >= 0) & (points < n)).all(axis=2)
    index = points @ (n ** np.arange(dim - 1, -1, -1))
    index[~valid] = -1
    index.sort(axis=1)
    return keys, index


def _patch_blocks(layout: PatchLayout, grid: GridSpec, matrix: sp.csr_matrix):
    """Patch keys, index array and all local blocks, padded slots set to identity.

    Returns ``(keys, index, blocks)`` with ``blocks[p]`` the principal submatrix
    of ``matrix`` on ``index[p]``, gathered patch by patch; a truncated slot
    holds a unit diagonal and no coupling, so the padded block inverts to the
    truncated inverse bordered by the identity.
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


def _smoother_bytes(layout: PatchLayout, grid: GridSpec) -> tuple:
    """Estimated bytes of ``M`` on a Dirichlet grid and peak bytes of the translation building it.

    ``M`` couples two unknowns when one patch holds both, so its offsets
    are the differences of the layout's slot offsets; with it the operator
    holds its weights.  On top of them :func:`_translate` holds a 4-byte
    index per entry and 24 bytes per row.
    """
    offsets = _layout_offsets(layout, grid)[0]
    coupled = {tuple(b - a) for a in offsets for b in offsets}
    held = _csr_bytes(coupled, grid) + 8 * grid.npoints
    return held, 4 * _nnz(coupled, grid) + 24 * grid.npoints


def _scatter(layout: PatchLayout, grid: GridSpec, stencil: Stencil) -> tuple:
    """``M`` and the weights on ``grid``, every patch's weighted inverse summed through COO.

    Each local block is gathered from the assembled operator and all are
    inverted in one batch.  Truncated slots are padded with the identity,
    which inverts exactly, and are dropped before the scatter; the
    COO-to-CSR conversion sums each row's duplicates in patch order.
    """
    _, index, blocks = _patch_blocks(layout, grid, assemble_sparse(stencil, grid))
    local = np.linalg.inv(blocks)
    valid = index >= 0
    counts = np.bincount(index[valid], minlength=grid.npoints)
    if counts.min() <= 0:
        raise RuntimeError("patch layout left some unknowns uncovered")
    weights = 1.0 / counts

    count, k = index.shape
    local *= weights[index][:, :, None]  # padded rows are dropped by ``pairs``
    pairs = valid[:, :, None] & valid[:, None, :]
    rows = np.broadcast_to(index[:, :, None], (count, k, k))[pairs]
    cols = np.broadcast_to(index[:, None, :], (count, k, k))[pairs]
    m = sp.coo_matrix((local[pairs], (rows, cols)),
                      shape=(grid.npoints, grid.npoints)).tocsr()
    return m, weights


def _translate(m: sp.csr_matrix, weights, template: GridSpec, grid: GridSpec) -> tuple:
    """``M`` and the weights on the Dirichlet ``grid``, copied from its template's.

    The template has ``n_t = 2 s + 1`` points per axis.  Per axis, position
    ``p`` of ``grid`` reads template position ``p`` when ``p < s``,
    ``p - (n - n_t)`` when ``p >= n - s`` and ``s`` otherwise.  Each row
    copies that template row with its columns moved by the same per-axis
    offsets, which keeps them in order, and its weight.
    """
    n, n_t = grid.n, template.n
    span = n_t // 2
    p = np.arange(n)
    t = np.where(p < span, p, np.where(p >= n - span, p - (n - n_t), span))
    # per row of ``grid``: its template row and its column shift; per
    # template column: its flat index on ``grid``
    row = shift = base = np.zeros(1, dtype=np.int64)
    for _ in range(grid.dim):
        row = np.add.outer(row * n_t, t).ravel()
        shift = np.add.outer(shift * n, p - t).ravel()
        base = np.add.outer(base * n, np.arange(n_t)).ravel()
    lengths = np.diff(m.indptr)[row]
    nnz = int(lengths.sum())
    index = np.int32 if max(nnz, grid.npoints) < 2**31 else np.int64
    indptr = np.zeros(grid.npoints + 1, dtype=index)
    np.cumsum(lengths, out=indptr[1:])
    # entry ``j``, in row ``r``, copies template entry ``j - indptr[r] + m.indptr[row[r]]``
    src = np.repeat(m.indptr[row] - indptr[:-1], lengths)
    src += np.arange(nnz, dtype=index)
    data = m.data[src]
    indices = base.astype(index)[m.indices][src]
    del src  # before the shift pass: the peak holds one index per entry beyond ``M``
    indices += np.repeat(shift.astype(index), lengths)
    return sp.csr_matrix((data, indices, indptr), shape=(grid.npoints,) * 2), weights[row]


def build_vanka(layout: PatchLayout, grid: GridSpec, stencil: Stencil) -> VankaOperator:
    """Assemble the additive Vanka smoother ``M`` as one CSR matrix.

    Parameters
    ----------
    layout : PatchLayout
    grid : GridSpec
    stencil : Stencil
        System operator on ``grid`` whose principal submatrices define the
        patch solves.

    Notes
    -----
    Every patch holding a point lies within the patch span ``s`` of it
    along each axis (1 for element, 2 for vertex patches), so on a
    Dirichlet grid a row of ``M`` and its weight depend only on where the
    point sits against the boundary.  The patch scatter therefore runs on a
    template grid of ``2 s + 1`` points per axis, and :func:`_translate`
    copies each row of the full matrix from the template row in the same
    place.  The row keeps its template row's patches, truncation and COO
    entry order, so its duplicates are summed in the same order and the
    matrix is the one the scatter over every patch of the grid gives, byte
    for byte.  Periodic grids (an oracle only) and grids of at most
    ``2 s + 1`` points per axis are their own template.
    """
    if layout.dim == 3:
        raise NotImplementedError("patch assembly is implemented for dim 1 and 2 only")
    if layout.dim != grid.dim:
        raise ValueError(f"layout dim {layout.dim} != grid dim {grid.dim}")
    _check_stencil(stencil, grid)
    offsets = _layout_offsets(layout, grid)[0]
    width = len(offsets)
    if grid.boundary == "periodic" and grid.npoints <= width:
        # the patch would be the whole grid: for the Laplacian, the singular operator
        raise ValueError(f"a periodic {layout.kind} patch of {width} points needs more than "
                         f"{width} unknowns, got n={grid.n} in {grid.dim}D")

    span = int(np.ptp(offsets, axis=0).max())
    if grid.boundary == "periodic" or grid.n <= 2 * span + 1:
        m, weights = _scatter(layout, grid, stencil)
    else:
        template = GridSpec(grid.dim, 2 * span + 1, grid.h)
        m, weights = _translate(*_scatter(layout, template, stencil), template, grid)
    return VankaOperator(layout, grid, m, weights, stencil)


# ---------------------------------------------------------------------------
# sparse assembly and export
# ---------------------------------------------------------------------------

def _check_stencil(stencil: Stencil, grid: GridSpec) -> None:
    """Raise unless ``stencil`` is a :class:`Stencil` that fits on ``grid``."""
    if not isinstance(stencil, Stencil):
        raise TypeError(f"the operator must be a Stencil, got {type(stencil).__name__}")
    if stencil.dim != grid.dim:
        raise ValueError(f"stencil dim {stencil.dim} != grid dim {grid.dim}")
    if grid.boundary == "periodic" and grid.n <= 2 * stencil.reach:
        raise ValueError(f"periodic wrap needs n > {2 * stencil.reach}")


def assemble_sparse(stencil: Stencil, grid: GridSpec) -> sp.csr_matrix:
    """Explicit sparse matrix of a stencil on ``grid``.

    The stencil becomes ``sum_o c_o kron_k T(o_k)``, with ``T(o)`` the 1D
    shift by ``o`` along axis ``k`` (the first axis varies slowest).  On
    Dirichlet grids ``T(o)`` is the truncated diagonal ``eye(n, k=o)``; on
    periodic grids it also carries the wrapped diagonal ``k = o - n``
    (``o > 0``) or ``k = o + n`` (``o < 0``).  Zero coefficients are not
    stored.  Only stencils are assembled: a :class:`VankaOperator` already
    holds its CSR matrix as ``matrix``.

    The CSR arrays are written in place, with no COO copy, no per-term
    matrices and no scatter.  A row holds the offsets whose shifted point
    lies on the grid, in ascending flat order, so Dirichlet rows come out
    sorted; periodic rows, whose wrapped columns are not, are sorted
    afterwards.  Distinct offsets never reach the same column (Dirichlet
    points are unique, and the periodic guard ``n > 2 reach`` keeps wrapped
    ones apart), so nothing is summed.  Whether a shift keeps a point on the
    grid, and which column it reaches, is a product and a sum over the axes,
    so one plane of fixed first coordinate is worked out once.  Every plane
    that no offset shifts off the grid or wraps along the first axis is
    that plane translated by a multiple of the first stride: it is written
    by one addition per slab of :data:`_SLAB_ENTRIES` entries, and only the
    ``2 reach`` edge planes are selected entry by entry.
    """
    _check_stencil(stencil, grid)
    n, size = grid.n, grid.npoints
    periodic = grid.boundary == "periodic"
    strides = n ** np.arange(grid.dim - 1, -1, -1)
    # an offset with a component of n or more shifts every Dirichlet point off the grid
    terms = sorted((int(np.dot(o, strides)), o, float(c)) for o, c in stencil.entries.items()
                   if c != 0 and max(map(abs, o)) < n)
    width = len(terms)
    offsets = np.array([o for _, o, _ in terms], dtype=np.int64).reshape(width, grid.dim)
    coefs = np.array([c for _, _, c in terms])
    # per axis, point and term: the shifted coordinate, whether it is on the grid
    shifted = np.arange(n)[:, None] + offsets.T[:, None, :]
    on_grid = periodic | (shifted >= 0) & (shifted < n)
    nnz = int(on_grid.sum(axis=1).prod(axis=0).sum())
    index = np.int32 if max(nnz, size) < 2**31 else np.int64
    part = (shifted % n * strides[:, None, None]).astype(index)
    # the plane of first coordinate 0 without its first-axis shift: the terms
    # each of its rows keeps and their columns, (rows, terms)
    keep, cols = np.ones((1, width), dtype=bool), np.zeros((1, width), dtype=index)
    for k in range(1, grid.dim):
        keep = (keep[:, None] & on_grid[k]).reshape(n**k, width)
        cols = (cols[:, None] + part[k]).reshape(n**k, width)
    plane = len(keep)
    first, lead = offsets[:, 0], int(strides[0])
    inner = range(-first.min(initial=0), n - first.max(initial=0))
    edges = {x: keep & on_grid[0][x] for x in range(n) if x not in inner}

    indptr = np.zeros(size + 1, dtype=index)
    counts = indptr[1:].reshape(n, plane)
    counts[inner.start:inner.stop] = keep.sum(axis=1)
    for x, kept in edges.items():
        counts[x] = kept.sum(axis=1)
    np.cumsum(indptr, out=indptr)
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    for x, kept in edges.items():
        rows = slice(indptr[x * plane], indptr[(x + 1) * plane])
        indices[rows] = (cols + part[0][x])[kept]
        data[rows] = np.broadcast_to(coefs, kept.shape)[kept]
    if inner:
        # a slab of whole inner planes, its first plane at first coordinate 0
        per_plane = int(keep.sum())
        step = min(max(1, _SLAB_ENTRIES // max(per_plane, 1)), len(inner))
        slab_cols = (cols + (lead * first).astype(index))[keep] \
            + lead * np.arange(step, dtype=index)[:, None]
        slab_data = np.tile(np.broadcast_to(coefs, keep.shape)[keep], step)
        for x in inner[::step]:
            planes = min(step, inner.stop - x)
            start, stop = indptr[x * plane], indptr[(x + planes) * plane]
            np.add(slab_cols[:planes], x * lead, out=indices[start:stop].reshape(planes, per_plane))
            data[start:stop] = slab_data[:stop - start]
    mat = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    if periodic:
        mat.sort_indices()
    return mat


def _nnz(offsets, grid: GridSpec) -> int:
    """Entries of the Dirichlet CSR matrix coupling each point to ``offsets``.

    Counts the entries :func:`assemble_sparse` stores for a stencil with
    these nonzero offsets: each keeps the points it does not shift off the grid.
    """
    return sum(prod(max(grid.n - abs(c), 0) for c in o) for o in offsets)


def _csr_bytes(offsets, grid: GridSpec) -> int:
    """Bytes of the Dirichlet CSR matrix coupling each point to ``offsets``."""
    return _CSR_BYTES_PER_NNZ * _nnz(offsets, grid) + 4 * (grid.npoints + 1)


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
