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

:func:`build_vanka` assembles ``M`` as one matrix in diagonal (DIA)
storage from the system stencil.  On a constant-coefficient operator a row
of ``M`` depends only on where its point sits against the boundary, within
the patch span ``s`` (1 for element, 2 for vertex patches).  So the patches
are built on a template grid of ``2 s + 1`` points per axis only: a
``(P, k)`` patch index array from broadcast offsets, the blocks gathered
from the assembled template operator (truncated slots padded with the
identity), one batched inverse and one COO scatter of the weighted
inverses.  Each diagonal of ``M`` on the full grid (9 for element, 13 for
vertex patches in 2D) is then gathered from the template's, axis by axis.
Applying the smoother is one sparse product.  The per-patch
:attr:`VankaOperator.patches` view gathers every block of the full grid
from its assembled operator, an independent reference for the tests.

In the interior both layouts reduce to translation-invariant stencils with
exact rational coefficients, given by :func:`vankamg.stencils.closed_form_stencil`
and used as the oracle for assembly tests on periodic grids.  That function
and :class:`~vankamg.stencils.PatchLayout` are pure stencil data and live in
:mod:`vankamg.stencils`, so the analysis never imports scipy.

:func:`assemble_sparse` turns any stencil into a DIA matrix by one rule:
``sum_o c_o kron_k T(o_k)``, a Kronecker product of 1D shifts per offset
(periodic shifts carry the wrapped diagonal), written straight into its
diagonals.  :func:`stencil_residual` forms ``b - A u`` for that matrix from
the stencil alone, adding each row's terms in the DIA product's order
(:func:`_diagonals`), so its result is the product's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from . import stencils
from .stencils import GridSpec, PatchLayout, Stencil

__all__ = [
    "Patch",
    "VankaOperator",
    "build_vanka",
    "assemble_sparse",
    "export_triplets",
]


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

    Instances are built by :func:`build_vanka`.  ``matrix`` is the smoother
    ``M`` in diagonal (DIA) storage, ``weights`` the partition-of-unity
    entries ``1/m_j`` and ``operator`` the system stencil whose assembled
    principal submatrices are the patch problems.
    """

    layout: PatchLayout
    grid: GridSpec
    matrix: sp.dia_matrix
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


def _patch_blocks(layout: PatchLayout, grid: GridSpec, matrix: sp.dia_matrix):
    """Patch keys, index array and all local blocks, padded slots set to identity.

    Returns ``(keys, index, blocks)`` with ``blocks[p]`` the principal submatrix
    of ``matrix`` on ``index[p]``, gathered patch by patch from its CSR form;
    a truncated slot holds a unit diagonal and no coupling, so the padded
    block inverts to the truncated inverse bordered by the identity.
    """
    keys, index = _patch_index(layout, grid)
    count, k = index.shape
    padded = index < 0
    safe = np.where(padded, 0, index)
    rows = np.broadcast_to(safe[:, :, None], (count, k, k)).reshape(-1)
    cols = np.broadcast_to(safe[:, None, :], (count, k, k)).reshape(-1)
    blocks = np.asarray(matrix.tocsr()[rows, cols]).reshape(count, k, k)
    blocks[padded[:, :, None] | padded[:, None, :]] = 0.0
    p, slot = np.nonzero(padded)
    blocks[p, slot, slot] = 1.0
    return keys, index, blocks


def _coupled(layout: PatchLayout, grid: GridSpec) -> list:
    """Offsets ``M`` couples on ``grid``: the differences of the layout's slot offsets.

    Two unknowns are coupled when one patch holds both.
    """
    offsets = _layout_offsets(layout, grid)[0]
    return sorted({tuple(b - a) for a in offsets for b in offsets})


def _smoother_bytes(layout: PatchLayout, grid: GridSpec) -> int:
    """Bytes of ``M`` and its weights on a Dirichlet grid.

    :func:`_translate` writes each diagonal in place and holds nothing else
    of the grid's size.
    """
    return _dia_bytes(_coupled(layout, grid), grid) + 8 * grid.npoints


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


def _translate(layout: PatchLayout, m: sp.csr_matrix, weights, template: GridSpec,
               grid: GridSpec) -> tuple:
    """``M`` and the weights on the Dirichlet ``grid``, read from its template's.

    The template has ``n_t = 2 s + 1`` points per axis.  Per axis, position
    ``p`` of ``grid`` reads template position ``p`` when ``p < s``,
    ``p - (n - n_t)`` when ``p >= n - s`` and ``s`` otherwise: its class.
    The entry of row ``x`` at offset ``d`` is the template's entry of row
    ``class(x)`` at offset ``d``.  So each diagonal of ``M`` is gathered,
    axis by axis, from the template's band at ``d``, a small array over
    the row classes padded with one zero slot that the rows shifted off
    the grid read.  With ``n > 2 s + 1`` every offset reaches a diagonal of
    its own, in the order of the sorted offsets.
    """
    n, n_t, dim = grid.n, template.n, grid.dim
    span = n_t // 2
    p = np.arange(n)
    t = np.where(p < span, p, np.where(p >= n - span, p - (n - n_t), span))
    dense = m.toarray()
    classes = np.indices(template.shape).reshape(dim, -1)
    strides = n_t ** np.arange(dim - 1, -1, -1)
    offsets = _coupled(layout, grid)
    data = np.empty((len(offsets), grid.npoints))
    for diagonal, d in zip(data, offsets):
        target = classes + np.array(d)[:, None]
        inside = ((target >= 0) & (target < n_t)).all(axis=0)
        band = np.zeros((n_t + 1,) * dim)
        band[tuple(classes[:, inside])] = dense[strides @ classes[:, inside],
                                                strides @ target[:, inside]]
        # per axis and column: the class of its row, or the zero slot
        rows = [np.where((p >= o) & (p < n + o), t[(p - o) % n], n_t) for o in d]
        np.take(band[np.ix_(*rows[:-1])], rows[-1], axis=-1,
                out=diagonal.reshape(grid.shape), mode="clip")
    flat = np.array(offsets) @ (n ** np.arange(dim - 1, -1, -1))
    m = sp.dia_matrix((data, flat), shape=(grid.npoints,) * 2)
    return m, weights.reshape(template.shape)[np.ix_(*(t,) * dim)].reshape(-1)


def build_vanka(layout: PatchLayout, grid: GridSpec, stencil: Stencil) -> VankaOperator:
    """Assemble the additive Vanka smoother ``M`` in diagonal (DIA) storage.

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
    reads each diagonal of the full matrix from the template row in the
    same place.  A row keeps its template row's patches, truncation and
    COO entry order, so its duplicates are summed in the same order and
    every entry is the one the scatter over every patch of the grid gives,
    byte for byte.  Periodic grids (an oracle only) and grids of at most
    ``2 s + 1`` points per axis are their own template; their scattered
    matrix is converted to DIA.
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
        m = sp.dia_matrix(m)
    else:
        template = GridSpec(grid.dim, 2 * span + 1, grid.h)
        m, weights = _translate(layout, *_scatter(layout, template, stencil), template, grid)
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


def _pieces(offset, grid: GridSpec):
    """Flat offset and column box of every piece of ``kron_k T(o_k)`` on ``grid``.

    Along an axis the shift by ``o`` reaches the columns
    ``[max(o, 0), n + min(o, 0))`` at a distance ``o``; on a periodic grid
    its wrapped part reaches ``[0, o)`` at ``o - n`` (``o > 0``) or
    ``[n + o, n)`` at ``o + n`` (``o < 0``).  A piece takes one part per
    axis; pieces reaching no column are left out.
    """
    n = grid.n
    strides = n ** np.arange(grid.dim - 1, -1, -1)
    axes = []
    for o in offset:
        parts = [(o, slice(max(o, 0), n + min(o, 0)))]
        if grid.boundary == "periodic" and o:
            parts.append((o - n, slice(0, o)) if o > 0 else (o + n, slice(n + o, n)))
        axes.append(parts)
    for choice in product(*axes):
        box = tuple(part for _, part in choice)
        if all(part.start < part.stop for part in box):
            yield int(np.dot([d for d, _ in choice], strides)), box


def _diagonal_offsets(offsets, grid: GridSpec) -> set:
    """Flat offsets of the diagonals coupling each point to ``offsets`` on ``grid``."""
    return {flat for o in offsets for flat, _ in _pieces(o, grid)}


def _dia_bytes(offsets, grid: GridSpec) -> int:
    """Bytes of the DIA matrix coupling each point to ``offsets`` on ``grid``.

    Each diagonal holds a float64 value per point and a 4-byte offset.
    """
    return len(_diagonal_offsets(offsets, grid)) * (8 * grid.npoints + 4)


def _diagonals(stencil: Stencil, grid: GridSpec) -> list:
    """``(flat, [(box, coef), ...])`` per stored diagonal, in ascending ``flat``: DIA order.

    Every piece of every nonzero entry (:func:`_pieces`) goes to the
    diagonal of its flat offset, with its column box and float coefficient.
    """
    _check_stencil(stencil, grid)
    pieces = {}
    for offset, coef in stencil.entries.items():
        if coef != 0:
            for flat, box in _pieces(offset, grid):
                pieces.setdefault(flat, []).append((box, float(coef)))
    return [(flat, pieces[flat]) for flat in sorted(pieces)]


def assemble_sparse(stencil: Stencil, grid: GridSpec) -> sp.dia_matrix:
    """Explicit sparse matrix of a stencil on ``grid``, in diagonal (DIA) storage.

    The stencil becomes ``sum_o c_o kron_k T(o_k)``, with ``T(o)`` the 1D
    shift by ``o`` along axis ``k`` (the first axis varies slowest).  On
    Dirichlet grids ``T(o)`` is the truncated diagonal ``eye(n, k=o)``; on
    periodic grids it also carries the wrapped diagonal ``k = o - n``
    (``o > 0``) or ``k = o + n`` (``o < 0``).  Only stencils are assembled:
    a :class:`VankaOperator` already holds its matrix as ``matrix``.

    Each term is a few pieces of constant value on one diagonal each (one
    piece on Dirichlet grids), and a diagonal holds its value at the
    column, so a piece is one slice assignment to a box of the diagonal
    seen as a grid; the rest of the diagonal stays zero.  Pieces that share
    a diagonal (wrapped ones on periodic grids) reach disjoint rows, as a
    row reaches a given column through one offset only.  The diagonals are
    stored in ascending order (:func:`_diagonals`), so a product adds each
    row's terms in ascending column order, as a sorted CSR product does.
    Zero coefficients and diagonals no point reaches are not stored;
    ``.tocsr()`` drops the zeros of the truncated diagonals.
    """
    diagonals = _diagonals(stencil, grid)
    data = np.zeros((len(diagonals), grid.npoints))
    for diagonal, (_, pieces) in zip(data, diagonals):
        for box, coef in pieces:
            diagonal.reshape(grid.shape)[box] = coef
    return sp.dia_matrix((data, [flat for flat, _ in diagonals]), shape=(grid.npoints,) * 2)


def _power_scale(coefs) -> float:
    """The power of two that the most ``coefs`` equal in magnitude (the larger on a tie), or 1.0."""
    powers = [abs(c) for c in coefs if math.frexp(abs(c))[0] == 0.5]
    return max(powers, key=lambda p: (powers.count(p), p), default=1.0)


def stencil_residual(stencil: Stencil, grid: GridSpec):
    """Return ``residual(u, b)``, which forms ``b - A u`` in a new array without ``A``.

    ``A`` is ``assemble_sparse(stencil, grid)``; nothing of its size is
    stored.  For finite ``u`` and ``b`` the result equals ``b - A @ u`` byte
    for byte.  The one exception: where a non-finite value of ``u`` is a
    neighbour across the end of a row, the DIA product adds ``0 * inf``,
    NaN, and this kernel adds nothing.

    The rows run in slabs of :data:`~vankamg.stencils.SLAB_ROWS`, on flat
    contiguous slices.  Each slab takes the terms in the DIA product's
    order, ascending flat offset (:func:`_diagonals`), and adds each term's
    product to the sum of the ones before it, starting from zero.  Where
    the neighbour lies off the box, the DIA product adds ``0 * u``, a
    signed zero; here the term holds ``+0.0`` there.  Neither changes a
    sum that started from ``+0.0``, as such a sum is never ``-0.0`` in
    round-to-nearest.  Those rows are found per axis past the first in a
    view of whole planes; along the first axis the flat slice already
    leaves them out.

    A power of two ``s``, the magnitude most coefficients share (``h**-2``
    for the Laplacian), is factored out (:func:`_power_scale`): the sum of
    ``(c/s) u`` is formed and scaled by ``s`` at the end.  So the terms of
    coefficient ``±s`` are plain additions and subtractions, done in place
    with the off-box rows of the sum kept and put back.  Scaling by a
    power of two is exact, so the result is the unscaled one unless a
    product or a partial sum overflows or leaves the normal range.
    """
    n, size = grid.n, grid.npoints
    plane = size // n
    diagonals = _diagonals(stencil, grid)
    scale = _power_scale([c for _, pieces in diagonals for _, c in pieces])
    terms = []
    for flat, pieces in diagonals:
        for box, coef in pieces:
            # per axis past the first, the rows whose neighbour lies off the box
            off = tuple((slice(None),) * axis
                        + (slice(n - part.start, n) if part.start else slice(0, n - part.stop),)
                        for axis, part in enumerate(box[1:], 1) if part.start or part.stop < n)
            terms.append((flat, coef / scale, off))

    def residual(u: np.ndarray, b: np.ndarray) -> np.ndarray:
        u, b = np.asarray(u, dtype=float), np.asarray(b, dtype=float)
        if u.shape != (size,) or b.shape != (size,):
            raise ValueError(f"expected flat arrays of length {size}")
        out = np.empty(size)
        planes = out.reshape((-1,) + grid.shape[1:])
        step = stencils.SLAB_ROWS
        work = np.empty(min(step, size) + 2 * plane)
        for r0 in range(0, size, step):
            r1 = min(r0 + step, size)
            total = out[r0:r1]
            # ``work[i - first * plane]`` holds row ``i``, so whole planes line up
            first, last = r0 // plane, -(-r1 // plane)
            work_planes = work[:(last - first) * plane].reshape((-1,) + grid.shape[1:])
            fresh = True
            for flat, coef, off in terms:
                lo, hi = max(r0, -flat), min(r1, size - flat)
                if lo >= hi:
                    continue
                src, dst = u[lo + flat:hi + flat], total[lo - r0:hi - r0]
                unit = coef in (1.0, -1.0)
                if unit and not fresh:
                    # whole planes may reach past [lo, hi); rows there are put back as they were
                    kept =[(view, view.copy()) for view in (planes[first:last][i] for i in off)]
                    (np.add if coef > 0 else np.subtract)(dst, src, out=dst)
                    for view, value in kept:
                        view[...] = value
                elif unit and not off:
                    (np.add if coef > 0 else np.subtract)(0.0, src, out=dst)
                else:
                    term = work[lo - first * plane:hi - first * plane]
                    np.multiply(src, coef, out=term)
                    for i in off:
                        work_planes[i] = 0.0
                    np.add(0.0 if fresh else dst, term, out=dst)
                if fresh:
                    total[:lo - r0] = 0.0
                    total[hi - r0:] = 0.0
                    fresh = False
            if fresh:
                total[:] = 0.0
            if scale != 1.0:
                total *= scale
            np.subtract(b[r0:r1], total, out=total)
        return out

    return residual


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
