"""Patch construction, local inverses, weights and assembly of the additive
Vanka operator.

The local-inverse oracles below are worked out by hand:

* element 1D: A_loc = h^-2 [[2,-1],[-1,2]], inverse h^2/3 [[2,1],[1,2]];
* vertex 1D: A_loc = h^-2 tridiag(-1,2,-1), inverse h^2/4 [[3,2,1],[2,4,2],[1,2,3]];
* element 2D (corners in lexicographic order): inverse has diagonal 7/24,
  edge-neighbour entries 1/12, opposite-corner entries 1/24, times h^2;
* vertex 2D: with the centre split off, A_loc = [[4I, -1],[-1^T, 4]] h^-2 and
  the Schur complement is 3 h^-2, so the inverse has centre 1/3, centre-to-
  neighbour 1/12, neighbour diagonal 1/4 + 1/48 = 13/48 and every
  neighbour-neighbour entry 1/48, times h^2.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from vankamg import (
    GridSpec,
    PatchLayout,
    Stencil,
    assemble_sparse,
    build_vanka,
    closed_form_stencil,
    delta_stencil,
    export_triplets,
    galerkin_stencil,
    laplacian_stencil,
    mass_stencil,
)
from vankamg import stencils, vanka
from vankamg.lfa import SmootherSpec, exact_optimum
from vankamg.solver import CycleSpec, build_hierarchy
from vankamg.vanka import VankaOperator

ALL_LAYOUTS = [PatchLayout(kind, dim) for kind in ("element", "vertex") for dim in (1, 2)]


def _patch_at(op, key):
    for patch in op.patches:
        if patch.key == key:
            return patch
    raise AssertionError(f"no patch with key {key}")


# ---------------------------------------------------------------------------
# local matrices and inverses
# ---------------------------------------------------------------------------

def test_element_patch_inverse_1d():
    h = Fraction(1, 8)
    op = build_vanka(PatchLayout("element", 1), GridSpec(1, 7, float(h)),
                     laplacian_stencil(1, h))
    patch = _patch_at(op, (3,))
    assert np.allclose(patch.matrix, 64 * np.array([[2, -1], [-1, 2]]), atol=0)
    want = float(h) ** 2 / 3 * np.array([[2, 1], [1, 2]])
    assert np.allclose(patch.inverse, want, atol=1e-15)


def test_vertex_patch_inverse_1d():
    h = Fraction(1, 8)
    op = build_vanka(PatchLayout("vertex", 1), GridSpec(1, 7, float(h)),
                     laplacian_stencil(1, h))
    patch = _patch_at(op, (3,))
    assert patch.dofs.tolist() == [2, 3, 4]
    want = float(h) ** 2 / 4 * np.array([[3, 2, 1], [2, 4, 2], [1, 2, 3]])
    assert np.allclose(patch.inverse, want, atol=1e-15)


def test_element_patch_inverse_2d():
    h = Fraction(1, 8)
    op = build_vanka(PatchLayout("element", 2), GridSpec(2, 7, float(h)),
                     laplacian_stencil(2, h))
    patch = _patch_at(op, (3, 3))
    assert len(patch.dofs) == 4
    want = float(h) ** 2 * np.array([
        [Fraction(7, 24), Fraction(1, 12), Fraction(1, 12), Fraction(1, 24)],
        [Fraction(1, 12), Fraction(7, 24), Fraction(1, 24), Fraction(1, 12)],
        [Fraction(1, 12), Fraction(1, 24), Fraction(7, 24), Fraction(1, 12)],
        [Fraction(1, 24), Fraction(1, 12), Fraction(1, 12), Fraction(7, 24)],
    ], dtype=float)
    assert np.allclose(patch.inverse, want, atol=1e-15)


def test_vertex_patch_inverse_2d():
    h = Fraction(1, 8)
    op = build_vanka(PatchLayout("vertex", 2), GridSpec(2, 7, float(h)),
                     laplacian_stencil(2, h))
    patch = _patch_at(op, (3, 3))
    # lexicographic dof order: (2,3), (3,2), (3,3), (3,4), (4,3); centre is slot 2
    k = 5
    want = np.full((k, k), 1.0 / 48)
    for i in range(k):
        want[i, i] = 13.0 / 48
    want[2, :] = 1.0 / 12
    want[:, 2] = 1.0 / 12
    want[2, 2] = 1.0 / 3
    assert np.allclose(patch.inverse, float(h) ** 2 * want, atol=1e-15)


def test_boundary_patches_truncate():
    op = build_vanka(PatchLayout("element", 1), GridSpec(1, 5, 1.0),
                     laplacian_stencil(1, 1))
    sizes = sorted(len(p.dofs) for p in op.patches)
    assert len(op.patches) == 6
    assert sizes == [1, 1, 2, 2, 2, 2]
    corner = _patch_at(op, (0,))
    assert corner.dofs.tolist() == [0]
    assert np.allclose(corner.inverse, [[0.5]], atol=0)


def test_patch_counts_2d():
    grid = GridSpec(2, 3, 0.25)
    element = build_vanka(PatchLayout("element", 2), grid, laplacian_stencil(2, Fraction(1, 4)))
    assert len(element.patches) == 16
    assert sorted(len(p.dofs) for p in element.patches) == [1] * 4 + [2] * 8 + [4] * 4
    vertex = build_vanka(PatchLayout("vertex", 2), grid, laplacian_stencil(2, Fraction(1, 4)))
    assert len(vertex.patches) == 9
    assert sorted(len(p.dofs) for p in vertex.patches) == [3] * 4 + [4] * 4 + [5]


# ---------------------------------------------------------------------------
# counting weights
# ---------------------------------------------------------------------------

def test_weights_element_1d_uniform():
    op = build_vanka(PatchLayout("element", 1), GridSpec(1, 5, 1.0),
                     laplacian_stencil(1, 1))
    assert np.array_equal(op.weights, np.full(5, 0.5))


def test_weights_vertex_1d():
    op = build_vanka(PatchLayout("vertex", 1), GridSpec(1, 5, 1.0),
                     laplacian_stencil(1, 1))
    want = [1 / 2, 1 / 3, 1 / 3, 1 / 3, 1 / 2]
    assert np.allclose(op.weights, want, atol=0)


def test_weights_vertex_2d():
    op = build_vanka(PatchLayout("vertex", 2), GridSpec(2, 5, 1.0),
                     laplacian_stencil(2, 1))
    w = op.weights.reshape(5, 5)
    assert w[0, 0] == 1 / 3
    assert w[0, 2] == 1 / 4
    assert w[2, 2] == 1 / 5


# ---------------------------------------------------------------------------
# closed-form interior stencils
# ---------------------------------------------------------------------------

def test_closed_form_coefficients():
    h = Fraction(1, 4)
    e1 = closed_form_stencil(PatchLayout("element", 1), h)
    assert e1.entries == {(-1,): h**2 / 6, (0,): 4 * h**2 / 6, (1,): h**2 / 6}
    v1 = closed_form_stencil(PatchLayout("vertex", 1), h)
    assert v1.entries[(0,)] == 10 * h**2 / 12
    assert v1.entries[(2,)] == h**2 / 12
    e2 = closed_form_stencil(PatchLayout("element", 2), h)
    assert e2.entries[(0, 0)] == 28 * h**2 / 96
    assert e2.entries[(1, 1)] == h**2 / 96
    v2 = closed_form_stencil(PatchLayout("vertex", 2), h)
    assert v2.entries[(0, 0)] == 68 * h**2 / 240
    assert v2.entries[(1, 0)] == 8 * h**2 / 240
    assert v2.entries[(1, 1)] == 2 * h**2 / 240
    assert v2.entries[(0, 2)] == h**2 / 240
    with pytest.raises(NotImplementedError):
        closed_form_stencil(PatchLayout("element", 3), h)


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_assembled_periodic_matches_closed_form(layout):
    n = 9 if layout.dim == 1 else 8
    h = Fraction(1, 8)
    grid = GridSpec(layout.dim, n, float(h), boundary="periodic")
    op = build_vanka(layout, grid, laplacian_stencil(layout.dim, h))
    want = assemble_sparse(closed_form_stencil(layout, h), grid).toarray()
    assert np.abs(op.matrix.toarray() - want).max() <= 1e-12


def test_mass_identities_exact():
    h = Fraction(1, 64)
    # element patches reproduce the scaled 1D mass stencil exactly
    assert closed_form_stencil(PatchLayout("element", 1), h) == mass_stencil(1, h).scaled(h)
    # in 2D the element stencil is an affine combination of mass and identity
    lhs = closed_form_stencil(PatchLayout("element", 2), h)
    rhs = mass_stencil(2, h).scaled(Fraction(3, 8)).plus(
        delta_stencil(2).scaled(h**2 / 8))
    assert lhs == rhs


def test_interior_row_matches_closed_form_dirichlet():
    h = Fraction(1, 8)
    grid = GridSpec(2, 7, float(h))
    op = build_vanka(PatchLayout("element", 2), grid, laplacian_stencil(2, h))
    dense = op.matrix.toarray()
    center = grid.ravel_index((3, 3))
    want = np.zeros(grid.npoints)
    for offset, coef in closed_form_stencil(PatchLayout("element", 2), h).entries.items():
        want[grid.ravel_index((3 + offset[0], 3 + offset[1]))] = float(coef)
    assert np.abs(dense[center] - want).max() <= 1e-15


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def _patchwise_apply(op, r, patches):
    """Reference ``M r``: one local solve per patch, accumulated in loop order."""
    out = np.zeros_like(r)
    for patch in patches:
        out[patch.dofs] += op.weights[patch.dofs] * (patch.inverse @ r[patch.dofs])
    return out


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_apply_matches_dense_and_sequential(layout):
    n = 7 if layout.dim == 1 else 5
    grid = GridSpec(layout.dim, n, 1.0 / (n + 1))
    op = build_vanka(layout, grid, laplacian_stencil(layout.dim, Fraction(1, n + 1)))
    rng = np.random.default_rng(7)
    r = rng.standard_normal(grid.npoints)
    batched = op.apply(r)
    assert np.allclose(batched, op.matrix.toarray() @ r, atol=1e-12)
    assert np.allclose(batched, _patchwise_apply(op, r, op.patches), atol=1e-13)


def test_apply_is_patch_order_invariant():
    grid = GridSpec(2, 5, 1.0 / 6)
    op = build_vanka(PatchLayout("vertex", 2), grid, laplacian_stencil(2, Fraction(1, 6)))
    rng = np.random.default_rng(13)
    r = rng.standard_normal(grid.npoints)
    patches = op.patches
    forward = _patchwise_apply(op, r, patches)
    assert np.allclose(op.apply(r), forward, atol=1e-13)
    assert np.allclose(forward, _patchwise_apply(op, r, reversed(patches)), atol=1e-13)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_matrix_equals_patch_sum(layout, boundary):
    # M = sum_i V_i^T W_i inv(A_i) V_i, summed patch by patch from the system matrix
    n = 31
    h = Fraction(1, n + 1)
    grid = GridSpec(layout.dim, n, float(h), boundary=boundary)
    a = assemble_sparse(laplacian_stencil(layout.dim, h), grid).toarray()
    op = build_vanka(layout, grid, laplacian_stencil(layout.dim, h))
    patches = op.patches
    counts = np.bincount(np.concatenate([p.dofs for p in patches]), minlength=grid.npoints)
    want = np.zeros((grid.npoints, grid.npoints))
    for patch in patches:
        block = a[np.ix_(patch.dofs, patch.dofs)]
        want[np.ix_(patch.dofs, patch.dofs)] += \
            np.linalg.inv(block) / counts[patch.dofs, None]
    got = op.matrix.toarray()
    assert op.matrix.format == "dia"
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_operator_symmetric_positive_definite_periodic(layout):
    grid = GridSpec(layout.dim, 8, 0.125, boundary="periodic")
    op = build_vanka(layout, grid, laplacian_stencil(layout.dim, Fraction(1, 8)))
    dense = op.matrix.toarray()
    assert np.abs(dense - dense.T).max() <= 1e-14
    assert np.linalg.eigvalsh(dense).min() > 0


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_operator_spectrum_positive_dirichlet(layout):
    # boundary weight recounting makes the vertex operator mildly asymmetric
    # near Dirichlet boundaries; the spectrum stays real and positive
    n = 7 if layout.dim == 1 else 5
    grid = GridSpec(layout.dim, n, 1.0 / (n + 1))
    op = build_vanka(layout, grid, laplacian_stencil(layout.dim, Fraction(1, n + 1)))
    dense = op.matrix.toarray()
    if layout.kind == "element":
        assert np.abs(dense - dense.T).max() <= 1e-14  # uniform weights
    eigs = np.linalg.eigvals(dense)
    assert np.abs(eigs.imag).max() <= 1e-12
    assert eigs.real.min() > 0


def _patch_scatter(op):
    """Oracle ``M`` and weights: each patch of the gathered ``patches`` view,
    weighted and scattered through COO in patch order, the order
    :func:`build_vanka` uses."""
    patches = op.patches
    counts = np.bincount(np.concatenate([p.dofs for p in patches]), minlength=op.grid.npoints)
    rows = np.concatenate([np.repeat(p.dofs, len(p.dofs)) for p in patches])
    cols = np.concatenate([np.tile(p.dofs, len(p.dofs)) for p in patches])
    vals = np.concatenate([(p.inverse * (1.0 / counts[p.dofs])[:, None]).ravel()
                           for p in patches])
    return sp.coo_matrix((vals, (rows, cols)), shape=op.matrix.shape).tocsr(), 1.0 / counts


def _assert_matches_patch_scatter(op):
    # ``M @ x`` adds each row's entries in the oracle's column order, bit for
    # bit; ``.tocsr()`` drops stored zeros, which the oracle keeps where a
    # patch inverse has an exact zero (the skew operator's triangular blocks)
    want, weights = _patch_scatter(op)
    x = np.random.default_rng(op.grid.n).standard_normal(op.grid.npoints)
    assert (op.matrix @ x).tobytes() == (want @ x).tobytes()
    got = op.matrix.tocsr()
    want.eliminate_zeros()
    for part in ("indptr", "indices", "data"):
        got_part, want_part = getattr(got, part), getattr(want, part)
        assert got_part.dtype == want_part.dtype, part
        assert np.array_equal(got_part, want_part), part
    assert op.weights.dtype == weights.dtype
    assert op.weights.tobytes() == weights.tobytes()


VANKA_OPERATORS = {
    "laplacian": laplacian_stencil,
    "mass": mass_stencil,
    "galerkin": lambda dim, h: galerkin_stencil(laplacian_stencil(dim, h / 2)),
    "galerkin2": lambda dim, h: galerkin_stencil(galerkin_stencil(laplacian_stencil(dim, h / 4))),
    "vertex-closed-form": lambda dim, h: closed_form_stencil(PatchLayout("vertex", dim), h),
    # not symmetric, one entry of reach 2; diagonally dominant, so every block inverts
    "skew": lambda dim, h: Stencil(dim, {(0,) * dim: 4, (-1,) + (0,) * (dim - 1): -1,
                                         (1,) * dim: Fraction(-1, 2),
                                         (0,) * (dim - 1) + (2,): Fraction(1, 3)}),
}


@pytest.mark.parametrize("name", sorted(VANKA_OPERATORS))
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_matrix_equals_the_patch_scatter(layout, boundary, name):
    # the oracle gathers every patch of the grid, so it shares no step with
    # the template build: Dirichlet grids up to 2s + 1 = 3 (element) or 5
    # (vertex) points per axis are their own template, larger ones, even n
    # included, are translated from it; periodic grids are their own template
    # (at n = 3 a 1D vertex patch would be the whole singular periodic operator)
    for n in (4, 5, 7, 8) if boundary == "periodic" else (3, 4, 5, 6, 7, 8, 9, 15, 16, 64):
        h = Fraction(1, n + 1)
        st = VANKA_OPERATORS[name](layout.dim, h)
        if boundary == "periodic" and n <= 2 * st.reach:
            continue
        grid = GridSpec(layout.dim, n, float(h), boundary)
        _assert_matches_patch_scatter(build_vanka(layout, grid, st))


@pytest.mark.parametrize("name", sorted(VANKA_OPERATORS))
@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda la: f"{la.kind}-{la.dim}d")
def test_dirichlet_build_inverts_one_block_per_boundary_arrangement(monkeypatch, layout, name):
    # one batch per build, one block per patch of the template grid (2s + 1
    # points per axis: 4 element cells or 5 vertex centres per axis),
    # whatever the size of the grid
    batches = []
    inv = np.linalg.inv

    def counting(a):
        batches.append(a.shape[0])
        return inv(a)

    monkeypatch.setattr(vanka.np.linalg, "inv", counting)
    for n in (7, 31, 255):
        h = Fraction(1, n + 1)
        build_vanka(layout, GridSpec(layout.dim, n, float(h)), VANKA_OPERATORS[name](layout.dim, h))
    per_axis = 4 if layout.kind == "element" else 5
    assert batches == [per_axis**layout.dim] * 3


@pytest.mark.parametrize("cycle", ["two-grid", "v-cycle"])
@pytest.mark.parametrize("kind", ["vanka-e", "vanka-v"])
@pytest.mark.parametrize("dim", [1, 2])
def test_every_hierarchy_smoother_equals_the_patch_scatter(dim, kind, cycle):
    spec = CycleSpec(SmootherSpec(kind, dim, float(exact_optimum(kind, dim)[0])), 1, 0, cycle)
    hier = build_hierarchy(spec, GridSpec(dim, 31, 1 / 32))
    smoothed = hier.levels[:-1]
    assert len(smoothed) == (1 if cycle == "two-grid" else 2)
    for level in smoothed:
        op = level.m_apply.__self__
        assert isinstance(op, VankaOperator) and op.grid == level.grid
        # the smoother's stencil is the one the level operator was assembled from
        assembled = assemble_sparse(op.operator, level.grid)
        for part in ("offsets", "data"):
            assert np.array_equal(getattr(assembled, part), getattr(level.matrix, part))
        _assert_matches_patch_scatter(op)


def test_build_vanka_validation():
    with pytest.raises(NotImplementedError, match="dim 1 and 2"):
        build_vanka(PatchLayout("vertex", 3), GridSpec(3, 5, 1.0), laplacian_stencil(3, 1))
    with pytest.raises(ValueError, match="dim"):
        build_vanka(PatchLayout("vertex", 1), GridSpec(2, 5, 1.0), laplacian_stencil(2, 1))
    with pytest.raises(TypeError, match="Stencil"):
        build_vanka(PatchLayout("vertex", 1), GridSpec(1, 5, 1.0), sp.eye(4, format="csr"))
    with pytest.raises(ValueError, match="unknown patch kind"):
        PatchLayout("face", 2)


def test_periodic_patch_covering_the_grid_is_refused():
    # the vertex patch of the n = 3 periodic line is the whole grid: for the
    # Laplacian its block is the singular periodic operator
    line = GridSpec(1, 3, 0.25, "periodic")
    for st in (laplacian_stencil(1, Fraction(1, 4)), mass_stencil(1, Fraction(1, 4))):
        with pytest.raises(ValueError, match="patch of 3 points.*n=3"):
            build_vanka(PatchLayout("vertex", 1), line, st)
    smallest = GridSpec(1, 4, 0.25, "periodic")
    op = build_vanka(PatchLayout("vertex", 1), smallest, laplacian_stencil(1, Fraction(1, 4)))
    _assert_matches_patch_scatter(op)


def test_apply_validates_length():
    grid = GridSpec(1, 5, 1.0)
    op = build_vanka(PatchLayout("element", 1), grid, laplacian_stencil(1, 1))
    with pytest.raises(ValueError, match="length 5"):
        op.apply(np.zeros(6))


# ---------------------------------------------------------------------------
# assembly and export
# ---------------------------------------------------------------------------

def test_assemble_dense_dirichlet_laplacian():
    grid = GridSpec(1, 3, 1.0)
    dense = assemble_sparse(laplacian_stencil(1, 1), grid).toarray()
    assert np.array_equal(dense, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_assemble_sparse_periodic_row_sums():
    grid = GridSpec(2, 8, 0.125, boundary="periodic")
    mat = assemble_sparse(laplacian_stencil(2, Fraction(1, 8)), grid)
    # every periodic row contains the full stencil, so row sums vanish
    assert np.abs(mat @ np.ones(grid.npoints)).max() <= 1e-12


def _kron_sum(stencil, grid):
    """``sum_o c_o kron_k T(o_k)`` added term by term to a CSR accumulator."""
    n = grid.n
    periodic = grid.boundary == "periodic"

    def shift(o):
        t = sp.eye(n, k=o, format="csr")
        if periodic and o:
            t = t + sp.eye(n, k=o - n if o > 0 else o + n, format="csr")
        return t

    mat = sp.csr_matrix((grid.npoints, grid.npoints))
    for offset, coef in stencil.entries.items():
        if max(abs(o) for o in offset) >= n:
            continue
        term = shift(offset[0])
        for o in offset[1:]:
            term = sp.kron(term, shift(o), format="csr")
        mat = mat + float(coef) * term
    return mat


ASSEMBLY_STENCILS = {
    **{f"laplacian{d}": laplacian_stencil(d, Fraction(1, 8)) for d in (1, 2, 3)},
    **{f"mass{d}": mass_stencil(d, Fraction(1, 8)) for d in (1, 2, 3)},
    **{f"{layout.kind}{layout.dim}": closed_form_stencil(layout, Fraction(1, 8))
       for layout in ALL_LAYOUTS},
    "explicit-zeros": Stencil(2, {(0, 0): 1, (1, 0): 0, (0, -2): Fraction(1, 3),
                                  (2, 1): 0.25, (-1, -1): 0.0}),
    "one-sided-float": Stencil(1, {(0,): 0.5, (2,): -1.25, (1,): 3}),
    "off-grid-offset": Stencil(1, {(0,): 1, (3,): 2, (-1,): -1}),
    "non-symmetric-3d": Stencil(3, {(0, 0, 0): 2, (1, 0, -1): Fraction(-1, 3),
                                    (0, 1, 1): 0.75}),
    "no-stored-entry": Stencil(2, {(0, 0): 0, (3, 0): 0}),
    "galerkin3": galerkin_stencil(laplacian_stencil(3, Fraction(1, 16))),
    "skew1": Stencil(1, {(-1,): 1, (2,): 3}),
    "skew2": Stencil(2, {(-1, 2): 1, (2, 0): 3, (0, -1): 2}),
}


def _assert_equals_the_kronecker_sum(st):
    for boundary in ("dirichlet", "periodic"):
        for n in sorted({3, 2 * st.reach + 1, 5, 8}):
            if boundary == "periodic" and n <= 2 * st.reach:
                continue
            grid = GridSpec(st.dim, n, 1 / (n + 1), boundary)
            dia, want = assemble_sparse(st, grid), _kron_sum(st, grid)
            assert dia.format == "dia" and (np.diff(dia.offsets) > 0).all(), (boundary, n)
            got = dia.tocsr()
            for part in ("data", "indices", "indptr"):
                got_part, want_part = getattr(got, part), getattr(want, part)
                assert got_part.dtype == want_part.dtype, (boundary, n, part)
                assert np.array_equal(got_part, want_part), (boundary, n, part)


@pytest.mark.parametrize("name", sorted(ASSEMBLY_STENCILS))
def test_assemble_sparse_equals_the_kronecker_sum(name):
    # strictly ascending diagonals whose CSR form is the oracle's byte for
    # byte, dtypes included
    _assert_equals_the_kronecker_sum(ASSEMBLY_STENCILS[name])


@pytest.mark.parametrize("slab", [1, 50])
@pytest.mark.parametrize("name", ["laplacian1", "laplacian2", "galerkin3", "skew2",
                                  "off-grid-offset", "vertex2"])
def test_assemble_sparse_slabs_change_no_byte(name, slab):
    # a slab of one vector (1) and of many (50) multiplied by the diagonals
    # gives the oracle's CSR product byte for byte
    st = ASSEMBLY_STENCILS[name]
    rng = np.random.default_rng(slab)
    for boundary in ("dirichlet", "periodic"):
        for n in sorted({3, 2 * st.reach + 1, 5, 8}):
            if boundary == "periodic" and n <= 2 * st.reach:
                continue
            grid = GridSpec(st.dim, n, 1 / (n + 1), boundary)
            x = rng.standard_normal((grid.npoints, slab))
            got = assemble_sparse(st, grid) @ x
            assert got.tobytes() == (_kron_sum(st, grid) @ x).tobytes(), (boundary, n)


def test_assemble_sparse_peak_is_near_the_matrix():
    grid = GridSpec(3, 31, 1 / 32)
    st = mass_stencil(3, Fraction(1, 32))
    tracemalloc.start()
    try:
        mat = assemble_sparse(st, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = mat.data.nbytes + mat.offsets.nbytes
    assert peak < 1.25 * held


def test_assemble_sparse_takes_stencils_only():
    # a Vanka operator's matrix is its ``matrix``; it is not re-assembled
    grid = GridSpec(2, 7, 1 / 8)
    op = build_vanka(PatchLayout("vertex", 2), grid, laplacian_stencil(2, Fraction(1, 8)))
    with pytest.raises(TypeError, match="VankaOperator"):
        assemble_sparse(op, grid)
    with pytest.raises(TypeError, match="dia_matrix"):
        assemble_sparse(op.matrix, grid)


# ---------------------------------------------------------------------------
# residual from the stencil
# ---------------------------------------------------------------------------

def _residual_inputs(rng, size, zeros):
    """Random ``u`` and ``b`` with a share ``zeros`` of each set to ``-0.0``."""
    u, b = rng.standard_normal(size), rng.standard_normal(size)
    u[rng.random(size) < zeros] = -0.0
    b[rng.random(size) < zeros] = -0.0
    return u, b


@pytest.mark.parametrize("slab", [1, 7, 100, 10**6])
@pytest.mark.parametrize("name", sorted(ASSEMBLY_STENCILS))
def test_stencil_residual_equals_the_dia_residual(monkeypatch, name, slab):
    # slabs of one row, of a few rows with a partial last one, of many rows
    # and of the whole grid; several pieces on one diagonal (periodic wraps,
    # reach 2 on n = 3); inputs of both signs and 90 % -0.0, where a term of
    # -0.0 at the start of a sum shows
    monkeypatch.setattr(stencils, "SLAB_ROWS", slab)
    st = ASSEMBLY_STENCILS[name]
    rng = np.random.default_rng(slab)
    for boundary in ("dirichlet", "periodic"):
        for n in sorted({3, 2 * st.reach + 1, 5, 8}):
            if boundary == "periodic" and n <= 2 * st.reach:
                continue
            grid = GridSpec(st.dim, n, 1 / (n + 1), boundary)
            residual = vanka.stencil_residual(st, grid)
            for zeros in (0.0, 0.9):
                u, b = _residual_inputs(rng, grid.npoints, zeros)
                want = b - assemble_sparse(st, grid) @ u
                assert residual(u, b).tobytes() == want.tobytes(), (boundary, n, zeros)


@pytest.mark.parametrize("slab", [100, 4096, 2**16])
@pytest.mark.parametrize("dim, n", [(1, 1023), (2, 127), (3, 31)])
def test_level_stencil_residual_equals_the_dia_residual(monkeypatch, dim, n, slab):
    # the Laplacian with h**-2 factored out, then the Galerkin stencils below it
    monkeypatch.setattr(stencils, "SLAB_ROWS", slab)
    st, grid = laplacian_stencil(dim, Fraction(1, n + 1)), GridSpec(dim, n, 1 / (n + 1))
    assert vanka._power_scale(float(c) for c in st.entries.values()) == (n + 1)**2
    rng = np.random.default_rng(n)
    for _ in range(3):
        residual = vanka.stencil_residual(st, grid)
        for zeros in (0.0, 0.9):
            u, b = _residual_inputs(rng, grid.npoints, zeros)
            want = b - assemble_sparse(st, grid) @ u
            assert residual(u, b).tobytes() == want.tobytes(), (grid.n, zeros)
        st, grid = galerkin_stencil(st), GridSpec(dim, (grid.n - 1) // 2, 2 * grid.h)


def test_power_scale_picks_the_most_shared_power_of_two():
    assert vanka._power_scale([-4.0, -4.0, 24.0, -4.0]) == 4.0
    assert vanka._power_scale([-2048.0, -1024.0, -2048.0, -1024.0, 12288.0]) == 2048.0
    assert vanka._power_scale([-768.0, -640.0, -192.0, 13824.0]) == 1.0
    assert vanka._power_scale([0.5, 0.25, 0.25, 3.0]) == 0.25
    assert vanka._power_scale([]) == 1.0


def test_stencil_residual_adds_nothing_across_a_row_end():
    # the one difference from the DIA product: point (1, 0) reaches the
    # infinite (0, 4) through offset -1 across the end of row 0, where the
    # diagonal stores a 0 and the product adds 0 * inf, NaN
    grid = GridSpec(2, 5, 1 / 6)
    st = laplacian_stencil(2, Fraction(1, 6))
    u, b = np.zeros(grid.npoints), np.zeros(grid.npoints)
    u[4] = np.inf
    want = b - assemble_sparse(st, grid) @ u
    got = vanka.stencil_residual(st, grid)(u, b)
    assert np.isnan(want[5]) and got[5] == 0.0
    assert np.delete(got, 5).tobytes() == np.delete(want, 5).tobytes()
    assert np.isinf(got[[3, 4, 9]]).all()


def test_stencil_residual_holds_one_vector():
    # on the 3D n = 63 grid: the result and one slab of work, against the
    # 14 MB of diagonals the DIA product reads
    grid = GridSpec(3, 63, 1 / 64)
    rng = np.random.default_rng(0)
    u, b = rng.standard_normal(grid.npoints), rng.standard_normal(grid.npoints)
    tracemalloc.start()
    try:
        residual = vanka.stencil_residual(laplacian_stencil(3, Fraction(1, 64)), grid)
        built, _ = tracemalloc.get_traced_memory()
        residual(u, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 2**14
    assert peak < 8 * grid.npoints + 8 * (stencils.SLAB_ROWS + 2 * 63**2) + 2**16


def test_stencil_residual_validates_lengths():
    grid = GridSpec(2, 5, 1 / 6)
    residual = vanka.stencil_residual(laplacian_stencil(2, Fraction(1, 6)), grid)
    with pytest.raises(ValueError, match="length 25"):
        residual(np.zeros(24), np.zeros(25))
    with pytest.raises(ValueError, match="length 25"):
        residual(np.zeros(25), np.zeros((5, 5)))


def test_export_triplets_roundtrip(tmp_path):
    grid = GridSpec(1, 5, 1.0)
    mat = assemble_sparse(laplacian_stencil(1, 1), grid)
    text = export_triplets(mat)
    assert text == export_triplets(mat)  # deterministic
    rows, cols, vals = [], [], []
    for line in text.strip().splitlines():
        i, j, val = line.split()
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(val))
    back = sp.coo_matrix((vals, (rows, cols)), shape=mat.shape)
    assert np.array_equal(back.toarray(), mat.toarray())
    path = tmp_path / "triplets.txt"
    assert export_triplets(mat, path) == path.read_text()


def test_export_triplets_drops_zeros():
    mat = sp.coo_matrix(([1.0, 0.0, -2.0], ([0, 0, 1], [0, 1, 1])), shape=(2, 2))
    lines = export_triplets(mat).strip().splitlines()
    assert lines == ["0 0 1.0", "1 1 -2.0"]
