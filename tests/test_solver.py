"""Grid transfers, Galerkin coarsening, relaxation and measured convergence.

Where the discrete Dirichlet operator is exactly diagonalised by sine modes
(Jacobi relaxation, 1D transfers) the tests compare against closed forms to
rounding.  For Vanka smoothers the patches truncated at the boundary perturb
the spectrum away from the interior-stencil prediction; in 1D that effect
dominates (the element layout pins the two-grid spectral radius at 3/17
regardless of n, versus 1/17 for the interior symbol), while in 2D it stays
within about 0.01 of the predicted factor.  Both behaviours are pinned here.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import vankamg as v
from vankamg import lfa, solver, stencils
from vankamg.lfa import SmootherKind, SmootherSpec, exact_optimum, smoother_symbol
from vankamg.solver import (
    CycleSpec,
    Level,
    SineSolve,
    StagnationError,
    build_hierarchy,
    cycle,
    measured_convergence_factor,
    relax,
    run_convergence,
    transfer_ops,
)
from vankamg.stencils import (GridSpec, PatchLayout, Stencil, closed_form_stencil,
                              laplacian_stencil, mass_stencil, restriction_stencil)
from vankamg.vanka import assemble_sparse, build_vanka


def _smoother(kind, dim, omega=None):
    if omega is None:
        omega = float(exact_optimum(kind, dim)[0])
    return SmootherSpec(SmootherKind(kind), dim, omega)


# every supported smoother and dimension
_SMOOTHERS = [("jacobi", 1), ("jacobi", 2), ("jacobi", 3), ("vanka-e", 1), ("vanka-e", 2),
              ("vanka-v", 1), ("vanka-v", 2), ("mass", 2), ("mass3d", 3)]


def _error_matrix(hier):
    n = hier.fine.grid.npoints
    b = np.zeros(n)
    columns = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        columns[:, j] = cycle(hier, e, b)
    return columns


# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------

def _interpolation(fine):
    """Oracle: linear interpolation ``P = 2**dim R^T`` as a Kronecker power of its 1D matrix."""
    nc = (fine.n - 1) // 2
    j = np.arange(nc)
    # coarse point j sits on fine point 2j+1 and gives 2 r(o) to fine point 2j+1+o
    line = restriction_stencil(1).entries
    rows = np.concatenate([2 * j + 1 + o for (o,) in line])
    vals = np.repeat([2 * float(c) for c in line.values()], nc)
    p1 = sp.csr_matrix((vals, (rows, np.tile(j, len(line)))), shape=(fine.n, nc))
    p = p1
    for _ in range(fine.dim - 1):
        p = sp.kron(p, p1, format="csr")
    return p


def _coarse_points(fine):
    """Flat indices of the fine points under the coarse ones: coarse j on fine 2j + 1 per axis."""
    axis = 2 * np.arange((fine.n - 1) // 2) + 1
    return np.ravel_multi_index(np.meshgrid(*[axis] * fine.dim, indexing="ij"),
                                fine.shape).reshape(-1)


def test_prolongation_columns_1d():
    r = transfer_ops(GridSpec(1, 7, 1 / 8))
    assert r.shape == (3, 7)
    assert np.array_equal(r.toarray()[1], [0, 0, 0.25, 0.5, 0.25, 0, 0])
    # the cycle prolongs with linear interpolation 2**dim R^T
    assert np.array_equal((2 * r.T).toarray()[:, 1], [0, 0, 0.5, 1.0, 0.5, 0, 0])


def test_prolongation_tensor_2d():
    r = transfer_ops(GridSpec(2, 7, 1 / 8))
    assert r.shape == (9, 49)
    row = r.toarray()[4].reshape(7, 7)  # coarse centre (1, 1)
    one_d = np.array([0, 0, 0.25, 0.5, 0.25, 0, 0])
    assert np.array_equal(row, np.outer(one_d, one_d))
    assert np.array_equal((4 * r.T).toarray()[:, 4].reshape(7, 7), 4 * np.outer(one_d, one_d))


@pytest.mark.parametrize("dim, n", [(1, 7), (1, 15), (2, 7), (2, 15), (3, 7)])
def test_prolongation_is_the_scaled_transpose_of_the_restriction_stencil(dim, n):
    # R is restriction_stencil applied on the fine grid and read at the fine
    # points under the coarse ones (coarse j on fine 2j + 1 per axis)
    fine = GridSpec(dim, n, 1 / (n + 1))
    conv = assemble_sparse(restriction_stencil(dim), fine).toarray()
    r = transfer_ops(fine).toarray()
    assert np.array_equal(r, conv[_coarse_points(fine)])
    # the cycle prolongs with 2**dim R^T, the Kronecker interpolation
    assert np.array_equal(2**dim * r.T, _interpolation(fine).toarray())


@pytest.mark.parametrize("dim, n", [(1, 255), (2, 63), (3, 31)])
def test_restriction_is_the_scaled_transpose_of_the_kronecker_interpolation(dim, n):
    # the rows of the assembled stencil under the coarse points: 3**dim
    # sorted entries per row, 32-bit indices
    fine = GridSpec(dim, n, 1 / (n + 1))
    r = transfer_ops(fine)
    want = (_interpolation(fine).T * 2.0 ** -dim).tocsr()
    assert r.has_canonical_format
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(r, part), getattr(want, part)), part
    assert r.indptr.dtype == r.indices.dtype == np.int32
    assert np.array_equal(np.diff(r.indptr), np.full(r.shape[0], 3**dim))


def test_transfer_requires_odd_refinable_n():
    with pytest.raises(ValueError, match="coarsen"):
        transfer_ops(GridSpec(1, 4, 0.2))


def _interpolated(fine, coarse):
    """Oracle of the prolongation: ``2**dim`` times the restriction stencil applied to
    the coarse values injected at the fine points under them, with the axes reversed."""
    injected = np.zeros(fine.shape)
    injected.reshape(-1)[_coarse_points(fine)] = coarse
    # the stencil is the same on every axis, and ``stencils.apply`` sweeps
    # axis 0 first: on the transposed box that is the last axis of ``fine``
    flipped = np.ascontiguousarray(injected.transpose()).reshape(-1)
    swept = stencils.apply(restriction_stencil(fine.dim), fine, flipped).reshape(fine.shape)
    return 2.0**fine.dim * swept.transpose().reshape(-1)


_TRANSFER_GRIDS = [(1, 3), (1, 7), (1, 255), (2, 3), (2, 7), (2, 63), (3, 3), (3, 7), (3, 31)]


@pytest.mark.parametrize("planes", [None, 1, 3])
@pytest.mark.parametrize("dim, n", _TRANSFER_GRIDS)
def test_transfers_equal_the_restriction_stencil_product_bit_for_bit(monkeypatch, dim, n,
                                                                    planes):
    # the oracle applies the restriction stencil on the whole fine grid, in
    # one slab or in slabs of one or three axis-0 planes, whose ends fall on
    # odd and even fine planes alike; restriction reads it at the coarse
    # points, prolongation takes 2**dim times it on the injected correction
    # with the axes reversed
    fine = GridSpec(dim, n, 1 / (n + 1))
    if planes is not None:
        monkeypatch.setattr(stencils, "SLAB_ROWS", planes * n ** (dim - 1))
    weighting, under = restriction_stencil(dim), _coarse_points(fine)
    rng = np.random.default_rng(10 * n + dim)
    r, e = rng.standard_normal(fine.npoints), rng.standard_normal(len(under))
    r0, e0 = r.copy(), e.copy()
    got = solver._restrict(fine, r)
    assert got.shape == (len(under),)
    assert got.tobytes() == stencils.apply(weighting, fine, r)[under].tobytes()
    got = solver._prolong(fine, e)
    assert got.shape == (fine.npoints,)
    assert got.tobytes() == _interpolated(fine, e).tobytes()
    assert np.array_equal(r, r0) and np.array_equal(e, e0)


def _gamma(k):
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u`` the unit roundoff of float64."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def _rounded_products(matrix, x):
    """``matrix @ x`` correctly rounded: every product is exact, each row summed by ``fsum``."""
    matrix = matrix.tocsr()
    terms = matrix.data * x[matrix.indices]
    return np.array([math.fsum(terms[a:b]) for a, b in zip(matrix.indptr, matrix.indptr[1:])])


@pytest.mark.parametrize("dim, n", _TRANSFER_GRIDS)
def test_transfers_equal_the_assembled_restriction(dim, n):
    # every weight of R and of P = 2**dim R^T is a power of two, so every
    # product is exact and the sums alone round: on integer values every
    # partial sum is exact and both sides agree.  On random values the
    # transfers add a point's terms axis by axis and the assembled products
    # row by row; a row of at most 3**dim terms summed in any order lies
    # within gamma_(3**dim - 1) |R| |x| of the exact sum, so both lie within
    # gamma_(3**dim) |R| |x| of the correctly rounded one.  In 1D both add
    # the same terms in the same order.
    fine = GridSpec(dim, n, 1 / (n + 1))
    r_mat = transfer_ops(fine)
    p_mat = 2.0**dim * r_mat.T
    rng = np.random.default_rng(10 * n + dim)
    x = rng.integers(-2**20, 2**20, fine.npoints).astype(float)
    e = rng.integers(-2**20, 2**20, r_mat.shape[0]).astype(float)
    assert np.array_equal(solver._restrict(fine, x), r_mat @ x)
    assert np.array_equal(solver._prolong(fine, e), p_mat @ e)
    x, e = rng.standard_normal(fine.npoints), rng.standard_normal(r_mat.shape[0])
    for transfer, matrix, v in ((solver._restrict, r_mat, x), (solver._prolong, p_mat, e)):
        rounded = _rounded_products(matrix, v)
        bound = _gamma(3**dim) * (abs(matrix) @ abs(v))
        assert np.all(np.abs(transfer(fine, v) - rounded) <= bound)
        assert np.all(np.abs(matrix @ v - rounded) <= bound)
        if dim == 1:
            assert transfer(fine, v).tobytes() == (matrix @ v).tobytes()


# ---------------------------------------------------------------------------
# hierarchies and Galerkin operators
# ---------------------------------------------------------------------------

def test_galerkin_coarse_operator_1d_exact():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(1, 7, 1 / 8))
    assert len(hier.levels) == 2
    coarse = hier.levels[1]
    assert coarse.grid.n == 3 and coarse.grid.h == 1 / 4
    # 1D Galerkin coarsening reproduces the native coarse Laplacian exactly
    native = laplacian_stencil(1, Fraction(1, 4))
    assert stencils.galerkin_stencil(laplacian_stencil(1, Fraction(1, 8))) == native
    assert np.array_equal(coarse.matrix.toarray(),
                          assemble_sparse(native, coarse.grid).toarray())


def test_galerkin_coarse_operator_2d_nine_point():
    spec = CycleSpec(_smoother("vanka-e", 2), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(2, 7, 1 / 8))
    row = hier.levels[1].matrix.toarray()[4].reshape(3, 3)
    # bilinear Galerkin turns the 5-point stencil into the 9-point one,
    # (1/(4H^2)) [[-1,-2,-1],[-2,12,-2],[-1,-2,-1]] with H = 1/4
    want = 4 * np.array([[-1, -2, -1], [-2, 12, -2], [-1, -2, -1]])
    nine_point = Stencil(2, {(i - 1, j - 1): Fraction(int(want[i, j]))
                             for i in range(3) for j in range(3)})
    assert stencils.galerkin_stencil(laplacian_stencil(2, Fraction(1, 8))) == nine_point
    assert np.array_equal(row, want)


def _triple_product_chain(hier):
    """Oracle: every level's operator as ``2**-d P^T A P`` of the oracle one level up."""
    fine = hier.fine.grid
    a = assemble_sparse(laplacian_stencil(fine.dim, fine.h), fine).tocsr()
    chain = [a]
    for level in hier.levels[:-1]:
        p = _interpolation(level.grid)
        a = ((p.T @ a @ p) * 2.0 ** -level.grid.dim).tocsr()
        chain.append(a)
    return chain


@pytest.mark.parametrize("dim, n, kind", [
    (1, 63, "two-grid"), (1, 63, "v-cycle"), (2, 63, "two-grid"), (2, 255, "v-cycle"),
    (3, 15, "two-grid"), (3, 31, "v-cycle")])
def test_coarse_operators_equal_the_triple_product(dim, n, kind):
    # assembled from galerkin_stencil, every coarse matrix is the sparse
    # triple product bit for bit on h = 1/(n+1): same rows, columns, values
    spec = CycleSpec(_smoother("jacobi", dim), 1, 0, kind)
    hier = build_hierarchy(spec, GridSpec(dim, n, 1 / (n + 1)))
    chain = _triple_product_chain(hier)
    assert len(chain) == len(hier.levels) >= 2
    for level, want in zip(hier.levels, chain):
        got = level.matrix.tocsr()
        assert np.array_equal(got.indptr, want.indptr), level.grid.n
        assert np.array_equal(got.indices, want.indices), level.grid.n
        assert np.array_equal(got.data, want.data), level.grid.n


@pytest.mark.parametrize("dim, n, h, kind", [(1, 15, 0.1, "v-cycle"), (3, 31, 0.07, "v-cycle"),
                                             (2, 15, 0.1, "two-grid")])
def test_coarse_operators_near_the_triple_product_off_dyadic_h(dim, n, h, kind):
    # the stencil is summed exactly and rounded once; the triple product
    # rounds at every step (3.4e-15 of the largest entry apart at worst)
    spec = CycleSpec(_smoother("jacobi", dim), 1, 0, kind)
    hier = build_hierarchy(spec, GridSpec(dim, n, h))
    for level, want in zip(hier.levels[1:], _triple_product_chain(hier)[1:]):
        got = level.matrix.tocsr()
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()


def test_v_cycle_build_peak_stays_near_what_it_holds():
    # no level holds its operator or a transfer, so the build holds the 3 KiB
    # sine solve and, as Python objects, the stencils and residual kernels
    # (27-46 KiB); the peak over that is the last term of the sine
    # eigenvalues' contraction, one value per point of the 7**3 grid, and a
    # few KiB of Python objects.  The estimate counts that term and the sine
    # solve and reads 0.97-1.13x the transient.  The smallest level
    # operator, 27 diagonals of 7**3 values, takes 72 KiB: assembled and
    # held it would show in ``held``, assembled and dropped in the transient
    spec = CycleSpec(_smoother("mass3d", 3), 1, 0, "v-cycle")
    grid = GridSpec(3, 31, 1 / 32)
    grids, _ = solver._plan(spec, grid)
    estimate = solver._build_bytes(spec.smoother, grids)
    tracemalloc.start()
    try:
        hier = build_hierarchy(spec, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hier.levels) == 3
    assert held < 64 << 10
    assert 0.8 < estimate / (peak - held) < 1.25


def test_v_cycle_build_peak_at_h64_3d():
    # the mass3d V-cycle workload: 46.4 MiB with a Kronecker-built P, whose
    # COO temporaries set the peak; 41.2 MiB with R written straight into
    # CSR; 31.0 MiB with the levels in diagonal storage; 0.06-0.07 MiB with
    # no level holding its operator; 0.04-0.05 MiB with the coarse sine
    # eigenvalues from one contraction.  The fine operator alone would take
    # 13 MiB
    spec = CycleSpec(_smoother("mass3d", 3), 1, 0, "v-cycle")
    tracemalloc.start()
    try:
        hier = build_hierarchy(spec, GridSpec(3, 63, 1 / 64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hier.levels) == 4
    assert peak <= 1 << 20


def test_v_cycle_level_sizes():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 1, "v-cycle")
    hier = build_hierarchy(spec, GridSpec(1, 63, 1 / 64))
    assert [level.grid.n for level in hier.levels] == [63, 31, 15, 7]
    assert hier.levels[-1].sine is not None
    assert all(level.sine is None for level in hier.levels[:-1])


def _vanka_stencil(kind):
    return lambda dim, h: closed_form_stencil(PatchLayout(kind, dim), h)


# Laplacian and mass in every dimension, the four closed-form Vanka stencils
# (reach 2, so the periodic wrap reaches two points), and non-symmetric
# stencils whose transposed assembly or wrap with the wrong sign would show
_ASSEMBLY_CASES = [
    *[pytest.param(laplacian_stencil, dim, id=f"laplacian-{dim}") for dim in (1, 2, 3)],
    *[pytest.param(mass_stencil, dim, id=f"mass-{dim}") for dim in (1, 2, 3)],
    *[pytest.param(_vanka_stencil(layout), dim, id=f"{kind}-{dim}")
      for kind, layout in (("vanka-e", "element"), ("vanka-v", "vertex")) for dim in (1, 2)],
    pytest.param(lambda dim, h: Stencil(1, {(-1,): 1, (2,): 3}), 1, id="skew-1"),
    pytest.param(lambda dim, h: Stencil(2, {(-1, 2): 1, (2, 0): 3, (0, -1): 2}), 2,
                 id="skew-2"),
]


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("make, dim", _ASSEMBLY_CASES)
def test_assembled_operator_matches_stencil_apply(make, dim, boundary):
    # every level applies its assembled matrix, so on the finest level the
    # assembled stencil must act exactly as the matrix-free stencil does
    grid = GridSpec(dim, 7 if boundary == "dirichlet" else 8, 1 / 8, boundary=boundary)
    st = make(dim, Fraction(1, 8))
    u = np.random.default_rng(dim).standard_normal(grid.npoints)
    want = stencils.apply(st, grid, u)
    got = assemble_sparse(st, grid) @ u
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_assembly_memory_stays_near_the_matrix():
    # the 7-point 3D Laplacian at n = 63 holds 13.4 MiB of diagonals (20.7
    # MiB of CSR arrays); the zeros of its truncated diagonals are not counted
    st, grid = laplacian_stencil(3, 1 / 64), GridSpec(3, 63, 1 / 64)
    tracemalloc.start()
    try:
        matrix = assemble_sparse(st, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.count_nonzero() == 7 * 63**3 - 6 * 63**2
    assert peak < 64 << 20


def test_coarse_factor_is_sparse_and_solves():
    # a dense copy of the 63^2-point coarse operator alone would take 126 MB;
    # the sine solve holds a 63 x 63 matrix and 63^2 eigenvalues
    spec = CycleSpec(_smoother("vanka-e", 2), 1, 0, "two-grid")
    tracemalloc.start()
    try:
        hier = build_hierarchy(spec, GridSpec(2, 127, 1 / 128))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    coarse = hier.levels[-1]
    b = np.random.default_rng(5).standard_normal(coarse.grid.npoints)
    x = coarse.sine.solve(b)
    assert np.linalg.norm(b - coarse.matrix @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("kind", ["two-grid", "v-cycle"])
@pytest.mark.parametrize("smoother, dim", _SMOOTHERS)
def test_coarse_sine_solve_is_exact(smoother, dim, kind):
    # relative residual at rounding level on the coarsest Galerkin operator,
    # and the right-hand side is left alone
    n = {1: 255, 2: 63, 3: 31}[dim]
    hier = build_hierarchy(CycleSpec(_smoother(smoother, dim), 1, 0, kind),
                           GridSpec(dim, n, 1 / (n + 1)))
    coarse = hier.levels[-1]
    b = np.random.default_rng(dim).standard_normal(coarse.grid.npoints)
    b0 = b.copy()
    x = coarse.sine.solve(b)
    assert np.array_equal(b, b0)
    assert x.shape == b.shape
    assert np.linalg.norm(b - coarse.matrix @ x) <= 1e-12 * np.linalg.norm(b)


_ONE_CYCLE = """
import sys
import numpy as np
from vankamg.lfa import SmootherKind, SmootherSpec
from vankamg.solver import CycleSpec, build_hierarchy, cycle
from vankamg.stencils import GridSpec
hier = build_hierarchy(CycleSpec(SmootherSpec(SmootherKind.VANKA_ELEMENT, 2, 0.96), 1, 0,
                                 "v-cycle"), GridSpec(2, 31, 1 / 32))
cycle(hier, np.ones(31**2), np.zeros(31**2))
print(sorted({"scipy.linalg", "scipy.sparse.linalg"} & set(sys.modules)))
"""


def test_a_solver_run_loads_no_scipy_linalg():
    # the coarse solve needs numpy only; scipy.sparse.linalg alone costs
    # about 10 MB of peak RSS
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _ONE_CYCLE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("dim, n", [(1, 31), (2, 15), (3, 15)])
def test_sine_eigenvalues_are_the_coarse_spectrum(dim, n):
    # the LFA symbol on the sine modes is the dense spectrum of the coarsest
    # Galerkin operator: the two engines agree to rounding
    hier = build_hierarchy(CycleSpec(_smoother("jacobi", dim), 1, 0, "two-grid"),
                           GridSpec(dim, n, 1 / (n + 1)))
    coarse = hier.levels[-1]
    dense = np.linalg.eigvalsh(coarse.matrix.toarray())
    sine = np.sort(coarse.sine.eigenvalues.reshape(-1))
    assert np.abs(sine - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("kind", ["two-grid", "v-cycle"])
@pytest.mark.parametrize("smoother, dim", _SMOOTHERS)
def test_sine_eigenvalues_are_the_lfa_harmonic_symbols(smoother, dim, kind):
    # one symbol evaluator for both engines: the coarsest eigenvalues are the
    # analysis' harmonic-0 symbols at theta_j = j pi/(n+1), bit for bit
    n = {1: 31, 2: 15, 3: 15}[dim]
    hier = build_hierarchy(CycleSpec(_smoother(smoother, dim), 1, 0, kind),
                           GridSpec(dim, n, 1 / (n + 1)))
    coarse = hier.levels[-1]
    theta = np.pi / (coarse.grid.n + 1) * np.arange(1, coarse.grid.n + 1)
    want = lfa._harmonic_symbols(coarse.stencil, dim, theta)[0].reshape(coarse.grid.shape)
    assert coarse.sine.eigenvalues.shape == want.shape
    assert coarse.sine.eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("skew", [
    Stencil(1, {(-1,): 1, (0,): 4, (1,): 2}),
    # symmetric through the origin, s[-o] == s[o], but not under one axis reflection
    Stencil(2, {(0, 0): Fraction(1, 4), (1, 1): Fraction(1, 16), (-1, -1): Fraction(1, 16)}),
], ids=["1d", "2d"])
def test_sine_solve_refuses_a_stencil_without_reflection_symmetry(skew):
    # the sine modes diagonalise only stencils symmetric under each axis reflection
    assert not skew.is_reflection_symmetric
    with pytest.raises(ValueError, match="reflection"):
        SineSolve.of(skew, GridSpec(skew.dim, 7, 1 / 8))


def test_oversized_3d_two_grid_refused_before_assembly():
    # h = 1/512: the build is estimated at 0.2 GiB, but the cycles hold
    # 8.9 GiB of vectors of 511**3 values
    spec = CycleSpec(_smoother("mass3d", 3), 1, 0, "two-grid")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB budget"):
            build_hierarchy(spec, GridSpec(3, 511, 1 / 512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _vanka_v_cycle(kind):
    return CycleSpec(_smoother(kind, 2), 1, 0, "v-cycle")


@pytest.mark.parametrize("kind", ["vanka-e", "vanka-v"])
def test_build_estimate_matches_the_measured_peak(kind):
    # within a factor 1.25 either way; at n = 255 it reads 0.99x (element)
    # and 1.00x (vertex) the tracemalloc peak (1.12x and 1.14x in CSR)
    spec, grid = _vanka_v_cycle(kind), GridSpec(2, 255, 1 / 256)
    grids, _ = solver._plan(spec, grid)
    estimate = solver._build_bytes(spec.smoother, grids)
    tracemalloc.start()
    try:
        build_hierarchy(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.8 < estimate / peak < 1.25
    # the smoothers are translated from a template grid, not scattered patch
    # by patch over the whole grid: 12.9 (element) and 15.5 MiB (vertex) in
    # diagonal storage, 19.6 and 23.6 MiB in CSR
    assert peak <= 28 * 2**20


def _two_grid_build_estimate_over_peak(kind, dim, n):
    spec = CycleSpec(_smoother(kind, dim), 1, 0, "two-grid")
    grid = GridSpec(dim, n, 1 / (n + 1))
    grids, _ = solver._plan(spec, grid)
    estimate = solver._build_bytes(spec.smoother, grids)
    tracemalloc.start()
    try:
        build_hierarchy(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return estimate / peak


def test_3d_two_grid_build_estimate_matches_the_measured_peak():
    # the build holds only the coarse sine solve, and its peak is set by the
    # last axis of the eigenvalues' contraction, which adds one term of a
    # value per point into them; the estimate counts the sine matrix, the
    # eigenvalues and that term and reads 0.93x the peak
    assert 0.8 < _two_grid_build_estimate_over_peak("mass3d", 3, 63) < 1.25


def test_1d_two_grid_build_estimate_matches_the_measured_peak():
    # in 1D the sine matrix sets the peak: built in place, it reads 0.94x
    # (0.49x with the two n**2 temporaries of building it out of place)
    assert 0.8 < _two_grid_build_estimate_over_peak("jacobi", 1, 1023) < 1.25


@pytest.mark.parametrize("kind, dim, n", [("jacobi", 1, 63), ("mass", 2, 63), ("mass3d", 3, 31),
                                          ("mass3d", 3, 63)])
def test_build_estimate_counts_every_stored_matrix(kind, dim, n):
    # without a Vanka smoother the estimate is exact: the coarse sine matrix
    # and eigenvalues, and the term of one value per point the last axis of
    # their contraction adds into them; no level holds its operator or a
    # grid transfer
    spec = CycleSpec(_smoother(kind, dim), 1, 0, "v-cycle")
    grid = GridSpec(dim, n, 1 / (n + 1))
    grids, _ = solver._plan(spec, grid)
    hier = build_hierarchy(spec, grid)
    assert hier.levels[-1].kernel is None
    sine = hier.levels[-1].sine
    assert sine.eigenvalues.base is None
    stored = sine.sines.nbytes + sine.eigenvalues.nbytes
    assert solver._build_bytes(spec.smoother, grids) == stored + sine.eigenvalues.nbytes


@pytest.mark.parametrize("kind", ["vanka-e", "vanka-v"])
def test_oversized_vanka_v_cycle_refused_before_assembly(kind):
    # h = 1/4096: the element smoother alone is 9 diagonals of 4095**2
    # values of 8 B, 1.1 GiB; the whole element build is estimated at
    # 1.7 GiB (vertex 2.3 GiB), and its cycles' vectors at 1.1 GiB more
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB budget"):
            build_hierarchy(_vanka_v_cycle(kind), GridSpec(2, 4095, 1 / 4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind, dim, n, cycle_type", [
    ("vanka-e", 2, 1023, "v-cycle"), ("vanka-v", 2, 1023, "v-cycle"),
    ("jacobi", 2, 1023, "v-cycle"), ("mass", 2, 1023, "v-cycle"),
    # h = 1/2048: estimated 432 and 602 MiB with no stored transfers (830
    # and 1001 MiB with them, 1431 and 1750 MiB with CSR levels, where one
    # build read a max RSS of 1335 and 1591 MiB)
    ("vanka-e", 2, 2047, "v-cycle"), ("vanka-v", 2, 2047, "v-cycle"),
    # the benchmark's grids
    ("vanka-e", 2, 255, "v-cycle"), ("vanka-e", 2, 255, "two-grid"), ("mass3d", 3, 63, "v-cycle"),
    # h = 1/256: a 6 KiB build, the coarse sine solve, as no level stores
    # its operator or a transfer, and 1.1 GiB of cycle vectors
    ("mass3d", 3, 255, "v-cycle"),
])
def test_build_budget_admits_2d_v_cycles_to_h1024_and_the_benchmark_grids(kind, dim, n,
                                                                          cycle_type):
    spec = CycleSpec(_smoother(kind, dim), 1, 0, cycle_type)
    grids, level_stencils = solver._plan(spec, GridSpec(dim, n, 1 / (n + 1)))
    assert grids[0].n == n and len(level_stencils) == len(grids)


def test_cycle_vectors_count_toward_the_budget():
    # the 2D Jacobi two-grid at h = 1/8192 builds in 0.4 GiB (the 4095**2
    # coarse sine matrix, eigenvalues and contraction term), as no level
    # holds its operator or a transfer, but its cycles hold 4.5 GiB of vectors
    spec = CycleSpec(_smoother("jacobi", 2), 1, 0, "two-grid")
    grids = [GridSpec(2, 8191, 1 / 8192), GridSpec(2, 4095, 1 / 4096)]
    assert solver._build_bytes(spec.smoother, grids) <= solver.BUILD_BUDGET_BYTES
    with pytest.raises(ValueError, match="0.4 GiB and its cycles 4.5 GiB more, over the 2 GiB"):
        solver._plan(spec, grids[0])


def test_hierarchy_validation():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    with pytest.raises(ValueError, match="2\\*\\*k - 1"):
        build_hierarchy(spec, GridSpec(1, 10, 1 / 11))
    with pytest.raises(ValueError, match="Dirichlet"):
        build_hierarchy(spec, GridSpec(1, 7, 1 / 8, boundary="periodic"))
    with pytest.raises(ValueError, match="dim"):
        build_hierarchy(spec, GridSpec(2, 7, 1 / 8))
    # n=3 cannot host a coarse level of at least 3 points
    with pytest.raises(ValueError):
        build_hierarchy(spec, GridSpec(1, 3, 1 / 4))


def test_cycle_spec_validation():
    sm = _smoother("jacobi", 1)
    with pytest.raises(ValueError, match="nu1 \\+ nu2"):
        CycleSpec(sm, 0, 0)
    with pytest.raises(ValueError, match="cycle"):
        CycleSpec(sm, 1, 0, "w-cycle")
    with pytest.raises(ValueError, match="nonnegative"):
        CycleSpec(sm, 2, -1)
    CycleSpec(sm, np.int64(1), np.int32(0))  # numpy integers are sweep counts too


@pytest.mark.parametrize("nu1, nu2", [(1.0, 0), (0, 0.5), ("1", 0), (1, None)])
def test_cycle_spec_refuses_non_integer_sweeps(nu1, nu2):
    with pytest.raises(TypeError):
        CycleSpec(_smoother("vanka-e", 2), nu1, nu2)


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------

def test_relax_keeps_exact_solution():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(1, 15, 1 / 16))
    rng = np.random.default_rng(2)
    b = rng.standard_normal(15)
    exact = spla.spsolve(hier.fine.matrix.tocsc(), b)
    after = relax(spec.smoother, hier.fine, exact.copy(), b)
    assert np.abs(after - exact).max() < 1e-10


def test_relax_jacobi_damps_extreme_mode():
    n, h = 63, 1 / 64
    spec = CycleSpec(_smoother("jacobi", 1), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(1, n, h))
    x = np.arange(1, n + 1) * h
    mode = np.sin(n * np.pi * x)  # highest Dirichlet eigenvector
    out = relax(spec.smoother, hier.fine, mode.copy(), np.zeros(n))
    factor = 1 - (2 / 3) * (1 - np.cos(n * np.pi * h))
    assert np.abs(out - factor * mode).max() < 1e-10
    assert abs(abs(factor) - 1 / 3) < 2e-3


def test_relax_vanka_scales_periodic_mode_by_symbol():
    # on a periodic grid one relaxation sweep multiplies a Fourier mode by
    # the smoother symbol, tying the assembled operator to the analysis
    n, h = 8, 1 / 8
    grid = GridSpec(2, n, h, boundary="periodic")
    sm = _smoother("vanka-e", 2)
    st = laplacian_stencil(2, Fraction(1, 8))
    level = Level(grid, st,
                  m_apply=build_vanka(PatchLayout("element", 2), grid, st).apply)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for theta in ((np.pi, np.pi), (np.pi / 2, np.pi / 2), (np.pi / 4, -np.pi / 2)):
        mode = np.cos(theta[0] * i + theta[1] * j + 0.3).reshape(-1)
        out = relax(sm, level, mode.copy(), np.zeros(n * n))
        s_val = float(smoother_symbol(sm, theta))
        assert np.abs(out - s_val * mode).max() < 1e-12


def test_relax_smoothing_property_periodic_fft():
    # after one sweep at omega*, every aliased-high DFT coefficient is
    # multiplied by the symbol and bounded by mu*
    n, h = 16, 1 / 16
    grid = GridSpec(2, n, h, boundary="periodic")
    sm = _smoother("vanka-e", 2)
    st = laplacian_stencil(2, Fraction(1, 16))
    level = Level(grid, st,
                  m_apply=build_vanka(PatchLayout("element", 2), grid, st).apply)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(n * n)
    u1 = relax(sm, level, u0.copy(), np.zeros(n * n))
    f0 = np.fft.fft2(u0.reshape(n, n))
    f1 = np.fft.fft2(u1.reshape(n, n))
    axis = 2 * np.pi * np.arange(n) / n
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    s_grid = smoother_symbol(sm, np.stack([t1, t2], axis=-1).reshape(-1, 2)).reshape(n, n)
    assert np.abs(f1 - s_grid * f0).max() < 1e-9 * np.abs(f0).max()
    folded_high = (np.minimum(t1, 2 * np.pi - t1) >= np.pi / 2 - 1e-12) \
        | (np.minimum(t2, 2 * np.pi - t2) >= np.pi / 2 - 1e-12)
    mu_exact = float(exact_optimum("vanka-e", 2)[1])
    assert np.abs(s_grid[folded_high]).max() <= mu_exact + 1e-12


def test_smoother_applicators():
    jac = CycleSpec(_smoother("jacobi", 2), 1, 0, "two-grid")
    hier = build_hierarchy(jac, GridSpec(2, 7, 1 / 8))
    r = np.arange(49, dtype=float)
    assert np.allclose(hier.fine.m_apply(r), (1 / 8) ** 2 / 4 * r, atol=0)
    mass = CycleSpec(_smoother("mass", 2), 1, 0, "two-grid")
    hier_m = build_hierarchy(mass, GridSpec(2, 7, 1 / 8))
    want = stencils.apply(v.mass_stencil(2, 1 / 8), hier_m.fine.grid, r)
    assert np.allclose(hier_m.fine.m_apply(r), want, atol=0)
    # on every smoothed level of a V-cycle, bit for bit the scale h^2/(2d)
    # and the mass stencil at that level's h
    rng = np.random.default_rng(8)
    for kind, dim in (("jacobi", 2), ("mass", 2), ("mass3d", 3)):
        spec = CycleSpec(_smoother(kind, dim), 1, 0, "v-cycle")
        hier = build_hierarchy(spec, GridSpec(dim, 31, 1 / 32))
        assert [level.grid.n for level in hier.levels] == [31, 15, 7]
        for level in hier.levels[:-1]:
            grid = level.grid
            r = rng.standard_normal(grid.npoints)
            if kind == "jacobi":
                want = grid.h**2 / (2 * dim) * r
            else:
                want = stencils.apply(mass_stencil(dim, grid.h), grid, r)
            assert np.array_equal(level.m_apply(r), want), (kind, grid.n)


def _allocating_descend(hier, idx, u, b):
    """Oracle: the cycle with allocating operations, explicit zero starts and whole-grid transfers.

    The residual is restricted by ``stencils.apply`` of the restriction
    stencil on the whole fine grid, read at the points under the coarse ones,
    and the coarse correction prolonged by :func:`_interpolated`.
    """
    level = hier.levels[idx]
    if level.sine is not None:
        return level.sine.solve(b)
    omega = float(hier.spec.smoother.omega)
    grid, matrix = level.grid, level.matrix

    def sweep(u):
        return u + omega * level.m_apply(b - matrix @ u)

    for _ in range(hier.spec.nu1):
        u = sweep(u)
    swept = stencils.apply(restriction_stencil(grid.dim), grid, b - matrix @ u)
    coarse_b = swept[_coarse_points(grid)]
    coarse_u = _allocating_descend(hier, idx + 1, np.zeros_like(coarse_b), coarse_b)
    u = u + _interpolated(grid, coarse_u)
    for _ in range(hier.spec.nu2):
        u = sweep(u)
    return u


@pytest.mark.parametrize("kind", ["two-grid", "v-cycle"])
@pytest.mark.parametrize("smoother, dim", _SMOOTHERS)
def test_cycle_equals_the_allocating_recursion(smoother, dim, kind):
    # zero starts, in-place updates and transfers applied axis by axis at the
    # coarse points only change no bit of the result, and the caller's
    # iterate and right-hand side stay as they were
    grid = GridSpec(dim, 15, 1 / 16)
    rng = np.random.default_rng(dim)
    u0, b0 = rng.standard_normal(grid.npoints), rng.standard_normal(grid.npoints)
    u, b = u0.copy(), b0.copy()
    for nu1, nu2 in ((1, 0), (1, 1), (0, 2), (2, 1)):
        hier = build_hierarchy(CycleSpec(_smoother(smoother, dim), nu1, nu2, kind), grid)
        want = _allocating_descend(hier, 0, u0, b0)
        assert cycle(hier, u, b).tobytes() == want.tobytes(), (nu1, nu2)
        assert np.array_equal(u, u0) and np.array_equal(b, b0)


@pytest.mark.parametrize("slab", [100, 500])
@pytest.mark.parametrize("smoother, dim", [("jacobi", 3), ("vanka-e", 2), ("vanka-v", 2),
                                           ("mass", 2), ("mass3d", 3)])
def test_cycle_by_slabs_equals_the_allocating_recursion(monkeypatch, smoother, dim, slab):
    # the oracle multiplies by every level's assembled matrix; under ``slab``
    # points per slab the larger levels form their residual from the
    # stencil in several slabs
    grid = GridSpec(dim, {2: 31, 3: 15}[dim], {2: 1 / 32, 3: 1 / 16}[dim])
    rng = np.random.default_rng(slab)
    u, b = rng.standard_normal(grid.npoints), rng.standard_normal(grid.npoints)
    for nu1, nu2 in ((1, 0), (1, 1)):
        spec = CycleSpec(_smoother(smoother, dim), nu1, nu2, "v-cycle")
        whole = build_hierarchy(spec, grid)
        want = _allocating_descend(whole, 0, u, b)
        with monkeypatch.context() as patch:
            patch.setattr(stencils, "SLAB_ROWS", slab)
            hier = build_hierarchy(spec, grid)
            assert hier.fine.grid.npoints > slab
            residual = solver._residual(hier.fine, u, b)
            assert residual.tobytes() == (b - whole.fine.matrix @ u).tobytes()
            got = cycle(hier, u, b)
        assert got.tobytes() == want.tobytes(), (nu1, nu2)


def test_mass3d_v_cycle_on_four_slabs_equals_the_allocating_recursion(monkeypatch):
    # h = 1/64: 250047 rows, four slabs of the fine residual and smoother,
    # against one slab of the whole fine grid
    grid = GridSpec(3, 63, 1 / 64)
    spec = CycleSpec(_smoother("mass3d", 3), 1, 0, "v-cycle")
    rng = np.random.default_rng(63)
    u, b = rng.standard_normal(grid.npoints), rng.standard_normal(grid.npoints)
    hier = build_hierarchy(spec, grid)
    assert -(-grid.npoints // stencils.SLAB_ROWS) == 4
    residual = solver._residual(hier.fine, u, b)
    got = cycle(hier, u, b)
    monkeypatch.setattr(stencils, "SLAB_ROWS", grid.npoints)
    whole = build_hierarchy(spec, grid)
    assert residual.tobytes() == solver._residual(whole.fine, u, b).tobytes()
    assert got.tobytes() == _allocating_descend(whole, 0, u, b).tobytes()


def test_a_large_level_assembles_its_matrix_on_access():
    # every level, of more than one slab of points or not, assembles its
    # matrix anew on each access
    grid = GridSpec(2, 511, 1 / 512)
    hier = build_hierarchy(CycleSpec(_smoother("jacobi", 2), 1, 0, "v-cycle"), grid)
    assert hier.fine.grid.npoints > stencils.SLAB_ROWS >= hier.levels[1].grid.npoints
    for level in hier.levels:
        want = assemble_sparse(level.stencil, level.grid)
        for part in ("offsets", "data"):
            assert np.array_equal(getattr(level.matrix, part), getattr(want, part))
        assert level.matrix is not level.matrix


@pytest.mark.parametrize("kind", ["two-grid", "v-cycle"])
@pytest.mark.parametrize("smoother, dim", _SMOOTHERS)
def test_no_build_assembles_a_level_operator(monkeypatch, smoother, dim, kind):
    # every smoothed level forms its residual from its stencil, byte for
    # byte the product with its assembled matrix
    grid = GridSpec(dim, 15, 1 / 16)
    spec = CycleSpec(_smoother(smoother, dim), 1, 0, kind)

    def refuse(*args):
        raise AssertionError("build_hierarchy assembled a level operator")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "assemble_sparse", refuse)
        hier = build_hierarchy(spec, grid)
    rng = np.random.default_rng(dim)
    for level in hier.levels[:-1]:
        u, b = rng.standard_normal(level.grid.npoints), rng.standard_normal(level.grid.npoints)
        want = b - level.matrix @ u
        assert solver._residual(level, u, b).tobytes() == want.tobytes(), level.grid.n


@pytest.mark.parametrize("kind", ["two-grid", "v-cycle"])
@pytest.mark.parametrize("smoother, dim", _SMOOTHERS)
def test_diagonal_products_equal_the_csr_products(smoother, dim, kind):
    # ascending diagonals add each row's terms in CSR column order
    grid = GridSpec(dim, 15, 1 / 16)
    hier = build_hierarchy(CycleSpec(_smoother(smoother, dim), 1, 0, kind), grid)
    rng = np.random.default_rng(dim)
    for level in hier.levels:
        matrices = [level.matrix]
        op = getattr(level.m_apply, "__self__", None)
        if smoother.startswith("vanka") and level.sine is None:
            matrices.append(op.matrix)
        for matrix in matrices:
            assert matrix.format == "dia"
            x = rng.standard_normal(level.grid.npoints)
            assert (matrix @ x).tobytes() == (matrix.tocsr() @ x).tobytes(), level.grid.n


@pytest.mark.parametrize("kind", ["jacobi", "vanka-e", "vanka-v"])
def test_report_lists_what_each_level_holds(kind):
    spec = CycleSpec(_smoother(kind, 2), 1, 0, "v-cycle")
    grid = GridSpec(2, 31, 1 / 32)
    grids, _ = solver._plan(spec, grid)
    hier = build_hierarchy(spec, grid)
    report = hier.report()
    assert [row["n"] for row in report] == [31, 15, 7]
    assert [row["unknowns"] for row in report] == [31**2, 15**2, 7**2]
    # the 5-point Laplacian, then 9-point Galerkin operators
    assert [row["diagonals"] for row in report] == [5, 9, 9]
    _assert_report_is_the_build_estimate(hier, spec, grids, kind)


def _assert_report_is_the_build_estimate(hier, spec, grids, kind):
    report = hier.report()
    # no level holds its operator or a grid transfer
    assert all("operator_bytes" not in row and "transfer_bytes" not in row for row in report)
    # 9 element or 13 vertex diagonals of M, and the weights
    diagonals = {"jacobi": 0, "vanka-e": 9, "vanka-v": 13}[kind]
    assert [row["smoother_bytes"] for row in report] == \
        [(8 * g.npoints + 4) * diagonals + 8 * g.npoints * (diagonals > 0)
         for g in grids[:-1]] + [0]
    # the 7 x 7 sine matrix and the 7**2 eigenvalues
    sine = hier.levels[-1].sine
    assert report[-1]["sine_bytes"] == sine.sines.nbytes + sine.eigenvalues.nbytes == 8 * 98
    assert all("sine_bytes" not in row for row in report[:-1])
    # the build estimate is what the levels hold, and the term of 7**2
    # values the last axis of the eigenvalues' contraction adds into them
    held = sum(row.get(key, 0) for row in report
               for key in ("smoother_bytes", "sine_bytes"))
    assert solver._build_bytes(spec.smoother, grids) == held + 8 * 7**2


@pytest.mark.parametrize("kind, dim, n", [("jacobi", 1, 31), ("vanka-v", 2, 31), ("mass3d", 3, 15)])
def test_report_counts_the_nonzeros_of_each_level(kind, dim, n):
    hier = build_hierarchy(CycleSpec(_smoother(kind, dim), 1, 0, "v-cycle"),
                           GridSpec(dim, n, 1 / (n + 1)))
    report = hier.report()
    assert [row["h"] for row in report] == [2**k / (n + 1) for k in range(len(report))]
    for row, level in zip(report, hier.levels):
        matrix = level.matrix
        assert row["nonzeros"] == matrix.tocsr().count_nonzero()
        assert row["diagonals"] == len(matrix.offsets)
    # in 2D and 3D a diagonal stores zeros in the rows whose neighbour lies
    # off the grid, and the DIA nnz counts them
    fine = hier.levels[0].matrix
    assert (report[0]["nonzeros"] < fine.nnz) == (dim > 1)


def test_report_counts_without_copying_the_diagonals(monkeypatch):
    # the report reads the stencils and assembles nothing: no level holds its
    # diagonals, and assembling the fine level's would take 13.4 MiB
    hier = build_hierarchy(CycleSpec(_smoother("mass3d", 3), 1, 0, "v-cycle"),
                           GridSpec(3, 63, 1 / 64))

    def refuse(*args):
        raise AssertionError("report() assembled a level matrix")

    monkeypatch.setattr(solver, "assemble_sparse", refuse)
    tracemalloc.start()
    try:
        report = hier.report()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row["nonzeros"] for row in report] == [1726515, 753571, 79507, 6859]
    assert peak < 2**20


@pytest.mark.parametrize("cycle_type", ["two-grid", "v-cycle"])
def test_report_names_the_smoother_of_each_level(cycle_type):
    n = 7 if cycle_type == "two-grid" else 31
    hier = build_hierarchy(CycleSpec(_smoother("vanka-v", 2), 1, 0, cycle_type),
                           GridSpec(2, n, 1 / (n + 1)))
    smoothers = [row["smoother"] for row in hier.report()]
    assert smoothers == ["vanka-v"] * (len(hier.levels) - 1) + [None]


def test_complexities_of_a_two_grid_hierarchy():
    hier = build_hierarchy(CycleSpec(_smoother("vanka-e", 2), 1, 0, "two-grid"),
                           GridSpec(2, 7, 1 / 8))
    complexities = hier.complexities()
    assert complexities["grid"] == (49 + 9) / 49
    counts = [level.matrix.tocsr().count_nonzero() for level in hier.levels]
    assert complexities["operator"] == sum(counts) / counts[0]
    assert complexities["operator"] > complexities["grid"]     # 9-point coarse operator


def test_every_sweep_goes_through_relax(monkeypatch):
    # coarse levels start from zero (u = None) inside relax, so a hook on
    # solver.relax still sees every sweep
    starts = []
    real = solver.relax

    def counted(sm, level, u, b):
        starts.append(u is None)
        return real(sm, level, u, b)

    monkeypatch.setattr(solver, "relax", counted)
    hier = build_hierarchy(CycleSpec(_smoother("jacobi", 1), 2, 1, "v-cycle"),
                           GridSpec(1, 63, 1 / 64))
    assert [level.grid.n for level in hier.levels] == [63, 31, 15, 7]
    cycle(hier, np.ones(63), np.zeros(63))
    # levels 63, 31, 15 pre-smooth twice, then post-smooth once on the way up
    assert starts == [False, False, True, False, True, False, False, False, False]


# ---------------------------------------------------------------------------
# two-grid error operators against the frequency analysis
# ---------------------------------------------------------------------------

def test_jacobi_error_operator_matches_analysis_exactly():
    # Jacobi commutes with the sine transform, so the assembled Dirichlet
    # two-grid operator realises the analytic factor to rounding
    spec = CycleSpec(_smoother("jacobi", 1), 1, 1, "two-grid")
    hier = build_hierarchy(spec, GridSpec(1, 31, 1 / 32))
    rho = np.abs(np.linalg.eigvals(_error_matrix(hier))).max()
    predicted = v.two_grid_factor(spec.smoother, 1, 1)
    assert abs(rho - predicted) < 1e-12


def test_vanka_2d_error_operator_near_analysis():
    spec = CycleSpec(_smoother("vanka-e", 2), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(2, 15, 1 / 16))
    rho = np.abs(np.linalg.eigvals(_error_matrix(hier))).max()
    assert abs(rho - 0.28) < 0.02
    assert abs(rho - 0.28673688179216) < 1e-8  # regression pin


def test_vanka_1d_boundary_effect_is_mesh_independent():
    # truncated end patches dominate the 1D element-layout spectrum: the
    # two-grid radius sits at 3/17 on every mesh, above the interior 1/17
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    for n in (31, 63):
        hier = build_hierarchy(spec, GridSpec(1, n, 1 / (n + 1)))
        rho = np.abs(np.linalg.eigvals(_error_matrix(hier))).max()
        assert abs(rho - 3 / 17) < 1e-9


# ---------------------------------------------------------------------------
# measured convergence
# ---------------------------------------------------------------------------

def test_measured_factor_matches_error_matrix_1d():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    measured = measured_convergence_factor(spec, GridSpec(1, 63, 1 / 64))
    assert abs(measured - 3 / 17) < 1e-3


def test_measured_factor_2d_in_band():
    spec = CycleSpec(_smoother("vanka-e", 2), 1, 0, "two-grid")
    measured = measured_convergence_factor(spec, GridSpec(2, 31, 1 / 32))
    assert abs(measured - 0.28) < 0.05
    assert abs(measured - 0.29069710771335977) < 1e-8  # regression pin


def test_measured_factor_seed_stable():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    grid = GridSpec(1, 63, 1 / 64)
    a = measured_convergence_factor(spec, grid, seed=0)
    b = measured_convergence_factor(spec, grid, seed=1)
    assert abs(a - b) < 1e-3


def test_v_cycle_converges_and_solves():
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 1, "v-cycle")
    hier = build_hierarchy(spec, GridSpec(1, 63, 1 / 64))
    run = run_convergence(hier)
    assert run.factor < 0.2
    assert len(run.ratios) == 50
    # solve a problem with known discrete solution
    rng = np.random.default_rng(9)
    truth = rng.standard_normal(63)
    b = hier.fine.matrix @ truth
    u = np.zeros(63)
    for _ in range(10):
        u = cycle(hier, u, b)
    assert np.linalg.norm(u - truth) < 1e-7 * np.linalg.norm(truth)


def test_run_convergence_ratio_history():
    spec = CycleSpec(_smoother("vanka-e", 2), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(2, 15, 1 / 16))
    run = run_convergence(hier, cycles=20, tail=5)
    tail = np.array(run.ratios[-5:])
    assert abs(run.factor - np.exp(np.mean(np.log(tail)))) < 1e-14
    with pytest.raises(ValueError, match="at least 2"):
        run_convergence(hier, cycles=1)
    # a tail of 0 would average every ratio, a negative one drop the first ones
    for tail in (0, -2):
        with pytest.raises(ValueError, match="tail >= 1"):
            run_convergence(hier, cycles=20, tail=tail)


# ---------------------------------------------------------------------------
# stagnation guards
# ---------------------------------------------------------------------------

def test_asymptotic_factor_values():
    # a tail longer than the run averages every ratio; ratios at rounding
    # level never reach it (``test_run_convergence_detects_stagnation``)
    assert solver._asymptotic_factor((0.5, 0.125), 2) == pytest.approx(0.25, rel=1e-15)
    assert solver._asymptotic_factor((0.5, 0.125), 5) == pytest.approx(0.25, rel=1e-15)
    assert solver._asymptotic_factor((0.9, 0.5, 0.125), 2) == pytest.approx(0.25, rel=1e-15)


def test_run_convergence_detects_stagnation(monkeypatch):
    spec = CycleSpec(_smoother("vanka-e", 1), 1, 0, "two-grid")
    hier = build_hierarchy(spec, GridSpec(1, 7, 1 / 8))
    monkeypatch.setattr(solver, "cycle", lambda h, u, b: u * 1e-20)
    with pytest.raises(StagnationError, match="stagnated"):
        run_convergence(hier, cycles=5)
