"""Fourier symbols, smoothing factors, optimal damping and two-grid analysis.

Closed-form values used as oracles (all derivable by hand from the product
symbol T = M~ A~ on the high-frequency set):

* Jacobi:        T in [1, 2] (1D), [1/2, 2] (2D), [1/3, 2] (3D)
* Vanka element: T in [4/3, 3/2] (1D), [3/4, 4/3] (2D)
* Vanka vertex:  T in [100/81, 4/3] (1D), [7/10, 8/5] (2D)
* mass (FE):     T in [8/9, 16/9] (2D)
* mass (3D):     T in [4/9, 1372/729]

with omega* = 2/(t_min + t_max) and mu* = (t_max - t_min)/(t_min + t_max).
For every pair at least one binding extremum lies on the 64-point frequency
grid, so the sampled smoothing factor at omega* reproduces mu* to rounding.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import vankamg as v
from vankamg import lfa
from vankamg.lfa import (
    FrequencyGrid,
    SmootherKind,
    SmootherSpec,
    exact_optimum,
    optimal_omega,
    smoother_symbol,
    smoothing_factor,
    spectral_radius,
    transfer_symbols,
    two_grid_factor,
    two_grid_symbol,
)
from vankamg.stencils import (PatchLayout, Stencil, closed_form_stencil, delta_stencil,
                              laplacian_stencil, mass_stencil, restriction_stencil)

ALL_PAIRS = [
    ("jacobi", 1), ("jacobi", 2), ("jacobi", 3),
    ("vanka-e", 1), ("vanka-e", 2),
    ("vanka-v", 1), ("vanka-v", 2),
    ("mass", 2), ("mass3d", 3),
]

EXACT_OPTIMA = {
    ("jacobi", 1): (Fraction(2, 3), Fraction(1, 3)),
    ("jacobi", 2): (Fraction(4, 5), Fraction(3, 5)),
    ("jacobi", 3): (Fraction(6, 7), Fraction(5, 7)),
    ("vanka-e", 1): (Fraction(12, 17), Fraction(1, 17)),
    ("vanka-e", 2): (Fraction(24, 25), Fraction(7, 25)),
    ("vanka-v", 1): (Fraction(81, 104), Fraction(1, 26)),
    ("vanka-v", 2): (Fraction(20, 23), Fraction(9, 23)),
    ("mass", 2): (Fraction(3, 4), Fraction(1, 3)),
    ("mass3d", 3): (Fraction(729, 848), Fraction(131, 212)),
}


def _spec(kind, dim, omega=None):
    if omega is None:
        omega = float(exact_optimum(kind, dim)[0])
    return SmootherSpec(SmootherKind(kind), dim, omega)


# ---------------------------------------------------------------------------
# frequency grid
# ---------------------------------------------------------------------------

def test_frequency_grid_layout():
    fg = FrequencyGrid(1, 8)
    want = -np.pi / 2 + 2 * np.pi * np.arange(8) / 8
    assert np.allclose(fg.theta_1d, want, atol=0)
    assert np.allclose(fg.low_1d, want[:4], atol=0)
    assert fg.high_points().shape == (4, 1)
    assert fg.low_points().shape == (3, 1)  # origin dropped
    assert fg.low_points(skip_origin=False).shape == (4, 1)

    fg2 = FrequencyGrid(2, 8)
    assert fg2.points().shape == (64, 2)
    assert fg2.high_points().shape == (48, 2)  # 64 - 16 low corners
    assert fg2.low_points().shape == (15, 2)


def test_frequency_grid_contains_key_points():
    th = FrequencyGrid(1, 64).theta_1d
    for point in (0.0, np.pi / 2, np.pi, -np.pi / 2):
        assert np.abs(th - point).min() < 1e-14


def test_frequency_grid_validation():
    with pytest.raises(ValueError, match="dim"):
        FrequencyGrid(4)
    with pytest.raises(ValueError, match="even"):
        FrequencyGrid(1, 7)
    with pytest.raises(ValueError, match="at least 4"):
        FrequencyGrid(1, 2)


def test_frequency_grid_memory_guard_refuses_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            FrequencyGrid(3, 4096)
        with pytest.raises(ValueError, match="budget"):
            FrequencyGrid(3, 258)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 3D at 256 samples sits exactly at the budget and is accepted
    assert FrequencyGrid(3, 256).nbytes_estimate == lfa.MEMORY_BUDGET_BYTES
    with pytest.raises(ValueError, match="budget"):
        FrequencyGrid(2, 8192)


# ---------------------------------------------------------------------------
# circulant oracle: symbol samples are the eigenvalues on periodic grids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stencil,dim", [
    (laplacian_stencil(1, 1), 1),
    (laplacian_stencil(2, 1), 2),
    (mass_stencil(1, 1), 1),
    (mass_stencil(2, 1), 2),
    (closed_form_stencil(PatchLayout("element", 1), 1), 1),
    (closed_form_stencil(PatchLayout("vertex", 1), 1), 1),
    (closed_form_stencil(PatchLayout("element", 2), 1), 2),
    (closed_form_stencil(PatchLayout("vertex", 2), 1), 2),
], ids=["lap1", "lap2", "mass1", "mass2", "ve1", "vv1", "ve2", "vv2"])
def test_symbol_matches_circulant_eigenvalues(stencil, dim):
    n = 16
    grid = v.GridSpec(dim, n, 1.0, boundary="periodic")
    dense = v.assemble_dense(stencil, grid)
    eigs = np.sort(np.linalg.eigvalsh(dense))
    axis = 2 * np.pi * np.arange(n) / n
    mesh = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)
    sampled = np.sort(v.symbol(stencil, mesh.reshape(-1, dim)).real)
    assert np.abs(eigs - sampled).max() <= 1e-10


# ---------------------------------------------------------------------------
# smoother symbols and smoothing factors
# ---------------------------------------------------------------------------

def test_smoother_symbol_frozen_values():
    # element 1D at omega* = 12/17: T(pi) = 4/3 and T(2pi/3) = 3/2
    ve = _spec("vanka-e", 1)
    assert abs(smoother_symbol(ve, (np.pi,)) - 1 / 17) < 1e-13
    assert abs(smoother_symbol(ve, (2 * np.pi / 3,)) + 1 / 17) < 1e-13
    # vertex 1D at omega* = 81/104: T(pi) = 4/3
    vv = _spec("vanka-v", 1)
    assert abs(smoother_symbol(vv, (np.pi,)) + 1 / 26) < 1e-13
    # Jacobi 1D at omega = 2/3
    ja = _spec("jacobi", 1)
    assert abs(smoother_symbol(ja, (np.pi,)) + 1 / 3) < 1e-13
    assert abs(smoother_symbol(ja, (np.pi / 2,)) - 1 / 3) < 1e-13
    # mass 2D at omega* = 3/4: T(pi,pi) = 8/9, T(pi/2,pi/2) = 16/9
    ma = _spec("mass", 2)
    assert abs(smoother_symbol(ma, (np.pi, np.pi)) - 1 / 3) < 1e-13
    assert abs(smoother_symbol(ma, (np.pi / 2, np.pi / 2)) + 1 / 3) < 1e-13


def test_smoother_symbol_batch_shape():
    spec = _spec("vanka-e", 2)
    pts = FrequencyGrid(2, 8).points()
    vals = smoother_symbol(spec, pts)
    assert vals.shape == (64,)
    single = smoother_symbol(spec, pts[5])
    assert np.isscalar(single) or single.shape == ()
    assert abs(vals[5] - single) < 1e-15


@pytest.mark.parametrize("kind,dim", ALL_PAIRS, ids=lambda p: str(p))
def test_smoothing_factor_equals_exact_at_optimum(kind, dim):
    omega_exact, mu_exact = exact_optimum(kind, dim)
    assert (omega_exact, mu_exact) == EXACT_OPTIMA[(kind, dim)]
    mu = smoothing_factor(_spec(kind, dim))
    assert abs(mu - float(mu_exact)) < 1e-12


@pytest.mark.parametrize("kind,dim", ALL_PAIRS, ids=lambda p: str(p))
def test_optimal_omega_dual_route(kind, dim):
    opt = optimal_omega(SmootherKind(kind), dim)
    omega_exact, mu_exact = EXACT_OPTIMA[(kind, dim)]
    assert opt.omega_exact == omega_exact
    assert opt.mu_exact == mu_exact
    assert abs(opt.omega - float(omega_exact)) <= 5e-3
    assert abs(opt.mu - float(mu_exact)) <= 5e-3
    # the sampled range is squeezed between the exact endpoints
    t_min, t_max = lfa.PRODUCT_RANGE[(SmootherKind(kind), dim)]
    assert float(t_min) - 1e-12 <= opt.t_min <= opt.t_max <= float(t_max) + 1e-12


def test_optimal_omega_is_local_minimum():
    for kind, dim in (("vanka-v", 1), ("mass", 2)):
        opt = optimal_omega(SmootherKind(kind), dim)
        mu_star = smoothing_factor(_spec(kind, dim, opt.omega))
        for delta in (-0.05, 0.05):
            assert mu_star <= smoothing_factor(_spec(kind, dim, opt.omega + delta)) + 1e-15


def test_optimal_omega_rejects_nonpositive_symbol(monkeypatch):
    monkeypatch.setattr(lfa, "smoother_m_stencil",
                        lambda kind, dim, h=1: delta_stencil(dim).scaled(-1))
    with pytest.raises(ValueError, match="not positive"):
        optimal_omega(SmootherKind.JACOBI, 1)


def test_unsupported_pairs_rejected():
    assert len(lfa.SUPPORTED_PAIRS) == 9
    with pytest.raises(ValueError, match="unsupported"):
        lfa.smoother_m_stencil(SmootherKind.MASS_FE, 1)
    with pytest.raises(ValueError, match="unsupported"):
        SmootherSpec(SmootherKind.VANKA_ELEMENT, 3, 1.0)
    with pytest.raises(ValueError, match="unsupported"):
        optimal_omega(SmootherKind.MASS_3D, 2)
    with pytest.raises(ValueError, match="damping"):
        SmootherSpec(SmootherKind.JACOBI, 1, 0.0)


def test_smoothing_factor_grid_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        smoothing_factor(_spec("jacobi", 2), FrequencyGrid(1))


# ---------------------------------------------------------------------------
# transfer symbols against explicit interpolation matrices
# ---------------------------------------------------------------------------

def test_transfer_symbol_values():
    p = transfer_symbols(1, (0.0,))
    assert np.allclose(p, [1.0, 0.0], atol=1e-15)
    p = transfer_symbols(1, (np.pi / 4,))
    assert abs(p[0] - (1 + np.sqrt(2) / 2) / 2) < 1e-14
    assert abs(p[1] - (1 - np.sqrt(2) / 2) / 2) < 1e-14
    p2 = transfer_symbols(2, (0.3, -0.7))
    want = [np.cos(0.3 / 2) ** 2 * np.cos(-0.7 / 2) ** 2,
            np.cos(0.3 / 2) ** 2 * np.sin(-0.7 / 2) ** 2,
            np.sin(0.3 / 2) ** 2 * np.cos(-0.7 / 2) ** 2,
            np.sin(0.3 / 2) ** 2 * np.sin(-0.7 / 2) ** 2]
    assert np.allclose(p2, want, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transfer_symbols_are_the_restriction_symbol(dim):
    # the analysis' transfer is the stencil the solver builds P from, with the
    # closed-form symbol prod_k (1 + cos theta_k)/2
    shifts = np.pi * lfa._kappas(dim)
    for theta in np.random.default_rng(7).uniform(-np.pi / 2, np.pi / 2, (20, dim)):
        p = transfer_symbols(dim, theta)
        assert np.array_equal(p, v.symbol(restriction_stencil(dim), theta + shifts).real)
        assert np.allclose(p, np.prod((1 + np.cos(theta + shifts)) / 2, axis=1),
                           rtol=0, atol=1e-15)


def test_transfer_symbol_domain():
    transfer_symbols(1, (-np.pi / 2,))  # left edge included
    with pytest.raises(ValueError, match="theta"):
        transfer_symbols(1, (np.pi / 2,))
    with pytest.raises(ValueError, match="theta"):
        transfer_symbols(2, (0.1, 2.0))


def _periodic_interpolation(nc):
    """Fine-from-coarse interpolation on a periodic lattice, coarse j at fine 2j."""
    nf = 2 * nc
    p = np.zeros((nf, nc))
    for j in range(nc):
        p[2 * j, j] = 1.0
        p[(2 * j - 1) % nf, j] += 0.5
        p[(2 * j + 1) % nf, j] += 0.5
    return p


def test_transfer_symbols_match_periodic_matrices():
    nc, nf = 8, 16
    p_mat = _periodic_interpolation(nc)
    r_mat = 0.5 * p_mat.T
    fine = np.arange(nf)
    coarse = np.arange(nc)
    for k in (1, 2, 3):
        theta = np.pi * k / nc
        p_sym = transfer_symbols(1, (theta,))
        vc = np.exp(1j * 2 * theta * coarse)
        v_low = np.exp(1j * theta * fine)
        v_high = np.exp(1j * (theta + np.pi) * fine)
        # prolongation of a coarse mode splits over the two harmonics
        assert np.allclose(p_mat @ vc, p_sym[0] * v_low + p_sym[1] * v_high, atol=1e-12)
        # restriction collapses each harmonic onto the coarse mode with the
        # same per-harmonic symbol
        assert np.allclose(r_mat @ v_low, p_sym[0] * vc, atol=1e-12)
        assert np.allclose(r_mat @ v_high, p_sym[1] * vc, atol=1e-12)


def test_galerkin_coarse_symbol_identity():
    nc, nf = 8, 16
    p_mat = _periodic_interpolation(nc)
    r_mat = 0.5 * p_mat.T
    a_fine = v.assemble_dense(laplacian_stencil(1, 1),
                              v.GridSpec(1, nf, 1.0, boundary="periodic"))
    a_coarse = r_mat @ a_fine @ p_mat
    a_st = laplacian_stencil(1, 1)
    for k in (1, 2, 3):
        theta = np.pi * k / nc
        p_sym = transfer_symbols(1, (theta,))
        want = sum(p_sym[j] * v.symbol(a_st, (theta + j * np.pi,)).real * p_sym[j]
                   for j in range(2))
        vc = np.exp(1j * 2 * theta * np.arange(nc))
        assert np.allclose(a_coarse @ vc, want * vc, atol=1e-12)


@pytest.mark.parametrize("dim, samples", [(1, 64), (2, 64), (3, 16)])
def test_galerkin_stencil_symbol_is_the_coarse_symbol(dim, samples):
    # the solver's coarse stencil has the analysis' coarse symbol: at 2 theta
    # it is sum_k p_k^2 A~(theta_k); both sides cancel as theta -> 0, where
    # they drift apart by 3.3e-14 relative at worst
    a = laplacian_stencil(dim, Fraction(1, 10))
    coarse = v.galerkin_stencil(a)
    bases = FrequencyGrid(dim, samples).low_points()
    shifts = np.pi * lfa._kappas(dim)
    want = np.array([np.sum(transfer_symbols(dim, theta) ** 2 * v.symbol(a, theta + shifts).real)
                     for theta in bases])
    got = v.symbol(coarse, 2 * bases).real
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


# ---------------------------------------------------------------------------
# two-grid symbols and convergence factors
# ---------------------------------------------------------------------------

def test_two_grid_symbol_against_scalar_assembly():
    spec = _spec("vanka-e", 2)
    theta = np.array([0.3, -0.7])
    nu1, nu2 = 2, 1
    tg = two_grid_symbol(spec, theta, nu1, nu2)
    kappas = [(0, 0), (0, 1), (1, 0), (1, 1)]
    harmonics = [theta + np.pi * np.array(k) for k in kappas]
    assert np.allclose(tg.harmonics, harmonics, atol=1e-14)
    a = [v.symbol(spec.a_stencil(), t).real for t in harmonics]
    m = [v.symbol(spec.m_stencil(), t).real for t in harmonics]
    s = [1 - spec.omega * mm * aa for mm, aa in zip(m, a)]
    p = [np.prod(np.cos(np.asarray(t) / 2) ** 2) for t in harmonics]
    a_h = sum(pk * pk * ak for pk, ak in zip(p, a))
    want = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            cgc = (1.0 if i == j else 0.0) - p[i] * p[j] * a[j] / a_h
            want[i, j] = s[i] ** nu2 * cgc * s[j] ** nu1
    assert np.allclose(tg.matrix, want, atol=1e-13)


def test_two_grid_symbol_origin_rejected():
    with pytest.raises(ValueError, match="singular"):
        two_grid_symbol(_spec("vanka-e", 2), (0.0, 0.0), 1, 0)


def test_two_grid_block_idempotent_without_smoothing():
    # nu1 = nu2 = 0 leaves the bare coarse-grid correction, a projection
    for spec, theta in ((_spec("vanka-e", 2), (0.3, -0.7)),
                        (_spec("jacobi", 1), (0.9,))):
        e = two_grid_symbol(spec, theta, 0, 0).matrix
        assert np.abs(e @ e - e).max() < 1e-12


def test_two_grid_harmonic_shift_similarity():
    spec = _spec("vanka-v", 2)
    base = np.array([np.pi / 8, -np.pi / 4])
    eig = np.sort_complex(np.linalg.eigvals(two_grid_symbol(spec, base, 1, 1).matrix))
    shifted = np.sort_complex(np.linalg.eigvals(
        two_grid_symbol(spec, base + np.array([np.pi, 0.0]), 1, 1).matrix))
    assert np.abs(eig - shifted).max() < 1e-10


def test_two_grid_factor_frozen_values():
    # single-sweep factors coincide with mu* except for the 1D vertex layout
    assert abs(two_grid_factor(_spec("vanka-e", 1), 1, 0) - 1 / 17) < 1e-12
    assert abs(two_grid_factor(_spec("vanka-e", 2), 1, 0) - 7 / 25) < 1e-12
    assert abs(two_grid_factor(_spec("vanka-v", 2), 1, 0) - 9 / 23) < 1e-12
    assert abs(two_grid_factor(_spec("mass", 2), 1, 0) - 1 / 3) < 1e-12
    assert abs(two_grid_factor(_spec("mass", 2), 1, 1) - 1 / 9) < 1e-12
    assert abs(two_grid_factor(_spec("vanka-v", 1), 1, 0) - 0.0913461538461538) < 1e-10


def test_vertex_1d_two_grid_exceeds_smoothing_factor():
    # coarse-grid interplay makes the single-sweep two-grid factor exceed mu
    spec = _spec("vanka-v", 1)
    assert two_grid_factor(spec, 1, 0) > smoothing_factor(spec) + 0.04


def test_two_grid_factor_grid_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        two_grid_factor(_spec("jacobi", 2), 1, 0, FrequencyGrid(3))
    with pytest.raises(ValueError, match="nonnegative"):
        two_grid_factor(_spec("jacobi", 2), -1, 0)


# ---------------------------------------------------------------------------
# rank-one route of two_grid_factor against the dense eigvals oracle
# ---------------------------------------------------------------------------

NU_SPLITS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]


def _oracle_factor(spec, nu1, nu2, grid):
    e, _, _ = lfa._two_grid_stack(spec, grid.low_points(), nu1, nu2)
    return float(np.abs(np.linalg.eigvals(e)).max())


@pytest.mark.parametrize("kind,dim", ALL_PAIRS, ids=lambda p: str(p))
def test_two_grid_factor_matches_eigvals_oracle(kind, dim):
    optimum = float(exact_optimum(kind, dim)[0])
    for samples in (16, 32 if dim == 3 else 64):
        grid = FrequencyGrid(dim, samples)
        for omega in (optimum, 0.6, 1.4):
            spec = _spec(kind, dim, omega)
            for nu1, nu2 in NU_SPLITS:
                got = two_grid_factor(spec, nu1, nu2, grid)
                want = _oracle_factor(spec, nu1, nu2, grid)
                assert abs(got - want) < 1e-12, (samples, omega, nu1, nu2, got, want)


def _rank_one_at(spec, base, nu, exact_zeros):
    """The rank-one route at one base, symbols evaluated pointwise."""
    harmonics = np.asarray(base, dtype=float) + np.pi * lfa._kappas(spec.dim)
    a, m, p = (v.symbol(st, harmonics).real[:, None] for st in
               (spec.a_stencil(), spec.m_stencil(), restriction_stencil(spec.dim)))
    if exact_zeros:     # a harmonic with a component at pi has p = 0 exactly
        p = np.where(np.abs(p) < 1e-12, 0.0, p)
    return lfa._rank_one_radius(spec.omega, nu, a, m, lfa._secular_weights(a, p))


DEFLATION_BASES = [
    ("vanka-e", (0.0, np.pi / 8)),            # zero component: w_k = 0
    ("vanka-v", (0.0, -3 * np.pi / 8)),
    ("mass", (np.pi / 4, 0.0)),
    ("vanka-e", (np.pi / 8, np.pi / 8)),      # repeated sigma
    ("vanka-v", (-np.pi / 4, -np.pi / 4)),
    ("mass", (3 * np.pi / 8, 3 * np.pi / 8)),
    ("vanka-e", (-np.pi / 2, np.pi / 8)),     # edge of the low region
    ("vanka-v", (-np.pi / 2, -np.pi / 2)),
    ("mass", (-np.pi / 2, 0.0)),
    ("jacobi", (0.0, 0.0, np.pi / 4)),        # 3D: two zero components
    ("mass3d", (np.pi / 8, np.pi / 8, np.pi / 8)),
    ("mass3d", (-np.pi / 2, 0.0, np.pi / 4)),
    ("vanka-e", (-np.pi / 2,)),
    ("vanka-v", (np.pi / 8,)),
]


@pytest.mark.parametrize("kind,base", DEFLATION_BASES, ids=lambda x: str(x))
@pytest.mark.parametrize("exact_zeros", [False, True])
def test_rank_one_radius_single_base_deflation(kind, base, exact_zeros):
    dim = len(base)
    for omega in (float(exact_optimum(kind, dim)[0]), 0.6, 1.4):
        spec = _spec(kind, dim, omega)
        for nu1, nu2 in NU_SPLITS:
            want = two_grid_symbol(spec, base, nu1, nu2).spectral_radius
            got = _rank_one_at(spec, base, nu1 + nu2, exact_zeros)
            assert abs(got - want) < 1e-12, (omega, nu1, nu2, got, want)


@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_secular_root_at_a_nearly_deflated_pole_ends_in_few_steps(monkeypatch, pole):
    # a weight of 1e-100 puts the root within rounding of its pole: the model
    # step lands on the pole and stops there instead of bisecting ~50 times
    monkeypatch.setattr(lfa, "_SECULAR_STEPS", 6)
    sigma = pole * np.array([[-1.0, -0.5, 0.25, 1.0]])
    w2 = np.array([[0.3, 0.3, 0.4, 1e-100]])
    lo, hi = sorted([0.25 * pole, pole])
    assert lfa._secular_roots(sigma, w2, np.array([lo]), np.array([hi]))[0] == pole


def _every_bracket_factor(spec, nu, grid):
    """Largest |root| over both end brackets of every base: no bound, no pruning."""
    a, m, p = (grid._low_symbols(st) for st in
               (spec.a_stencil(), spec.m_stencil(), restriction_stencil(spec.dim)))
    sigma = ((1.0 - spec.omega * m * a) ** nu).T
    w2 = (p * p * a / (p * p * a).sum(axis=0)).T
    ordered = np.sort(sigma, axis=1)
    k, n = ordered.shape[1], ordered.shape[0]
    lo = np.concatenate([ordered[:, 0], ordered[:, k - 2]])
    hi = np.concatenate([ordered[:, 1], ordered[:, k - 1]])
    rows = np.tile(np.arange(n), 2)
    return float(np.abs(lfa._secular_roots(sigma[rows], w2[rows], lo, hi)).max())


# an omega sweep on (0, 1.5]; with even nu every sigma is >= 0, so the lower
# bound often comes from an end of the bracket that holds the maximum
SWEEP_OMEGAS = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.1, 1.25, 1.4, 1.5]


@pytest.mark.parametrize("kind,dim", ALL_PAIRS, ids=lambda p: str(p))
def test_pruned_two_grid_factor_equals_every_bracket_solved(kind, dim):
    optimum = float(exact_optimum(kind, dim)[0])
    for samples in (16, 64):
        grid = FrequencyGrid(dim, samples)
        # a 3D solve of every bracket at 64 samples takes about 0.1 s
        sweep = SWEEP_OMEGAS[::3] if dim == 3 and samples == 64 else SWEEP_OMEGAS
        for omega in [optimum, *sweep]:
            spec = _spec(kind, dim, omega)
            for nu in range(1, 6):
                got = two_grid_factor(spec, (nu + 1) // 2, nu // 2, grid)
                want = _every_bracket_factor(spec, nu, grid)
                assert abs(got - want) <= 1e-13 * max(1.0, want), (samples, omega, nu, got, want)
        if dim == 3 and samples == 64:
            continue        # 0.7 s per dense call; 32 samples are in the test above
        for omega in (optimum, 0.35, 1.5):
            spec = _spec(kind, dim, omega)
            for nu in (1, 2):
                got = two_grid_factor(spec, nu, 0, grid)
                assert abs(got - _oracle_factor(spec, nu, 0, grid)) < 1e-12, (samples, omega, nu)


@pytest.mark.parametrize("kind,dim", [("jacobi", 2), ("mass", 2), ("mass3d", 3)],
                         ids=lambda p: str(p))
def test_prune_alone_keeps_every_bracket_that_sets_the_maximum(monkeypatch, kind, dim):
    # one bracket in the first round leaves nearly every decision to the prune
    monkeypatch.setattr(lfa, "_FIRST_ROUND", 1)
    grid = FrequencyGrid(dim, 16)
    for omega in SWEEP_OMEGAS:
        spec = _spec(kind, dim, omega)
        for nu in range(1, 6):
            got = two_grid_factor(spec, (nu + 1) // 2, nu // 2, grid)
            want = _every_bracket_factor(spec, nu, grid)
            assert abs(got - want) <= 1e-13 * max(1.0, want), (omega, nu, got, want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bracket_with_the_bound_at_an_end_is_solved(sign):
    # the bound 0.5 is the near end of the bracket holding the maximum, where
    # f has a pole: the bracket must be kept, not judged by f there
    m = 1.0 - sign * np.array([[0.1], [0.2], [0.5], [0.9]])
    w2 = np.full((4, 1), 0.25)
    sigma = 1.0 - m[:, 0]
    proj = np.eye(4) - np.outer(np.sqrt(w2[:, 0]), np.sqrt(w2[:, 0]))
    want = np.abs(np.linalg.eigvalsh(proj @ np.diag(sigma) @ proj)).max()
    assert want > 0.5 + 1e-3
    assert abs(lfa._rank_one_radius(1.0, 1, np.ones((4, 1)), m, w2) - want) < 1e-14


def test_one_dimensional_factor_is_the_closed_form():
    # K = 2: the one root of w0/(s0 - x) + w1/(s1 - x) = 0 with w0 + w1 = 1
    spec = _spec("vanka-e", 1, 0.95)
    grid = FrequencyGrid(1, 64)
    a, m, p = (grid._low_symbols(st) for st in
               (spec.a_stencil(), spec.m_stencil(), restriction_stencil(1)))
    for nu in range(1, 6):
        sigma = (1.0 - spec.omega * m * a) ** nu
        w2 = p * p * a / (p * p * a).sum(axis=0)
        want = np.abs(w2[0] * sigma[1] + w2[1] * sigma[0]).max()
        assert abs(two_grid_factor(spec, nu, 0, grid) - want) < 1e-15
        assert abs(two_grid_factor(spec, nu, 0, grid) - _oracle_factor(spec, nu, 0, grid)) < 1e-13


def test_weights_are_built_once_per_frequency_grid(monkeypatch):
    built = []
    secular_weights = lfa._secular_weights
    monkeypatch.setattr(lfa, "_secular_weights",
                        lambda a, p: built.append(a.shape) or secular_weights(a, p))
    grid = FrequencyGrid(3, 16)
    for omega in (0.1 * k for k in range(1, 16)):          # as `scan-omega` does
        for nu1, nu2 in ((1, 0), (1, 1)):
            two_grid_factor(_spec("mass3d", 3, omega), nu1, nu2, grid)
    assert len(built) == 1
    two_grid_factor(_spec("mass3d", 3), 1, 0, FrequencyGrid(3, 16))
    assert len(built) == 2
    held = grid._weights(laplacian_stencil(3, 1), restriction_stencil(3))
    assert not held.flags.writeable
    assert np.abs(held.sum(axis=0) - 1.0).max() < 1e-15
    assert len(built) == 2


def test_singular_weights_raise_on_every_call():
    grid = FrequencyGrid(2, 8)
    zero = Stencil(2, {(0, 0): Fraction(0)})
    for _ in range(2):
        with pytest.raises(ValueError, match="singular"):
            grid._weights(zero, restriction_stencil(2))
    assert (id(zero), id(restriction_stencil(2))) not in grid._held


@pytest.mark.parametrize("kind,dim", ALL_PAIRS, ids=lambda p: str(p))
def test_two_grid_spectrum_real_and_split_invariant(kind, dim):
    grid = FrequencyGrid(dim, 16)
    spec = _spec(kind, dim)
    for nu1, nu2 in NU_SPLITS:
        e, _, _ = lfa._two_grid_stack(spec, grid.low_points(), nu1, nu2)
        eig = np.linalg.eigvals(e)
        # where a smoother symbol vanishes (Jacobi 1D, mass 2D at nu = 1) the
        # block has a defective double zero, which eigvals splits into a
        # +-3e-9 i pair; every other eigenvalue is real to 1e-10
        split_zero = np.abs(eig) < 1e-7
        assert np.abs(eig.imag[~split_zero]).max(initial=0.0) < 1e-10
    rho = [two_grid_factor(spec, nu1, nu2, grid) for nu1, nu2 in ((2, 0), (1, 1), (0, 2))]
    assert max(rho) - min(rho) < 1e-14
    oracle = [_oracle_factor(spec, nu1, nu2, grid) for nu1, nu2 in ((2, 0), (1, 1), (0, 2))]
    assert max(oracle) - min(oracle) < 1e-12


def test_symbols_are_evaluated_once_per_frequency_grid(monkeypatch):
    evaluated = []
    harmonic_symbols = lfa._harmonic_symbols
    monkeypatch.setattr(lfa, "_harmonic_symbols",
                        lambda st, grid: evaluated.append(st) or harmonic_symbols(st, grid))
    grid = FrequencyGrid(2, 16)
    spec = _spec("vanka-e", 2)
    rho = [two_grid_factor(spec, nu1, nu2, grid) for nu1, nu2 in NU_SPLITS]
    assert len(evaluated) == 3                  # a, m and p
    for omega in (0.6, 1.4):
        two_grid_factor(_spec("vanka-e", 2, omega), 1, 0, grid)
    assert len(evaluated) == 3
    fresh = FrequencyGrid(2, 16)
    assert [two_grid_factor(spec, nu1, nu2, fresh) for nu1, nu2 in NU_SPLITS] == rho
    assert len(evaluated) == 6
    held = grid._low_symbols(spec.a_stencil())
    assert not held.flags.writeable
    assert np.array_equal(held, harmonic_symbols(spec.a_stencil(), grid)[:, grid.off_origin])


def test_harmonic_symbols_match_pointwise_evaluation():
    for kind, dim in ALL_PAIRS:
        grid = FrequencyGrid(dim, 8)
        bases = grid.low_points(skip_origin=False)
        harmonics = bases[None, :, :] + np.pi * lfa._kappas(dim)[:, None, :]
        for st in (lfa.smoother_m_stencil(kind, dim), laplacian_stencil(dim, 1),
                   restriction_stencil(dim)):
            want = v.symbol(st, harmonics).real
            assert np.abs(lfa._harmonic_symbols(st, grid) - want).max() < 1e-14
    # rows 1: are the high-frequency samples
    grid = FrequencyGrid(2, 8)
    high = lfa._harmonic_symbols(laplacian_stencil(2, 1), grid)[1:].ravel()
    want = v.symbol(laplacian_stencil(2, 1), grid.high_points()).real
    assert np.allclose(np.sort(high), np.sort(want), atol=1e-14)


# ---------------------------------------------------------------------------
# eigenvalue fields
# ---------------------------------------------------------------------------

def test_eigenfield_element_real_with_two_grid_max():
    fg = FrequencyGrid(2, 32)
    spec = _spec("vanka-e", 2)
    field = v.eigenfield(spec, 1, 0, fg)
    summary = field.summary
    assert summary["all_real"]
    assert field.max_imag < 1e-10
    assert abs(field.max_value - two_grid_factor(spec, 1, 0, fg)) < 1e-12
    assert field.values.shape == (fg.low_points().shape[0], 4)
    assert field.smoother_abs.shape == (field.values.shape[0],)


def test_eigenfield_vertex_argmax_on_coarse_axis():
    field = v.eigenfield(_spec("vanka-v", 2), 1, 0)
    coarse = np.abs(np.asarray(field.summary["argmax_coarse_freq"]))
    assert abs(field.summary["max_abs_eig"] - 9 / 23) < 1e-12
    # the worst coarse frequency sits at (0, +-pi) or (+-pi, 0)
    assert abs(coarse.min() - 0.0) < 1e-12
    assert abs(coarse.max() - np.pi) < 1e-12


def test_eigenfield_csv_format(tmp_path):
    fg = FrequencyGrid(2, 16)
    field = v.eigenfield(_spec("mass", 2), 1, 1, fg)
    text = field.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "theta1,theta2,eig1,eig2,eig3,eig4,smoother_abs"
    assert len(lines) == 1 + 63  # 8x8 low corner minus the origin
    first = [float(cell) for cell in lines[1].split(",")]
    assert len(first) == 7
    path = tmp_path / "field.csv"
    assert field.to_csv(path) == path.read_text()


def test_eigenfield_is_real_where_a_smoother_symbol_vanishes():
    # mass at omega* = 3/4 has s = 0 at some harmonics, where the error block
    # has a defective double zero that the general eig splits into +-3e-9 i
    grid = FrequencyGrid(2, 16)
    spec = _spec("mass", 2)
    field = v.eigenfield(spec, 1, 0, grid)
    assert field.summary["all_real"] is True
    assert field.summary["max_imag_part"] == 0.0
    assert abs(field.max_value - two_grid_factor(spec, 1, 0, grid)) < 1e-12
    e, _, _ = lfa._two_grid_stack(spec, grid.low_points(), 1, 0)
    want = np.sort(np.abs(np.linalg.eigvals(e)), axis=1)
    assert np.abs(np.sort(field.values, axis=1) - want).max() < 1e-8


def _attributed_by_eig(spec, grid, nu1, nu2):
    """The field by the general eig of the assembled blocks, and a mask of the
    rows whose attribution does not hinge on a tie."""
    e, _, _ = lfa._two_grid_stack(spec, grid.low_points(), nu1, nu2)
    vals, vecs = np.linalg.eig(e)
    out = np.zeros(vals.shape)
    clear = np.ones(vals.shape[0], dtype=bool)
    for i in range(vals.shape[0]):
        mags = np.abs(vals[i])
        clear[i] = np.diff(np.sort(mags)).min() > 1e-6
        free = list(range(mags.size))
        for j in np.argsort(-mags):
            weights = np.sort(np.abs(vecs[i][free, j]))
            clear[i] &= weights.size == 1 or weights[-1] - weights[-2] > 1e-6
            slot = free.pop(int(np.abs(vecs[i][free, j]).argmax()))
            out[i, slot] = mags[j]
    return out, clear


@pytest.mark.parametrize("kind", ["vanka-e", "vanka-v", "mass", "jacobi"])
def test_eigenfield_attribution_matches_the_general_eig(kind):
    grid = FrequencyGrid(2, 16)
    for omega in (float(exact_optimum(kind, 2)[0]), 0.6, 1.3):
        spec = _spec(kind, 2, omega)
        for nu1, nu2 in ((1, 0), (2, 1), (1, 2)):
            want, clear = _attributed_by_eig(spec, grid, nu1, nu2)
            got = v.eigenfield(spec, nu1, nu2, grid).values
            assert clear.sum() > 0.3 * clear.size
            assert np.abs(got[clear] - want[clear]).max() < 1e-10, (omega, nu1, nu2)


def test_eigenfield_rejects_other_dims():
    with pytest.raises(ValueError, match="dim 2"):
        v.eigenfield(_spec("vanka-e", 1), 1, 0)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_eig():
    # a rotation by 90 degrees scaled by 2: eigenvalues +-2i
    assert abs(spectral_radius(np.array([[0.0, -2.0], [2.0, 0.0]])) - 2.0) < 1e-15
    assert abs(spectral_radius(np.diag([0.5, -3.0, 1.0])) - 3.0) < 1e-15
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.zeros((2, 3)))
