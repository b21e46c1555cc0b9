"""End-to-end acceptance checks.

Each test covers one numbered criterion, records a pass/fail line for the
terminal summary, and pins the tolerance it enforces.  Expected values are
frozen literals, independent of the table constants shipped in the package.
"""

import json
import time
from fractions import Fraction

import numpy as np

import vankamg as v
from vankamg import cli, lfa, solver
from vankamg.lfa import FrequencyGrid, SmootherKind, SmootherSpec
from vankamg.stencils import (GridSpec, PatchLayout, closed_form_stencil, laplacian_stencil,
                              mass_stencil)
from vankamg.vanka import build_vanka

from conftest import record_criterion

TABLE1 = {
    ("jacobi", 1): (Fraction(2, 3), Fraction(1, 3)),
    ("vanka-e", 1): (Fraction(12, 17), Fraction(1, 17)),
    ("vanka-v", 1): (Fraction(81, 104), Fraction(1, 26)),
    ("jacobi", 2): (Fraction(4, 5), Fraction(3, 5)),
    ("vanka-e", 2): (Fraction(24, 25), Fraction(7, 25)),
    ("vanka-v", 2): (Fraction(20, 23), Fraction(9, 23)),
}

TABLE2 = {
    ("vanka-e", 1): (0.059, 0.059, 0.040, 0.031),
    ("vanka-v", 1): (0.091, 0.033, 0.022, 0.017),
    ("vanka-e", 2): (0.280, 0.092, 0.059, 0.045),
    ("vanka-v", 2): (0.391, 0.153, 0.076, 0.055),
    ("mass", 2): (0.333, 0.111, 0.037, 0.029),
    ("jacobi", 3): (0.714, 0.510, 0.364, 0.260),
    ("mass3d", 3): (0.618, 0.382, 0.236, 0.146),
}


def _spec(kind, dim, omega=None):
    if omega is None:
        omega = float(lfa.exact_optimum(kind, dim)[0])
    return SmootherSpec(SmootherKind(kind), dim, omega)


def test_criterion_01_optimal_damping_table():
    start = time.perf_counter()
    worst = 0.0
    exact_ok = True
    for (kind, dim), (omega_want, mu_want) in TABLE1.items():
        opt = lfa.optimal_omega(SmootherKind(kind), dim)
        exact_ok &= opt.omega_exact == omega_want and opt.mu_exact == mu_want
        worst = max(worst, abs(opt.mu - float(mu_want)))
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst <= 5e-3 and elapsed < 1.0
    record_criterion(1, "six optimal dampings exact, sampled mu within 5e-3, "
                        f"under 1 s (worst {worst:.1e}, {elapsed:.2f} s)", ok)
    assert exact_ok
    assert worst <= 5e-3
    assert elapsed < 1.0


def test_criterion_02_three_dimensional_optima():
    start = time.perf_counter()
    expected = {("jacobi", 3): (Fraction(6, 7), Fraction(5, 7)),
                ("mass3d", 3): (Fraction(729, 848), Fraction(131, 212))}
    grid = FrequencyGrid(3, 64)
    ok = True
    worst = 0.0
    for (kind, dim), (omega_want, mu_want) in expected.items():
        opt = lfa.optimal_omega(SmootherKind(kind), dim, grid)
        ok &= opt.omega_exact == omega_want and opt.mu_exact == mu_want
        worst = max(worst, abs(opt.mu - float(mu_want)))
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 5e-3 and elapsed < 5.0
    record_criterion(2, "3D optima (6/7, 5/7) and (729/848, 131/212) within 5e-3 "
                        f"at 64^3 samples, under 5 s (worst {worst:.1e}, {elapsed:.2f} s)", ok)
    assert ok


def test_criterion_03_mass_smoother_exact_optimum():
    opt = lfa.optimal_omega(SmootherKind.MASS_FE, 2)
    exact_ok = opt.omega_exact == Fraction(3, 4) and opt.mu_exact == Fraction(1, 3)
    # both extrema sit on the sampled grid, so the sampled route is exact too
    sampled = lfa.smoothing_factor(_spec("mass", 2))
    ok = exact_ok and abs(opt.mu - 1 / 3) < 1e-12 and abs(sampled - 1 / 3) < 1e-12
    record_criterion(3, "mass relaxation optimum (3/4, 1/3) exact, on-grid extrema", ok)
    assert ok


def test_criterion_04_two_grid_factor_table():
    start = time.perf_counter()
    worst = 0.0
    for (kind, dim), refs in TABLE2.items():
        spec = _spec(kind, dim)
        grid = FrequencyGrid(dim, 64)
        for nu, ref in zip((1, 2, 3, 4), refs):
            nu1, nu2 = (nu + 1) // 2, nu // 2
            rho = lfa.two_grid_factor(spec, nu1, nu2, grid)
            worst = max(worst, abs(rho - ref))
    # the published anomaly: one vertex sweep in 1D beats its smoothing factor
    anomaly_rho = lfa.two_grid_factor(_spec("vanka-v", 1), 1, 0)
    anomaly_mu = lfa.smoothing_factor(_spec("vanka-v", 1))
    anomaly_ok = anomaly_rho > anomaly_mu and abs(anomaly_mu - 1 / 26) < 5e-3
    elapsed = time.perf_counter() - start
    ok = worst <= 1.5e-2 and anomaly_ok and elapsed < 30.0
    record_criterion(4, "28 reference two-grid factors within 1.5e-2 incl. the 1D "
                        f"vertex anomaly, under 30 s (worst {worst:.1e}, {elapsed:.1f} s)", ok)
    assert worst <= 1.5e-2
    assert anomaly_ok
    assert elapsed < 30.0


def test_criterion_05_omega_scan(tmp_path):
    out = tmp_path / "scan.json"
    code = cli.main(["scan-omega", "--kind", "vanka-v", "--dim", "1",
                     "--nu1", "1", "--nu2", "0", "--step", "0.02",
                     "--out", str(out)])
    data = json.loads(out.read_text())
    best = data["best"]
    ok = (code == 0
          and abs(best["omega"] - 0.80) <= 0.02 + 1e-12
          and abs(best["rho"] - 0.067) <= 5e-3)
    record_criterion(5, "omega scan (step 0.02) finds 0.80 +- 0.02 with rho 0.067 +- 5e-3 "
                        f"(got omega {best['omega']:.2f}, rho {best['rho']:.4f})", ok)
    assert ok


def test_criterion_06_assembled_stencil_equivalence():
    worst = 0.0
    h = Fraction(1, 8)
    for dim in (1, 2):
        grid = GridSpec(dim, 8, float(h), boundary="periodic")
        for kind in ("element", "vertex"):
            layout = PatchLayout(kind, dim)
            assembled = v.assemble_dense(build_vanka(layout, grid, laplacian_stencil(dim, h)))
            closed = v.assemble_dense(closed_form_stencil(layout, h), grid)
            worst = max(worst, float(np.abs(assembled - closed).max()))
    ok = worst <= 1e-12
    record_criterion(6, "periodic n=8 Vanka assembly equals closed-form stencils "
                        f"to 1e-12 (worst {worst:.1e})", ok)
    assert ok


def test_criterion_07_mass_identities_exact():
    h = Fraction(1, 64)
    one_d = closed_form_stencil(PatchLayout("element", 1), h) == \
        mass_stencil(1, h).scaled(h)
    lhs = closed_form_stencil(PatchLayout("element", 2), h)
    rhs = mass_stencil(2, h).scaled(Fraction(3, 8)).plus(
        v.delta_stencil(2).scaled(h**2 / 8))
    two_d = lhs == rhs
    ok = one_d and two_d
    record_criterion(7, "element stencil mass identities hold in exact rational "
                        "arithmetic (1D scale, 2D affine)", ok)
    assert ok


def test_criterion_08_circulant_symbol_oracle():
    h = Fraction(1, 16)
    stencils = [laplacian_stencil(d, h) for d in (1, 2, 3)]
    stencils += [mass_stencil(d, h) for d in (1, 2, 3)]
    stencils += [closed_form_stencil(PatchLayout(kind, d), h)
                 for kind in ("element", "vertex") for d in (1, 2)]
    stencils += [lfa.smoother_m_stencil(SmootherKind.JACOBI, 2, h)]
    n = 16
    worst = 0.0
    for st in stencils:
        grid = GridSpec(st.dim, n, float(h), boundary="periodic")
        eigs = np.sort(np.linalg.eigvalsh(v.assemble_dense(st, grid)))
        axis = 2 * np.pi * np.arange(n) / n
        mesh = np.stack(np.meshgrid(*([axis] * st.dim), indexing="ij"), axis=-1)
        sampled = np.sort(v.symbol(st, mesh.reshape(-1, st.dim)).real)
        worst = max(worst, float(np.abs(eigs - sampled).max()))
    ok = worst <= 1e-10
    record_criterion(8, f"{len(stencils)} stencils: circulant eigenvalues match "
                        f"symbol samples to 1e-10 (worst {worst:.1e})", ok)
    assert ok


def test_criterion_09_measured_two_grid_factor():
    start = time.perf_counter()
    spec = solver.CycleSpec(_spec("vanka-e", 2, 24 / 25), 1, 0, "two-grid")
    rho_64 = solver.measured_convergence_factor(spec, GridSpec(2, 63, 1 / 64))
    rho_32 = solver.measured_convergence_factor(spec, GridSpec(2, 31, 1 / 32))
    elapsed = time.perf_counter() - start
    in_band = 0.23 <= rho_64 <= 0.33
    mesh_independent = abs(rho_32 - rho_64) < 0.02
    ok = in_band and mesh_independent and elapsed < 60.0
    record_criterion(9, f"measured rho(h=1/64) = {rho_64:.3f} in [0.23, 0.33], "
                        f"|rho(1/32) - rho(1/64)| = {abs(rho_32 - rho_64):.3f} < 0.02, "
                        f"under 60 s ({elapsed:.1f} s)", ok)
    assert in_band
    assert mesh_independent
    assert elapsed < 60.0


def test_criterion_10_eigenfield_properties():
    element = v.eigenfield(_spec("vanka-e", 2), 1, 0)
    element_ok = element.max_imag < 1e-10 and abs(element.max_value - 0.280) <= 1.5e-2
    vertex = v.eigenfield(_spec("vanka-v", 2), 1, 0)
    coarse = np.abs(np.asarray(vertex.summary["argmax_coarse_freq"]))
    vertex_ok = coarse.min() < 1e-12 and abs(coarse.max() - np.pi) < 1e-12
    ok = element_ok and vertex_ok
    record_criterion(10, "element field real with max 0.280 +- 1.5e-2; vertex argmax "
                         f"at coarse axis frequency (max {element.max_value:.3f})", ok)
    assert element_ok
    assert vertex_ok
