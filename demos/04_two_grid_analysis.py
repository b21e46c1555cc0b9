"""Two-grid symbols, convergence factors and eigenvalue fields.

Tabulates two-grid convergence factors over smoothing sweeps, builds one
4x4 coupled-harmonic symbol of the 2D two-grid error operator by hand from
the stencil symbols, and maps the eigenvalues over the low-frequency
quadrant to see where the worst mode lives.
"""

import numpy as np

from vankamg import (
    FrequencyGrid,
    SmootherKind,
    SmootherSpec,
    eigenfield,
    exact_optimum,
    restriction_stencil,
    symbol,
    two_grid_factor,
)

print("== rho(nu) at the optimal damping ==")
cases = [(SmootherKind.VANKA_ELEMENT, 1), (SmootherKind.VANKA_ELEMENT, 2),
         (SmootherKind.VANKA_VERTEX, 1), (SmootherKind.VANKA_VERTEX, 2),
         (SmootherKind.MASS_FE, 2), (SmootherKind.JACOBI, 2)]
print(f"{'smoother':10s} {'dim':>3s} {'mu*':>8s} |" + "".join(
    f" {'nu=' + str(nu):>8s}" for nu in (1, 2, 3, 4)))
for kind, dim in cases:
    omega, mu = exact_optimum(kind, dim)
    spec = SmootherSpec(kind, dim, float(omega))
    rhos = [two_grid_factor(spec, nu1=(nu + 1) // 2, nu2=nu // 2)
            for nu in (1, 2, 3, 4)]
    print(f"{kind.value:10s} {dim:3d} {float(mu):8.4f} |" + "".join(
        f" {r:8.4f}" for r in rhos))

print("\nsmoothing analysis is sharp here: rho(nu=1) equals mu* for the")
print("element and 2D vertex smoothers; the 1D vertex pair is the outlier,")
print("its coarse-grid correction couples harmonics enough to lift rho")
print(f"above mu = 1/26 = {1 / 26:.6f}:")
omega, _ = exact_optimum(SmootherKind.VANKA_VERTEX, 1)
rho = two_grid_factor(SmootherSpec(SmootherKind.VANKA_VERTEX, 1, float(omega)),
                      nu1=1, nu2=0)
print(f"  rho(vanka-v, 1D, nu = 1) = {rho:.6f}")

print("\n== one symbol, by hand ==")
spec = SmootherSpec(SmootherKind.MASS_FE, 2, 0.75)
theta = (np.pi / 3, np.pi / 5)
# the four harmonics theta + kappa pi, kappa in {0, 1}^2, and the symbols there
harmonics = np.array(theta) + np.pi * np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
a, m, p = (symbol(st, harmonics).real for st in
           (spec.a_stencil(), spec.m_stencil(), restriction_stencil(2)))
s = 1.0 - spec.omega * m * a
# E = (I - p (a p)^T / a_H) S: one pre-smoothing sweep, then coarse-grid correction
a_coarse = (p * p * a).sum()
e = (np.eye(4) - np.outer(p, p) * a / a_coarse) * s
print(f"  E(theta = (pi/3, pi/5)), nu = (1, 0), shape {e.shape}:")
print(np.array2string(e, precision=4, suppress_small=True))
print(f"  |eigs| = {np.sort(np.abs(np.linalg.eigvals(e)))}")

print("\n== eigenvalue field over the low quadrant, mass smoother ==")
field = eigenfield(spec, 1, 1, FrequencyGrid(2, 32))
summary = field.summary
print(f"  max |eig| = {summary['max_abs_eig']:.6f} (rho(1,1) = 1/9)")
print(f"  all eigenvalues real: {summary['all_real']}")
print(f"  worst coarse frequency 2 theta* = {summary['argmax_coarse_freq']}")
rows = field.to_csv().splitlines()
print(f"  CSV: {rows[0]}")
print(f"       {rows[1]}")
print(f"       ... {len(rows) - 1} sample rows")
