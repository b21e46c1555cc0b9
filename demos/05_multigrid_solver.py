"""Two-grid and V-cycle solvers with measured convergence factors.

Builds a Dirichlet hierarchy with Galerkin coarse operators, measures
asymptotic error-reduction factors with a seeded power-like iteration, and
compares them to the Fourier-analysis prediction.  Finishes with a V-cycle
solve of a manufactured problem.
"""

import numpy as np

from vankamg import (
    CycleSpec,
    GridSpec,
    SmootherKind,
    SmootherSpec,
    build_hierarchy,
    cycle,
    exact_optimum,
    measured_convergence_factor,
    run_convergence,
    two_grid_factor,
)

omega, _ = exact_optimum(SmootherKind.VANKA_ELEMENT, 2)
smoother = SmootherSpec(SmootherKind.VANKA_ELEMENT, 2, float(omega))
tg = CycleSpec(smoother, nu1=1, nu2=0)

print("== two-grid cycle, vanka-e 2D, nu = (1, 0) ==")
predicted = two_grid_factor(smoother, nu1=1, nu2=0)
print(f"  interior (Fourier) prediction: rho = {predicted:.4f}")
for n in (15, 31, 63):
    grid = GridSpec(2, n, 1.0 / (n + 1))
    measured = measured_convergence_factor(tg, grid, cycles=40, seed=7)
    print(f"  measured on n = {n:3d} Dirichlet grid: {measured:.4f}")
print("  boundary patches are truncated, so measured factors sit slightly")
print("  above the interior prediction and settle as h decreases")

print("\n== same experiment in 1D: the boundary dominates ==")
omega1, _ = exact_optimum(SmootherKind.VANKA_ELEMENT, 1)
smoother1 = SmootherSpec(SmootherKind.VANKA_ELEMENT, 1, float(omega1))
pred1 = two_grid_factor(smoother1, nu1=1, nu2=0)
for n in (31, 63):
    m = measured_convergence_factor(
        CycleSpec(smoother1, nu1=1, nu2=0), GridSpec(1, n, 1.0 / (n + 1)),
        cycles=20, seed=7)
    print(f"  n = {n}: measured {m:.6f}")
print(f"  interior prediction {pred1:.6f} = 1/17; the measured value locks")
print(f"  onto 3/17 = {3 / 17:.6f}, a mesh-independent boundary mode")

print("\n== V-cycle solve, -Lap u = f, u = sin(pi x) sin(pi y) ==")
n = 63
h = 1.0 / (n + 1)
vc = CycleSpec(smoother, nu1=1, nu2=1, cycle="v-cycle")
hier = build_hierarchy(vc, GridSpec(2, n, h))
x = np.arange(1, n + 1) * h
exact = np.outer(np.sin(np.pi * x), np.sin(np.pi * x)).reshape(-1)
f = 2 * np.pi**2 * exact
u = np.zeros_like(f)
print(f"  levels: {[lvl.grid.n for lvl in hier.levels]}")
r0 = np.linalg.norm(f)
for k in range(1, 9):
    u = cycle(hier, u, f)
    r = np.linalg.norm(f - hier.fine.matrix @ u)
    print(f"  cycle {k}: |r|/|r0| = {r / r0:.3e}")
err = np.abs(u - exact).max()
print(f"  discretisation-level error |u - u_exact|_inf = {err:.2e}")

print("\n== asymptotic factor from the residual tail ==")
hier31 = build_hierarchy(vc, GridSpec(2, 31, 1.0 / 32))
run = run_convergence(hier31, cycles=15, seed=3)
print(f"  per-cycle ratios (last 5): {[f'{r:.4f}' for r in run.ratios[-5:]]}")
print(f"  asymptotic factor: {run.factor:.4f}")
