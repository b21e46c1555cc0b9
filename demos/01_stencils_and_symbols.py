"""Stencils, grids and Fourier symbols.

Builds the finite-difference Laplacian and Q1 mass stencils with exact
rational coefficients, applies them matrix-free on Dirichlet and periodic
grids, and shows that symbol samples are exactly the eigenvalues of the
assembled operator on a periodic lattice.
"""

from fractions import Fraction

import numpy as np

from vankamg import (
    GridSpec,
    apply,
    assemble_sparse,
    laplacian_stencil,
    mass_stencil,
    symbol,
)

h = Fraction(1, 16)

print("== stencil coefficients (exact rationals) ==")
lap = laplacian_stencil(2, h)
for offset in lap.offsets:
    print(f"  A{offset} = {lap.entries[offset]}")
mass = mass_stencil(2, h)
print(f"  mass centre = {mass.entries[(0, 0)]}, corner = {mass.entries[(1, 1)]}")

print("\n== matrix-free application, Dirichlet boundary ==")
grid = GridSpec(2, 15, float(h))
x = np.arange(1, 16) * float(h)
u = np.outer(np.sin(np.pi * x), np.sin(2 * np.pi * x)).reshape(-1)
au = apply(lap, grid, u)
# the sampled sine product is an exact eigenvector of the discrete Laplacian
hf = float(h)
lam = 4 / hf**2 * (np.sin(np.pi * hf / 2) ** 2 + np.sin(np.pi * hf) ** 2)
print(f"  mode (1,2): |A u - lambda u| / |u| = "
      f"{np.linalg.norm(au - lam * u) / np.linalg.norm(u):.2e}")
print(f"  discrete lambda = {lam:.3f}, continuum 5 pi^2 = {5 * np.pi**2:.3f}")

print("\n== symbols ==")
for theta in ((0.0, 0.0), (np.pi / 2, 0.0), (np.pi, np.pi)):
    a_val = symbol(lap, theta).real * float(h) ** 2
    m_val = symbol(mass, theta).real / float(h) ** 2
    print(f"  theta = ({theta[0]:+.3f}, {theta[1]:+.3f}):"
          f"  h^2 A~ = {a_val:.6f}, h^-2 M~ = {m_val:.6f}")

print("\n== circulant oracle: periodic eigenvalues are symbol samples ==")
n = 16
pgrid = GridSpec(1, n, float(h), boundary="periodic")
dense = assemble_sparse(laplacian_stencil(1, h), pgrid).toarray()
eigs = np.sort(np.linalg.eigvalsh(dense))
thetas = 2 * np.pi * np.arange(n) / n
sampled = np.sort(symbol(laplacian_stencil(1, h), thetas.reshape(-1, 1)).real)
print(f"  n = {n}: max |eig - symbol| = {np.abs(eigs - sampled).max():.2e}")

print("\n== serialization round trip ==")
text = lap.to_json()
from vankamg import Stencil
back = Stencil.from_json(text)
print(f"  {len(text)} bytes, exact round trip: {back == lap}")
