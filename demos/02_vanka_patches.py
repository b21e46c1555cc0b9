"""Additive Vanka smoothers as overlapping patch solves.

Builds element and vertex patch smoothers for the 2D Laplacian, inspects
patch sizes and multiplicity weights, and verifies that on a periodic grid
the assembled operator collapses to a small closed-form stencil.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from vankamg import (
    GridSpec,
    PatchLayout,
    assemble_sparse,
    build_vanka,
    closed_form_stencil,
    export_triplets,
    laplacian_stencil,
)

h = Fraction(1, 8)
grid = GridSpec(2, 7, float(h))
lap = laplacian_stencil(2, h)

for kind in ("element", "vertex"):
    op = build_vanka(PatchLayout(kind, 2), grid, lap)
    sizes = Counter(p.dofs.size for p in op.patches)
    print(f"== {kind} layout, n = {grid.n}, Dirichlet ==")
    print(f"  patches: {len(op.patches)}, sizes: {dict(sorted(sizes.items()))}")
    hits = Counter(int(round(1 / w)) for w in op.weights)
    print(f"  dof multiplicities: {dict(sorted(hits.items()))}")

print("\n== interior element patch: exact local inverse ==")
op = build_vanka(PatchLayout("element", 2), grid, lap)
interior = max(op.patches, key=lambda p: p.dofs.size)
print(f"  dofs {interior.dofs.tolist()}, h^-2-scaled inverse:")
print((float(h) ** -2 * interior.inverse).round(6))
print("  entries are 7/24 (diag), 1/12 (edge neighbour), 1/24 (opposite)")

print("\n== periodic assembly matches the closed-form stencil ==")
pgrid = GridSpec(2, 8, float(h), boundary="periodic")
for kind in ("element", "vertex"):
    layout = PatchLayout(kind, 2)
    dense = build_vanka(layout, pgrid, lap).matrix.toarray()
    ref = assemble_sparse(closed_form_stencil(layout, h), pgrid).toarray()
    dev = np.abs(dense - ref).max()
    centre = closed_form_stencil(layout, h).entries[(0, 0)]
    print(f"  {kind}: max deviation {dev:.2e}, centre coefficient {centre}")

print("\n== sparse triplet export (row col value, lexicographic) ==")
op1 = build_vanka(PatchLayout("element", 1), GridSpec(1, 7, float(h)),
                  laplacian_stencil(1, h))
text = export_triplets(op1.matrix)
for line in text.splitlines()[:4]:
    print(f"  {line}")
print(f"  ... {len(text.splitlines())} triplets")
