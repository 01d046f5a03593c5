"""Build tetrahedral lattices and inspect their exact combinatorial layer.

Everything in this demo is integer arithmetic: incidence matrices with
entries in {-1, 0, +1}, the nilpotency of the boundary operator, the
polyhedron-formula identities, and Betti numbers from certified ranks.
"""

import numpy as np

from declat import generators
from declat.mesh import betti_numbers, classify_boundary, euler_audit

meshes = {
    "single tet": generators.single_tet(),
    "unit cube (6 tets)": generators.kuhn_cube(),
    "3x3x3 box": generators.box_mesh(3),
    "annulus ring (one handle)": generators.annulus_mesh(8),
}

for name, mesh in meshes.items():
    nv, ne, nf, npp = mesh.counts()
    print(f"\n=== {name}: N_V={nv} N_E={ne} N_F={nf} N_P={npp}")

    # The boundary of a boundary vanishes identically, entry by entry.
    for p in (0, 1):
        comp = mesh.incidence(p + 1) @ mesh.incidence(p)
        print(f"  max |C{p + 2 - 1}C{p}| = {abs(comp).max()} (exact integers)")

    cls = classify_boundary(mesh)
    print(f"  boundary: {cls.n_boundary(0)} vertices, {cls.n_boundary(1)} edges, "
          f"{cls.n_boundary(2)} faces")

    b = betti_numbers(mesh)
    print(f"  Betti numbers (exact ranks): {b}")

    euler = euler_audit(mesh, cls, genus=b[1], cavities=b[2])
    print(f"  bulk identity     {euler.bulk[0]} == {euler.bulk[1]}")
    print(f"  boundary identity {euler.boundary[0]} == {euler.boundary[1]}")
    print(f"  combined identity {euler.combined[0]} == {euler.combined[1]} "
          f"(genus {euler.genus}, cavities {euler.cavities})")
    assert euler.passed
