"""Cochains and fields: reduce, interpolate, and verify the structure.

A smooth form becomes a cochain by integration over the matching
simplices; the lowest-order basis interpolates it back.  Reduction after
interpolation is the identity on cochains, constant fields round-trip
pointwise, and the two structural identities (simplex/basis pairing equal
to the Kronecker delta; exterior derivative equal to the coboundary
expansion) hold at rounding level on every mesh, however irregular.
"""

import numpy as np

from declat import generators
from declat.whitney import (
    AnalyticForm,
    Cochain,
    WhitneyBasis,
    de_rham,
    interpolate_at_points,
    verify_coboundary,
    verify_partition_duality,
)

mesh = generators.jittered_box_mesh(3, amplitude=0.2, seed=4)
basis = WhitneyBasis(mesh)
print(f"irregular box: {mesh.n_tets} tets, {mesh.n_edges} edges")

# A constant 1-form reduces to edge circulations and interpolates back
# exactly -- lowest-order completeness.
u = np.array([0.3, -1.2, 0.7])
E = de_rham(AnalyticForm(1, lambda pts: np.broadcast_to(u, pts.shape)), mesh)
rng = np.random.default_rng(0)
pts = rng.random((200, 3)) * 0.9 + 0.05
err = np.abs(interpolate_at_points(basis, E, pts) - u).max()
print(f"constant 1-form round trip: max pointwise error {err:.2e}")

# Reduction of an interpolated random cochain returns the coefficients.
for p in range(4):
    c = Cochain(p, rng.standard_normal(mesh.n_simplices(p)))
    form = AnalyticForm(p, lambda q, c=c: interpolate_at_points(basis, c, q))
    back = de_rham(form, mesh)
    print(f"de_rham(interpolate_at_points(c)) == c for degree {p}: "
          f"max dev {np.abs(back.values - c.values).max():.2e}")

# Structural identities, integrated / differentiated numerically.
for p in (0, 1, 2):
    dev = verify_partition_duality(mesh, p, basis)
    print(f"pairing matrix vs identity, degree {p}: max dev {dev:.2e}")
for p in (1, 2, 3):
    dev = verify_coboundary(mesh, p, basis)
    print(f"derivative vs coboundary expansion, degree {p}: max dev {dev:.2e}")
