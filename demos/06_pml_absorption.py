"""Absorbing the end of a waveguide by complexifying the metric.

A graded stretch s = 1 + i Omega(z)/omega multiplies the material tensors
inside the back slab of a PEC waveguide; the incidence matrices never
change.  The measured reflection of the fundamental mode drops
exponentially with the accumulated damping rate, following the 1D line
model until the discretization floor, and a zero-strength profile
reproduces the bare resonator bit for bit.
"""

import numpy as np

from declat import generators
from declat.hodge import assemble_hodge
from declat.mesh import classify_boundary
from declat.pml import StretchProfile, assemble_stretched, reflection_sweep

length, nz, nx = 6.0, 24, 4
mesh = generators.box_mesh(nx, nx, nz, lengths=(1.0, 1.0, length))
cls = classify_boundary(mesh)
omega = 1.4 * np.pi  # above the pi cutoff of the 1x1 cross section
kz = float(np.sqrt(omega**2 - np.pi**2))
print(f"waveguide {nx}x{nx}x{nz} cells, omega = 1.4 pi, kz = {kz:.4f}")

# Drive the fundamental mode with transverse edge currents near z = 0.6.
mids = mesh.vertices[mesh.edges].mean(axis=1)
evec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
ydir = (np.abs(evec[:, 0]) < 1e-12) & (np.abs(evec[:, 2]) < 1e-12)
sel = ydir & (np.abs(mids[:, 2] - 0.625) < 0.13)
src_edges = np.flatnonzero(sel)
src_vals = np.sin(np.pi * mids[sel, 0]) * np.abs(evec[sel, 1])

zs = np.linspace(1.2, 4.2, 49)
pts = np.stack([np.full_like(zs, 0.5), np.full_like(zs, 0.5), zs], axis=1)

rows = reflection_sweep(
    mesh, cls, omega, [0.0, 2.0, 4.0, 8.0, 16.0],
    pml_start=4.5, pml_end=length,
    source_edges=src_edges, source_values=src_vals,
    sample_points=pts, kz=kz,
)
print(f"{'Omega_max':>10} {'integrated':>11} {'|R| measured':>13} {'|R| line model':>15}")
for r in rows:
    profile = StretchProfile(2, 4.5, length, r.omega_max_profile)
    acc = profile.integrated_omega(2)
    model = np.exp(-2.0 * (kz / omega) * acc)
    print(f"{r.omega_max_profile:10.1f} {acc:11.2f} {r.reflection_mag:13.4e} "
          f"{model:15.4e}")
print("(the measured values flatten at the mesh's discretization floor)")

# A zero-strength profile returns the real (eps, mu_inv) star pair.
stars = assemble_stretched(mesh, None, StretchProfile(2, 4.5, length, 0.0), omega)
same = all((H != assemble_hodge(mesh, None, which)).nnz == 0
           for H, which in zip(stars, ("eps", "mu_inv")))
print(f"zero-strength profile reproduces the real stars bit for bit: {same}")
assert same
