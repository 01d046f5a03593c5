"""Staggered leapfrog in a closed cavity: energy behavior at the edge.

Electric samples live at integer steps, magnetic at half steps.  Below the
spectral stability bound the staggered energy invariant is conserved to
rounding while the averaged quadratic form oscillates within bounds; the
discrete divergence of the magnetic cochain never moves (the composition
of the two incidence matrices is identically zero).  Above the bound the
run blows up and the stepper aborts with a diagnostic.
"""

import numpy as np

from declat import generators
from declat.hodge import MaterialMap
from declat.maxwell import DiscreteCodifferential, apply_pec, leapfrog_run, stable_timestep
from declat.mesh import classify_boundary

mesh = generators.box_mesh(3)
cls = classify_boundary(mesh)
ops = apply_pec(mesh, cls, MaterialMap())
print(f"3x3x3 PEC cavity: {ops.n_edges} electric dofs, {ops.n_faces} magnetic dofs")

# One exact inverse of the eps star serves the bound and every run.
exact = DiscreteCodifferential(ops)
bound = stable_timestep(ops, exact)
print(f"stability bound: dt < {bound:.5f}")

rng = np.random.default_rng(1)
E0 = rng.standard_normal(ops.n_edges)
B0 = rng.standard_normal(ops.n_faces)

for factor in (0.5, 0.9, 0.99):
    _, _, trace = leapfrog_run(exact, factor * bound, 4000, E0, B0, trace_every=4)
    osc = (trace.h_total.max() - trace.h_total.min()) / trace.h_total.mean()
    print(f"dt = {factor:.2f} x bound: invariant drift {trace.drift_per_step():+.2e}"
          f"/step, averaged-energy oscillation {100 * osc:.1f}%, "
          f"div(B) moved by {trace.div_b_residual.max():.1e}")

try:
    leapfrog_run(exact, 1.02 * bound, 500, E0, B0)
except FloatingPointError as exc:
    print(f"dt = 1.02 x bound: {exc}")
