"""Counting dynamic degrees of freedom, with and without a handle.

The electric and magnetic cochains live in spaces of different sizes, yet
the dynamics is a constrained Hamiltonian system and the dynamic counts
agree: free edges minus free nodes (gradients) on one side, free faces
minus volume constraints on the other, each corrected by the relative
harmonic dimension the topology dictates.  On the annulus the handle
shows up as exactly one harmonic 2-cochain, and the counts still match.

The certified ranks of the full incidence matrices split the edge space
the same way: gradients (rank C0), coexact images (rank C1) and harmonic
cochains (the first Betti number).
"""

from declat import generators
from declat.dof import dof_audit
from declat.exact import certify_ranks

for name, mesh in (
    ("single tet", generators.single_tet()),
    ("unit cube", generators.kuhn_cube()),
    ("4x4x4 box", generators.box_mesh(4)),
    ("annulus ring", generators.annulus_mesh(8)),
):
    rep = dof_audit(mesh)
    print(f"\n=== {name}")
    print(f"  counts: {rep.counts}, boundary {rep.boundary_counts}")
    print(f"  raw interior counts: electric {rep.theta_E_raw}, "
          f"magnetic {rep.theta_B_raw}")
    print(f"  harmonic corrections: h1 = {rep.harmonic_1}, h2 = {rep.harmonic_2}")
    print(f"  dynamic dofs: electric {rep.theta_E} == magnetic {rep.theta_B} "
          f"(certified: {rep.rank_certified})")
    cert = certify_ranks(*(mesh.incidence(p) for p in range(3)))
    rank0, rank1, _ = cert.require()
    print(f"  edge-space split: {mesh.n_edges} edges = {rank0} gradients + "
          f"{rank1} coexact + {cert.betti[1]} harmonic")
    assert rep.passed
