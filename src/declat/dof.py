"""Dynamic degree-of-freedom accounting via the discrete Hodge decomposition.

Any 1-cochain splits into a gradient part (one dimension per free node), a
coexact (dynamic) part, and a harmonic part whose dimension is topological.
Counting dimensions on the boundary-reduced complex gives

    Theta_d(E) = (N_E - N_E^b) - (N_V - N_V^b) - h1
    Theta_d(B) = (N_F - N_F^b) - (N_P - 1)     - h2

with h1, h2 the relative harmonic dimensions (zero on ball-like meshes,
where the raw interior counts of the polyhedron-formula bookkeeping are
recovered).  The two counts agree on every accepted mesh, handles
included, and equal the rank of the reduced face/edge incidence matrix,
which is also the number of nonzero curl-curl eigenvalues.

Ranks of the boundary-reduced incidence matrices come from
:func:`declat.exact.certify_ranks`: graph components pin the gradient and
tet/face ranks exactly, and a peel (plus a GF(2) rank of the rows it leaves)
that meets a chain-complex upper bound pins the curl rank.  A rank whose bounds
do not meet is reported as its proved lower bound, with ``rank_certified``
False and a note naming the bound that failed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .exact import certify_ranks, grounded_components
from .mesh import BoundaryClassification, MeshError, SimplicialComplex, classify_boundary

__all__ = ["DofReport", "dof_audit"]


@dataclass
class DofReport:
    counts: dict
    boundary_counts: dict
    interior_counts: dict
    theta_E_raw: int
    theta_B_raw: int
    harmonic_1: int
    harmonic_2: int
    theta_E: int
    theta_B: int
    rank_curl: int
    rank_certified: bool
    euler_combined: tuple[int, int]
    identities: dict
    raw_edge_node_gap: int
    eigen_crosscheck: dict | None = None
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.identities.values())

    def to_json(self) -> str:
        payload = asdict(self)
        payload["harmonic_dimensions"] = {"h1_rel": payload.pop("harmonic_1"),
                                          "h2_rel": payload.pop("harmonic_2")}
        payload.update(schema="declat-dof-1", passed=self.passed)
        return json.dumps(payload, sort_keys=True, indent=2)


def dof_audit(
    complex: SimplicialComplex,
    classification: BoundaryClassification | None = None,
    eigen_zero_count: int | None = None,
    eigen_nonzero_count: int | None = None,
) -> DofReport:
    """Count dynamic degrees of freedom and verify the counting identities.

    Raises MeshError on a disconnected mesh (the volume-constraint count
    assumes one component).
    """
    cx = complex
    if cx.vertex_components() != 1:
        raise MeshError("dof audit requires a connected mesh")
    cls = classification or classify_boundary(cx)
    nv, ne, nf, npp = cx.counts()
    n0h, n1h, n2h = (cls.n_interior(p) for p in range(3))
    notes: list[str] = []

    theta_E_raw = n1h - n0h
    theta_B_raw = n2h - (npp - 1)

    # Gradient dimension certificate: interior nodes ground to the boundary.
    grounded, floating = grounded_components(
        cx.n_vertices, cx.edges, cls.interior_vertices, cls.interior_edges
    )
    if not grounded:
        notes.append(f"{floating} interior vertices never reach the boundary")

    cert = certify_ranks(
        *(cx.incidence(p) for p in range(3)),
        interior=(cls.interior_vertices, cls.interior_edges, cls.interior_faces),
    )
    for p, name in enumerate(("gradient", "curl", "divergence")):
        if not cert.ranks[p].certified:
            notes.append(f"{name} rank {cert.ranks[p].status} "
                         f"(lower bound {cert.ranks[p].lower} used)")
    rank0, rank1, rank2 = (r.lower for r in cert.ranks)

    h1 = n1h - rank0 - rank1
    h2 = (n2h - rank2) - rank1
    theta_E = n1h - n0h - h1
    theta_B = n2h - (npp - 1) - h2

    # Relative harmonic dimensions count handles (h2 = b1) and cavities
    # (h1 = b2): the combined polyhedron identity of mesh.euler_audit.
    combined = (n1h - n0h, n2h - (npp - 1) - h2 + h1)

    identities = {
        "theta_equality": theta_E == theta_B,
        "theta_equals_rank": theta_E == rank1,
        "euler_combined": combined[0] == combined[1],
        "gradients_grounded": grounded,
    }

    eigen = None
    if eigen_zero_count is not None or eigen_nonzero_count is not None:
        eigen = {
            "zero_count": eigen_zero_count,
            "expected_zero_count": n0h + h1,
            "nonzero_count": eigen_nonzero_count,
            "expected_nonzero_count": theta_E,
        }
        if eigen_zero_count is not None:
            identities["eigen_zero_multiplicity"] = eigen_zero_count == n0h + h1
        if eigen_nonzero_count is not None:
            identities["eigen_nonzero_count"] = eigen_nonzero_count == theta_E

    return DofReport(
        counts={"N_V": nv, "N_E": ne, "N_F": nf, "N_P": npp},
        boundary_counts={
            "N_V_b": cls.n_boundary(0),
            "N_E_b": cls.n_boundary(1),
            "N_F_b": cls.n_boundary(2),
        },
        interior_counts={"N_V_h": n0h, "N_E_h": n1h, "N_F_h": n2h},
        theta_E_raw=theta_E_raw,
        theta_B_raw=theta_B_raw,
        harmonic_1=h1,
        harmonic_2=h2,
        theta_E=theta_E,
        theta_B=theta_B,
        rank_curl=rank1,
        rank_certified=cert.certified,
        euler_combined=combined,
        identities=identities,
        # The closed-lattice shorthand N_E - N_V differs from the interior
        # count whenever the boundary is nonempty; both are reported.
        raw_edge_node_gap=ne - nv,
        eigen_crosscheck=eigen,
        notes=notes,
    )

