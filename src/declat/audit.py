"""Executable audit of the three classic lattice-discretization failure modes.

Section one (pre-metric, first kind) checks the purely combinatorial
structure of one lattice at a time: the composition of boundary operators
must vanish identically in integer arithmetic and the cohomology dimensions
implied by the incidence ranks must match an independent count.

Section two (pre-metric, second kind) checks how the primal and dual
lattices intertwine: on interior elements the dual derivative must be the
transpose of the primal one.  Violating this reciprocity breaks
time-reversal symmetry and shows up as artificial dissipation or late-time
instability in marching schemes.

Section three (metric) checks the discrete Hodge matrices: symmetry at
rounding scale and positive definiteness, with the worst-shaped cells
reported alongside any near-indefiniteness since highly skewed or obtuse
cells are the usual culprits.  Stars that the audit assembles itself are
proved positive definite from their per-tet element matrices, with no
factorisation; stars handed in, or whose element bound does not clear the
margin, get a factored estimate, and the row says it is not a proof.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import sparse

from .dual import DualComplex
from . import hodge
from .exact import certify_ranks
from .mesh import _TET_FACE_SLOTS, SimplicialComplex, classify_boundary
from .whitney import WhitneyBasis

__all__ = [
    "AuditCheck",
    "AuditSection",
    "AuditReport",
    "audit_first_kind",
    "audit_second_kind",
    "audit_hodge",
    "run_full_audit",
]

# Largest relative asymmetry ||H - H^T||_F / ||H||_F a star may show.
_SYM_TOL = 1e-13


@dataclass
class AuditCheck:
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass
class AuditSection:
    name: str
    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, measured, threshold, passed, detail=""):
        self.checks.append(AuditCheck(name, float(measured), float(threshold), bool(passed), detail))


@dataclass
class AuditReport:
    sections: list[AuditSection]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def to_text(self) -> str:
        lines = []
        for s in self.sections:
            lines.append(f"[{'PASS' if s.passed else 'FAIL'}] {s.name}")
            for c in s.checks:
                mark = "ok " if c.passed else "BAD"
                lines.append(
                    f"  {mark} {c.name}: measured={c.measured!r} threshold={c.threshold!r}"
                    + (f" ({c.detail})" if c.detail else "")
                )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "declat-audit-1",
                "passed": self.passed,
                "sections": [
                    {
                        "name": s.name,
                        "passed": s.passed,
                        "checks": [asdict(c) for c in s.checks],
                    }
                    for s in self.sections
                ],
            },
            sort_keys=True,
            indent=2,
        )


def _located_max(mat: sparse.spmatrix) -> tuple[int, tuple[int, int]]:
    coo = sparse.coo_matrix(mat)
    if coo.nnz == 0:
        return 0, (-1, -1)
    k = int(np.argmax(np.abs(coo.data)))
    return int(abs(coo.data[k])), (int(coo.row[k]), int(coo.col[k]))


def audit_first_kind(
    complex: SimplicialComplex,
    incidence_override: dict[int, sparse.spmatrix] | None = None,
    expected_betti: tuple[int, int, int] | None = None,
) -> AuditSection:
    """Nilpotency of the boundary operator and cohomology capture.

    ``incidence_override`` substitutes matrices for fault injection; the
    located worst entry of each composition is reported on failure.
    """
    section = AuditSection("pre-metric first kind")
    C = {p: complex.incidence(p) for p in range(3)}
    if incidence_override:
        C.update(incidence_override)

    for p in (0, 1):
        comp = (C[p + 1] @ C[p]).astype(np.int64)
        worst, where = _located_max(comp)
        section.add(
            f"nilpotency C{p + 1}C{p}",
            worst,
            0,
            worst == 0,
            detail=f"worst entry at {where}" if worst else "",
        )

    # Cohomology capture: certified incidence ranks versus an independent
    # component count (degree 0) and the requested topology (degrees 1, 2).
    cert = certify_ranks(C[0], C[1], C[2])
    b = cert.betti
    uncertified = [f"r{p} {r.status}" for p, r in enumerate(cert.ranks) if not r.certified]
    if uncertified:
        section.add(
            "incidence ranks certified",
            len(uncertified),
            0,
            False,
            detail="; ".join(uncertified),
        )
    components = complex.vertex_components()
    if b[0] is not None:
        section.add(
            "cohomology b0 vs component count",
            abs(b[0] - components),
            0,
            b[0] == components,
            detail=f"b0={b[0]} components={components}",
        )
    if expected_betti is not None and None not in b:
        dev = max(abs(b[i] - expected_betti[i]) for i in range(3))
        section.add(
            "cohomology dimensions vs expected",
            dev,
            0,
            dev == 0,
            detail=f"measured {b} expected {tuple(expected_betti)}",
        )
    return section


def audit_second_kind(
    complex: SimplicialComplex,
    dual: DualComplex,
    dual_incidence: sparse.spmatrix | None = None,
) -> AuditSection:
    """Interior transpose reciprocity between primal and dual derivatives.

    The dual edge/face structure is re-derived from the subdivision
    geometry of the dual cells and must match the incidence pattern on
    interior elements.  A supplied ``dual_incidence`` must also equal the
    transposed primal incidence entry for entry there (the library's own
    dual incidence is that transpose by construction).  Boundary elements
    are excluded and counted.
    """
    section = AuditSection("pre-metric second kind")
    cls = classify_boundary(complex)
    Ct = complex.incidence(1).T.tocsr()
    excluded = (f"excluded boundary: {len(cls.boundary_edges)} edges, "
                f"{len(cls.boundary_faces)} faces")

    def interior(mat: sparse.spmatrix) -> sparse.csr_matrix:
        return sparse.csr_matrix(mat)[cls.interior_edges][:, cls.interior_faces]

    if dual_incidence is not None:
        # Exact integer comparison, located in full edge/face indices.
        diff = sparse.coo_matrix(interior(dual_incidence) - interior(Ct))
        worst, (r, c) = _located_max(diff)
        where = (int(cls.interior_edges[r]), int(cls.interior_faces[c])) if worst else (-1, -1)
        section.add(
            "dual derivative equals transposed incidence (interior)",
            worst,
            0,
            worst == 0,
            detail=f"worst entry at {where}" if worst else excluded,
        )

    # Faces adjacent to each dual edge-cell, taken from the subdivision
    # pieces, must match the matrix pattern.
    geo = interior(dual.geometric_edge_face_adjacency())
    mismatched = (interior(Ct).astype(bool) != geo).getnnz(axis=1)
    mismatches = int(np.count_nonzero(mismatched))
    section.add(
        "dual-cell geometry matches incidence pattern",
        mismatches,
        0,
        mismatches == 0,
        detail=excluded,
    )
    return section


def _dihedral_extremes(complex: SimplicialComplex) -> tuple[np.ndarray, np.ndarray]:
    """Min and max dihedral angle (radians) per tet."""
    pts = complex.vertices[complex.tets]  # (M, 4, 3)
    # Face k is the triangle opposite vertex k; orient its normal outward.
    a, b, c = (pts[:, _TET_FACE_SLOTS[:, i]] for i in range(3))
    normals = np.cross(b - a, c - a)
    inward = np.einsum("mkd,mkd->mk", normals, pts - a) > 0
    normals[inward] *= -1.0
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    i, j = np.triu_indices(4, 1)
    cosang = np.clip(-np.einsum("mpd,mpd->mp", normals[:, i], normals[:, j]), -1.0, 1.0)
    angles = np.arccos(cosang)
    return angles.min(axis=1), angles.max(axis=1)


def audit_hodge(
    Heps: sparse.spmatrix,
    Hmu_inv: sparse.spmatrix,
    complex: SimplicialComplex | None = None,
    spd_margin: float = 1e-12,
    elements: tuple[hodge.ElementMatrices | None, hodge.ElementMatrices | None] = (None, None),
) -> AuditSection:
    """Symmetry and positive definiteness of the assembled stars.

    ``elements`` holds the per-tet matrices each star was summed from, or
    None for a star handed in without them.  Where they are at hand, the
    "positive definite" row reports their proved lower bound on
    lambda_min (:meth:`~declat.hodge.ElementMatrices.lower_bound`) and no
    factorisation runs.  Otherwise, or when that bound does not clear the
    margin, it reports the ``check_spd`` estimate, which is not a proof,
    and says so.  The bound never exceeds lambda_min and the estimate never
    falls below it, so both paths agree on pass and fail.

    Near-indefiniteness is correlated with cell shape: the tets with the
    most extreme dihedral angles are listed when the margin check fires.
    """
    section = AuditSection("hodge star consistency")

    def worst_cells() -> str:
        if complex is None:
            return ""
        mins, maxs = _dihedral_extremes(complex)
        listed = [
            f"tet {int(t)} (dihedral {np.degrees(mins[t]):.2f}..{np.degrees(maxs[t]):.2f} deg)"
            for t in np.argsort(mins)[:3]
        ]
        return "; worst cells: " + ", ".join(listed)

    for name, H, elem in zip(("eps star", "mu-inverse star"), (Heps, Hmu_inv), elements):
        if H.shape[0] == 0:
            continue
        sym = hodge.symmetry_deviation(H)
        section.add(f"{name} symmetry", sym, _SYM_TOL, sym <= _SYM_TOL)
        margin = spd_margin * float(np.abs(H.diagonal()).max())
        how = "estimate, not proved"
        if elem is not None:
            bound = elem.lower_bound()
            if bound > margin:
                section.add(f"{name} positive definite", bound, margin, True,
                            detail="element lower bound")
                continue
            how = f"element lower bound {bound:.3e} does not clear the margin; {how}"
        min_eig = hodge.check_spd(H)[1]
        ok = min_eig > margin
        section.add(f"{name} positive definite", min_eig, margin, ok,
                    detail=how if ok else f"{how}; near-indefinite{worst_cells()}")
    return section


def run_full_audit(
    complex: SimplicialComplex,
    dual: DualComplex | None = None,
    Heps: sparse.spmatrix | None = None,
    Hmu_inv: sparse.spmatrix | None = None,
    expected_betti: tuple[int, int, int] | None = None,
) -> AuditReport:
    """All three sections with default operators assembled on demand.

    Stars assembled here come from one Whitney basis, and their element
    matrices go to :func:`audit_hodge`, which proves positive definiteness
    from them; stars handed in are checked by estimate.
    """
    dual = dual or DualComplex(complex)
    basis = WhitneyBasis(complex) if Heps is None or Hmu_inv is None else None
    stars, elements = [], []
    for H, which in ((Heps, "eps"), (Hmu_inv, "mu_inv")):
        elem = hodge.star_elements(complex, hodge.MaterialMap(), which, basis) if H is None else None
        stars.append(H if elem is None else elem.assemble())
        elements.append(elem)
    return AuditReport(
        [
            audit_first_kind(complex, expected_betti=expected_betti),
            audit_second_kind(complex, dual),
            audit_hodge(*stars, complex, elements=tuple(elements)),
        ]
    )
