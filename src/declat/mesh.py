"""Oriented simplicial complexes on tetrahedral lattices.

A :class:`SimplicialComplex` stores vertices and tetrahedra and derives the
full oriented skeleton (edges, faces) together with the integer incidence
matrices that realize the boundary operator degree by degree.  All
combinatorial structure is exact: incidence entries live in {-1, 0, +1},
the composition of two boundary operators vanishes identically in integer
arithmetic, and simplices are stored in a canonical orientation so that
rebuilding a complex from permuted input reproduces the same matrices bit
for bit.

Orientation convention
----------------------
Edges and faces are stored with strictly increasing vertex indices.  Tets
are stored sorted as well, except that the last two vertices are swapped
when needed to make the signed volume positive.  Boundary signs follow the
alternating-sum rule applied to the stored vertex order, with a parity
correction when a tet's boundary triple has to be re-sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .exact import certify_ranks, graph_components

__all__ = [
    "MeshError",
    "SimplicialComplex",
    "BoundaryClassification",
    "EulerReport",
    "load_mesh",
    "parse_mesh",
    "write_mesh",
    "betti_numbers",
    "euler_audit",
]

# Local vertex pairs/triples of a tet, in positions (not vertex ids).
_TET_EDGE_SLOTS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_TET_FACE_SLOTS = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


class MeshError(ValueError):
    """Raised for malformed mesh input or non-manifold structure."""


def _signed_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    a, b, c, d = (vertices[tets[:, k]] for k in range(4))
    return np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) / 6.0


def _sort_parity_rows(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row ascending; return sorted rows and permutation parity (+-1)."""
    order = np.argsort(arr, axis=1, kind="stable")
    srt = np.take_along_axis(arr, order, axis=1)
    n = arr.shape[1]
    inversions = np.zeros(arr.shape[0], dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inversions += order[:, i] > order[:, j]
    parity = np.where(inversions % 2 == 0, 1, -1)
    return srt, parity.astype(np.int64)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inverse.reshape(-1)


class SimplicialComplex:
    """Tetrahedral mesh with derived, canonically oriented skeleton.

    Parameters
    ----------
    vertices : (N, 3) float array of vertex coordinates.
    tets : (M, 4) int array of vertex indices; duplicates are merged, each
        tet is re-signed to positive volume, and degenerate (zero-volume)
        tets and folds (two tets on the same side of a shared face) are
        rejected.
    """

    def __init__(self, vertices: np.ndarray, tets: np.ndarray):
        vertices = np.asarray(vertices, dtype=float)
        tets = np.asarray(tets, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (N, 3) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError("tets must be an (M, 4) array")
        if tets.shape[0] < 1:
            raise MeshError("mesh must contain at least one tet")
        if tets.min(initial=0) < 0 or tets.max(initial=-1) >= len(vertices):
            raise MeshError("tet references a vertex index out of range")
        if np.any(np.sort(tets, axis=1)[:, :-1] == np.sort(tets, axis=1)[:, 1:]):
            raise MeshError("tet with repeated vertex index")

        # Canonical tet storage: sorted indices, last pair swapped if the
        # sorted orientation has negative volume.  Total normalization: any
        # permutation of the input yields the same stored rows.
        tets = np.sort(tets, axis=1)
        tets = np.unique(tets, axis=0)
        vols = _signed_volumes(vertices, tets)
        if np.any(np.abs(vols) < 1e-14 * np.abs(vols).max(initial=1.0)) or np.any(vols == 0.0):
            bad = int(np.argmin(np.abs(vols)))
            raise MeshError(f"degenerate tet {tets[bad].tolist()} (zero volume)")
        flip = vols < 0
        tets[flip] = tets[flip][:, [0, 1, 3, 2]]

        self.vertices = vertices
        self.tets = tets
        self.volumes = np.abs(vols)

        # Derived skeleton: canonical (sorted) unique edges and faces.
        edge_rows = np.sort(tets[:, _TET_EDGE_SLOTS].reshape(-1, 2), axis=1)
        self.edges, edge_inv = _unique_rows(edge_rows)
        self.tet_edges = edge_inv.reshape(-1, 6)

        face_rows = np.sort(tets[:, _TET_FACE_SLOTS].reshape(-1, 3), axis=1)
        self.faces, face_inv = _unique_rows(face_rows)
        self.tet_faces = face_inv.reshape(-1, 4)

        self._incidence = [self._build_c0(), self._build_c1(), self._build_c2()]
        self._reject_folds()
        self._face_tets = None

    # -- counts ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_vertices, self.n_edges, self.n_faces, self.n_tets)

    def simplices(self, p: int) -> np.ndarray:
        if p == 0:
            return np.arange(self.n_vertices).reshape(-1, 1)
        return (self.edges, self.faces, self.tets)[p - 1]

    def n_simplices(self, p: int) -> int:
        return (self.n_vertices, self.n_edges, self.n_faces, self.n_tets)[p]

    # -- incidence matrices -----------------------------------------------

    def incidence(self, p: int) -> sparse.csr_matrix:
        """Integer incidence matrix C^p of the boundary operator.

        Rows are indexed by (p+1)-simplices, columns by p-simplices; the
        row of a (p+1)-simplex is the alternating sum of its facets.
        """
        if p not in (0, 1, 2):
            raise ValueError("incidence degree must be 0, 1 or 2")
        return self._incidence[p]

    def _build_c0(self) -> sparse.csr_matrix:
        ne = self.n_edges
        rows = np.repeat(np.arange(ne), 2)
        cols = self.edges.reshape(-1)
        vals = np.tile(np.array([-1, 1], dtype=np.int64), ne)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(ne, self.n_vertices))

    def _build_c1(self) -> sparse.csr_matrix:
        # Faces are stored sorted, so each boundary pair is already sorted.
        nf = self.n_faces
        pair_slots = np.array([(1, 2), (0, 2), (0, 1)])
        signs = np.array([1, -1, 1], dtype=np.int64)
        pairs = self.faces[:, pair_slots].reshape(-1, 2)
        eidx = self._lookup(self.edges, pairs)
        rows = np.repeat(np.arange(nf), 3)
        vals = np.tile(signs, nf)
        return sparse.csr_matrix((vals, (rows, eidx)), shape=(nf, self.n_edges))

    def _build_c2(self) -> sparse.csr_matrix:
        # Tets may carry a last-pair swap, so boundary triples need a
        # parity correction after re-sorting.
        nt = self.n_tets
        triples = self.tets[:, _TET_FACE_SLOTS].reshape(-1, 3)
        base_signs = np.tile(np.array([1, -1, 1, -1], dtype=np.int64), nt)
        srt, parity = _sort_parity_rows(triples)
        fidx = self._lookup(self.faces, srt)
        rows = np.repeat(np.arange(nt), 4)
        signs = base_signs * parity
        # Entry of C^2 per (tet, local face slot); read by the fold check.
        self.tet_face_signs = signs.reshape(nt, 4)
        return sparse.csr_matrix((signs, (rows, fidx)), shape=(nt, self.n_faces))

    def _reject_folds(self) -> None:
        # Two tets on opposite sides of a face see it with opposite signs,
        # so a C2 column summing to +-2 is a pair on the same side.
        col_sum = np.bincount(self.tet_faces.ravel(), weights=self.tet_face_signs.ravel(),
                              minlength=self.n_faces)
        folded = np.flatnonzero(np.abs(col_sum) == 2)
        if len(folded):
            f = int(folded[0])
            t, _ = np.nonzero((self.tet_faces == f) & (self.tet_face_signs == np.sign(col_sum[f])))
            raise MeshError(
                f"folded tets {self.tets[t[0]].tolist()} and {self.tets[t[1]].tolist()} "
                f"lie on the same side of face {self.faces[f].tolist()}"
            )

    def _lookup(self, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Position of each of ``rows`` in ``table`` (edges or faces: sorted
        unique rows, as ``np.unique(axis=0)`` returns them)."""
        # Unsigned keys keep the table's order while n_vertices**3 < 2**64.
        table, rows = table.astype(np.uint64), rows.astype(np.uint64)
        n = self.n_vertices
        keys, want = table[:, 0], rows[:, 0]
        for c in range(1, table.shape[1]):
            keys = keys * n + table[:, c]
            want = want * n + rows[:, c]
        idx = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        if np.any(keys[idx] != want):
            raise MeshError("simplex lookup failed (inconsistent skeleton)")
        return idx

    # -- adjacency ---------------------------------------------------------

    @property
    def face_tets(self) -> np.ndarray:
        """(F, 2) tet indices per face, -1 where absent; >2 cofaces raise."""
        if self._face_tets is None:
            flat = self.tet_faces.ravel()
            order = np.argsort(flat, kind="stable")  # by face, then by tet
            faces = flat[order]
            rank = np.arange(len(faces)) - np.searchsorted(faces, faces)
            if rank.max() >= 2:
                f = flat[order[rank == 2].min()]
                raise MeshError(
                    f"non-manifold face {self.faces[f].tolist()} "
                    "(more than two incident tets)"
                )
            ft = np.full((self.n_faces, 2), -1, dtype=np.int64)
            ft[faces, rank] = order // 4
            self._face_tets = ft
        return self._face_tets

    def tet_neighbors(self) -> np.ndarray:
        """(M, 4) neighbor tet across each local face, -1 on the boundary."""
        ft = self.face_tets[self.tet_faces]  # (M, 4, 2)
        own = np.arange(self.n_tets)[:, None]
        return np.where(ft[:, :, 0] == own, ft[:, :, 1], ft[:, :, 0])

    def vertex_components(self) -> int:
        """Number of connected components of the edge graph."""
        return graph_components(self.n_vertices, self.edges[:, 0], self.edges[:, 1])[0]


@dataclass(frozen=True)
class BoundaryClassification:
    """Partition of simplex indices into boundary and interior (free) sets."""

    boundary_vertices: np.ndarray
    boundary_edges: np.ndarray
    boundary_faces: np.ndarray
    interior_vertices: np.ndarray
    interior_edges: np.ndarray
    interior_faces: np.ndarray

    def n_boundary(self, p: int) -> int:
        return len((self.boundary_vertices, self.boundary_edges, self.boundary_faces)[p])

    def n_interior(self, p: int) -> int:
        return len((self.interior_vertices, self.interior_edges, self.interior_faces)[p])


def classify_boundary(complex: SimplicialComplex) -> BoundaryClassification:
    """Split vertices, edges and faces into boundary and interior sets.

    A face is boundary when it has exactly one incident tet; edges and
    vertices are boundary when contained in a boundary face.  Faces with
    more than two incident tets raise :class:`MeshError` (non-manifold).
    """
    ft = complex.face_tets  # raises on non-manifold input
    bnd_face_mask = ft[:, 1] == -1
    bnd_faces = np.flatnonzero(bnd_face_mask)

    bnd_vert_mask = np.zeros(complex.n_vertices, dtype=bool)
    bnd_vert_mask[complex.faces[bnd_faces].reshape(-1)] = True

    pair_slots = np.array([(0, 1), (0, 2), (1, 2)])
    bnd_edge_mask = np.zeros(complex.n_edges, dtype=bool)
    if len(bnd_faces):
        pairs = np.sort(complex.faces[bnd_faces][:, pair_slots].reshape(-1, 2), axis=1)
        bnd_edge_mask[complex._lookup(complex.edges, pairs)] = True

    return BoundaryClassification(
        boundary_vertices=np.flatnonzero(bnd_vert_mask),
        boundary_edges=np.flatnonzero(bnd_edge_mask),
        boundary_faces=bnd_faces,
        interior_vertices=np.flatnonzero(~bnd_vert_mask),
        interior_edges=np.flatnonzero(~bnd_edge_mask),
        interior_faces=np.flatnonzero(~bnd_face_mask),
    )


def betti_numbers(complex: SimplicialComplex) -> tuple[int, int, int]:
    """(b0, b1, b2) from certified ranks of the incidence matrices.

    Ranks come from :func:`declat.exact.certify_ranks` (graph components
    and GF(2) rank against chain-complex bounds), exact over Q with no
    floating-point tolerance and near-linear in the mesh size.  Raises
    ValueError naming the failed bound when a rank cannot be certified.
    """
    cert = certify_ranks(*(complex.incidence(p) for p in range(3)))
    cert.require()
    return cert.betti


@dataclass(frozen=True)
class EulerReport:
    """Left/right values of the three polyhedron identities, exact integers.

    The bulk identity reads N_V - N_E = (1 - g + c) - N_F + N_P, the
    boundary identity N_V^b - N_E^b = 2 (1 - g + c) - N_F^b, and the
    combined interior identity
    (N_E - N_E^b) - (N_V - N_V^b) = (N_F - N_F^b) - (N_P - 1) - g + c,
    with g the number of handles (b1) and c the number of cavities (b2);
    both are zero for ball-like meshes, where the classical forms are
    recovered verbatim.
    """

    genus: int
    cavities: int
    bulk: tuple[int, int]
    boundary: tuple[int, int]
    combined: tuple[int, int]

    @property
    def passed(self) -> bool:
        return (
            self.bulk[0] == self.bulk[1]
            and self.boundary[0] == self.boundary[1]
            and self.combined[0] == self.combined[1]
        )


def euler_audit(
    complex: SimplicialComplex,
    classification: BoundaryClassification,
    genus: int | None = None,
    cavities: int | None = None,
) -> EulerReport:
    """Evaluate the three polyhedron identities on a connected mesh.

    ``genus`` and ``cavities`` default to b1 and b2 from
    :func:`betti_numbers` (certified ranks).
    """
    if genus is None or cavities is None:
        _, b1, b2 = betti_numbers(complex)
        genus = b1 if genus is None else genus
        cavities = b2 if cavities is None else cavities
    nv, ne, nf, npp = complex.counts()
    nvb = classification.n_boundary(0)
    neb = classification.n_boundary(1)
    nfb = classification.n_boundary(2)
    chi = 1 - genus + cavities
    bulk = (nv - ne, chi - nf + npp)
    boundary = (nvb - neb, 2 * chi - nfb)
    combined = ((ne - neb) - (nv - nvb), (nf - nfb) - (npp - 1) - genus + cavities)
    return EulerReport(genus=genus, cavities=cavities, bulk=bulk, boundary=boundary,
                       combined=combined)


# -- mesh file format ------------------------------------------------------
#
#   declat-mesh 1
#   vertices N
#   x y z          (N lines)
#   tets M
#   a b c d        (M lines, zero-based vertex indices)
#
# Comments start with '#'.


def parse_mesh(text: str) -> SimplicialComplex:
    """Parse the ``declat-mesh 1`` text format into a complex."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines or lines[0].split() != ["declat-mesh", "1"]:
        raise MeshError("missing or unsupported header (want 'declat-mesh 1')")
    pos = 1

    def expect_section(name: str) -> int:
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"unexpected end of file (expected '{name}')")
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshError(f"expected '{name} <count>', got {lines[pos]!r}")
        pos += 1
        try:
            return int(parts[1])
        except ValueError as exc:
            raise MeshError(f"bad count in '{name}' section") from exc

    nv = expect_section("vertices")
    if pos + nv > len(lines):
        raise MeshError("vertex section truncated")
    try:
        vertices = np.array(
            [[float(x) for x in lines[pos + i].split()] for i in range(nv)]
        )
    except ValueError as exc:
        raise MeshError("malformed vertex line") from exc
    if nv and vertices.shape[1] != 3:
        raise MeshError("vertex lines must have three coordinates")
    pos += nv

    nt = expect_section("tets")
    if pos + nt > len(lines):
        raise MeshError("tet section truncated")
    try:
        tets = np.array(
            [[int(x) for x in lines[pos + i].split()] for i in range(nt)], dtype=np.int64
        )
    except ValueError as exc:
        raise MeshError("malformed tet line") from exc
    if nt and tets.shape[1] != 4:
        raise MeshError("tet lines must have four vertex indices")
    return SimplicialComplex(vertices, tets)


def load_mesh(source: str | Path) -> SimplicialComplex:
    """Load a mesh from a ``declat-mesh 1`` file path or literal text."""
    text = str(source)
    if "\n" not in text:
        text = Path(source).read_text()
    return parse_mesh(text)


def write_mesh(complex: SimplicialComplex, path: str | Path) -> None:
    """Write a complex in the ``declat-mesh 1`` text format."""
    out = ["declat-mesh 1", f"vertices {complex.n_vertices}"]
    out += [" ".join(repr(float(x)) for x in v) for v in complex.vertices]
    out.append(f"tets {complex.n_tets}")
    out += [" ".join(str(int(i)) for i in t) for t in complex.tets]
    Path(path).write_text("\n".join(out) + "\n")
