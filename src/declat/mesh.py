"""Oriented simplicial complexes on tetrahedral lattices.

A :class:`SimplicialComplex` stores vertices and tetrahedra and derives the
full oriented skeleton (edges, faces) together with the integer incidence
matrices that realize the boundary operator degree by degree, each built
on first use.  All combinatorial structure is exact: incidence entries
live in {-1, 0, +1}, the composition of two boundary operators vanishes
identically in integer arithmetic, and simplices are stored in a
canonical orientation so that rebuilding a complex from permuted input
reproduces the same matrices bit for bit.

Orientation convention
----------------------
Every simplex is stored with strictly increasing vertex indices, in
lexicographic order, so slot k of every tet is the same pair or triple of
row positions.  A tet's orientation is one sign, that of its sorted row's
volume, and lives only in its C2 row: the alternating-sum signs
[1, -1, 1, -1] on its sorted faces times that sign.  No boundary triple
is re-sorted.

Edges and faces are found from integer keys: a*n + b for edge (a, b) and
e*n + c for face (a, b, c), where n is the vertex count and e the index of
edge (a, b), read with each face's boundary edges from a tet's own edge
slots through constant slot tables.  Edge indices follow lexicographic
order, so sorted face keys do too: one stable sort of the face keys of all
tet slots numbers the faces and groups the slots by face, lower tet first.
Keys stay below n * max(n, n_edges), about 7 n^2 on a lattice, so int64
holds them up to about 1e9 vertices.

Meshes are stored as ``declat-mesh 1`` text: :func:`load_mesh` takes a
path, :func:`parse_mesh` the text, and a section count that does not match
its block is rejected with :class:`MeshError`.
"""

from __future__ import annotations

import warnings
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
    "classify_boundary",
    "load_mesh",
    "parse_mesh",
    "write_mesh",
    "betti_numbers",
    "euler_audit",
]

# Local vertex pairs/triples of a tet, in positions (not vertex ids).
_TET_EDGE_SLOTS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_TET_FACE_SLOTS = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
# The edge slots of each face slot's boundary (b, c), (a, c), (a, b).
_FACE_EDGE_SLOTS = np.array([(5, 4, 3), (5, 2, 1), (4, 2, 0), (3, 1, 0)])
# The signs of the face slots in the C2 row of a sorted row of positive volume.
_TET_FACE_SIGNS = np.array([1, -1, 1, -1])


class MeshError(ValueError):
    """Raised for malformed mesh input or non-manifold structure."""


def _signed_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    a, b, c, d = (vertices[tets[:, k]] for k in range(4))
    return np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) / 6.0


def _signed_rows(cols: np.ndarray, signs: np.ndarray, n_cols: int) -> sparse.csr_matrix:
    """Matrix whose row ``i`` holds ``signs[i, k]`` in column ``cols[i, k]``."""
    m, k = cols.shape
    return sparse.csr_matrix(
        (np.broadcast_to(signs, (m, k)).ravel(), (np.repeat(np.arange(m), k), cols.ravel())),
        shape=(m, n_cols),
    )


def _reject_pinched_vertices(tets: np.ndarray, faces: np.ndarray, order: np.ndarray) -> None:
    """Raise unless each vertex's tets connect through faces that contain it.

    ``tets`` holds the sorted rows, ``order`` the stable order of their
    face slots (slot 4t + k is face slot k of row t) by face, and ``faces``
    the face of each slot in that order.  Node 4t + r is vertex r
    of row t; the two tets on a shared face are joined at its three
    vertices, so each component of the node graph holds copies of a single
    vertex.
    """
    shared = faces[1:] == faces[:-1]
    nodes = (4 * np.arange(len(tets), dtype=np.int32)[:, None, None]
             + _TET_FACE_SLOTS.astype(np.int32)).reshape(-1, 3)
    _, labels = graph_components(4 * len(tets), nodes[order[:-1][shared]].ravel(),
                                 nodes[order[1:][shared]].ravel())
    vertex = tets.ravel()
    label_of = np.zeros(vertex.max() + 1, dtype=labels.dtype)
    label_of[vertex] = labels  # the label of any one copy
    pinched = vertex[labels != label_of[vertex]]
    if len(pinched):
        raise MeshError(f"non-manifold vertex {int(pinched.min())}: its tets do not all "
                        "connect through faces that contain it")


class SimplicialComplex:
    """Tetrahedral mesh with derived, canonically oriented skeleton.

    Parameters
    ----------
    vertices : (N, 3) float array of vertex coordinates.
    tets : (M, 4) int array of vertex indices; each tet is stored as its
        sorted row, its orientation kept in ``orientation`` alone, and
        duplicated tets (in any vertex order),
        degenerate (zero-volume) tets, folds (two tets on the same side
        of a shared face), faces with more than two tets and pinched
        vertices (whose tets do not connect through faces at the vertex)
        are rejected.

    Besides ``edges``, ``faces`` and ``tets`` (see the module docstring)
    it keeps ``tet_edges`` and ``tet_faces``, the (M, 6) and (M, 4)
    simplices in each tet's slots (``_TET_EDGE_SLOTS`` and
    ``_TET_FACE_SLOTS`` of its row), ``orientation``, the (M,) int8 sign
    of each sorted row's volume (its C2 row is ``orientation`` times
    ``[1, -1, 1, -1]`` on those faces), ``face_tets``, the (F, 2)
    tets on each face (lower first, -1 where absent), and ``face_edges``,
    the (F, 3) edges of each face (a, b, c), in the slot order (b, c),
    (a, c), (a, b) of their signs +1, -1, +1 in the face's C1 row.  The
    incidence matrices are built from these on the first
    :meth:`incidence` call and cached: every later call returns the same
    object, so callers share it and must not modify it.
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
        bad = (tets < 0) | (tets >= len(vertices))
        if bad.any():
            i, j = divmod(int(bad.argmax()), 4)
            raise MeshError(f"tet {tets[i].tolist()} at row {i} references vertex {tets[i, j]}, "
                            f"out of range for {len(vertices)} vertices")
        tets, given = np.sort(tets, axis=1), tets
        repeated = np.any(tets[:, :-1] == tets[:, 1:], axis=1)
        if repeated.any():
            i = int(repeated.argmax())
            raise MeshError(f"tet {given[i].tolist()} at row {i} has a repeated vertex index")

        # Canonical tet storage: sorted indices in ascending row order.  Total
        # normalization: any permutation of the input yields the same rows.
        order = np.lexsort(tets.T[::-1])
        tets = tets[order]
        dup = np.all(tets[1:] == tets[:-1], axis=1)
        if dup.any():
            i = int(dup.argmax())
            raise MeshError(f"duplicated tet {tets[i].tolist()} at rows {order[i:i + 2].tolist()}")
        vols = _signed_volumes(vertices, tets)
        if np.any(np.abs(vols) <= 1e-14 * np.abs(vols).max()):
            bad = int(np.argmin(np.abs(vols)))
            raise MeshError(f"degenerate tet {tets[bad].tolist()} (zero volume)")

        self.vertices = vertices
        self.tets = tets
        self.volumes = np.abs(vols)
        self.orientation = np.where(vols < 0, -1, 1).astype(np.int8)

        # Skeleton from integer keys, read off the sorted rows, whose edge
        # and face slots list their vertices in increasing order.
        n = len(vertices)
        edge_keys, tet_edges = np.unique(tets[:, _TET_EDGE_SLOTS] @ [n, 1], return_inverse=True)
        self.tet_edges = tet_edges = tet_edges.reshape(-1, 6)
        # Column-major, so that each end's column is contiguous (bincounts over it).
        self.edges = np.stack(np.divmod(edge_keys, n)).T
        # One stable sort of the face keys, slot by slot, numbers the faces
        # and orders the slots by face and then by tet; rank is a slot's
        # position among the tets on its face.
        keys = (tet_edges[:, _FACE_EDGE_SLOTS[:, 2]] * n + tets[:, _TET_FACE_SLOTS[:, 2]]).ravel()
        sorted_slots = np.argsort(keys, kind="stable")
        keys = keys[sorted_slots]
        new = np.r_[True, keys[1:] != keys[:-1]]
        faces, starts = np.cumsum(new) - 1, np.flatnonzero(new)
        rank = np.arange(len(keys)) - starts[faces]
        face_edge, face_last = np.divmod(keys[starts], n)
        self.faces = np.column_stack([self.edges[face_edge], face_last])
        tet_faces = np.empty_like(faces)
        tet_faces[sorted_slots] = faces
        self.tet_faces = tet_faces.reshape(-1, 4)

        # The same order gives face_tets, (F, 2) tet indices per face (-1
        # where absent, lower tet first), and serves the fold and
        # non-manifold checks.
        tet, slot = np.divmod(sorted_slots, 4)
        if rank.max() >= 2:
            f = faces[np.argmin(np.where(rank == 2, sorted_slots, sorted_slots.size))]
            raise MeshError(f"non-manifold face {self.faces[f].tolist()} "
                            "(more than two incident tets)")
        # Two tets on opposite sides of a face see it with opposite signs.
        signs = self.orientation[tet] * _TET_FACE_SIGNS[slot]
        second = np.flatnonzero(rank == 1)
        folded = second[signs[second] == signs[second - 1]]
        if len(folded):
            i = folded[0]
            raise MeshError(f"folded tets {self.tets[tet[i - 1]].tolist()} and "
                            f"{self.tets[tet[i]].tolist()} lie on the same side "
                            f"of face {self.faces[faces[i]].tolist()}")
        self.face_tets = np.full((self.n_faces, 2), -1, dtype=np.int64)
        self.face_tets[faces, rank] = tet
        _reject_pinched_vertices(tets, faces, sorted_slots)
        # Each face's boundary edges (its C1 row's columns), from the row of
        # its first tet.
        first = rank == 0
        self.face_edges = tet_edges[tet[first, None], _FACE_EDGE_SLOTS[slot[first]]]
        self._incidence = [None, None, None]

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
        row of a (p+1)-simplex is the alternating sum of its facets.  Built
        on the first call for each p and returned as the same object after.
        """
        if p not in (0, 1, 2):
            raise ValueError("incidence degree must be 0, 1 or 2")
        if self._incidence[p] is None:
            cols, signs = ((self.edges, [-1, 1]), (self.face_edges, [1, -1, 1]),
                           (self.tet_faces, self.orientation[:, None] * _TET_FACE_SIGNS))[p]
            self._incidence[p] = _signed_rows(cols, np.asarray(signs), self.n_simplices(p))
        return self._incidence[p]

    # -- adjacency ---------------------------------------------------------

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
    vertices are boundary when contained in a boundary face, read from
    the face's ``face_edges`` and ``faces`` rows, so no incidence matrix
    is built.
    """
    bnd_face_mask = complex.face_tets[:, 1] == -1
    bnd_faces = np.flatnonzero(bnd_face_mask)

    bnd_vert_mask = np.zeros(complex.n_vertices, dtype=bool)
    bnd_vert_mask[complex.faces[bnd_faces].reshape(-1)] = True

    bnd_edge_mask = np.zeros(complex.n_edges, dtype=bool)
    bnd_edge_mask[complex.face_edges[bnd_faces]] = True

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
# Comments start with '#'.  Each count must match its block: a short block,
# or any line after the tet block, is rejected.


def _loadtxt(lines: list[str], dtype, ndmin: int) -> np.ndarray:
    """``np.loadtxt`` of lines; a float in an integer column is a ``ValueError`` on every numpy."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy warns and truncates
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # counts checked
        return np.loadtxt(lines, dtype=dtype, ndmin=ndmin)


def parse_mesh(text: str) -> SimplicialComplex:
    """Parse ``declat-mesh 1`` text into a complex; :func:`load_mesh` reads a file."""
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    if not lines or lines[0].split() != ["declat-mesh", "1"]:
        raise MeshError("missing or unsupported header (want 'declat-mesh 1')")
    pos = 1

    def read_block(name: str, row: str, dtype) -> np.ndarray:
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"unexpected end of file (expected '{name}')")
        parts = lines[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshError(f"expected '{name} <count>', got {lines[pos]!r}")
        if not parts[1].isdecimal():
            raise MeshError(f"bad count in '{name}' section")
        start, pos = pos + 1, pos + 1 + int(parts[1])
        if pos > len(lines):
            raise MeshError(f"{row} section truncated")
        if start == pos:  # np.loadtxt gives shape (0, 1)
            return np.empty((0, 0), dtype)
        try:
            return _loadtxt(lines[start:pos], dtype, 2)
        except ValueError as exc:  # non-numeric, non-integer or ragged; names the row
            raise MeshError(f"malformed {row} line") from exc

    vertices = read_block("vertices", "vertex", float)
    tets = read_block("tets", "tet", np.int64)
    if pos < len(lines):
        raise MeshError(f"unexpected line after the tet section: {lines[pos]!r}")
    return SimplicialComplex(vertices, tets)


def load_mesh(source: str | Path) -> SimplicialComplex:
    """Load a ``declat-mesh 1`` file from a path; :func:`parse_mesh` reads text."""
    return parse_mesh(Path(source).read_text())


def write_mesh(complex: SimplicialComplex, path: str | Path) -> None:
    """Write a complex in the ``declat-mesh 1`` text format."""
    out = ["declat-mesh 1", f"vertices {complex.n_vertices}"]
    out += [" ".join(map(repr, v)) for v in complex.vertices.tolist()]
    out.append(f"tets {complex.n_tets}")
    out += [" ".join(map(str, t)) for t in complex.tets.tolist()]
    Path(path).write_text("\n".join(out) + "\n")
