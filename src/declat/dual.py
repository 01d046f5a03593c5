"""Barycentric dual complex.

Every primal p-simplex gets a dual (3-p)-cell assembled from simplices of
the barycentric subdivision: chains of barycenters of nested simplices
containing it.  Concretely,

* vertex  -> union of sub-tets      (vertex, edge mid, face center, tet center)
* edge    -> union of sub-triangles (edge mid, face center, tet center)
* face    -> union of sub-segments  (face center, tet center)
* tet     -> its barycenter

Dual incidence matrices are the transposes of the primal ones on interior
elements; the sub-simplices carry enough structure to re-derive that
adjacency geometrically, which is what the reciprocity audit checks.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

import numpy as np
from scipy import sparse

from .mesh import _TET_EDGE_SLOTS, SimplicialComplex

__all__ = ["DualComplex"]

# Local corners (vertex i, edge i-j, face i-j-k) of the 24 flags of a tet.
_FLAGS = np.array(list(permutations(range(4))))[:, :3]
# Local (edge a-b, face a-b-c) of the 12 edge-face flags, edge slot order.
_EDGE_FLAGS = np.array([(a, b, c) for a, b in _TET_EDGE_SLOTS.tolist()
                        for c in range(4) if c not in (a, b)])


class DualComplex:
    """Barycentric dual cells of a tetrahedral complex, piece by piece.

    Pieces are stored flat with owner indices, ready for vectorized subdivision
    quadrature; all but the edge pieces' owners and faces are built on first use:

    ``vertex_pieces``   (24 M, 4, 3) sub-tet corner coordinates
    ``edge_pieces``     (12 M, 3, 3) sub-triangle corners, plus a sign that
                        orients each triangle's normal along its primal edge
    ``face_pieces``     (<=2 F, 2, 3) sub-segments, plus a sign along the
                        primal face normal
    """

    def __init__(self, complex: SimplicialComplex):
        cx = self.complex = complex
        # Edge duals: one triangle per (tet, edge of tet, face of tet containing
        # that edge), two per edge per tet.  Face a-b-c is opposite the fourth corner.
        self.edge_piece_owner = cx.tet_edges[:, np.repeat(np.arange(6), 2)].T.ravel()
        self.edge_piece_face = cx.tet_faces[:, 6 - _EDGE_FLAGS.sum(axis=1)].T.ravel()

    vertex_piece_owner = cached_property(lambda self: self.complex.tets.T[_FLAGS[:, 0]].ravel())
    vertex_piece_tet = cached_property(lambda self: np.tile(np.arange(self.complex.n_tets), 24))
    edge_piece_tet = cached_property(lambda self: np.tile(np.arange(self.complex.n_tets), 12))
    # Face duals: a segment from face to tet center, for every face's first tet, then second.
    _face_slots = cached_property(lambda self: np.nonzero(self.complex.face_tets.T >= 0)[::-1])
    face_piece_owner = cached_property(lambda self: self._face_slots[0])
    face_piece_tet = cached_property(lambda self: self.complex.face_tets[self._face_slots])
    tet_centers = cached_property(lambda self: self.complex.vertices[self.complex.tets].mean(1))
    face_centers = cached_property(lambda self: self.complex.vertices[self.complex.faces].mean(1))
    vertex_pieces = cached_property(lambda self: self._chains(_FLAGS, 0))
    edge_pieces = cached_property(lambda self: self._chains(_EDGE_FLAGS, 1))

    def _chains(self, flags: np.ndarray, skip: int) -> np.ndarray:
        """Flag-major pieces: barycenters of each flag's nested vertex sets, less ``skip``."""
        tv = self.complex.vertices[self.complex.tets]  # (M, 4, 3)
        i, j, k = flags.T
        ctr = np.broadcast_to(self.tet_centers[:, None], (len(tv), len(flags), 3))
        corners = [tv[:, i], 0.5 * (tv[:, i] + tv[:, j]), (tv[:, i] + tv[:, j] + tv[:, k]) / 3.0, ctr]
        return np.stack(corners[skip:], axis=2).transpose(1, 0, 2, 3).reshape(-1, 4 - skip, 3)

    @cached_property
    def edge_piece_sign(self) -> np.ndarray:
        tri, ends = self.edge_pieces, self.complex.vertices[self.complex.edges]
        nrm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        sgn = np.einsum("kd,kd->k", nrm, (ends[:, 1] - ends[:, 0])[self.edge_piece_owner])
        return np.where(sgn >= 0.0, 1.0, -1.0)

    @cached_property
    def face_pieces(self) -> np.ndarray:
        return np.stack([self.face_centers[self.face_piece_owner],
                         self.tet_centers[self.face_piece_tet]], axis=1)

    @cached_property
    def face_piece_sign(self) -> np.ndarray:
        f, seg = self.complex.vertices[self.complex.faces], np.diff(self.face_pieces, axis=1)[:, 0]
        fnrm = 0.5 * np.cross(f[:, 1] - f[:, 0], f[:, 2] - f[:, 0])
        return np.where(np.einsum("kd,kd->k", seg, fnrm[self.face_piece_owner]) >= 0.0, 1.0, -1.0)

    # -- measures -----------------------------------------------------------

    def vertex_piece_volumes(self) -> np.ndarray:
        """Volume of each sub-tet in ``vertex_pieces``."""
        p = self.vertex_pieces
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return np.abs(np.einsum("kd,kd->k", cross, p[:, 3] - p[:, 0])) / 6.0

    def vertex_cell_volumes(self) -> np.ndarray:
        """Volume of each dual 3-cell; these partition the mesh volume."""
        out = np.zeros(self.complex.n_vertices)
        np.add.at(out, self.vertex_piece_owner, self.vertex_piece_volumes())
        return out

    # -- combinatorics -------------------------------------------------------

    def geometric_edge_face_adjacency(self) -> sparse.csr_matrix:
        """(E, F) pattern: the faces whose dual segments bound each dual edge cell.

        Derived purely from the subdivision pieces (each triangle of an edge
        cell contains one face center), independent of the incidence
        matrices.
        """
        cx = self.complex
        hits = np.ones(len(self.edge_piece_owner), dtype=bool)
        return sparse.csr_matrix(
            (hits, (self.edge_piece_owner, self.edge_piece_face)),
            shape=(cx.n_edges, cx.n_faces),
        )
