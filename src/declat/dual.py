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

    Pieces are stored flat with owner indices, ready for vectorized
    subdivision quadrature:

    ``vertex_pieces``   (24 M, 4, 3) sub-tet corner coordinates
    ``edge_pieces``     (12 M, 3, 3) sub-triangle corners, plus a sign that
                        orients each triangle's normal along its primal edge
    ``face_pieces``     (<=2 F, 2, 3) sub-segments, plus a sign along the
                        primal face normal
    """

    def __init__(self, complex: SimplicialComplex):
        cx = complex
        self.complex = cx
        verts = cx.vertices
        tv = verts[cx.tets]  # (M, 4, 3)
        self.tet_centers = tv.mean(axis=1)
        self.face_centers = verts[cx.faces].mean(axis=1)
        self.edge_midpoints = verts[cx.edges].mean(axis=1)

        m = cx.n_tets
        ctr = np.broadcast_to(self.tet_centers[:, None], (m, len(_FLAGS), 3))
        i, j, k = (_FLAGS[:, c] for c in range(3))
        e_mid = 0.5 * (tv[:, i] + tv[:, j])
        f_ctr = (tv[:, i] + tv[:, j] + tv[:, k]) / 3.0
        # Flag-major order: all tets' pieces of flag 0, then of flag 1, ...
        pieces = np.stack([tv[:, i], e_mid, f_ctr, ctr], axis=2)  # (M, 24, 4, 3)
        self.vertex_pieces = pieces.transpose(1, 0, 2, 3).reshape(-1, 4, 3)
        self.vertex_piece_owner = cx.tets[:, i].T.ravel()
        self.vertex_piece_tet = np.tile(np.arange(m), len(_FLAGS))

        # Edge duals: one triangle per (tet, edge of tet, face of tet
        # containing that edge); exactly two faces qualify per edge per tet.
        a, b, c = (_EDGE_FLAGS[:, q] for q in range(3))
        e_mid = 0.5 * (tv[:, a] + tv[:, b])
        f_ctr = (tv[:, a] + tv[:, b] + tv[:, c]) / 3.0
        pieces = np.stack([e_mid, f_ctr, ctr[:, : len(a)]], axis=2)  # (M, 12, 3, 3)
        self.edge_pieces = pieces.transpose(1, 0, 2, 3).reshape(-1, 3, 3)
        self.edge_piece_owner = cx.tet_edges[:, np.repeat(np.arange(6), 2)].T.ravel()
        self.edge_piece_tet = np.tile(np.arange(m), len(a))
        # The face of a-b-c is the one opposite the fourth corner.
        self.edge_piece_face = cx.tet_faces[:, 6 - a - b - c].T.ravel()
        edir = verts[cx.edges[:, 1]] - verts[cx.edges[:, 0]]
        tri = self.edge_pieces
        nrm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        sgn = np.einsum("kd,kd->k", nrm, edir[self.edge_piece_owner])
        self.edge_piece_sign = np.where(sgn >= 0.0, 1.0, -1.0)

        # Face duals: a segment from face center to each incident tet center.
        # Pieces of every face's first tet, then of the second ones.
        ft = cx.face_tets
        col, self.face_piece_owner = np.nonzero(ft.T >= 0)
        self.face_piece_tet = ft[self.face_piece_owner, col]
        self.face_pieces = np.stack(
            [self.face_centers[self.face_piece_owner], self.tet_centers[self.face_piece_tet]],
            axis=1,
        )
        fv = cx.faces
        fnrm = 0.5 * np.cross(
            verts[fv[:, 1]] - verts[fv[:, 0]], verts[fv[:, 2]] - verts[fv[:, 0]]
        )
        seg = self.face_pieces[:, 1] - self.face_pieces[:, 0]
        sgn = np.einsum("kd,kd->k", seg, fnrm[self.face_piece_owner])
        self.face_piece_sign = np.where(sgn >= 0.0, 1.0, -1.0)

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
