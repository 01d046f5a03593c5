"""Independent oracles used by the tests.

Everything here is implemented from scratch, on purpose: skeleton
enumeration by set algebra, simplex quadrature by a conical-product rule
built from Gauss-Jacobi roots, its own barycentric-gradient evaluation,
a layered 1D transfer-matrix model for absorbing-layer reflection, and
tet-at-a-time dihedral angles.
None of it shares code paths with the package, except the loop versions
of the face/tet adjacency and the partition-duality scan at the end: they
read a complex's arrays (and a basis's pointwise values) one tet at a
time, where the package works on all tets at once.  Next to them,
``skeleton_by_search`` finds each face's edges by ``np.searchsorted`` over
the edge keys and ``local_maps_by_argmax`` each tet's local edge and face
positions by comparing vertex ids, where the package reads both from
constant slot tables; ``skeleton_by_search`` also numbers the faces and
their tets by two sorts (``np.unique``, then a stable argsort of the
stored slots) and a searched rank, where the package uses one sort and
its run starts.  Another is the
sparse approximate inverse as a dense least-squares solve per column
(``lstsq`` on the sliced rows of H), where the package solves the normal
equations by Cholesky; it builds its pattern with the package's
``_neighbor_pattern``.  The Hodge element matrices are built one
quadrature point at a time, with a three-operand ``einsum`` over the
stacked basis values, where the package evaluates no basis value: it
multiplies each tet's weighted Gram of the barycentric gradients (or of
their cross products) by a constant table of quadrature moments.  The walk from a given
tet, the per-point interpolation and the per-crossing path split at the
end are loop
versions of the package's location and deposit: they call a basis's
``bary``, ``neighbors``, ``_scan`` and ``eval`` one point or one tet at a time, where
the package seeds from a grid, walks all points at once and deposits all
segments of a path in one pass.  Between them, ``walk_matmul`` is the
package's face-crossing walk as it was when one (2, 3) @ (3, 4) product
gave both chord ends' coordinates in a tet, and ``walk_row_reads`` the
same scalar walk as the package's, except that it reads the tet's vertex
and gradients as two rows per step, where the package reads one
``frames`` row; ``conservation_residual_all_edges`` is the conservation
residual with its bincounts over every edge, where the package sums only
the edges that carry current.  ``leapfrog_e_form_loop`` is the
electric-field form of the leapfrog, which applies the stars through ``ampere_step`` and
``hamiltonian`` every step, where the package carries D = Heps E and
Hmu_inv B from step to step; next to it sits ``faraday_step``, the
face circulation C1 E, which the package's step writes inline.
``leapfrog_run_loop`` is the package's displacement-form step as it was
on int64 incidence, with J = 0.0 subtracted when there is no source, and
``write_trace_csv`` its trace writer through ``csv.writer``, where the
package carries float64 incidence, skips the zero source and joins the
rows itself.
``graph_rank_coo`` is the graph-shaped rank certificate by a COO copy, a
stable argsort of its rows and an int8 COO graph, where the package reads
the CSR arrays in place; ``symmetry_deviation_multiply`` takes both norms
from elementwise sparse products, where the package sums the squares of
the stored entries of H and of one sparse difference.
"""

from __future__ import annotations

import csv
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.special import roots_jacobi, roots_legendre

from scipy.sparse import csgraph

from declat.exact import RankBound
from declat.hodge import _neighbor_pattern
from declat.maxwell import DiscreteCodifferential, Trace, ampere_step, hamiltonian
from declat.mesh import MeshError
from declat.whitney import _GAUSS2_EDGE, _TET4, _TRI3


def enumerate_skeleton(tets) -> tuple[set, set]:
    """Edges and faces of a tet list as sets of sorted tuples."""
    edges = set()
    faces = set()
    for tet in tets:
        for pair in combinations(sorted(tet), 2):
            edges.add(tuple(pair))
        for tri in combinations(sorted(tet), 3):
            faces.add(tuple(tri))
    return edges, faces


def boundary_faces(tets) -> set:
    """Faces with exactly one incident tet, by brute-force coface count."""
    count: dict[tuple, int] = {}
    for tet in tets:
        for tri in combinations(sorted(tet), 3):
            count[tri] = count.get(tri, 0) + 1
    return {f for f, c in count.items() if c == 1}


# -- conical product quadrature on a tetrahedron (degree 2n-1 per axis) ------


def tet_quadrature(order: int = 4):
    """Points (barycentric) and weights integrating f over the unit-measure
    reference tet; exact for total degree <= 2*order - 1."""
    xu, wu = roots_jacobi(order, 2.0, 0.0)  # weight (1-u)^2 on [-1, 1]
    xv, wv = roots_jacobi(order, 1.0, 0.0)
    xw, ww = roots_legendre(order)
    # Map to [0, 1]; Jacobi weights absorb the (1-u)^2 and (1-v) factors.
    xu = 0.5 * (xu + 1.0)
    xv = 0.5 * (xv + 1.0)
    xw = 0.5 * (xw + 1.0)
    wu = wu / 8.0  # (1/2)^3 from collapsing the weight interval
    wv = wv / 4.0
    ww = ww / 2.0
    lam = []
    wgt = []
    for a, pa in zip(xu, wu):
        for b, pb in zip(xv, wv):
            for c, pc in zip(xw, ww):
                l1 = a
                l2 = b * (1.0 - a)
                l3 = c * (1.0 - a) * (1.0 - b)
                lam.append([1.0 - l1 - l2 - l3, l1, l2, l3])
                wgt.append(pa * pb * pc)
    lam = np.array(lam)
    wgt = np.array(wgt)
    wgt = wgt / wgt.sum()  # normalize to unit total measure
    return lam, wgt


def _tet_grads(verts: np.ndarray) -> tuple[np.ndarray, float]:
    e = np.stack([verts[1] - verts[0], verts[2] - verts[0], verts[3] - verts[0]])
    vol = abs(np.linalg.det(e)) / 6.0
    ginv = np.linalg.inv(e).T
    grads = np.vstack([-ginv.sum(axis=0), ginv])
    return grads, vol


def whitney_mass_oracle(vertices, tets, degree: int, weight=None, order: int = 4):
    """Dense weighted mass matrix of the lowest-order degree-p basis.

    Simplices are enumerated here (sorted tuples, lexicographic order) and
    basis proxies evaluated from scratch; ``weight`` is a 3x3 array or
    None for the identity.  Returns (simplex list, matrix).
    """
    vertices = np.asarray(vertices, dtype=float)
    edges, faces = enumerate_skeleton(tets)
    simplices = sorted(edges) if degree == 1 else sorted(faces)
    index = {s: i for i, s in enumerate(simplices)}
    n = len(simplices)
    W = np.eye(3) if weight is None else np.asarray(weight, dtype=float)
    lam_q, w_q = tet_quadrature(order)

    out = np.zeros((n, n))
    for tet in tets:
        tet = sorted(tet)
        verts = vertices[tet]
        grads, vol = _tet_grads(verts)
        if degree == 1:
            local = list(combinations(range(4), 2))
        else:
            local = list(combinations(range(4), 3))
        vals = []
        for lam in lam_q:
            row = []
            for s in local:
                if degree == 1:
                    i, j = s
                    row.append(lam[i] * grads[j] - lam[j] * grads[i])
                else:
                    i, j, k = s
                    row.append(
                        2.0
                        * (
                            lam[i] * np.cross(grads[j], grads[k])
                            + lam[j] * np.cross(grads[k], grads[i])
                            + lam[k] * np.cross(grads[i], grads[j])
                        )
                    )
            vals.append(row)
        vals = np.array(vals)  # (Q, nloc, 3)
        loc = np.einsum("qad,de,qbe,q->ab", vals, W, vals, w_q) * vol
        gids = [index[tuple(np.array(tet)[list(s)])] for s in local]
        for a, ga in enumerate(gids):
            for b, gb in enumerate(gids):
                out[ga, gb] += loc[a, b]
    return simplices, out


def element_matrices_loop(basis, p: int, weight: np.ndarray) -> np.ndarray:
    """(M, n, n) weighted pairing of the degree-p basis per tet: one ``eval``
    per quadrature point and a three-operand ``einsum`` over the stack;
    ``weight`` is (M, 3, 3) per tet or (M, Q, 3, 3) per point."""
    m = basis.complex.n_tets
    tids = np.arange(m)
    w = np.stack([basis.eval(p, tids, np.broadcast_to(lam, (m, 4))) for lam in _TET4], axis=1)
    spec = "mqad,mde,mqbe->mab" if weight.ndim == 3 else "mqad,mqde,mqbe->mab"
    return np.einsum(spec, w, weight, w) * (basis.complex.volumes / len(_TET4))[:, None, None]


def transfer_matrix_reflection(
    kz: float, omega: float, omega_max: float, start: float, end: float,
    order: int = 2, a_max: float = 1.0, n_layers: int = 400,
) -> float:
    """|R| of a graded, PEC-backed absorbing slab in the 1D line model.

    The slab is cut into thin layers; each layer multiplies the transfer
    matrix of a uniform section with complex wavenumber kz * s(z) and the
    common line impedance.  The wall at the far end closes the recursion
    with R = -1 there.
    """
    zs = np.linspace(start, end, n_layers + 1)
    dz = zs[1] - zs[0]
    refl = -1.0 + 0.0j  # PEC termination
    for k in range(n_layers - 1, -1, -1):
        zmid = 0.5 * (zs[k] + zs[k + 1])
        depth = (zmid - start) / (end - start)
        s = (1.0 + (a_max - 1.0) * depth**order) + 1j * omega_max * depth**order / omega
        phase = np.exp(2j * kz * s * dz)
        refl = refl * phase  # same impedance: pure propagation, no partials
    return abs(refl)


def dihedral_extremes_loop(vertices, tets) -> tuple[np.ndarray, np.ndarray]:
    """Min and max dihedral angle (radians) per tet, one tet at a time."""
    verts = np.asarray(vertices, dtype=float)
    mins = np.zeros(len(tets))
    maxs = np.zeros(len(tets))
    for t, tet in enumerate(tets):
        pts = verts[tet]
        normals = []
        for k in range(4):
            tri = np.delete(np.arange(4), k)
            a, b, c = pts[tri]
            nrm = np.cross(b - a, c - a)
            inward = pts[k] - a
            if nrm @ inward > 0:
                nrm = -nrm
            normals.append(nrm / np.linalg.norm(nrm))
        angles = []
        for i in range(4):
            for j in range(i + 1, 4):
                cosang = np.clip(-(normals[i] @ normals[j]), -1.0, 1.0)
                angles.append(np.arccos(cosang))
        mins[t] = min(angles)
        maxs[t] = max(angles)
    return mins, maxs


def face_tets_loop(complex) -> np.ndarray:
    """(F, 2) incident tets per face in visiting order; a third one raises."""
    ft = np.full((complex.n_faces, 2), -1, dtype=np.int64)
    count = np.zeros(complex.n_faces, dtype=np.int64)
    for t in range(complex.n_tets):
        for f in complex.tet_faces[t]:
            if count[f] >= 2:
                raise MeshError(
                    f"non-manifold face {complex.faces[f].tolist()} "
                    "(more than two incident tets)"
                )
            ft[f, count[f]] = t
            count[f] += 1
    return ft


def tet_neighbors_loop(complex) -> np.ndarray:
    """(M, 4) tet across each local face, -1 on the boundary."""
    ft = face_tets_loop(complex)
    neigh = np.full((complex.n_tets, 4), -1, dtype=np.int64)
    for t in range(complex.n_tets):
        for k, f in enumerate(complex.tet_faces[t]):
            a, b = ft[f]
            neigh[t, k] = b if a == t else a
    return neigh


def skeleton_by_search(vertices, tets) -> dict:
    """The canonical arrays and incidence matrices of a complex, derived as
    before the slot tables: the flip from the sorted rows' signed volumes,
    each face's edges (C1's columns) by ``np.searchsorted`` over the edge
    keys; and the face numbering as before the one face sort: face ids by
    ``np.unique``, then a stable argsort of the stored face slots, and each
    slot's rank among its face's tets by ``np.searchsorted``."""
    tets = np.sort(np.asarray(tets, dtype=np.int64), axis=1)
    tets = tets[np.lexsort(tets.T[::-1])]
    a, b, c, d = (vertices[tets[:, k]] for k in range(4))
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), d - a) < 0
    ranked = tets.copy()
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]

    def signed_rows(cols, signs, n_cols):
        m, k = cols.shape
        return sparse.csr_matrix(
            (np.broadcast_to(signs, (m, k)).ravel(), (np.repeat(np.arange(m), k), cols.ravel())),
            shape=(m, n_cols),
        )

    n = len(vertices)
    edge_slots = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    face_slots = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
    edge_keys, tet_edges = np.unique(ranked[:, edge_slots] @ [n, 1], return_inverse=True)
    edges = np.stack(np.divmod(edge_keys, n)).T

    def edge_id(pairs):
        return np.searchsorted(edge_keys, pairs @ [n, 1])

    rows = ranked[:, face_slots]
    face_keys, tet_faces = np.unique(edge_id(rows[..., :2]) * n + rows[..., 2],
                                     return_inverse=True)
    face_edge, face_last = np.divmod(face_keys, n)
    faces = np.column_stack([edges[face_edge], face_last])

    swapped = flip[:, None]
    tet_edges, tet_faces = tet_edges.reshape(-1, 6), tet_faces.reshape(-1, 4)
    tet_edges = np.where(swapped, tet_edges[:, [0, 2, 1, 4, 3, 5]], tet_edges)
    tet_faces = np.where(swapped, tet_faces[:, [0, 1, 3, 2]], tet_faces)
    tet_face_signs = np.array([1, -1, 1, -1]) * np.where(swapped, [-1, -1, 1, 1], 1)
    # Face slots ordered by a second, stable sort of the stored face ids,
    # each slot's rank among its face's tets found by search.
    flat = tet_faces.ravel()
    order = np.argsort(flat, kind="stable")
    rank = np.arange(len(flat)) - np.searchsorted(flat[order], flat[order])
    face_tets = np.full((len(faces), 2), -1, dtype=np.int64)
    face_tets[flat[order], rank] = order // 4
    face_edges = edge_id(faces[:, [[1, 2], [0, 2], [0, 1]]])
    return {
        "edges": edges, "faces": faces, "tets": tets, "tet_edges": tet_edges,
        "tet_faces": tet_faces, "tet_face_signs": tet_face_signs, "face_tets": face_tets,
        "face_edges": face_edges,
        "C0": signed_rows(edges, np.array([-1, 1]), n),
        "C1": signed_rows(face_edges, np.array([1, -1, 1]), len(edges)),
        "C2": signed_rows(tet_faces, tet_face_signs, len(faces)),
    }


def local_maps_by_argmax(complex) -> tuple[np.ndarray, np.ndarray]:
    """(M, 6, 2) and (M, 4, 3) positions in each stored tet of its edges'
    and faces' vertices, found by comparing global vertex ids."""
    cx = complex
    tets = cx.tets
    epair = cx.edges[cx.tet_edges]  # (M, 6, 2) global vertex ids
    edge_local = np.argmax(
        tets[:, None, None, :] == epair[:, :, :, None], axis=3
    )  # (M, 6, 2)
    ftri = cx.faces[cx.tet_faces]  # (M, 4, 3)
    face_local = np.argmax(
        tets[:, None, None, :] == ftri[:, :, :, None], axis=3
    )  # (M, 4, 3)
    return edge_local, face_local


def partition_duality_loop(complex, p: int, basis) -> float:
    """Max |<simplex_i, basis_j> - delta_ij| over pairs, each in its first tet."""
    cx = complex
    local = basis.local_indices(p, np.arange(cx.n_tets))
    owners: dict[tuple[int, int], tuple[int, int, int]] = {}
    for t in range(local.shape[0]):
        ids = local[t]
        for si in range(len(ids)):
            for sj in range(len(ids)):
                owners.setdefault((int(ids[si]), int(ids[sj])), (t, si, sj))
    by_tet: dict[int, list[tuple[int, int, int, int]]] = {}
    for (gi, gj), (t, si, sj) in owners.items():
        by_tet.setdefault(t, []).append((gi, gj, si, sj))

    dev = 0.0
    for t, items in by_tet.items():
        tid = np.array([t])
        ids = local[t]
        if p == 0:
            integ = basis.eval(0, np.repeat(tid, 4),
                               basis.bary(np.repeat(tid, 4), cx.vertices[cx.tets[t]]))
        elif p == 1:
            epair = cx.edges[ids]
            a = cx.vertices[epair[:, 0]]
            tang = cx.vertices[epair[:, 1]] - a
            integ = np.zeros((6, 6))
            for s in _GAUSS2_EDGE:
                lam = basis.bary(np.repeat(tid, 6), a + s * tang)
                w = basis.eval(1, np.repeat(tid, 6), lam)
                integ += 0.5 * np.einsum("ijd,id->ij", w, tang)
        else:
            ftri = cx.faces[ids]
            va, vb, vc = (cx.vertices[ftri[:, k]] for k in range(3))
            nvec = 0.5 * np.cross(vb - va, vc - va)
            integ = np.zeros((4, 4))
            for lam_t in _TRI3:
                pts = lam_t[0] * va + lam_t[1] * vb + lam_t[2] * vc
                w = basis.eval(2, np.repeat(tid, 4), basis.bary(np.repeat(tid, 4), pts))
                integ += np.einsum("ijd,id->ij", w, nvec) / 3.0
        for gi, gj, si, sj in items:
            want = 1.0 if gi == gj else 0.0
            dev = max(dev, abs(float(integ[si, sj]) - want))
    return dev


def spai_lstsq_loop(H, level: int = 0):
    """(M, residual) of the sparse approximate inverse, one dense lstsq per column."""
    if not sparse.issparse(H):
        H = sparse.csr_matrix(H)
    n = H.shape[0]
    Hc = H.tocsc()
    Pc = _neighbor_pattern(H, level)

    rows_out = []
    cols_out = []
    vals_out = []
    for j in range(n):
        J = Pc.indices[Pc.indptr[j] : Pc.indptr[j + 1]]
        sub = Hc[:, J]
        I = np.unique(sub.indices)
        A = sub.tocsr()[I].toarray()
        b = np.zeros(len(I))
        pos = np.searchsorted(I, j)
        if pos >= len(I) or I[pos] != j:
            raise np.linalg.LinAlgError(
                f"column {j}: unit vector outside restricted row set"
            )
        b[pos] = 1.0
        x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < len(J):
            raise np.linalg.LinAlgError(
                f"column {j}: singular restricted least-squares block"
            )
        rows_out.append(np.full(len(J), j))
        cols_out.append(J)
        vals_out.append(x)

    # Rows of M are the solved columns of the left inverse: M[j, J] = x.
    M = sparse.coo_matrix(
        (np.concatenate(vals_out), (np.concatenate(rows_out), np.concatenate(cols_out))),
        shape=(n, n),
    ).tocsr()
    R = M @ H - sparse.eye(n, format="csr")
    residual = float(np.sqrt((R.multiply(R.conjugate())).sum().real))
    return M, residual


def locate_walk(basis, point: np.ndarray, seed: int = 0, tol: float = 1e-10):
    """Walk from tet ``seed`` toward ``point``, one ``bary`` per step; scan fallback."""
    t = int(seed)
    m = basis.complex.n_tets
    for _ in range(4 * m + 8):
        lam = basis.bary(np.array([t]), point.reshape(1, 3))[0]
        worst = int(np.argmin(lam))
        if lam[worst] >= -tol:
            return t, np.clip(lam, 0.0, None) / np.clip(lam, 0.0, None).sum()
        # Walking crosses the face opposite the most negative coordinate.
        nxt = basis.neighbors[t, worst]
        if nxt < 0:
            break
        t = int(nxt)
    t, lam = basis._scan(point, tol)
    return t, np.clip(lam, 0.0, None) / np.clip(lam, 0.0, None).sum()


def interpolate_point(basis, cochain, tet: int, lam: np.ndarray):
    """Whitney interpolation of a primal cochain at one located point."""
    tids = np.array([tet])
    lam = lam.reshape(1, 4)
    coeffs = cochain.values[basis.local_indices(cochain.degree, tids)]
    vals = basis.eval(cochain.degree, tids, lam)
    if cochain.degree in (0,):
        return complex(np.einsum("kq,kq->k", coeffs, vals)[0]) if np.iscomplexobj(
            coeffs
        ) else float(np.einsum("kq,kq->k", coeffs, vals)[0])
    if cochain.degree == 3:
        out = coeffs[:, 0] * vals
        return complex(out[0]) if np.iscomplexobj(coeffs) else float(out[0])
    return np.einsum("kq,kqd->kd", coeffs, vals)[0]


def interpolate_at_points_loop(basis, cochain, points: np.ndarray, seed: int = 0) -> np.ndarray:
    """Interpolate at many points, walking between consecutive locations."""
    points = np.atleast_2d(points)
    out = []
    t = seed
    for x in points:
        t, lam = locate_walk(basis, x, seed=t)
        out.append(interpolate_point(basis, cochain, t, lam))
    return np.asarray(out)


def _deposit_segment(basis, tet, lam_start, lam_end, qdot, current) -> None:
    mean = 0.5 * (lam_start + lam_end)
    delta = lam_end - lam_start
    a = basis.edge_local[tet, :, 0]
    b = basis.edge_local[tet, :, 1]
    coeff = qdot * (mean[a] * delta[b] - mean[b] * delta[a])
    np.add.at(current, basis.complex.tet_edges[tet], coeff)


_E0 = np.array([1.0, 0.0, 0.0, 0.0])  # lambda_0 = 1 + grad(lambda_0) . (x - v0)


def walk_matmul(basis, t: int, ends: np.ndarray, tol: float):
    """Split the chord ``ends`` (2, 3) at the faces it crosses, walking from tet
    ``t``: the within-tet segments (tet and both chord ends' coordinates), the
    chord parameters where each is entered and left, and whether the chord
    left the mesh; None if the walk reaches its step cap."""
    origin, grads, neighbors = basis.origin, basis.grads, basis.neighbors
    segments, bounds = [], [0.0]
    for _ in range(8 * basis.complex.n_tets + 16):
        # Raw affine coordinates of both chord ends in t (identical endpoints
        # give exact zeros); along the chord they are affine in the parameter.
        a, b = ((ends - origin[t]) @ grads[t].T + _E0).tolist()
        segments.append((t, a, b))
        if min(b) >= -tol:
            bounds.append(1.0)
            return segments, bounds, False
        # Leave t by the face whose coordinate reaches zero first (lowest index on a tie).
        s, worst = np.inf, 0
        for i in range(4):
            if b[i] - a[i] < -tol and a[i] / (a[i] - b[i]) < s:
                s, worst = a[i] / (a[i] - b[i]), i
        bounds.append(min(max(s, bounds[-1]), 1.0))
        t = int(neighbors[t, worst])
        if t < 0:
            return segments, bounds, True
    return None


def walk_row_reads(basis, t: int, ends: np.ndarray, tol: float):
    """Split the chord ``ends`` (2, 3) at the faces it crosses, walking from tet
    ``t`` in fixed-order scalar float arithmetic: the within-tet segments (tet
    and both chord ends' coordinates), the chord parameters where each is
    entered and left, and whether the chord left the mesh; None if the walk
    reaches its step cap."""
    origin, grads, neighbors = basis.origin, basis.grads, basis.neighbors
    (xa, ya, za), (xb, yb, zb) = ends.tolist()
    segments, bounds = [], [0.0]
    for _ in range(8 * basis.complex.n_tets + 16):
        # Raw affine coordinates (x - v0) . grad(lambda_i), plus 1 for lambda_0,
        # of both chord ends in t (identical endpoints give exact zeros); along
        # the chord they are affine in the parameter.
        (ox, oy, oz), g = origin[t].tolist(), grads[t].tolist()
        ax, ay, az, bx, by, bz = xa - ox, ya - oy, za - oz, xb - ox, yb - oy, zb - oz
        a = [ax * gx + ay * gy + az * gz for gx, gy, gz in g]
        b = [bx * gx + by * gy + bz * gz for gx, gy, gz in g]
        a[0] += 1.0
        b[0] += 1.0
        segments.append((t, a, b))
        if min(b) >= -tol:
            bounds.append(1.0)
            return segments, bounds, False
        # Leave t by the face whose coordinate reaches zero first (lowest index on a tie).
        s, worst = np.inf, 0
        for i in range(4):
            if b[i] - a[i] < -tol and a[i] / (a[i] - b[i]) < s:
                s, worst = a[i] / (a[i] - b[i]), i
        bounds.append(min(max(s, bounds[-1]), 1.0))
        t = int(neighbors[t, worst])
        if t < 0:
            return segments, bounds, True
    return None


def conservation_residual_all_edges(complex, current: np.ndarray, rate: np.ndarray) -> float:
    """Max node residual between ``rate`` and the signed edge ``current``
    summed into each node, with both bincounts over every edge."""
    nv = complex.n_vertices
    head, tail = complex.edges[:, 1], complex.edges[:, 0]
    inflow = np.bincount(head, current, nv) - np.bincount(tail, current, nv)
    return float(np.abs(inflow - rate).max())


def scatter_current_loop(basis, x_start, x_end, q: float, tau: float, tol: float = 1e-12):
    """(node charge, node rate, edge current, exited) of a straight path,
    split one crossing at a time and deposited one segment at a time."""
    cx = basis.complex
    qdot = q / tau
    x_start = np.asarray(x_start, dtype=float)
    x_end = np.asarray(x_end, dtype=float)

    rate = np.zeros(cx.n_vertices)
    final = np.zeros(cx.n_vertices)
    current = np.zeros(cx.n_edges)
    t, _ = locate_walk(basis, x_start)
    # Raw affine coordinates, so identical endpoints give exact zeros.
    lam_here = basis.bary(np.array([t]), x_start.reshape(1, 3))[0]
    np.add.at(rate, cx.tets[t], -qdot * lam_here)  # charge leaves the start

    x_here = x_start
    exited = False
    neighbors = basis.neighbors
    for _ in range(8 * cx.n_tets + 16):
        lam_target = basis.bary(np.array([t]), x_end.reshape(1, 3))[0]
        if lam_target.min() >= -tol:
            _deposit_segment(basis, t, lam_here, lam_target, qdot, current)
            np.add.at(rate, cx.tets[t], qdot * lam_target)
            np.add.at(final, cx.tets[t], q * np.clip(lam_target, 0.0, None))
            break
        # Exit parameter per decreasing coordinate; cross the earliest face.
        dlam = lam_target - lam_here
        with np.errstate(divide="ignore", invalid="ignore"):
            taus = np.where(dlam < -tol, lam_here / -dlam, np.inf)
        s = float(np.clip(taus.min(), 0.0, 1.0))
        worst = int(np.argmin(taus))
        x_cross = x_here + s * (x_end - x_here)
        lam_cross = lam_here + s * dlam
        _deposit_segment(basis, t, lam_here, lam_cross, qdot, current)
        nxt = neighbors[t, worst]
        if nxt < 0:
            np.add.at(rate, cx.tets[t], qdot * lam_cross)
            np.add.at(final, cx.tets[t], q * np.clip(lam_cross, 0.0, None))
            exited = True
            break
        t = int(nxt)
        x_here = x_cross
        lam_here = basis.bary(np.array([t]), x_here.reshape(1, 3))[0]
    else:
        raise RuntimeError("path splitting did not terminate")
    return final, rate, current, exited


# -- E-form leapfrog ---------------------------------------------------------


def faraday_step(C1: sparse.spmatrix, E: np.ndarray) -> np.ndarray:
    """Circulation of E around each face: the (metric-free) rate -dB/dt."""
    return C1 @ E


def leapfrog_e_form_loop(
    codiff: DiscreteCodifferential,
    dt: float,
    steps: int,
    E0: np.ndarray | None = None,
    B0: np.ndarray | None = None,
    source=None,
    trace_every: int = 1,
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """March the staggered leapfrog and record the energy trace.

    The magnetic field is staggered to half steps by a half-step start
    B(dt/2) = B(0) - (dt/2) C1 E(0); energies are reported at integer
    steps with the magnetic cochain averaged across the two neighboring
    half steps.  Divergence blow-up (non-finite values, checked every 25
    steps and at the last) aborts with a diagnostic.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ops = codiff.ops
    E = np.zeros(ops.n_edges) if E0 is None else np.array(E0, dtype=float)
    B = np.zeros(ops.n_faces) if B0 is None else np.array(B0, dtype=float)

    rows = []
    div_scale = max(float(np.abs(B).max(initial=0.0)), 1.0)
    div_ref = None

    def record(step, t, Bprev, Bnext):
        nonlocal div_ref
        h, he, hm = hamiltonian(ops.Heps, ops.Hmu_inv, E, 0.5 * (Bprev + Bnext))
        divb = 0.0
        if ops.C2.shape[0]:
            # The discrete divergence is frozen by C2 C1 = 0; report the
            # drift from its initial value.
            div_now = ops.C2 @ Bnext
            if div_ref is None:
                div_ref = div_now
            divb = float(np.abs(div_now - div_ref).max(initial=0.0))
        rows.append((step, t, h, he, hm, float(he + Bprev @ (ops.Hmu_inv @ Bnext)), divb))
        return h

    B_half = B - 0.5 * dt * (ops.C1 @ E)
    h0 = record(0, 0.0, B, B_half)
    blowup_level = 1e10 * (abs(h0) + 1.0)
    for n in range(steps):
        B_prev = B_half
        J = None if source is None else np.asarray(source((n + 0.5) * dt), float)
        E = E + dt * ampere_step(B_half, codiff, J)
        B_half = B_half - dt * (ops.C1 @ E)
        if (n + 1) % 25 == 0 or n + 1 == steps:
            h, _, _ = hamiltonian(ops.Heps, ops.Hmu_inv, E, B_half)
            if not (np.isfinite(h) and h <= blowup_level and np.all(np.isfinite(B_half))):
                raise FloatingPointError(
                    f"field blow-up detected at step {n + 1}: energy {h!r} "
                    f"(dt={float(dt)!r} likely above the stability bound)"
                )
        if (n + 1) % trace_every == 0 or n + 1 == steps:
            record(n + 1, (n + 1) * dt, B_prev, B_half)

    arr = np.array(rows, dtype=float)
    # Columns in field order: steps, times, the four energies, div B.
    trace = Trace(arr[:, 0].astype(int), *arr[:, 1:6].T, arr[:, 6] / div_scale)
    return E, B_half, trace


# -- D-form leapfrog on integer incidence -------------------------------------


def leapfrog_run_loop(codiff, dt, steps, E0=None, B0=None, source=None, trace_every=1):
    """The displacement-form leapfrog and its record, step for step as
    ``leapfrog_run`` marched them on integer incidence.

    C1, C1^T and C2 are int64 copies of the operators' incidence, so every
    product with them casts their data to float64; a step without a source
    still subtracts J = 0.0; the operators are read off ``codiff`` at each
    use.  Returns (E, B, trace) as ``leapfrog_run`` does.
    """
    ops = codiff.ops
    C1 = ops.C1.astype(np.int64)
    C1T, C2 = C1.T.tocsr(), ops.C2.astype(np.int64)

    def march(E, B):
        D = ops.Heps @ E
        B_half = B - 0.5 * dt * (C1 @ E)
        HB = ops.Hmu_inv @ B_half
        yield E, D, B, B_half, ops.Hmu_inv @ B, HB
        for n in range(steps):
            B_prev, HB_prev = B_half, HB
            J = 0.0 if source is None else np.asarray(source((n + 0.5) * dt), float)
            D = D + dt * (C1T @ HB - J)
            E = codiff.solve_eps(D)
            B_half = B_half - dt * (C1 @ E)
            HB = ops.Hmu_inv @ B_half
            yield E, D, B_prev, B_half, HB_prev, HB

    E = np.zeros(ops.n_edges) if E0 is None else np.array(E0, dtype=float)
    B = np.zeros(ops.n_faces) if B0 is None else np.array(B0, dtype=float)
    rows = []
    div_scale = max(float(np.abs(B).max(initial=0.0)), 1.0)
    div_ref = None

    def record(step, E, D, Bprev, Bnext, HBprev, HBnext):
        nonlocal div_ref
        he = float(E @ D)
        hm = 0.25 * float((HBprev + HBnext) @ (Bprev + Bnext))
        div_now = C2 @ Bnext
        if div_ref is None:
            div_ref = div_now
        divb = float(np.abs(div_now - div_ref).max(initial=0.0))
        rows.append((step, step * dt, he + hm, he, hm, he + float(Bprev @ HBnext), divb))
        return he + hm

    fields_iter = march(E, B)
    fields = next(fields_iter)
    blowup_level = 1e10 * (abs(record(0, *fields)) + 1.0)
    for n, fields in enumerate(fields_iter, 1):
        E, D, _, B_half, _, HB = fields
        if n % 25 == 0 or n == steps:
            h = float(E @ D) + float(B_half @ HB)
            if not (np.isfinite(h) and h <= blowup_level and np.all(np.isfinite(B_half))):
                raise FloatingPointError(f"field blow-up detected at step {n}")
        if n % trace_every == 0 or n == steps:
            record(n, *fields)

    arr = np.array(rows, dtype=float)
    trace = Trace(arr[:, 0].astype(int), *arr[:, 1:6].T, arr[:, 6] / div_scale)
    return fields[0], fields[3], trace


def write_trace_csv(trace: Trace, path) -> None:
    """The trace CSV written row by row through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["step", "time_s", "H_total_J", "H_electric_J", "H_magnetic_J",
             "H_invariant_J", "div_B_residual_rel"]
        )
        columns = (trace.times, trace.h_total, trace.h_electric, trace.h_magnetic,
                   trace.h_invariant, trace.div_b_residual)
        for step, *values in zip(trace.steps, *columns):
            w.writerow([int(step)] + [repr(float(v)) for v in values])


def graph_rank_coo(mat: sparse.spmatrix, what: str) -> RankBound:
    """Rank of a matrix whose rows are graph edges ``(a, -a)`` or grounds ``(a)``."""
    m, n = mat.shape
    coo = sparse.coo_matrix(mat)
    keep = coo.data != 0
    order = np.argsort(coo.row[keep], kind="stable")
    rows, cols, vals = coo.row[keep][order], coo.col[keep][order], coo.data[keep][order]
    per_row = np.bincount(rows, minlength=m)
    if per_row.max(initial=0) > 2:
        r = int(np.argmax(per_row))
        return RankBound(0, min(m, n), f"{what} {r} has {per_row[r]} nonzeros")
    pair = per_row[rows] == 2
    head, tail = vals[pair][0::2], vals[pair][1::2]
    if np.any(head != -tail):
        r = int(rows[pair][0::2][np.argmax(head != -tail)])
        return RankBound(0, min(m, n), f"{what} {r} is not one +a and one -a")
    a, b = cols[pair][0::2], cols[pair][1::2]
    graph = sparse.coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
    n_comp, labels = csgraph.connected_components(graph, directed=False)
    grounded = np.zeros(n_comp, dtype=bool)
    grounded[labels[cols[~pair]]] = True
    rank = n - int(np.count_nonzero(~grounded))
    return RankBound(rank, rank, "graph components")


def symmetry_deviation_multiply(H: sparse.spmatrix) -> float:
    """Relative asymmetry ||H - H^T||_F / ||H||_F."""
    H = sparse.csr_matrix(H)
    d = H - H.T
    hnorm = np.sqrt(abs((H.multiply(H.conjugate())).sum()))
    return float(np.sqrt(abs((d.multiply(d.conjugate())).sum())) / hnorm)
