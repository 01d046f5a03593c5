"""Independent oracles used by the tests.

Everything here is implemented from scratch, on purpose: skeleton
enumeration by set algebra, simplex quadrature by a conical-product rule
built from Gauss-Jacobi roots, its own barycentric-gradient evaluation,
a layered 1D transfer-matrix model for absorbing-layer reflection, and
tet-at-a-time dihedral angles.
None of it shares code paths with the package.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


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
