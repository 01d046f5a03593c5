"""Deterministic mesh generators for the shipped test geometries.

Everything here is reproducible without external meshing tools: a single
tet, boxes subdivided into path tetrahedra (six per cube, all sharing the
main diagonal), an annular ring of prisms split into tets (one handle, for
first-Betti-number tests), a sliver-dominated mesh for conditioning
studies, and a jittered box for irregular-lattice property tests.
"""

from __future__ import annotations

import numpy as np

from .mesh import SimplicialComplex

__all__ = [
    "single_tet",
    "regular_tet",
    "kuhn_cube",
    "box_mesh",
    "jittered_box_mesh",
    "annulus_mesh",
    "sliver_mesh",
]

_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
# The annulus's square cross-section as (radius, height) corners: inner
# radius 1, outer radius 2, height 1.
_ANNULUS_SECTION = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])


def single_tet() -> SimplicialComplex:
    """Unit right tet: vertices at the origin and the three unit axes."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return SimplicialComplex(verts, np.array([[0, 1, 2, 3]]))


def regular_tet() -> SimplicialComplex:
    """Regular tetrahedron of unit edge length."""
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, np.sqrt(3.0) / 2.0, 0.0],
            [0.5, np.sqrt(3.0) / 6.0, np.sqrt(2.0 / 3.0)],
        ]
    )
    return SimplicialComplex(verts, np.array([[0, 1, 2, 3]]))


def box_mesh(
    nx: int,
    ny: int | None = None,
    nz: int | None = None,
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> SimplicialComplex:
    """Box of nx*ny*nz cells, each cell split into six path tets.

    All six tets of a cell share the cell's main diagonal, so neighboring
    cells match faces and the subdivision is conforming.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    return SimplicialComplex(*_box_arrays(nx, ny, nz, lengths))


def _box_arrays(nx: int, ny: int, nz: int, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and (not yet canonical) tets of ``box_mesh``."""
    if min(nx, ny, nz) < 1:
        raise ValueError("box_mesh needs at least one cell per axis")
    xs = np.linspace(0.0, lengths[0], nx + 1)
    ys = np.linspace(0.0, lengths[1], ny + 1)
    zs = np.linspace(0.0, lengths[2], nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    ii, jj, kk = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    corner = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    tets = []
    unit = np.eye(3, dtype=np.int64)
    for perm in _PERMS:
        steps = np.cumsum(unit[list(perm)], axis=0)
        quad = np.concatenate([np.zeros((1, 3), dtype=np.int64), steps], axis=0)
        pts = corner[:, None, :] + quad[None, :, :]
        tets.append(vid(pts[..., 0], pts[..., 1], pts[..., 2]))
    return verts, np.concatenate(tets, axis=0)


def kuhn_cube() -> SimplicialComplex:
    """Unit cube split into six tets (8 vertices, 19 edges, 18 faces)."""
    return box_mesh(1, 1, 1)


def jittered_box_mesh(
    n: int, amplitude: float = 0.15, seed: int = 0
) -> SimplicialComplex:
    """Box mesh with interior vertices perturbed by a seeded RNG.

    Produces an irregular but valid lattice; the boundary stays flat so
    boundary classification matches the unperturbed box.
    """
    verts, tets = _box_arrays(n, n, n, (1.0, 1.0, 1.0))
    h = 1.0 / n
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    interior = np.all((verts > lo + 1e-12) & (verts < hi - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    verts[interior] += amplitude * h * (rng.random((int(interior.sum()), 3)) - 0.5)
    return SimplicialComplex(verts, tets)


def _split_prism(prism: list[int]) -> list[tuple[int, int, int, int]]:
    # Min-global-index diagonal rule: rotate/flip so the smallest vertex id
    # sits at position 0; shared quad faces then split identically in the
    # two prisms that share them.
    states = []
    cur = list(prism)
    for _ in range(3):
        states.append(list(cur))
        b, t = cur[:3], cur[3:]
        cur = [b[1], b[2], b[0], t[1], t[2], t[0]]
    flipped = [prism[3], prism[5], prism[4], prism[0], prism[2], prism[1]]
    cur = list(flipped)
    for _ in range(3):
        states.append(list(cur))
        b, t = cur[:3], cur[3:]
        cur = [b[1], b[2], b[0], t[1], t[2], t[0]]
    v = min(states, key=lambda s: s[0])
    v0, v1, v2, v3, v4, v5 = v
    # Third quad (v1, v2, v5, v4): diagonal through its smallest vertex.
    if min(v1, v5) < min(v2, v4):
        return [(v0, v1, v2, v5), (v0, v1, v5, v4), (v0, v4, v5, v3)]
    return [(v0, v1, v2, v4), (v0, v4, v2, v5), (v0, v4, v5, v3)]


def annulus_mesh(n_segments: int = 8) -> SimplicialComplex:
    """Closed ring of prisms split into tets: a solid torus with b1 = 1.

    The square cross-section ``_ANNULUS_SECTION`` is split into two
    triangles; each triangle is extruded to the next angular station and
    the resulting prism is split by the min-index diagonal rule, which
    keeps shared quads conforming around the ring (including across the
    wrap seam).
    """
    if n_segments < 3:
        raise ValueError("annulus needs at least 3 segments")
    theta = 2.0 * np.pi * np.arange(n_segments) / n_segments
    verts = np.empty((4 * n_segments, 3))
    for k, th in enumerate(theta):
        r = _ANNULUS_SECTION[:, 0]
        verts[4 * k : 4 * k + 4, 0] = r * np.cos(th)
        verts[4 * k : 4 * k + 4, 1] = r * np.sin(th)
        verts[4 * k : 4 * k + 4, 2] = _ANNULUS_SECTION[:, 1]

    tets = []
    tris = [(0, 1, 2), (0, 2, 3)]
    for k in range(n_segments):
        nxt = (k + 1) % n_segments
        for tri in tris:
            bottom = [4 * k + j for j in tri]
            top = [4 * nxt + j for j in tri]
            tets.extend(_split_prism(bottom + top))
    return SimplicialComplex(verts, np.array(tets, dtype=np.int64))


def sliver_mesh(delta: float = 1e-3) -> SimplicialComplex:
    """Two sliver tets sharing a face; apex heights scale with ``delta``."""
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.30, 0.30, delta],
            [0.35, 0.35, -delta],
        ]
    )
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4]])
    return SimplicialComplex(verts, tets)
