"""Lowest-order Whitney forms: evaluation, reduction, interpolation.

The degree-p basis attached to a canonical (sorted-vertex) simplex is built
from barycentric coordinates and their constant per-tet gradients:

* degree 0, node i:        lambda_i
* degree 1, edge (i, j):   lambda_i grad(lambda_j) - lambda_j grad(lambda_i)
* degree 2, face (i, j, k): 2 (lambda_i grad(lambda_j) x grad(lambda_k) + cyclic)
* degree 3, tet:           the constant density 1 / volume

Cochain extraction (integration of a smooth field over each simplex) and
its right inverse, interpolation of a cochain back to a field, both live
here, along with the numerical checks of the two structural identities:
simplex-vs-basis pairing equal to the Kronecker delta, and the exterior
derivative of a basis form equal to the basis expansion of its coboundary.

All simplex integrals go through one routine, ``_integrate``, with
degree-2 exact rules (point values, 2-point edges, 3-point triangles,
4-point tets); products of lowest-order proxies are at most quadratic per
cell, so the structural integrals are exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import _TET_EDGE_SLOTS, _TET_FACE_SLOTS, SimplicialComplex

__all__ = [
    "Cochain",
    "AnalyticForm",
    "OutsideMeshError",
    "WhitneyBasis",
    "de_rham",
    "interpolate_at_points",
    "verify_partition_duality",
    "verify_coboundary",
]

# Degree-2 symmetric quadrature rules in barycentric coordinates.
_GAUSS2_EDGE = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_TRI3 = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)
_TET_A = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
_TET_B = (5.0 - np.sqrt(5.0)) / 20.0
_TET4 = np.full((4, 4), _TET_B) + (_TET_A - _TET_B) * np.eye(4)

# A point is in a tet when none of its barycentric coordinates there is below -_LOCATE_TOL.
_LOCATE_TOL = 1e-10


def _integrate(corners: np.ndarray, proxy) -> np.ndarray:
    """Integral of a proxy over each oriented k-simplex, degree-2 exact.

    ``corners`` (K, k+1, 3) lists each simplex's vertices in orientation
    order; ``proxy`` maps (K, 3) points, one per simplex, to (K, ...)
    scalars (k = 0, 3) or (K, ..., 3) vectors (k = 1, 2).  The result
    (K, ...) is the point value for k = 0, the proxy dotted into the
    tangent (k = 1) or the area normal (k = 2), and the proxy as a density
    times the |volume| for k = 3.
    """
    k = corners.shape[1] - 1
    c = corners.transpose(1, 0, 2)  # c[i]: corner i of every simplex
    if k == 0:
        return np.asarray(proxy(c[0]))
    vec = None  # tangent or area normal the proxy is dotted into
    if k == 1:
        vec = c[1] - c[0]
        nodes = [c[0] + t * vec for t in _GAUSS2_EDGE]
    elif k == 2:
        vec = 0.5 * np.cross(c[1] - c[0], c[2] - c[0])
        nodes = [la * c[0] + lb * c[1] + lc * c[2] for la, lb, lc in _TRI3]
    else:
        nodes = [np.einsum("q,kqd->kd", lam, corners) for lam in _TET4]
    total = 0.0
    for x in nodes:
        val = np.asarray(proxy(x))
        if vec is not None:
            val = np.einsum("k...d,kd->k...", val, vec)
        total = total + val / len(nodes)
    if k < 3:
        return total
    triple = np.einsum("kd,kd->k", np.cross(c[1] - c[0], c[2] - c[0]), c[3] - c[0])
    return total * (np.abs(triple) / 6.0).reshape((-1,) + (1,) * (total.ndim - 1))


class OutsideMeshError(ValueError):
    """Raised when a query point lies in no tet of the complex."""


@dataclass
class Cochain:
    """Degree-p coefficient array on the primal lattice."""

    degree: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.degree not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be in 0..3")


@dataclass
class AnalyticForm:
    """Smooth p-form given through its proxy (scalar for p=0,3; vector else)."""

    degree: int
    fn: object

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(points))


class WhitneyBasis:
    """Per-tet caches for barycentric gradients; the tet adjacency, the
    (M, 15) walk frames (v0, then the four barycentric gradients, one row
    per tet), the tet centroids and the seed grid are built on first use."""

    def __init__(self, complex: SimplicialComplex):
        cx = complex
        self.complex = cx
        tv = cx.vertices[cx.tets]  # (M, 4, 3)
        edge_mat = tv[:, 1:] - tv[:, :1]  # rows v1-v0, v2-v0, v3-v0
        grads = np.transpose(np.linalg.inv(edge_mat), (0, 2, 1))  # rows are grad(lam_1..3)
        self.grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
        self.origin = tv[:, 0]
        self.scans = 0  # points located by the exhaustive-scan fallback

    # -- barycentric coordinates ------------------------------------------

    def bary(self, tets: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Barycentric coordinates of ``points`` (K,3) w.r.t. tets (K,)."""
        tets = np.atleast_1d(np.asarray(tets, dtype=np.int64))
        points = np.atleast_2d(points)
        rel = points - self.origin[tets]
        # lam_i = grad(lam_i) . (x - v0) for i = 1..3; lam_0 closes the sum.
        lam123 = np.einsum("kid,kd->ki", self.grads[tets, 1:], rel)
        lam0 = 1.0 - lam123.sum(axis=1, keepdims=True)
        return np.concatenate([lam0, lam123], axis=1)

    neighbors = cached_property(lambda self: self.complex.tet_neighbors())
    frames = cached_property(lambda self: np.hstack([self.origin, self.grads.reshape(-1, 12)]))
    centroids = cached_property(lambda self: self.complex.vertices[self.complex.tets].mean(axis=1))

    @staticmethod
    def _buckets(points: np.ndarray, lo: np.ndarray, h: float, shape: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a far point's cell overflows to inf, then clips
            cell = np.clip(np.floor((points - lo) / h), 0, shape - 1).astype(np.int64)
        return cell @ (shape[1] * shape[2], shape[2], 1)  # row-major bucket index

    @cached_property
    def _grid(self) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """The seed grid (lo, h, shape, seed tet per bucket): one cube per three
        tets over the bounding box (finer grids leave more buckets empty),
        each bucket seeded with the first tet whose centroid lies in it."""
        v = self.complex.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        h = float(3.0 * np.prod(hi - lo) / self.complex.n_tets) ** (1.0 / 3.0)
        shape = np.maximum(np.ceil((hi - lo) / h), 1).astype(np.int64)
        buckets, first = np.unique(self._buckets(self.centroids, lo, h, shape), return_index=True)
        # A bucket without a centroid borrows the seed of the last filled one before it.
        below = np.searchsorted(buckets, np.arange(np.prod(shape)), side="right") - 1
        return lo, h, shape, first[np.maximum(below, 0)]

    def _seeds(self, points: np.ndarray) -> np.ndarray:
        """Start tet per point from the seed grid; OutsideMeshError if one is not finite."""
        if not np.isfinite(points).all():
            raise OutsideMeshError("a point with a non-finite coordinate lies in no tet")
        lo, h, shape, seeds = self._grid
        return seeds[self._buckets(points, lo, h, shape)]

    def _seed(self, x: float, y: float, z: float) -> int:
        """``_seeds`` for one finite point in scalar floats (clipping first keeps the cell)."""
        lo, h, shape, seeds = self._grid
        (lx, ly, lz), (nx, ny, nz) = lo.tolist(), shape.tolist()
        i = int(min(max((x - lx) / h, 0.0), nx - 1))
        j = int(min(max((y - ly) / h, 0.0), ny - 1))
        k = int(min(max((z - lz) / h, 0.0), nz - 1))
        return int(seeds[(i * ny + j) * nz + k])

    def locate_all(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tet and clipped barycentric coordinates of each of ``points`` (K, 3).

        Each point starts at its grid seed and crosses, one array step at a
        time, the face opposite its most negative coordinate until all four
        are >= -``_LOCATE_TOL``.  A walk that meets the boundary or runs
        4 M + 8 steps falls back to the exhaustive scan (counted in
        ``scans``), which raises OutsideMeshError for a point in no tet.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        tets = self._seeds(points)
        lam = np.empty((len(points), 4))
        todo = np.arange(len(points))
        for _ in range(4 * self.complex.n_tets + 8):
            lam[todo] = lt = self.bary(tets[todo], points[todo])
            worst = lt.argmin(axis=1)
            walk = lt[np.arange(len(todo)), worst] < -_LOCATE_TOL
            todo = todo[walk]
            # Cross the face opposite the most negative coordinate (-1: boundary).
            tets[todo] = self.neighbors[tets[todo], worst[walk]]
            todo = todo[tets[todo] >= 0]
            if len(todo) == 0:
                break
        for k in np.concatenate([todo, np.flatnonzero(tets < 0)]):
            self.scans += 1
            tets[k], lam[k] = self._scan(points[k])
        lam = np.maximum(lam, 0.0)
        return tets, lam / lam.sum(axis=1, keepdims=True)

    def locate(self, point: np.ndarray) -> tuple[int, np.ndarray]:
        """``locate_all`` for one point: (tet, clipped barycentric coordinates)."""
        tets, lam = self.locate_all(point)
        return int(tets[0]), lam[0]

    def _scan(self, point: np.ndarray) -> tuple[int, np.ndarray]:
        """The tet with the largest smallest coordinate, and its raw coordinates."""
        lam = self.bary(np.arange(self.complex.n_tets), point)
        worst = lam.min(axis=1)
        best = int(np.argmax(worst))
        if worst[best] < -_LOCATE_TOL:
            raise OutsideMeshError(f"point {point.tolist()} lies outside the mesh")
        return best, lam[best]

    # -- basis values -------------------------------------------------------

    def eval(self, p: int, tets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Degree-p basis values in ``tets`` at barycentric points ``lam``.

        ``tets`` (K,) with ``lam`` (K, 4) is one point per tet: (K, 4) values
        for degree 0, (K,) for 3 and (K, n, 3) for 1 and 2.  For degrees 1
        and 2, the column ``tets[:, None]`` with ``lam`` (P, 4) takes the same
        P points in every tet: the per-tet gradient factors are gathered once
        and broadcast over the points, giving (K, P, n, 3).
        """
        if p == 0:
            return np.asarray(lam)
        if p == 3:
            return 1.0 / self.complex.volumes[tets]
        if p not in (1, 2):
            raise ValueError("degree must be in 0..3")
        # Every row is sorted, so slot k holds the same row positions in each tet.
        t = np.asarray(tets)[..., None]
        if p == 1:
            a, b = _TET_EDGE_SLOTS.T
            return lam[:, a, None] * self.grads[t, b] - lam[:, b, None] * self.grads[t, a]
        f = _TET_FACE_SLOTS
        out = 0.0
        for (ia, ib, ic) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            cross = np.cross(self.grads[t, f[:, ib]], self.grads[t, f[:, ic]])
            out = out + lam[:, f[:, ia], None] * cross
        return 2.0 * out  # (..., 4, 3)

    def local_indices(self, p: int, tets: np.ndarray) -> np.ndarray:
        """Global simplex ids backing each local basis slot."""
        cx = self.complex
        if p == 0:
            return cx.tets[tets]
        if p == 1:
            return cx.tet_edges[tets]
        if p == 2:
            return cx.tet_faces[tets]
        return np.asarray(tets).reshape(-1, 1)

    def local_signs(self, p: int) -> np.ndarray:
        """(M, n_p, n_{p-1}) entries of the incidence matrix C^{p-1}, read
        at each tet's p-simplices (rows) and (p-1)-simplices (columns)."""
        tets = np.arange(self.complex.n_tets)
        rows = self.local_indices(p, tets)
        cols = self.local_indices(p - 1, tets)
        shape = rows.shape + cols.shape[1:]
        r = np.broadcast_to(rows[:, :, None], shape).ravel()
        c = np.broadcast_to(cols[:, None, :], shape).ravel()
        return np.asarray(self.complex.incidence(p - 1)[r, c]).reshape(shape)


def de_rham(form: AnalyticForm, complex: SimplicialComplex) -> Cochain:
    """Reduce a smooth form to a primal cochain of its degree by integrating simplex-wise.

    Degree-2 Gaussian rules per simplex; exact for polynomial proxies up to
    quadratic, so reducing an interpolated lowest-order field is exact.
    """
    if not isinstance(form, AnalyticForm):
        raise TypeError("expected an AnalyticForm")
    p = form.degree
    if p not in (0, 1, 2, 3):
        raise ValueError("degree must be in 0..3")
    return Cochain(p, _integrate(complex.vertices[complex.simplices(p)], form))


def _interpolate_located(
    basis: WhitneyBasis, cochain: Cochain, tets: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Whitney interpolation at located points: (K,) for degrees 0 and 3,
    (K, 3) for 1 and 2, complex for a complex cochain."""
    coeffs = cochain.values[basis.local_indices(cochain.degree, tets)]
    vals = basis.eval(cochain.degree, tets, lam)
    if cochain.degree == 0:
        return np.einsum("kq,kq->k", coeffs, vals)
    if cochain.degree == 3:
        return coeffs[:, 0] * vals
    return np.einsum("kq,kqd->kd", coeffs, vals)


def interpolate_at_points(
    basis: WhitneyBasis, cochain: Cochain, points: np.ndarray
) -> np.ndarray:
    """Interpolate at each of ``points`` (K, 3): one batched location, then
    one basis evaluation over all points."""
    return _interpolate_located(basis, cochain, *basis.locate_all(points))


# -- structural identity checks ---------------------------------------------


def verify_partition_duality(
    complex: SimplicialComplex, p: int, basis: WhitneyBasis | None = None
) -> float:
    """Max deviation of the pairing <simplex_i, basis_j> from the identity.

    Scans every (i, j) pair sharing at least one tet, in the first tet that
    holds both; the pairing vanishes identically elsewhere because the
    basis has compact support and its trace on outside simplices is zero.
    """
    if p not in (0, 1, 2):
        raise ValueError("pairing check covers degrees 0, 1, 2")
    basis = basis or WhitneyBasis(complex)
    cx = complex
    m = cx.n_tets
    local = basis.local_indices(p, np.arange(m))  # (M, n_loc)
    n_loc = local.shape[1]
    rows = np.repeat(np.arange(m), n_loc)  # one row per (tet, local simplex)

    # integ[t, si, sj]: basis form sj of tet t integrated over simplex si.
    corners = cx.vertices[cx.simplices(p)[local.ravel()]]
    integ = _integrate(corners, lambda x: basis.eval(p, rows, basis.bary(rows, x)))
    integ = integ.reshape(m, n_loc, n_loc)

    gi = np.broadcast_to(local[:, :, None], integ.shape).ravel()
    gj = np.broadcast_to(local[:, None, :], integ.shape).ravel()
    # Tets are scanned in order, so the first index of a pair is its first owner.
    _, first = np.unique(gi * cx.n_simplices(p) + gj, return_index=True)
    want = (gi[first] == gj[first]).astype(float)
    return float(np.abs(integ.ravel()[first] - want).max())


def verify_coboundary(
    complex: SimplicialComplex, p: int, basis: WhitneyBasis | None = None
) -> float:
    """Max pointwise deviation of d(basis^{p-1}) from its coboundary expansion.

    Both sides are evaluated at the degree-2 tet quadrature nodes and the
    barycenter of every tet, in one broadcast evaluation; the expansion's
    signs are read from the complex's incidence matrix C^{p-1}.
    """
    basis = basis or WhitneyBasis(complex)
    m = complex.n_tets
    g = basis.grads
    k = np.arange(m)[:, None]
    # d of each local degree-(p-1) basis form, constant per tet: (M, n_{p-1}, 3 or 1).
    if p == 1:
        d_prev = g
    elif p == 2:
        d_prev = 2.0 * np.cross(g[:, _TET_EDGE_SLOTS[:, 0]], g[:, _TET_EDGE_SLOTS[:, 1]])
    elif p == 3:
        fa, fb, fc = (g[:, _TET_FACE_SLOTS[:, i]] for i in range(3))
        d_prev = 6.0 * np.einsum("mfd,mfd->mf", fa, np.cross(fb, fc))[:, :, None]
    else:
        raise ValueError("coboundary check covers degrees 1, 2, 3")
    signs = basis.local_signs(p).astype(float)  # (M, n_p, n_{p-1})
    nodes = np.vstack([_TET4, np.full((1, 4), 0.25)])
    w = basis.eval(p, k, nodes)  # (M, 5, n_p, 3), or (M, 1) for p = 3
    rhs = np.einsum("mts,mqtd->mqsd", signs, w.reshape(m, -1, signs.shape[1], d_prev.shape[2]))
    return float(np.abs(rhs - d_prev[:, None]).max())
