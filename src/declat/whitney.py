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

import json
from dataclasses import dataclass

import numpy as np

from .mesh import SimplicialComplex

__all__ = [
    "Cochain",
    "BarycentricPoint",
    "AnalyticForm",
    "OutsideMeshError",
    "WhitneyBasis",
    "barycentric",
    "whitney_eval",
    "de_rham",
    "interpolate",
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
    """Degree-p coefficient array on the primal or dual lattice."""

    degree: int
    values: np.ndarray
    lattice: str = "primal"

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.degree not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be in 0..3")
        if self.lattice not in ("primal", "dual"):
            raise ValueError("lattice tag must be 'primal' or 'dual'")

    @classmethod
    def zeros(
        cls, complex: SimplicialComplex, degree: int, lattice: str = "primal",
        dtype=float,
    ) -> "Cochain":
        # Dual (3-p)-cells are in bijection with primal p-simplices, so the
        # array length is the primal count either way.
        return cls(degree, np.zeros(complex.n_simplices(degree), dtype=dtype), lattice)

    def to_json(self) -> str:
        vals = self.values
        if np.iscomplexobj(vals):
            payload = {"real": vals.real.tolist(), "imag": vals.imag.tolist()}
        else:
            payload = vals.tolist()
        return json.dumps(
            {"degree": self.degree, "lattice": self.lattice, "values": payload}
        )

    @classmethod
    def from_json(cls, text: str) -> "Cochain":
        obj = json.loads(text)
        vals = obj["values"]
        if isinstance(vals, dict):
            arr = np.asarray(vals["real"]) + 1j * np.asarray(vals["imag"])
        else:
            arr = np.asarray(vals, dtype=float)
        return cls(obj["degree"], arr, obj["lattice"])


@dataclass
class BarycentricPoint:
    """A point expressed as barycentric coordinates within one tet."""

    tet: int
    lam: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if self.lam.shape != (4,):
            raise ValueError("barycentric coordinates must have length 4")
        if self.lam.min() < -1e-12 or abs(self.lam.sum() - 1.0) > 1e-12:
            raise ValueError("invalid barycentric coordinates")


@dataclass
class AnalyticForm:
    """Smooth p-form given through its proxy (scalar for p=0,3; vector else)."""

    degree: int
    fn: object

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(points))


class WhitneyBasis:
    """Per-tet caches for barycentric gradients and local index maps."""

    def __init__(self, complex: SimplicialComplex):
        cx = complex
        self.complex = cx
        tv = cx.vertices[cx.tets]  # (M, 4, 3)
        edge_mat = tv[:, 1:] - tv[:, :1]  # rows v1-v0, v2-v0, v3-v0
        self.inv_edge = np.linalg.inv(edge_mat)  # (M, 3, 3)
        grads = np.transpose(self.inv_edge, (0, 2, 1))  # rows are grad(lam_1..3)
        self.grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
        self.origin = tv[:, 0]
        self.volumes = cx.volumes

        # Local edge/face vertex positions, ordered by ascending global id so
        # that every local basis function matches its canonical simplex.
        tets = cx.tets
        epair = cx.edges[cx.tet_edges]  # (M, 6, 2) global vertex ids
        self.edge_local = np.argmax(
            tets[:, None, None, :] == epair[:, :, :, None], axis=3
        )  # (M, 6, 2)
        ftri = cx.faces[cx.tet_faces]  # (M, 4, 3)
        self.face_local = np.argmax(
            tets[:, None, None, :] == ftri[:, :, :, None], axis=3
        )  # (M, 4, 3)
        self._neighbors = None
        self._grid = None  # seed grid for point location, built on first use
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

    def points_from_bary(self, tets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        tv = self.complex.vertices[self.complex.tets[tets]]
        return np.einsum("kq,kqd->kd", lam, tv)

    @property
    def neighbors(self) -> np.ndarray:
        if self._neighbors is None:
            self._neighbors = self.complex.tet_neighbors()
        return self._neighbors

    @staticmethod
    def _buckets(points: np.ndarray, lo: np.ndarray, h: float, shape: np.ndarray) -> np.ndarray:
        cell = np.minimum(np.maximum(np.floor((points - lo) / h), 0), shape - 1).astype(np.int64)
        return np.ravel_multi_index(cell.T, shape)

    def _seeds(self, points: np.ndarray) -> np.ndarray:
        """Start tet per point: the first tet whose centroid lies in the point's
        bucket, on a grid of one cube per three tets over the bounding box
        (finer grids leave more buckets empty), built on first use."""
        if self._grid is None:
            v = self.complex.vertices
            lo, hi = v.min(axis=0), v.max(axis=0)
            h = float(3.0 * np.prod(hi - lo) / self.complex.n_tets) ** (1.0 / 3.0)
            shape = np.maximum(np.ceil((hi - lo) / h), 1).astype(np.int64)
            centroids = v[self.complex.tets].mean(axis=1)
            buckets, first = np.unique(self._buckets(centroids, lo, h, shape), return_index=True)
            # A bucket without a centroid borrows the seed of the last filled one before it.
            below = np.searchsorted(buckets, np.arange(np.prod(shape)), side="right") - 1
            self._grid = (lo, h, shape, first[np.maximum(below, 0)])
        lo, h, shape, seeds = self._grid
        return seeds[self._buckets(points, lo, h, shape)]

    def locate_all(self, points: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
        """Tet and clipped barycentric coordinates of each of ``points`` (K, 3).

        Each point starts at its grid seed and crosses, one array step at a
        time, the face opposite its most negative coordinate until all four
        are >= -tol.  A walk that meets the boundary or runs 4 M + 8 steps
        falls back to the exhaustive scan (counted in ``scans``), which
        raises OutsideMeshError for a point in no tet.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        tets = self._seeds(points)
        lam = np.empty((len(points), 4))
        todo = np.arange(len(points))
        for _ in range(4 * self.complex.n_tets + 8):
            lam[todo] = lt = self.bary(tets[todo], points[todo])
            worst = lt.argmin(axis=1)
            walk = lt[np.arange(len(todo)), worst] < -tol
            todo = todo[walk]
            # Cross the face opposite the most negative coordinate (-1: boundary).
            tets[todo] = self.neighbors[tets[todo], worst[walk]]
            todo = todo[tets[todo] >= 0]
            if len(todo) == 0:
                break
        for k in np.concatenate([todo, np.flatnonzero(tets < 0)]):
            self.scans += 1
            tets[k], lam[k] = self._scan(points[k], tol)
        lam = np.maximum(lam, 0.0)
        return tets, lam / lam.sum(axis=1, keepdims=True)

    def locate(self, point: np.ndarray, tol: float = 1e-10) -> tuple[int, np.ndarray]:
        """``locate_all`` for one point: (tet, clipped barycentric coordinates)."""
        tets, lam = self.locate_all(point, tol)
        return int(tets[0]), lam[0]

    def _scan(self, point: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
        """The tet with the largest smallest coordinate, and its raw coordinates."""
        lam = self.bary(np.arange(self.complex.n_tets), point)
        worst = lam.min(axis=1)
        best = int(np.argmax(worst))
        if worst[best] < -tol:
            raise OutsideMeshError(f"point {point.tolist()} lies outside the mesh")
        return best, lam[best]

    # -- basis values -------------------------------------------------------

    def eval0(self, tets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return np.asarray(lam)

    def eval1(self, tets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        g = self.grads[tets]  # (K, 4, 3)
        a = self.edge_local[tets, :, 0]
        b = self.edge_local[tets, :, 1]
        k = np.arange(len(tets))[:, None]
        la, lb = lam[k, a], lam[k, b]
        ga, gb = g[k, a], g[k, b]
        return la[..., None] * gb - lb[..., None] * ga  # (K, 6, 3)

    def eval2(self, tets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        g = self.grads[tets]
        k = np.arange(len(tets))[:, None]
        out = 0.0
        for (ia, ib, ic) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            pa = self.face_local[tets, :, ia]
            pb = self.face_local[tets, :, ib]
            pc = self.face_local[tets, :, ic]
            out = out + lam[k, pa][..., None] * np.cross(g[k, pb], g[k, pc])
        return 2.0 * out  # (K, 4, 3)

    def eval3(self, tets: np.ndarray) -> np.ndarray:
        return 1.0 / self.volumes[tets]

    def eval(self, p: int, tets: np.ndarray, lam: np.ndarray) -> np.ndarray:
        if p == 0:
            return self.eval0(tets, lam)
        if p == 1:
            return self.eval1(tets, lam)
        if p == 2:
            return self.eval2(tets, lam)
        if p == 3:
            return self.eval3(tets)
        raise ValueError("degree must be in 0..3")

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


def _as_basis(complex_or_basis) -> WhitneyBasis:
    """The given basis, or a fresh one built on the given complex."""
    if isinstance(complex_or_basis, WhitneyBasis):
        return complex_or_basis
    return WhitneyBasis(complex_or_basis)


def barycentric(
    complex: SimplicialComplex, point, basis: WhitneyBasis | None = None
) -> BarycentricPoint:
    """Locate a point and return its tet index and barycentric coordinates."""
    basis = basis or WhitneyBasis(complex)
    t, lam = basis.locate(np.asarray(point, dtype=float))
    return BarycentricPoint(t, lam)


def whitney_eval(
    complex_or_basis, p: int, element: int, at: BarycentricPoint
) -> np.ndarray | float:
    """Value of the degree-p basis form of ``element`` at a located point.

    Returns 0 when the element is not a face of the point's tet (compact
    support).
    """
    basis = _as_basis(complex_or_basis)
    tids = np.array([at.tet])
    lam = at.lam.reshape(1, 4)
    local = basis.local_indices(p, tids)[0]
    hits = np.flatnonzero(local == element)
    if len(hits) == 0:
        return 0.0 if p in (0, 3) else np.zeros(3)
    vals = basis.eval(p, tids, lam)
    if p in (0, 3):
        return float(vals[0, hits[0]]) if p == 0 else float(vals[0])
    return vals[0, hits[0]]


def _as_callable(form) -> AnalyticForm:
    if isinstance(form, AnalyticForm):
        return form
    raise TypeError("expected an AnalyticForm")


def de_rham(
    form: AnalyticForm,
    complex: SimplicialComplex,
    p: int | None = None,
    basis: WhitneyBasis | None = None,
) -> Cochain:
    """Reduce a smooth form to a primal cochain by integrating simplex-wise.

    Degree-2 Gaussian rules per simplex; exact for polynomial proxies up to
    quadratic, so reducing an interpolated lowest-order field is exact.
    """
    form = _as_callable(form)
    p = form.degree if p is None else p
    if p != form.degree:
        raise ValueError("form degree does not match requested cochain degree")
    if p not in (0, 1, 2, 3):
        raise ValueError("degree must be in 0..3")
    return Cochain(p, _integrate(complex.vertices[complex.simplices(p)], form))


def _interpolate_located(
    basis: WhitneyBasis, cochain: Cochain, tets: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Whitney interpolation at located points: (K,) for degrees 0 and 3,
    (K, 3) for 1 and 2, complex for a complex cochain."""
    if cochain.lattice != "primal":
        raise ValueError("interpolation expects a primal cochain")
    coeffs = cochain.values[basis.local_indices(cochain.degree, tets)]
    vals = basis.eval(cochain.degree, tets, lam)
    if cochain.degree == 0:
        return np.einsum("kq,kq->k", coeffs, vals)
    if cochain.degree == 3:
        return coeffs[:, 0] * vals
    return np.einsum("kq,kqd->kd", coeffs, vals)


def interpolate(
    complex_or_basis, cochain: Cochain, at: BarycentricPoint
) -> np.ndarray | float:
    """Whitney interpolation of a primal cochain at a located point."""
    basis = _as_basis(complex_or_basis)
    vals = _interpolate_located(basis, cochain, np.array([at.tet]), at.lam.reshape(1, 4))
    return vals[0].item() if cochain.degree in (0, 3) else vals[0]


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
    barycenter of every tet; the expansion's signs are read from the
    complex's incidence matrix C^{p-1}.
    """
    basis = basis or WhitneyBasis(complex)
    m = complex.n_tets
    g = basis.grads
    k = np.arange(m)[:, None]
    # d of each local degree-(p-1) basis form, constant per tet: (M, n_{p-1}, 3 or 1).
    if p == 1:
        d_prev = g
    elif p == 2:
        d_prev = 2.0 * np.cross(g[k, basis.edge_local[:, :, 0]], g[k, basis.edge_local[:, :, 1]])
    elif p == 3:
        fa, fb, fc = (g[k, basis.face_local[:, :, i]] for i in range(3))
        d_prev = 6.0 * np.einsum("mfd,mfd->mf", fa, np.cross(fb, fc))[:, :, None]
    else:
        raise ValueError("coboundary check covers degrees 1, 2, 3")
    signs = basis.local_signs(p).astype(float)  # (M, n_p, n_{p-1})

    dev = 0.0
    for lam_t in np.vstack([_TET4, np.full((1, 4), 0.25)]):
        w = basis.eval(p, np.arange(m), np.broadcast_to(lam_t, (m, 4)))
        rhs = np.einsum("mts,mtd->msd", signs, w.reshape(m, signs.shape[1], -1))
        dev = max(dev, float(np.abs(rhs - d_prev).max()))
    return dev
