"""Frequency-domain perfectly matched layers by metric complexification.

Inside an absorbing slab the coordinate along the outward normal is
analytically continued with a stretch s = a + i Omega / omega (a >= 1,
Omega >= 0).  Because the metric enters the equations only through the
Hodge stars, a stretch is a per-point material: the checked eps and
inverse-mu tensors of the real stars are scaled at the assembly quadrature
points by the diagonal tensor diag(s_y s_z / s_x, s_x s_z / s_y,
s_x s_y / s_z) and summed by the same element routine into the star pair
:func:`assemble_stretched` returns; a trivial profile returns the real
stars.  The incidence matrices are untouched, so the
pre-metric equations are bit-identical with and without the layer, and
the PEC walls go by the reduction :func:`declat.maxwell.apply_pec` uses.

:func:`reflection_sweep` is the module's one experiment: it builds a PEC
box waveguide, drives its TE10 mode from a band of transverse edges,
backs the guide with a slab of each given strength against the far wall,
and fits the field sampled on the guide's axis for the reflection.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .generators import box_mesh
from .hodge import MaterialMap, _element_matrices, _star_weight, assemble_hodge
from .maxwell import MaxwellOperators, reduce_pec
from .mesh import SimplicialComplex, classify_boundary
from .whitney import Cochain, WhitneyBasis, _TET4, interpolate_at_points

__all__ = [
    "StretchProfile",
    "stretch_tensor",
    "assemble_stretched",
    "harmonic_solve",
    "reflection_sweep",
    "write_sweep",
]


@dataclass
class StretchProfile:
    """A polynomial-graded stretch in one absorbing slab (1 outside it).

    The slab grows from ``start`` toward ``end`` (signed depth) along
    ``axis``; at depth fraction d, a = 1 + (a_max - 1) d^order and
    Omega = omega_max d^order.
    """

    axis: int
    start: float
    end: float
    omega_max: float
    a_max: float = 1.0
    order: int = 2

    def __post_init__(self):
        if self.a_max < 1.0:
            raise ValueError("profile requires a >= 1")
        if self.omega_max < 0.0:
            raise ValueError("profile requires Omega >= 0")

    @property
    def is_trivial(self) -> bool:
        return self.omega_max == 0.0 and self.a_max == 1.0

    def depth_fraction(self, coord: np.ndarray) -> np.ndarray:
        thick = abs(self.end - self.start)
        if thick <= 0:
            return np.zeros_like(coord)
        d = (coord - self.start if self.end >= self.start else self.start - coord) / thick
        return np.clip(d, 0.0, 1.0)

    def stretch(self, points: np.ndarray, omega: float) -> np.ndarray:
        """Complex stretch factors s per axis at each point, shape (..., 3)."""
        if omega == 0.0:
            raise ValueError("stretch is singular at omega = 0")
        s = np.ones(points.shape[:-1] + (3,), dtype=complex)
        grade = self.depth_fraction(points[..., self.axis]) ** self.order
        a = 1.0 + (self.a_max - 1.0) * grade
        s[..., self.axis] *= a + 1j * (self.omega_max * grade) / omega
        return s

    def integrated_omega(self, axis: int) -> float:
        """Accumulated damping rate along one axis (0 off the slab's axis)."""
        if axis != self.axis:
            return 0.0
        xs = np.linspace(*sorted((self.start, self.end)), 2001)
        return float(np.trapezoid(self.omega_max * self.depth_fraction(xs) ** self.order, xs))


def stretch_tensor(points: np.ndarray, omega: float, profile: StretchProfile) -> np.ndarray:
    """Diagonal of the Maxwellian stretch tensor, (s_y s_z / s_x, s_x s_z / s_y,
    s_x s_y / s_z), at each of ``points`` (..., 3): complex, shape (..., 3)."""
    s = profile.stretch(np.asarray(points, dtype=float), omega)
    sx, sy, sz = s[..., 0], s[..., 1], s[..., 2]
    return np.stack([sy * sz / sx, sx * sz / sy, sx * sy / sz], axis=-1)


def assemble_stretched(
    complex: SimplicialComplex,
    materials: MaterialMap | None,
    profile: StretchProfile,
    omega: float,
    basis: WhitneyBasis | None = None,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The eps and mu-inverse stars with their tensors stretched per point.

    Returns the pair (Heps, Hmu_inv), complex symmetric.  A trivial profile
    returns the real stars of :func:`assemble_hodge`, so the no-layer
    operators are reproduced bit for bit.
    """
    basis = basis or WhitneyBasis(complex)
    if profile.is_trivial:
        return tuple(assemble_hodge(complex, materials, which, basis)
                     for which in ("eps", "mu_inv"))

    pts = np.einsum("qa,mad->mqd", _TET4, complex.vertices[complex.tets])
    lam = stretch_tensor(pts, omega, profile)  # (M, Q, 3) at the quadrature points
    # eps Lambda, and (mu Lambda)^{-1} = Lambda^{-1} mu^{-1} (Lambda diagonal).
    p, eps = _star_weight(complex, materials, "eps")
    heps = _element_matrices(complex, p, eps[:, None] * lam[:, :, None, :], basis)
    p, mu_inv = _star_weight(complex, materials, "mu_inv")
    hmu = _element_matrices(complex, p, (1.0 / lam)[..., None] * mu_inv[:, None], basis)
    return heps.assemble(), hmu.assemble()


def harmonic_solve(
    ops: MaxwellOperators, J: np.ndarray, omega: float
) -> tuple[np.ndarray, float]:
    """Solve the time-harmonic curl-curl system for the electric cochain.

    (C1^T Hmu_inv C1 - omega^2 Heps) E = i omega J on the (reduced)
    operators ``ops``, by sparse direct factorization.  Returns
    (E, relative residual).
    """
    A = (ops.C1.T @ ops.Hmu_inv @ ops.C1 - omega**2 * ops.Heps).tocsc()
    b = 1j * omega * np.asarray(J, dtype=complex)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex), 0.0
    E = splu(A.astype(complex)).solve(b)
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(A @ E - b) / bnorm) if bnorm > 0 else 0.0
    return E, res


@dataclass
class ReflectionRow:
    omega: float
    omega_max_profile: float
    thickness: float
    reflection_mag: float


def measure_reflection(
    E_samples: np.ndarray, z_samples: np.ndarray, kz: float
) -> tuple[float, float]:
    """Standing-wave decomposition along the guide axis.

    Fits A e^{i kz z} + B e^{-i kz z} to the sampled complex field and
    returns |B/A| (reflection magnitude) and the relative fit residual.
    """
    M = np.stack([np.exp(1j * kz * z_samples), np.exp(-1j * kz * z_samples)], axis=1)
    coef, *_ = np.linalg.lstsq(M, E_samples, rcond=None)
    resid = np.linalg.norm(M @ coef - E_samples) / max(np.linalg.norm(E_samples), 1e-300)
    a, b = coef
    if abs(a) == 0.0:
        return float("inf"), float(resid)
    return float(abs(b) / abs(a)), float(resid)


def reflection_sweep(
    nx: int,
    nz: int,
    length: float,
    omega: float,
    omega_maxes: list[float],
    pml_start: float,
    source_z: float,
    sample_z: np.ndarray,
) -> list[ReflectionRow]:
    """Reflection magnitude versus layer strength in a PEC box waveguide.

    The guide is ``box_mesh(nx, nx, nz)`` on the box 1 x 1 x ``length``,
    PEC on every wall, so its TE10 cutoff is pi and kz = sqrt(omega^2 -
    pi^2).  The source drives the y-directed edges within 0.51 cells of
    the plane z = ``source_z``, each weighted by sin(pi x)|dy|.  For each
    strength in ``omega_maxes`` a z-directed quadratic slab runs from
    ``pml_start`` to the PEC far wall at z = ``length``; the driven
    harmonic problem is solved, the y field is sampled on the axis
    x = y = 0.5 at the heights ``sample_z``, and the standing-wave fit of
    :func:`measure_reflection` gives |R|.  Raises ``ValueError`` for omega
    at or below the cutoff, where kz is not real.
    """
    if not omega > np.pi:
        raise ValueError(f"omega must be above the TE10 cutoff pi, got {omega!r}")
    mesh = box_mesh(nx, nx, nz, lengths=(1.0, 1.0, length))
    classification = classify_boundary(mesh)
    basis = WhitneyBasis(mesh)
    kz = float(np.sqrt(omega**2 - np.pi**2))
    mids = mesh.vertices[mesh.edges].mean(axis=1)
    evec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    h = length / nz
    ydir = (np.abs(evec[:, 0]) < 1e-12) & (np.abs(evec[:, 2]) < 1e-12)
    sel = ydir & (np.abs(mids[:, 2] - source_z) < 0.51 * h)
    J = np.zeros(mesh.n_edges)
    J[sel] = np.sin(np.pi * mids[sel, 0]) * np.abs(evec[sel, 1])
    zs = np.asarray(sample_z, dtype=float)
    points = np.stack([np.full_like(zs, 0.5), np.full_like(zs, 0.5), zs], axis=1)
    e_idx = classification.interior_edges

    rows = []
    thickness = abs(length - pml_start)
    for om_max in omega_maxes:
        profile = StretchProfile(2, pml_start, length, om_max)
        stars = assemble_stretched(mesh, None, profile, omega, basis)
        ops = reduce_pec(mesh, classification, *stars)
        E_red, _ = harmonic_solve(ops, J[e_idx], omega)  # boundary sources drop out
        full = np.zeros(mesh.n_edges, dtype=np.complex128)
        full[e_idx] = E_red
        samples = interpolate_at_points(basis, Cochain(1, full), points)
        refl, _ = measure_reflection(samples[:, 1], zs, kz)
        rows.append(ReflectionRow(omega, om_max, thickness, refl))
    return rows


def write_sweep(rows: list[ReflectionRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "omega_max_profile", "thickness", "reflection_mag"])
        for r in rows:
            w.writerow(
                [repr(r.omega), repr(r.omega_max_profile), repr(r.thickness),
                 repr(r.reflection_mag)]
            )
