"""Frequency-domain perfectly matched layers by metric complexification.

Inside an absorbing slab the coordinate along the outward normal is
analytically continued with a stretch s = a + i Omega / omega (a >= 1,
Omega >= 0).  Because the metric enters the equations only through the
Hodge stars, the layer is realized entirely as a material map: the
permittivity and permeability tensors are multiplied by the diagonal
stretch tensor diag(s_y s_z / s_x, s_x s_z / s_y, s_x s_y / s_z) evaluated
at the assembly quadrature points.  The incidence matrices are untouched,
so the pre-metric equations are bit-identical with and without the layer.

With a trivial profile the assembly reproduces the real matrices exactly
(same code path, real arithmetic).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .hodge import MaterialMap, _mass_matrix
from .mesh import SimplicialComplex
from .whitney import WhitneyBasis, _TET4

__all__ = [
    "StretchProfile",
    "ComplexHodge",
    "stretch_tensor",
    "assemble_stretched",
    "harmonic_solve",
    "reflection_sweep",
    "write_sweep",
]


@dataclass
class AxisSlab:
    """One absorbing slab: grows from ``start`` toward ``end`` (signed depth)."""

    axis: int
    start: float
    end: float
    omega_max: float
    a_max: float = 1.0
    order: int = 2

    def depth_fraction(self, coord: np.ndarray) -> np.ndarray:
        lo, hi = sorted((self.start, self.end))
        thick = hi - lo
        if thick <= 0:
            return np.zeros_like(coord)
        if self.end >= self.start:
            d = (coord - self.start) / thick
        else:
            d = (self.start - coord) / thick
        return np.clip(d, 0.0, 1.0)


@dataclass
class StretchProfile:
    """Per-axis polynomial-graded stretch profiles (zero outside the slabs)."""

    slabs: list = field(default_factory=list)

    @classmethod
    def slab(
        cls,
        axis: int,
        start: float,
        end: float,
        omega_max: float,
        a_max: float = 1.0,
        order: int = 2,
    ) -> "StretchProfile":
        if a_max < 1.0:
            raise ValueError("profile requires a >= 1")
        if omega_max < 0.0:
            raise ValueError("profile requires Omega >= 0")
        return cls([AxisSlab(axis, start, end, omega_max, a_max, order)])

    def add(self, other: "StretchProfile") -> "StretchProfile":
        return StretchProfile(self.slabs + other.slabs)

    @property
    def is_trivial(self) -> bool:
        return all(s.omega_max == 0.0 and s.a_max == 1.0 for s in self.slabs)

    def stretch(self, points: np.ndarray, omega: float) -> np.ndarray:
        """Complex stretch factors s per axis at each point, shape (..., 3)."""
        if omega == 0.0:
            raise ValueError("stretch is singular at omega = 0")
        s = np.ones(points.shape[:-1] + (3,), dtype=complex)
        for slab in self.slabs:
            d = slab.depth_fraction(points[..., slab.axis])
            grade = d**slab.order
            a = 1.0 + (slab.a_max - 1.0) * grade
            om = slab.omega_max * grade
            s[..., slab.axis] = s[..., slab.axis] * (a + 1j * om / omega)
        return s

    def integrated_omega(self, axis: int, n: int = 2001) -> float:
        """Accumulated damping rate along one axis across its slabs."""
        total = 0.0
        for slab in self.slabs:
            if slab.axis != axis:
                continue
            lo, hi = sorted((slab.start, slab.end))
            xs = np.linspace(lo, hi, n)
            total += float(np.trapezoid(slab.omega_max * slab.depth_fraction(xs) ** slab.order, xs))
        return total


def stretch_tensor(point, omega: float, profile: StretchProfile) -> np.ndarray:
    """Diagonal Maxwellian stretch tensor at one point (complex 3x3)."""
    return np.diag(_lambda_diag(np.asarray(point, dtype=float).reshape(1, 3), omega, profile)[0])


@dataclass
class ComplexHodge:
    """Stretched Hodge pair; complex symmetric, reducing to the real pair
    when the stretch is trivial."""

    Heps: sparse.csr_matrix
    Hmu_inv: sparse.csr_matrix
    omega: float
    trivial: bool


def _lambda_diag(points: np.ndarray, omega: float, profile: StretchProfile) -> np.ndarray:
    s = profile.stretch(points, omega)
    lam = np.empty_like(s)
    lam[..., 0] = s[..., 1] * s[..., 2] / s[..., 0]
    lam[..., 1] = s[..., 0] * s[..., 2] / s[..., 1]
    lam[..., 2] = s[..., 0] * s[..., 1] / s[..., 2]
    return lam


def assemble_stretched(
    complex: SimplicialComplex,
    materials: MaterialMap | None,
    profile: StretchProfile,
    omega: float,
    basis: WhitneyBasis | None = None,
) -> ComplexHodge:
    """Hodge assembly with materials replaced by their stretched tensors.

    A trivial profile short-circuits to the real assembly path, so the
    no-layer operators are reproduced bit for bit.
    """
    basis = basis or WhitneyBasis(complex)
    materials = materials or MaterialMap()
    eps, mu = materials.tensors(complex)
    if profile.is_trivial:
        heps = _mass_matrix(complex, 1, eps, basis)
        hmu = _mass_matrix(complex, 2, np.linalg.inv(mu), basis)
        return ComplexHodge(heps, hmu, omega, trivial=True)

    cx = complex
    tv = cx.vertices[cx.tets]
    pts = np.einsum("qa,mad->mqd", _TET4, tv)  # (M, Q, 3) quadrature points
    lam = _lambda_diag(pts, omega, profile)  # (M, Q, 3)

    # eps_eff = eps Lambda; (mu Lambda)^{-1} = Lambda^{-1} mu^{-1} (diagonal).
    eps_eff = eps[:, None, :, :] * lam[:, :, None, :]
    mu_inv = np.linalg.inv(mu)
    mu_inv_eff = (1.0 / lam)[:, :, :, None] * mu_inv[:, None, :, :]
    heps = _mass_matrix(complex, 1, eps_eff.astype(np.complex128), basis)
    hmu = _mass_matrix(complex, 2, mu_inv_eff.astype(np.complex128), basis)
    return ComplexHodge(heps, hmu, omega, trivial=False)


def harmonic_solve(
    C1: sparse.spmatrix,
    hodges: ComplexHodge,
    J: np.ndarray,
    omega: float | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the time-harmonic curl-curl system for the electric cochain.

    (C1^T Hmu_inv C1 - omega^2 Heps) E = i omega J, by sparse direct
    factorization.  Returns (E, relative residual).
    """
    omega = hodges.omega if omega is None else omega
    A = (C1.T @ hodges.Hmu_inv @ C1 - omega**2 * hodges.Heps).tocsc()
    b = 1j * omega * np.asarray(J, dtype=complex)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex), 0.0
    lu = splu(A.astype(complex))
    E = lu.solve(b)
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(A @ E - b) / bnorm) if bnorm > 0 else 0.0
    return E, res


@dataclass
class ReflectionRow:
    omega: float
    omega_max_profile: float
    thickness: float
    reflection_mag: float
    fit_residual: float


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
    complex: SimplicialComplex,
    classification,
    omega: float,
    omega_maxes: list[float],
    pml_start: float,
    pml_end: float,
    source_edges: np.ndarray,
    source_values: np.ndarray,
    sample_points: np.ndarray,
    kz: float,
    materials: MaterialMap | None = None,
    basis: WhitneyBasis | None = None,
) -> list[ReflectionRow]:
    """Reflection magnitude versus layer strength on a waveguide mesh.

    For each profile strength, solve the driven harmonic problem with a
    z-directed slab of quadratic profile between ``pml_start`` and
    ``pml_end`` (PEC-backed outer wall), sample the transverse (y) field
    along the guide axis, and extract the reflection magnitude from the
    standing-wave fit.
    """
    from .whitney import Cochain, interpolate_at_points

    basis = basis or WhitneyBasis(complex)
    e_idx = classification.interior_edges
    C1 = complex.incidence(1)[classification.interior_faces][:, e_idx].tocsr()
    J = np.zeros(complex.n_edges)
    J[source_edges] = source_values
    J_red = J[e_idx]  # sources on boundary edges drop out

    rows = []
    thickness = abs(pml_end - pml_start)
    for om_max in omega_maxes:
        profile = StretchProfile.slab(2, pml_start, pml_end, om_max)
        hodges = assemble_stretched(complex, materials, profile, omega, basis)
        heps_red = hodges.Heps[e_idx][:, e_idx].tocsr()
        hmu_red = hodges.Hmu_inv[classification.interior_faces][
            :, classification.interior_faces
        ].tocsr()
        E_red, _ = harmonic_solve(
            C1, ComplexHodge(heps_red, hmu_red, omega, hodges.trivial), J_red
        )
        full = np.zeros(complex.n_edges, dtype=np.complex128)
        full[e_idx] = E_red
        cochain = Cochain(1, full)
        samples = interpolate_at_points(basis, cochain, sample_points)
        refl, resid = measure_reflection(samples[:, 1], sample_points[:, 2], kz)
        rows.append(ReflectionRow(omega, om_max, thickness, refl, resid))
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
