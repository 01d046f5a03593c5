"""Charge-conserving particle/lattice coupling.

Point charges scatter onto the lattice through the lowest-order basis:
the charge density weight on a node is the charge times the barycentric
coordinate at the particle position, and the current deposited on an edge
over a straight within-tet segment has the closed form

    qdot * (mean(lambda_a) dlam_b - mean(lambda_b) dlam_a)

for the canonical edge (a, b) (the integrand is affine along the segment,
so the midpoint average is exact).  Summing incident edge currents at a
node then telescopes to qdot times the change of that node's barycentric
coordinate: charge conservation holds to rounding, segment by segment,
also across cell-boundary splits.

Fields gather back to particles by Whitney interpolation, and a rotating
(Boris-style) split advances velocities with half-step electric kicks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .whitney import BarycentricPoint, Cochain, _as_basis, interpolate

_E0 = np.array([1.0, 0.0, 0.0, 0.0])  # lambda_0 = 1 + grad(lambda_0) . (x - v0)

__all__ = [
    "Particle",
    "ScatterResult",
    "scatter_charge",
    "scatter_current",
    "verify_conservation",
    "gather",
    "push",
    "conservation_report_json",
]


@dataclass
class Particle:
    """Point charge (or macro-particle) with SI-like units."""

    charge: float
    mass: float
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)


@dataclass
class ScatterResult:
    """Node charge weights and edge currents deposited over one interval.

    ``node_charge`` holds the end-of-interval deposit (weights sum to q);
    ``node_rate`` holds the per-node charge rate over the interval, which
    the incident edge currents must match exactly.
    """

    node_charge: Cochain  # degree 0, dual-density weights on primal nodes
    node_rate: Cochain  # degree 0, (final - initial) deposit / tau
    edge_current: Cochain  # degree 1, dual-current weights on primal edges
    tau: float
    exited: bool = False


def scatter_charge(
    complex_or_basis, particle: Particle
) -> tuple[np.ndarray, np.ndarray]:
    """Deposit a particle's charge on the four nodes of its tet.

    Returns (node indices, weights); the weights are q times the
    barycentric coordinates and always sum to q.
    """
    basis = _as_basis(complex_or_basis)
    t, lam = basis.locate(particle.position)
    return basis.complex.tets[t], particle.charge * lam


def scatter_current(
    complex_or_basis,
    x_start: np.ndarray,
    x_end: np.ndarray,
    q: float,
    tau: float,
    tol: float = 1e-12,
) -> ScatterResult:
    """Deposit the current of a charge moving in a straight line.

    The path is split at cell boundaries, one face crossing at a time from
    the tet that holds the start; then all within-tet segments are
    deposited in closed form at once.  If the path leaves the mesh the
    scatter is partial up to the exit point and flagged.
    """
    basis = _as_basis(complex_or_basis)
    if tau <= 0:
        raise ValueError("tau must be positive")
    cx = basis.complex
    qdot = q / tau
    ends = np.array([x_start, x_end], dtype=float)
    t, _ = basis.locate(ends[0])
    origin, grads, neighbors = basis.origin, basis.grads, basis.neighbors
    segments = []  # per within-tet segment: its tet and both chord ends' coordinates
    bounds = [0.0]  # chord parameter where the path enters, then leaves, each segment
    exited = False
    for _ in range(8 * cx.n_tets + 16):
        # Raw affine coordinates of both chord ends in t (identical endpoints
        # give exact zeros); along the chord they are affine in the parameter.
        a, b = ((ends - origin[t]) @ grads[t].T + _E0).tolist()
        segments.append((t, a, b))
        if min(b) >= -tol:
            bounds.append(1.0)
            break
        # The path leaves t through the face whose coordinate reaches zero first.
        s, worst = min(((ai / (ai - bi), i) for i, (ai, bi) in enumerate(zip(a, b))
                        if bi - ai < -tol), default=(np.inf, 0))
        bounds.append(min(max(s, bounds[-1]), 1.0))
        t = int(neighbors[t, worst])
        if t < 0:
            exited = True
            break
    else:
        raise RuntimeError("path splitting did not terminate")

    tets, lam_a, lam_b = (np.array(c) for c in zip(*segments))
    dlam = lam_b - lam_a
    par = np.array(bounds)[:, None]
    lam_in, lam_out = lam_a + par[:-1] * dlam, lam_a + par[1:] * dlam
    mean = 0.5 * (lam_in + lam_out)
    delta = lam_out - lam_in
    k = np.arange(len(tets))[:, None]
    a, b = basis.edge_local[tets, :, 0], basis.edge_local[tets, :, 1]
    coeff = qdot * (mean[k, a] * delta[k, b] - mean[k, b] * delta[k, a])
    current = np.bincount(cx.tet_edges[tets].ravel(), coeff.ravel(), minlength=cx.n_edges)
    # Charge leaves the start nodes and arrives at the end (or exit) nodes.
    ends_nodes = cx.tets[tets[[0, -1]]].ravel()
    rate = np.bincount(ends_nodes, np.concatenate([-qdot * lam_in[0], qdot * lam_out[-1]]),
                       minlength=cx.n_vertices)
    final = np.zeros(cx.n_vertices)
    final[cx.tets[tets[-1]]] = q * np.clip(lam_out[-1], 0.0, None)
    return ScatterResult(
        node_charge=Cochain(0, final),
        node_rate=Cochain(0, rate),
        edge_current=Cochain(1, current),
        tau=tau,
        exited=exited,
    )


def verify_conservation(
    complex_or_basis,
    x_start: np.ndarray,
    x_end: np.ndarray,
    q: float,
    tau: float,
) -> float:
    """Max node residual between charge rate and incident edge currents.

    For every node, the rate of deposited charge must equal the signed sum
    of scattered currents on its incident edges; the return value is the
    largest absolute mismatch (scale it by 1/|qdot| for a relative read).
    """
    basis = _as_basis(complex_or_basis)
    cx = basis.complex
    res = scatter_current(basis, x_start, x_end, q, tau)
    current, nv = res.edge_current.values, cx.n_vertices
    inflow = np.bincount(cx.edges[:, 1], current, nv) - np.bincount(cx.edges[:, 0], current, nv)
    return float(np.abs(inflow - res.node_rate.values).max())


def gather(
    complex_or_basis,
    E: Cochain,
    B: Cochain,
    position: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate the electric and magnetic proxies at a particle position."""
    basis = _as_basis(complex_or_basis)
    t, lam = basis.locate(np.asarray(position, dtype=float))
    at = BarycentricPoint(t, lam)
    return interpolate(basis, E, at), interpolate(basis, B, at)


def push(particle: Particle, E: np.ndarray, B: np.ndarray, dt: float) -> Particle:
    """Boris-style rotation split: half electric kick, magnetic rotation,
    half kick, then drift."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    qm = particle.charge / particle.mass
    v_minus = particle.velocity + 0.5 * dt * qm * np.asarray(E, dtype=float)
    t_vec = 0.5 * dt * qm * np.asarray(B, dtype=float)
    t2 = t_vec @ t_vec
    s_vec = 2.0 * t_vec / (1.0 + t2)
    v_prime = v_minus + np.cross(v_minus, t_vec)
    v_plus = v_minus + np.cross(v_prime, s_vec)
    v_new = v_plus + 0.5 * dt * qm * np.asarray(E, dtype=float)
    return Particle(
        charge=particle.charge,
        mass=particle.mass,
        position=particle.position + dt * v_new,
        velocity=v_new,
    )


def conservation_report_json(max_residual: float, qdot: float, n_paths: int) -> str:
    return json.dumps(
        {
            "schema": "declat-conservation-1",
            "paths": n_paths,
            "max_residual": max_residual,
            "qdot_scale": abs(qdot),
            "max_residual_relative": max_residual / abs(qdot) if qdot else 0.0,
        },
        sort_keys=True,
    )
