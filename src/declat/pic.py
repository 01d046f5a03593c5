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
also across cell-boundary splits.  One face-crossing walk splits a path;
it also finds the start tet, walking in from the centroid of the start's
grid seed.  Each step of the walk is scalar float arithmetic in a fixed
order (no BLAS call), since a path is split one tet at a time.

Fields gather back to particles by Whitney interpolation, and a rotating
(Boris-style) split advances velocities with half-step electric kicks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .mesh import _TET_EDGE_SLOTS
from .whitney import Cochain, OutsideMeshError, WhitneyBasis, _interpolate_located

__all__ = [
    "Particle",
    "ScatterResult",
    "scatter_current",
    "verify_conservation",
    "gather",
    "push",
    "conservation_report_json",
]

# A chord end is in a tet when none of its coordinates there is below -_SPLIT_TOL.
_SPLIT_TOL = 1e-12


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

    ``node_charge`` holds the end-of-interval deposit, q times the
    barycentric coordinates of the path's end (weights sum to q; a
    zero-length path deposits a point charge);
    ``node_rate`` holds the per-node charge rate over the interval, which
    the incident edge currents must match exactly.
    """

    node_charge: Cochain  # degree 0, dual-density weights on primal nodes
    node_rate: Cochain  # degree 0, (final - initial) deposit / tau
    edge_current: Cochain  # degree 1, dual-current weights on primal edges
    tau: float
    exited: bool = False


def _walk(basis, t: int, ends: np.ndarray):
    """Split the chord ``ends`` (2, 3) at the faces it crosses, walking from tet
    ``t`` in fixed-order scalar float arithmetic on one ``basis.frames`` row
    per step: the tets of the within-tet segments, one flat list of both
    chord ends' four coordinates per segment, the chord parameters where each
    is entered and left, and whether the chord left the mesh; None if the
    walk reaches its step cap."""
    frames, neighbors, tol = basis.frames, basis.neighbors, _SPLIT_TOL
    (xa, ya, za), (xb, yb, zb) = ends.tolist()
    tets, coords, bounds = [], [], [0.0]
    for _ in range(8 * basis.complex.n_tets + 16):
        # Raw affine coordinates (x - v0) . grad(lambda_i), plus 1 for lambda_0,
        # of both chord ends in t (identical endpoints give exact zeros); along
        # the chord they are affine in the parameter.
        ox, oy, oz, g0x, g0y, g0z, g1x, g1y, g1z, g2x, g2y, g2z, g3x, g3y, g3z = frames[t].tolist()
        ax, ay, az, bx, by, bz = xa - ox, ya - oy, za - oz, xb - ox, yb - oy, zb - oz
        a = [ax * g0x + ay * g0y + az * g0z + 1.0, ax * g1x + ay * g1y + az * g1z,
             ax * g2x + ay * g2y + az * g2z, ax * g3x + ay * g3y + az * g3z]
        b = [bx * g0x + by * g0y + bz * g0z + 1.0, bx * g1x + by * g1y + bz * g1z,
             bx * g2x + by * g2y + bz * g2z, bx * g3x + by * g3y + bz * g3z]
        tets.append(t)
        coords += a + b
        if min(b) >= -tol:
            bounds.append(1.0)
            return tets, coords, bounds, False
        # Leave t by the face whose coordinate reaches zero first (lowest index on a tie).
        s, worst = np.inf, 0
        for i in range(4):
            if b[i] - a[i] < -tol and a[i] / (a[i] - b[i]) < s:
                s, worst = a[i] / (a[i] - b[i]), i
        bounds.append(min(max(s, bounds[-1]), 1.0))
        t = int(neighbors[t, worst])
        if t < 0:
            return tets, coords, bounds, True
    return None


def _deposit(basis, x_start, x_end, q: float, tau: float):
    """The tets of a straight path, its end (or exit) coordinates in the last
    one, the edge current, the node rate and whether it left the mesh:
    ``scatter_current`` without the node charge, and as arrays."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be a finite number above 0, got {tau!r}")
    qdot = q / tau
    if not math.isfinite(qdot):
        raise ValueError(f"q/tau must be finite, got {q!r}/{tau!r}")
    cx = basis.complex
    ends = np.array([x_start, x_end], dtype=float)
    if not np.isfinite(ends[1]).all():  # the seed grid checks the start
        raise OutsideMeshError("a path end with a non-finite coordinate lies in no tet")
    seed = int(basis._seeds(ends[:1])[0])
    found = _walk(basis, seed, np.array([basis.centroids[seed], ends[0]]))
    t = found[0][-1] if found and not found[3] else basis.locate(ends[0])[0]
    walked = _walk(basis, t, ends)
    if walked is None:
        raise RuntimeError("path splitting did not terminate")
    tets, coords, bounds, exited = walked

    tets, lam = np.array(tets), np.array(coords).reshape(-1, 2, 4)
    lam_a = lam[:, 0]
    dlam = lam[:, 1] - lam_a
    par = np.array(bounds)[:, None]
    lam_in, lam_out = lam_a + par[:-1] * dlam, lam_a + par[1:] * dlam
    mean = 0.5 * (lam_in + lam_out)
    delta = lam_out - lam_in
    a, b = _TET_EDGE_SLOTS.T
    coeff = qdot * (mean[:, a] * delta[:, b] - mean[:, b] * delta[:, a])
    current = np.bincount(cx.tet_edges[tets].ravel(), coeff.ravel(), minlength=cx.n_edges)
    # Charge leaves the start nodes and arrives at the end (or exit) nodes.
    ends_nodes = cx.tets[tets[[0, -1]]].ravel()
    rate = np.bincount(ends_nodes, np.concatenate([-qdot * lam_in[0], qdot * lam_out[-1]]),
                       minlength=cx.n_vertices)
    return tets, lam_out[-1], current, rate, exited


def scatter_current(
    basis: WhitneyBasis,
    x_start: np.ndarray,
    x_end: np.ndarray,
    q: float,
    tau: float,
) -> ScatterResult:
    """Deposit the current of a charge moving in a straight line.

    The start tet is where a walk along the chord from the centroid of the
    start's grid seed tet ends; if that walk leaves the mesh (a non-convex
    mesh) or reaches its step cap, ``basis.locate`` finds it instead, and
    raises OutsideMeshError for a start in no tet (as ``_deposit`` does for
    a non-finite end).  The path is then split at cell boundaries, one face
    crossing at a time, and all within-tet segments are deposited in closed
    form at once.  If the path leaves the mesh the scatter is partial up to
    the exit point and flagged.
    """
    cx = basis.complex
    tets, lam_end, current, rate, exited = _deposit(basis, x_start, x_end, q, tau)
    final = np.zeros(cx.n_vertices)
    final[cx.tets[tets[-1]]] = q * np.clip(lam_end, 0.0, None)
    return ScatterResult(
        node_charge=Cochain(0, final),
        node_rate=Cochain(0, rate),
        edge_current=Cochain(1, current),
        tau=tau,
        exited=exited,
    )


def verify_conservation(
    basis: WhitneyBasis,
    x_start: np.ndarray,
    x_end: np.ndarray,
    q: float,
    tau: float,
) -> float:
    """Max node residual between charge rate and incident edge currents.

    For every node, the rate of deposited charge must equal the signed sum
    of scattered currents on its incident edges; the return value is the
    largest absolute mismatch (scale it by 1/|qdot| for a relative read).
    The path is deposited as ``scatter_current`` deposits it.  Only edges
    that carry current are summed: the rest add exact zeros.
    """
    cx = basis.complex
    _, _, current, rate, _ = _deposit(basis, x_start, x_end, q, tau)
    nv = cx.n_vertices
    hit = (current != 0).nonzero()[0]
    edges, current = cx.edges[hit], current[hit]
    inflow = np.bincount(edges[:, 1], current, nv) - np.bincount(edges[:, 0], current, nv)
    return float(np.abs(inflow - rate).max())


def gather(
    basis: WhitneyBasis, E: Cochain, B: Cochain, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The electric and magnetic proxies (K, 3) at particle ``positions`` (K, 3),
    interpolated from one location of the points."""
    located = basis.locate_all(positions)
    return _interpolate_located(basis, E, *located), _interpolate_located(basis, B, *located)


def push(particle: Particle, E: np.ndarray, B: np.ndarray, dt: float) -> Particle:
    """Boris-style rotation split: half electric kick, magnetic rotation,
    half kick, then drift."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite number above 0, got {dt!r}")
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
