"""Semi-discrete Maxwell evolution on the lattice.

The metric-free half of the update is the incidence (C1 and C1^T, whose
+-1 entries the reduced operators store as exact float64); the metric
half is the pair of Hodge stars.  Time stepping is the staggered
explicit leapfrog (E at integer steps, B at half steps) in displacement
form: it carries D = Heps E and H = Hmu_inv B, updates D by C1^T H, and
recovers E = S D through one symmetric inverse S of the eps star.  For any
symmetric S it conserves E.D + B_prev.Hmu_inv.B_next in exact arithmetic:
the lattice energy oscillates within bounds and does not drift.  The
step is written once, in ``_march``: runs and the A/B comparison march it.
S is chosen in one place, :class:`DiscreteCodifferential`: the LU factor
of the star, or a sparse approximate inverse of a given level.

Perfectly conducting walls are imposed by removing boundary edge and face
degrees of freedom from the operators and cochains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, splu

from .hodge import SPD_SPLU, MaterialMap, _ritz_vector, assemble_hodge, spai_inverse
from .mesh import BoundaryClassification, SimplicialComplex
from .whitney import WhitneyBasis

__all__ = [
    "MaxwellOperators",
    "DiscreteCodifferential",
    "apply_pec",
    "reduce_pec",
    "ampere_step",
    "leapfrog_run",
    "hamiltonian",
    "stable_timestep",
    "eigenmodes",
    "compare_inverse_modes",
    "write_trace",
]

# Up to this many unknowns, eigenmodes solves the pencil densely.
_DENSE_CUTOFF = 600


@dataclass
class MaxwellOperators:
    """Incidence and Hodge matrices over one consistent index space.

    ``reduce_pec`` stores C1 and C2 as float64: their +-1 entries are
    exact, and products with the float cochains skip a per-call cast.
    """

    C1: sparse.csr_matrix
    Heps: sparse.csr_matrix
    Hmu_inv: sparse.csr_matrix
    C2: sparse.csr_matrix

    @property
    def n_edges(self) -> int:
        return self.C1.shape[1]

    @property
    def n_faces(self) -> int:
        return self.C1.shape[0]


def reduce_pec(
    complex: SimplicialComplex,
    classification: BoundaryClassification,
    Heps: sparse.spmatrix,
    Hmu_inv: sparse.spmatrix,
) -> MaxwellOperators:
    """Remove boundary (fixed) degrees of freedom from C1, C2 and a star pair.

    Rows/columns of boundary edges and faces are dropped consistently from
    the incidence and Hodge matrices; the composition of the two reduced
    incidence matrices stays identically zero because every edge of a
    boundary face is itself a boundary edge.  The reduced incidence is
    exact float64 +-1; ``complex.incidence`` keeps the integers.
    """
    e_idx = classification.interior_edges
    f_idx = classification.interior_faces
    C1 = complex.incidence(1)[f_idx][:, e_idx].tocsr()
    C2 = complex.incidence(2)[:, f_idx].tocsr()
    for C in (C1, C2):  # cast in place: astype would also re-check the format
        C.data = C.data.astype(float)
    return MaxwellOperators(
        C1, Heps[e_idx][:, e_idx].tocsr(), Hmu_inv[f_idx][:, f_idx].tocsr(), C2
    )


def apply_pec(
    complex: SimplicialComplex,
    classification: BoundaryClassification,
    materials: MaterialMap | None = None,
    basis: WhitneyBasis | None = None,
) -> MaxwellOperators:
    """Assemble both stars on one basis and reduce them (:func:`reduce_pec`)."""
    basis = basis or WhitneyBasis(complex)
    stars = [assemble_hodge(complex, materials, which, basis) for which in ("eps", "mu_inv")]
    return reduce_pec(complex, classification, *stars)


class DiscreteCodifferential:
    """The codifferential acting on magnetic 2-cochains.

    Applies inverse-eps-star, transposed face/edge incidence, and the
    inverse-permeability star, with a symmetric inverse S of the eps star:
    with ``level`` None a factorization by ``hodge.SPD_SPLU``, with an
    integer ``level`` (M + M^T)/2 for the sparse approximate inverse M on
    the neighbor pattern of that level (``residual`` is M's).  It is the
    only place the inverse eps star is chosen: a run passes one exact
    instance to every consumer.
    """

    def __init__(self, ops: MaxwellOperators, level: int | None = None):
        self.ops = ops
        self.level = level
        self.residual = 0.0
        self._C1T = ops.C1.T.tocsr()
        self._lu = self.M = None
        if ops.n_edges and level is None:
            self._lu = splu(ops.Heps.tocsc(), **SPD_SPLU)
        elif ops.n_edges:
            M, self.residual = spai_inverse(ops.Heps, level)
            self.M = (0.5 * (M + M.T)).tocsr()

    def solve_eps(self, x: np.ndarray) -> np.ndarray:
        """Apply the realized inverse of the eps star."""
        if self.ops.n_edges == 0:
            return x
        return self._lu.solve(x) if self.level is None else self.M @ x

    def apply(self, B: np.ndarray) -> np.ndarray:
        return self.solve_eps(self._C1T @ (self.ops.Hmu_inv @ B))


def ampere_step(
    B: np.ndarray,
    codiff: DiscreteCodifferential,
    J: np.ndarray | None = None,
) -> np.ndarray:
    """dE/dt: codifferential of B minus the source folded through the inverse star."""
    out = codiff.apply(B)
    if J is not None:
        out = out - codiff.solve_eps(J)
    return out


def hamiltonian(
    Heps: sparse.spmatrix, Hmu_inv: sparse.spmatrix, E: np.ndarray, B: np.ndarray
) -> tuple[float, float, float]:
    """Lattice energy (total, electric, magnetic): E.D + H.B with D, H from the stars."""
    elec = float(E @ (Heps @ E))
    mag = float((Hmu_inv @ B) @ B)
    return elec + mag, elec, mag


@dataclass
class Trace:
    """Energy trace of a leapfrog run.

    ``h_total`` is the quadratic form with the magnetic cochain averaged
    across neighboring half steps (bounded oscillation); ``h_invariant``
    is the staggered product form E.D + B_prev.Hmu_inv.B_next, which the
    leapfrog conserves in exact arithmetic for any symmetric inverse star
    and is the right series to test for secular drift.
    """

    steps: np.ndarray
    times: np.ndarray
    h_total: np.ndarray
    h_electric: np.ndarray
    h_magnetic: np.ndarray
    h_invariant: np.ndarray
    div_b_residual: np.ndarray

    def drift_per_step(self) -> float:
        """Linear-fit slope of the invariant energy, relative, per step.

        The step-0 sample is excluded: the invariant pairs consecutive
        magnetic half steps, which only exist from the first step on.  With
        fewer than two samples after it no line is defined, and it is NaN.
        """
        keep = self.steps > 0
        if keep.sum() < 2:
            return math.nan
        h = self.h_invariant[keep]
        scale = np.abs(h).mean()
        if scale == 0.0:
            return 0.0
        return float(np.polyfit(self.steps[keep].astype(float), h / scale, 1)[0])


def _march(codiff, dt, steps, E, B, source=None):
    """The displacement-form leapfrog: (E, D, B_prev, B_next, HB_prev, HB_next) per step.

    After a half-step start B(dt/2) = B(0) - (dt/2) C1 E(0), a step is
    D += dt (C1^T HB - J(t + dt/2)), E = S D, B -= dt C1 E, HB = Hmu_inv B.
    Yields at step 0 (B_prev = B(0)) and after each step; HB is Hmu_inv B.
    """
    ops = codiff.ops
    C1, C1T, Hmu_inv, solve = ops.C1, codiff._C1T, ops.Hmu_inv, codiff.solve_eps
    D = ops.Heps @ E
    B_half = B - 0.5 * dt * (C1 @ E)
    HB = Hmu_inv @ B_half
    yield E, D, B, B_half, Hmu_inv @ B, HB
    for n in range(steps):
        B_prev, HB_prev = B_half, HB
        curl = C1T @ HB
        if source is not None:  # x - 0.0 is x, so a sourceless step skips it
            curl = curl - np.asarray(source((n + 0.5) * dt), float)
        D = D + dt * curl
        E = solve(D)
        B_half = B_half - dt * (C1 @ E)
        HB = Hmu_inv @ B_half
        yield E, D, B_prev, B_half, HB_prev, HB


def leapfrog_run(
    codiff: DiscreteCodifferential,
    dt: float,
    steps: int,
    E0: np.ndarray | None = None,
    B0: np.ndarray | None = None,
    source=None,
    trace_every: int = 1,
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """March the staggered leapfrog (``_march``) and record the energy trace.

    The operators are ``codiff.ops``; ``source`` maps a time to the edge
    current, or is None.  Returns E at the last step, B half a step later,
    and the trace.  Energies are reported at integer steps from the carried
    D and HB, with the magnetic cochain averaged across the two neighboring
    half steps.  Divergence blow-up (non-finite values, checked every 25
    steps and at the last) aborts with a diagnostic.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite number above 0, got {dt!r}")
    if trace_every < 1:
        raise ValueError("trace_every must be at least 1")
    ops = codiff.ops
    E = np.zeros(ops.n_edges) if E0 is None else np.array(E0, dtype=float)
    B = np.zeros(ops.n_faces) if B0 is None else np.array(B0, dtype=float)

    rows = []
    div_scale = max(float(np.abs(B).max(initial=0.0)), 1.0)
    div_ref = None

    def record(step, E, D, Bprev, Bnext, HBprev, HBnext):
        nonlocal div_ref
        he = float(E @ D)
        hm = 0.25 * float((HBprev + HBnext) @ (Bprev + Bnext))
        # The discrete divergence is frozen by C2 C1 = 0; report the drift
        # from its initial value.
        div_now = ops.C2 @ Bnext
        if div_ref is None:
            div_ref = div_now
        divb = float(np.abs(div_now - div_ref).max(initial=0.0))
        rows.append((step, step * dt, he + hm, he, hm, he + float(Bprev @ HBnext), divb))
        return he + hm

    march = _march(codiff, dt, steps, E, B, source)
    fields = next(march)
    blowup_level = 1e10 * (abs(record(0, *fields)) + 1.0)
    for n, fields in enumerate(march, 1):
        E, D, _, B_half, _, HB = fields
        if n % 25 == 0 or n == steps:
            h = float(E @ D) + float(B_half @ HB)
            if not (np.isfinite(h) and h <= blowup_level and np.all(np.isfinite(B_half))):
                raise FloatingPointError(
                    f"field blow-up detected at step {n}: energy {h!r} "
                    f"(dt={float(dt)!r} likely above the stability bound)"
                )
        if n % trace_every == 0 or n == steps:
            record(n, *fields)

    arr = np.array(rows, dtype=float)
    # Columns in field order: steps, times, the four energies, div B.
    trace = Trace(arr[:, 0].astype(int), *arr[:, 1:6].T, arr[:, 6] / div_scale)
    return fields[0], fields[3], trace


def write_trace(trace: Trace, path: str | Path) -> None:
    """CSV trace (comma-separated, CRLF rows); energies in joules, times in seconds."""
    columns = [np.asarray(trace.steps).astype(int).tolist()] + [
        np.asarray(c, dtype=float).tolist()
        for c in (trace.times, trace.h_total, trace.h_electric, trace.h_magnetic,
                  trace.h_invariant, trace.div_b_residual)
    ]
    lines = ["step,time_s,H_total_J,H_electric_J,H_magnetic_J,H_invariant_J,div_B_residual_rel"]
    lines += [",".join(map(repr, row)) for row in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def stable_timestep(
    ops: MaxwellOperators, inverse: DiscreteCodifferential | None = None
) -> float:
    """2 / sqrt(lambda_max) of the generalized update-operator eigenproblem.

    lambda_max is the largest eigenvalue of K e = lambda Heps e with
    K = C1^T Hmu_inv C1, taken as the quotient v^T K v / v^T Heps v of the
    Ritz vector v of generalized Lanczos (``RuntimeError`` if it does not
    converge).  That quotient bounds lambda_max from below, so the step is
    an estimate accurate to rounding, not a certificate: it may exceed the
    true bound in the last digits.  Heps^{-1} is applied by
    ``inverse.solve_eps``: the exact codifferential of ``ops`` a run
    already holds, or one factored here when omitted.  Any other inverse
    raises ``ValueError``: the bound is the exact operator's.
    """
    if ops.n_edges == 0:
        raise ValueError("no electric degrees of freedom")
    inverse = inverse or DiscreteCodifferential(ops)
    if inverse.level is not None or inverse.ops is not ops:
        raise ValueError("stable_timestep needs the exact inverse of these operators")
    K = (ops.C1.T @ ops.Hmu_inv @ ops.C1).tocsr()
    if K.count_nonzero() == 0:
        raise ValueError("update operator is identically zero")
    v = _ritz_vector(K, inverse.solve_eps, ops.Heps)
    return 2.0 / np.sqrt(float(v @ (K @ v)) / float(v @ (ops.Heps @ v)))


@dataclass
class EigenResult:
    k2: np.ndarray
    zero_count: int
    zero_tol: float


def eigenmodes(
    ops: MaxwellOperators,
    count: int,
    sigma: float | None = None,
) -> EigenResult:
    """The ``count`` generalized eigenvalues of the curl-curl pencil nearest
    ``sigma`` (the smallest when it is None), in ascending order.

    Solves C1^T Hmu_inv C1 e = k^2 Heps e on the given (usually
    PEC-reduced) space by shift-invert Lanczos on a factor by
    ``hodge.SPD_SPLU``, or densely up to ``_DENSE_CUTOFF`` unknowns.
    Eigenvalues below a relative threshold are counted as zero modes (the
    gradient subspace) and reported separately.
    """
    n = ops.n_edges
    if n == 0:
        return EigenResult(k2=np.zeros(0), zero_count=0, zero_tol=0.0)
    K = (ops.C1.T @ ops.Hmu_inv @ ops.C1).tocsr()
    scale = float(np.max(np.abs(K.diagonal())) / np.min(ops.Heps.diagonal()))
    zero_tol = 1e-8 * scale

    if n <= _DENSE_CUTOFF:
        vals = eigh(K.toarray(), ops.Heps.toarray(), eigvals_only=True)
        if sigma is not None:  # the count nearest sigma, as shift-invert finds them
            vals = np.sort(vals[np.argsort(np.abs(vals - sigma), kind="stable")[: max(count, 0)]])
        vals = vals[: max(count, 0)]
    else:
        # Shift-invert with an explicit factorization; near the zero-mode
        # cluster (huge multiplicity: all gradients) Lanczos stalls, so a
        # sigma close to the physical target should be supplied at scale.
        if sigma is None:
            sigma = -1e-3 * scale
        k = min(count, n - 2)
        try:
            lu = splu((K - sigma * ops.Heps).tocsc(), **SPD_SPLU)
        except RuntimeError as exc:
            raise RuntimeError(
                f"shift {sigma!r} appears to hit a resonance (singular factor)"
            ) from exc
        opinv = sparse.linalg.LinearOperator((n, n), matvec=lu.solve)
        vals = eigsh(
            K, k=k, M=ops.Heps, sigma=sigma, which="LM", OPinv=opinv,
            v0=np.random.default_rng(7).standard_normal(n), return_eigenvectors=False,
        )
        vals = np.sort(vals)
    zero_count = int(np.sum(np.abs(vals) < zero_tol))
    return EigenResult(k2=vals, zero_count=zero_count, zero_tol=zero_tol)


def compare_inverse_modes(
    ops: MaxwellOperators,
    dt: float,
    steps: int,
    level: int = 3,
    E0: np.ndarray | None = None,
    B0: np.ndarray | None = None,
    dt_max: float | None = None,
) -> dict:
    """Run exact-inverse and approximate-inverse trajectories side by side.

    Both are ``_march`` runs from (E0, B0), as ``leapfrog_run`` takes them:
    run 1 with the exact inverse A = Heps^{-1}, run 2 with the SPAI S.
    Returns their energy-norm divergence after each step, a rigorous
    envelope, the SPAI residual and the horizon.  With g_n = (A - S) D2_n,
    E2 = A D2 - g, so the error (A (D1 - D2), B1 - B2) follows the exact
    leapfrog forced by (0, -dt C1 g_n) each step, and the power-bound
    constant c0 bounds it by c0 sum_k dt |C1 g_k|_Hmu_inv.  dE is its E
    part plus g_n, so divergence_n <= that + |g_n|_Heps.  c0 exists only for
    dt below dt_max: any other dt raises ``ValueError`` before any march.
    """
    rng = np.random.default_rng(11)
    E0 = rng.standard_normal(ops.n_edges) if E0 is None else E0
    B0 = rng.standard_normal(ops.n_faces) if B0 is None else B0
    exact = None
    if dt_max is None:
        exact = DiscreteCodifferential(ops)
        dt_max = stable_timestep(ops, exact)
    if not dt < dt_max:
        raise ValueError(f"dt={float(dt)!r} is not below the bound dt_max={float(dt_max)!r}")
    exact = exact or DiscreteCodifferential(ops)
    approx = DiscreteCodifferential(ops, level)
    c0 = 1.0 / np.sqrt(1.0 - (dt / dt_max) ** 2)

    runs = zip(_march(exact, dt, steps, E0, B0), _march(approx, dt, steps, E0, B0))
    forcing_sum = 0.0
    divergence, envelope = np.zeros((2, steps))
    for n, ((E1, _, _, B1, _, _), (E2, D2, _, B2, _, _)) in enumerate(islice(runs, 1, None)):
        g = exact.solve_eps(D2) - E2
        cg = ops.C1 @ g
        forcing_sum += dt * float(np.sqrt(cg @ (ops.Hmu_inv @ cg)))
        dE, dB = E1 - E2, B1 - B2
        divergence[n] = np.sqrt(dE @ (ops.Heps @ dE) + dB @ (ops.Hmu_inv @ dB))
        envelope[n] = c0 * forcing_sum + np.sqrt(g @ (ops.Heps @ g))
    return {
        "residual": approx.residual,
        "level": level,
        "dt": dt,
        "steps": steps,
        "divergence": divergence,
        "envelope": envelope,
        "max_divergence": float(divergence.max(initial=0.0)),
        "max_envelope": float(envelope.max(initial=0.0)),
        "within_envelope": bool(np.all(divergence <= envelope + 1e-12)),
    }
