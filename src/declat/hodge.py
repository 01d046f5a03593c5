"""Discrete Hodge star matrices from Whitney forms and material weights.

The degree-1 star pairs edge basis forms through the permittivity tensor,
the degree-2 star pairs face basis forms through the inverse permeability;
the Galerkin-dual pair swaps the roles (inverse permittivity on faces,
permeability on edges).  One table names all four.  Entries couple only
simplices sharing a tet, so the matrices are sparse with ultra-local
stencils; they are symmetric and positive definite for admissible materials.
A material is checked and inverted once per distinct tensor (one for a
uniform field, one per tet otherwise) and reaches the tets as a broadcast.

Each star is the sum over tets of small element matrices
(:class:`ElementMatrices`), built and bounded in fixed blocks of tets, so
the transient memory is one block's; each, a tet's weighted gradient Gram
times a constant moment table, is exactly symmetric, and so is H in any
summation order: two simplices of a tet span the tet or a face of at most
two tets, so an off-diagonal entry sums at most two mirrored element entries,
and IEEE addition commutes.  The elements prove H positive definite
without a factorisation: lambda_min(H) >= min diag(H) times the smallest
eigenvalue of any element matrix scaled to unit diagonal (Wathen), less an
allowance for rounding in ``eigvalsh`` and in the assembly sum.
:func:`check_spd` serves a star handed in without its element matrices:
it factors the star and returns a smallest-eigenvalue estimate that is
never below lambda_min but is no proof.

The numerical inverse of a star is dense in general but its entries decay
away from the diagonal, which justifies the sparse approximate inverse
built here: a per-column Frobenius-norm least-squares fit restricted to a
neighbor-pattern of prescribed level.  Each fit is solved through its
normal equations: only the upper triangle of a small block of H^H H is
gathered, and LAPACK's potrf, pocon and potrs run on it directly.  A block
counts as singular once its condition number nears 1/eps (about 1e8 for
the sliced columns of H): stricter than a dense least-squares rank rule,
never looser.

Stars go to text as ``declat-coo`` files (:func:`write_coo`, values in
``repr``, so a round trip is bit-exact); :func:`read_coo` takes a path and
rejects a body whose entry count differs from the header's nnz.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, get_lapack_funcs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu, spsolve_triangular

from .dual import DualComplex
from .mesh import _TET_EDGE_SLOTS, _TET_FACE_SLOTS, SimplicialComplex, _loadtxt
from .whitney import WhitneyBasis, _TET4, _integrate

__all__ = [
    "ElementMatrices",
    "MaterialMap",
    "star_elements",
    "assemble_hodge",
    "assemble_galerkin_dual",
    "spai_inverse",
    "symmetry_deviation",
    "check_spd",
    "dual_pairing_check",
    "write_coo",
    "read_coo",
]


@dataclass
class MaterialMap:
    """Per-tet permittivity and permeability (scalars or symmetric tensors)."""

    eps: object = 1.0
    mu: object = 1.0


# The four stars as (degree of the basis forms paired, material, inverted?):
# the primal pair, then the Galerkin-dual pair that swaps the roles.
_STARS = {"eps": (1, "eps", False), "mu_inv": (2, "mu", True),
          "eps_inv": (2, "eps", True), "mu": (1, "mu", False)}

# Tets per block of the element build and bound: transient memory is one block's, and
# (products run on fixed groups of 8 tets) every tet's values are a whole-mesh pass's.
_TET_BLOCK = 1024


def _star_weight(
    complex: SimplicialComplex, materials: MaterialMap | None, which: str
) -> tuple[int, np.ndarray]:
    """The degree of star ``which`` and its material as a read-only (M, 3, 3) broadcast.

    Only the material's distinct tensors are resolved: one for a scalar or
    3 x 3 field, one per tet for a per-tet one.  Each is checked finite,
    symmetric to 16 eps of its largest entry and, when real, positive
    definite, and inverted once where ``_STARS`` says so.
    """
    if which not in _STARS:
        raise ValueError(f"which must be one of {', '.join(map(repr, _STARS))}")
    p, name, inverted = _STARS[which]
    m = complex.n_tets
    value = getattr(materials or MaterialMap(), name)
    t = np.asarray(value, dtype=np.complex128 if np.iscomplexobj(value) else float)
    if not np.isfinite(t).all():  # before inf * 0 turns it into NaN
        raise ValueError(f"{name} tensor must be finite")
    if t.ndim == 1 and len(t) != m:
        raise ValueError(f"{name}: per-tet array must have length {m}")
    if t.ndim < 2:  # a scalar, or one per tet: times the identity
        t = t[..., None, None] * np.eye(3)
    elif t.shape not in ((3, 3), (m, 3, 3)):
        raise ValueError(f"{name}: unsupported material shape {t.shape}")
    t = t.reshape(-1, 3, 3)
    tol = 16 * np.finfo(float).eps * np.abs(t).max(axis=(1, 2), keepdims=True)
    if not np.all(np.abs(t - np.transpose(t, (0, 2, 1))) <= tol):
        raise ValueError(f"{name} tensor must be symmetric")
    if not np.iscomplexobj(t) and np.linalg.eigvalsh(t).min() <= 0:
        raise ValueError(f"{name} tensor must be positive definite")
    return p, np.broadcast_to(np.linalg.inv(t) if inverted else t, (m, 3, 3))


@dataclass(frozen=True)
class ElementMatrices:
    """Per-tet Galerkin matrices of one star and the simplices they couple.

    ``local[t]`` pairs the basis forms of tet t, whose global indices are
    ``ids[t]``; the ``n`` x ``n`` star is their sum over tets.
    """

    local: np.ndarray  # (M, n_loc, n_loc)
    ids: np.ndarray  # (M, n_loc)
    n: int

    def assemble(self) -> sparse.csr_matrix:
        # int32 COO indices when n fits halve the transient; scipy builds the same CSR either way.
        ids = self.ids.astype(np.int32 if self.n <= np.iinfo(np.int32).max else np.int64)
        n_loc = ids.shape[1]
        rows = np.repeat(ids, n_loc, axis=1).reshape(-1)
        cols = np.tile(ids, (1, n_loc)).reshape(-1)
        return sparse.coo_matrix(
            (self.local.reshape(-1), (rows, cols)), shape=(self.n, self.n)
        ).tocsr()

    def bounds(self) -> tuple[float, float]:
        """Proved (lam, D) for the assembled star H, in one pass over tet blocks.

        lam <= lambda_min(H) and D >= max|H_ii| for H summed in any order.
        eps is the machine epsilon and k the largest number of tets that
        share a simplex.
        - lam (Wathen 1987): x^T H x = sum_e x_e^T M_e x_e >= theta x^T diag(H) x,
          theta the least theta_e = lambda_min(D_e^-1/2 M_e D_e^-1/2),
          D_e = diag(M_e) (one batched ``eigvalsh`` per block).  theta_e is
          lowered by 8 n_loc eps ||A_e||_F (whitening A_e, ``eigvalsh``'s
          backward error), min diag(H) by (k + 2) eps relative, and the
          product by k eps R, R the largest row sum of sum_e |M_e|: the
          summed star's 2-norm distance from the exact sum.
        - D (Higham 2002, section 4.2): H_ii sums at most k positive terms,
          so in any order it is within a factor g = (1 + gamma) / (1 - gamma)
          of d_i, its sum in tet order, gamma = (k - 1) u / (1 - (k - 1) u),
          u = eps / 2: D = g max d, rounded up for its products.
        A nonpositive element diagonal gives (-inf, inf); theta <= 0, or an
        element matrix that is not bitwise symmetric, gives lam = -inf.
        Real element matrices only.
        """
        if np.iscomplexobj(self.local):
            raise ValueError("element bound needs real symmetric element matrices")
        eps = np.finfo(float).eps
        m, n_loc = self.ids.shape
        d_loc = np.diagonal(self.local, axis1=1, axis2=2)
        if not np.all(d_loc > 0):
            return float("-inf"), float("inf")
        theta, mirrored, row_sums = np.inf, True, np.empty((m, n_loc))
        for blk in (slice(lo, lo + _TET_BLOCK) for lo in range(0, m, _TET_BLOCK)):
            local = self.local[blk]
            s = 1.0 / np.sqrt(d_loc[blk])
            A = local * s[:, :, None] * s[:, None, :]
            lam = np.linalg.eigvalsh(A)[:, 0] - 8 * n_loc * eps * np.linalg.norm(A, axis=(1, 2))
            theta = float(np.minimum(theta, lam.min()))  # NaN stays NaN
            np.abs(local).sum(axis=2, out=row_sums[blk])
            mirrored = mirrored and np.array_equal(local, local.transpose(0, 2, 1))
        ids = self.ids.ravel()
        k = int(np.bincount(ids).max())
        diag = np.bincount(ids, weights=d_loc.ravel(), minlength=self.n)
        rows = np.bincount(ids, weights=row_sums.ravel(), minlength=self.n)
        bound = theta * float(diag.min()) * (1 - (k + 2) * eps) - k * eps * float(rows.max())
        gamma = (k - 1) * eps / (2 - (k - 1) * eps)  # (k - 1) u / (1 - (k - 1) u)
        g = (1 + gamma) / (1 - gamma) * (1 + 16 * eps)  # the products' rounding
        return (bound if theta > 0 and mirrored else float("-inf")), float(diag.max() * g)


def _moment_table(p: int, moments: np.ndarray) -> np.ndarray:
    """(k Q k, n_up) table: a tet's Grams Gamma_q[r, s], flat in (r, q, s), times it give the
    pairings a <= b of slot forms p! sum_t (-1)^t lam_(a_t) F(a less a_t)."""
    factors = [[v] for v in range(4)] if p == 1 else _TET_EDGE_SLOTS.tolist()
    slots = (_TET_EDGE_SLOTS, _TET_FACE_SLOTS)[p - 1]  # (n, p + 1), each row increasing
    coef = np.zeros((len(slots), 4, len(factors)))
    for (a, t), v in np.ndenumerate(slots):
        coef[a, v, factors.index(np.delete(slots[a], t).tolist())] = p * (-1) ** t
    a, b = np.triu_indices(len(slots))
    pairs = np.einsum("qcd,acr,bds->rqsab", moments, coef, coef)[..., a, b]
    return (0.5 * (pairs + pairs.transpose(2, 1, 0, 3))).reshape(-1, len(a))


_MOMENTS = np.einsum("qc,qd->qcd", _TET4, _TET4) / len(_TET4)  # sum: (1 + delta_cd) / 20
_TABLES = {(p, len(m)): _moment_table(p, m) for p in (1, 2) for m in ([_MOMENTS.sum(0)], _MOMENTS)}


def _element_matrices(
    complex: SimplicialComplex,
    p: int,
    weight: np.ndarray,
    basis: WhitneyBasis | None = None,
) -> ElementMatrices:
    """Weighted L2 pairing of the degree-p basis per tet, degree-2 quadrature.

    ``weight`` is (M, 3, 3) per tet or (M, Q, 3, 3) per quadrature point, real
    or complex.  Each tet's weighted Grams F W_q F^T of its k factor vectors (4
    gradients, or their 6 cross products) times :func:`_moment_table`, in one
    BLAS call per 8 tets, give its upper triangle over V, mirrored: symmetric.
    """
    basis = basis or WhitneyBasis(complex)
    cx = complex
    m = cx.n_tets
    ids = basis.local_indices(p, np.arange(m))
    n = ids.shape[1]
    local = np.empty((m, n, n), dtype=np.result_type(weight.dtype, float))
    weight = weight.reshape(m, -1, 3, 3)
    table = _TABLES[p, weight.shape[1]]
    i, j = np.sort(np.indices((n, n)), axis=0)  # each entry's row and column, i <= j
    mirror = i * (2 * n - i - 1) // 2 + j  # its place in the upper triangle, row by row
    (e0, e1), c1, c2 = _TET_EDGE_SLOTS.T[:, :, None], [1, 2, 0], [2, 0, 1]  # cross products
    for blk in (slice(lo, lo + _TET_BLOCK) for lo in range(0, m, _TET_BLOCK)):
        g = basis.grads[blk]  # F (B, k, 3): the gradients, or their cross products
        f = g if p == 1 else g[:, e0, c1] * g[:, e1, c2] - g[:, e0, c2] * g[:, e1, c1]
        fw = (f @ weight[blk].transpose(0, 2, 1, 3).reshape(len(f), 3, -1)).reshape(len(f), -1, 3)
        gram = np.zeros((len(f) + -len(f) % 8, len(table)), local.dtype)
        np.matmul(fw, f.transpose(0, 2, 1), out=gram[:len(f)].reshape(fw.shape[:2] + (-1,)))
        upper = (gram.reshape(-1, 8, len(table)) @ table).reshape(-1, table.shape[1])
        upper = upper[:len(f)] * cx.volumes[blk, None]
        np.take(upper, mirror, axis=1, out=local[blk], mode="clip")
    return ElementMatrices(local, ids, cx.n_simplices(p))


def star_elements(
    complex: SimplicialComplex,
    materials: MaterialMap | None = None,
    which: str = "eps",
    basis: WhitneyBasis | None = None,
) -> ElementMatrices:
    """The per-tet matrices that :func:`assemble_hodge` sums."""
    return _element_matrices(complex, *_star_weight(complex, materials, which), basis)


def assemble_hodge(
    complex: SimplicialComplex,
    materials: MaterialMap | None = None,
    which: str = "eps",
    basis: WhitneyBasis | None = None,
) -> sparse.csr_matrix:
    """Assemble a discrete Hodge star matrix.

    ``which`` selects the star: ``"eps"`` or ``"mu_inv"`` (primal 1- and
    2-cochains), or the Galerkin-dual ``"mu"`` or ``"eps_inv"``.
    """
    return star_elements(complex, materials, which, basis).assemble()


def assemble_galerkin_dual(
    complex: SimplicialComplex,
    materials: MaterialMap | None = None,
    basis: WhitneyBasis | None = None,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The swapped-assignment pair: (inverse-eps star on faces, mu star on edges)."""
    basis = basis or WhitneyBasis(complex)
    return (assemble_hodge(complex, materials, "eps_inv", basis),
            assemble_hodge(complex, materials, "mu", basis))


# -- sparse approximate inverse ----------------------------------------------


def _neighbor_pattern(H: sparse.spmatrix, level: int) -> sparse.csc_matrix:
    """Admitted positions of the approximate inverse, by neighbor level.

    Level 0 is the stored positions of H plus the diagonal, so a stored
    entry that cancels to 0 stays in and the pattern is metric-free; level
    k multiplies that pattern k more times, so patterns are nested and
    encode successive k-level neighbors.
    """
    if operator.index(level) < 0:
        raise ValueError("pattern level must be >= 0")
    # Boolean products: a position's neighbour count never wraps.
    stored = H.tocsr().astype(bool)  # a copy, stored zeros included
    stored.data[:] = True
    base = (stored + sparse.eye(H.shape[0], dtype=bool)).tocsr()
    pat = base
    for _ in range(level):
        pat = (pat @ base).tocsr()
    return pat.tocsc()


def spai_inverse(H: sparse.spmatrix, level: int = 0) -> tuple[sparse.csr_matrix, float]:
    """Sparse approximate inverse M with M H close to the identity.

    Row j of M is the least-squares fit min ||H[:, J] x - e_j|| over the
    positions J of column j of the neighbor pattern of ``level``
    (:func:`_neighbor_pattern`), which minimizes the Frobenius
    deviation ||I - M H||_F position by position (H symmetric).  It is
    solved through its normal equations (H^H H)[J, J] x = conj(H[j, J]):
    the upper triangle G of H^H H is formed once, and the upper triangle of
    each |J| x |J| block, all that LAPACK's potrf, pocon and potrs read, is
    gathered from the CSC columns of G in J and factored and solved by them
    directly.  Only the nonzero rows of H[:, J] contribute, so this is the
    fit a dense least-squares solve on those rows makes.  Returns (M, residual).

    Raises ``LinAlgError`` when row j of H has no stored entry in J (the
    unit vector lies outside the restricted row set), and when G[J, J] is
    singular: its Cholesky factorization breaks down, or LAPACK's estimate
    of its 1-norm condition number reaches 1/eps.  The normal equations
    square the condition number, so this rejects blocks with
    cond(H[:, J]) of about 1e8 and above, which the rank rule of a dense
    SVD solve (singular values above eps max(|I|, |J|) times the largest)
    accepted.  It is stricter than that rule and, on every rank-deficient
    block tried, never looser: such a block either breaks the factorization
    or leaves a factor whose condition estimate is far beyond 1/eps.
    """
    if not sparse.issparse(H):
        H = sparse.csr_matrix(H)
    Pc = _neighbor_pattern(H, level)
    n = H.shape[0]
    Hr = H.tocsr(copy=True)
    Hr.sum_duplicates()
    # Each J is sorted, so the upper triangle of G holds that of every block.
    G = sparse.triu(Hr.conj().T @ Hr, format="csc")
    dtype = np.result_type(G.dtype, float)
    potrf, pocon, potrs = get_lapack_funcs(("potrf", "pocon", "potrs"), dtype=dtype)
    eps = np.finfo(float).eps
    # slot[i] is the position of index i in the current J, -1 elsewhere.
    slot = np.full(n, -1, dtype=np.int64)
    # Every block shares one Fortran-ordered buffer and is factored in
    # place, and the solutions go straight into arrays sized by the pattern:
    # per-column allocations fragment the heap and lift peak RSS.
    sizes = np.diff(Pc.indptr)
    buf = np.empty(sizes.max(initial=0) ** 2, dtype=dtype)
    vals_out = np.empty(Pc.nnz, dtype=dtype)

    for j in range(n):
        out = slice(Pc.indptr[j], Pc.indptr[j + 1])
        J = Pc.indices[out]
        k = len(J)
        slot[J] = np.arange(k)
        # Gather the upper triangle of G[J, J] from the CSC columns of G in J.
        starts = G.indptr[J]
        counts = G.indptr[J + 1] - starts
        at = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
        row = slot[G.indices[at]]
        inside = row >= 0
        row = row[inside]
        col = np.repeat(np.arange(k), counts)[inside]
        vals = G.data[at[inside]]
        A = buf[: k * k].reshape((k, k), order="F")
        A.fill(0)
        A[row, col] = vals
        # 1-norm of the Hermitian block from its upper triangle: column sums
        # plus row sums, less the diagonal that both count.
        mags = np.abs(vals)
        norm1 = (np.bincount(col, mags, k) + np.bincount(row, mags, k) - abs(A.diagonal())).max()
        # Right-hand side conj(H[j, J]) from CSR row j of H.
        lo, hi = Hr.indptr[j], Hr.indptr[j + 1]
        hit = slot[Hr.indices[lo:hi]]
        slot[J] = -1
        found = hit >= 0
        if not found.any():
            raise np.linalg.LinAlgError(f"column {j}: unit vector outside restricted row set")
        b = np.zeros(k, dtype=dtype)
        b[hit[found]] = Hr.data[lo:hi][found].conj()
        factor, info = potrf(A, overwrite_a=1, clean=0)
        rcond = pocon(factor, norm1)[0] if info == 0 else 0.0
        if not rcond > eps:
            raise np.linalg.LinAlgError(f"column {j}: singular restricted least-squares block")
        vals_out[out] = potrs(factor, b, overwrite_b=1)[0]

    # Rows of M are the solved columns of the left inverse: M[j, J] = x.
    rows_out = np.repeat(np.arange(n), sizes)
    M = sparse.coo_matrix((vals_out, (rows_out, Pc.indices)), shape=(n, n)).tocsr()
    R = M @ H - sparse.eye(n, format="csr")
    residual = float(np.sqrt((R.multiply(R.conjugate())).sum().real))
    return M, residual


# The one factor recipe for symmetric stars: symmetric minimum-degree order,
# diagonal pivots, relax=1 (fastest solves) and panel_size=4 (fastest box14 factor).
SPD_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=4,
                options={"SymmetricMode": True})


def _ritz_vector(A: sparse.spmatrix, solve, M: sparse.spmatrix | None = None):
    """Ritz vector of one extreme eigenpair of the symmetric matrix A.

    With SPD ``M``, of the largest eigenvalue of A x = lam M x (generalized
    Lanczos, ``solve`` applies M^{-1}); without, of the eigenvalue nearest
    zero (shift-invert Lanczos at 0, ``solve`` applies A^{-1}).  ``eigsh``
    runs with k = 1, a seeded start and relative tolerance 1e-10, one
    ``solve`` per step, and raises ``ArpackError`` if it does not converge.
    ARPACK needs k < n, so below three unknowns dense ``eigh`` serves.
    """
    n = A.shape[0]
    if n < 3:
        vals, vecs = eigh(A.toarray(), None if M is None else M.toarray())
        return vecs[:, -1] if M is not None else vecs[:, np.argmin(np.abs(vals))]
    op = LinearOperator((n, n), matvec=solve, dtype=A.dtype)
    mode = dict(sigma=0.0, OPinv=op) if M is None else dict(M=M, Minv=op, which="LA")
    start = np.random.default_rng(7).standard_normal(n)
    return eigsh(A, k=1, v0=start, tol=1e-10, **mode)[1][:, 0]


def symmetry_deviation(H: sparse.spmatrix) -> float:
    """Relative asymmetry ||H - H^T||_F / ||H||_F, from the entries' nonzero re^2 + im^2.

    A zero matrix (an empty one included) is exactly symmetric: 0.0.
    """
    H = sparse.csr_matrix(H, copy=True)
    H.sum_duplicates()
    squares = ((x.real * x.real + x.imag * x.imag).astype(x.dtype) for x in (H.data, (H - H.T).data))
    hnorm, dnorm = (np.sqrt(abs(sq[sq != 0].sum())) for sq in squares)
    return float(dnorm / hnorm) if hnorm else 0.0


def check_spd(H: sparse.spmatrix) -> tuple[float, float]:
    """Relative symmetry deviation and a smallest-eigenvalue estimate.

    P H P^T = L U is factored with a symmetric ordering and diagonal
    pivots.  If they stay on the diagonal and are all positive, H (taken as
    symmetric) is proved positive definite by Sylvester's law of inertia,
    and the estimate is the quotient x^T H x / x^T x of the Ritz vector x
    of shift-invert Lanczos at 0 on that factor (NaN if it does not
    converge).  That is the eigenvalue nearest zero, so otherwise the
    estimate (NaN included) is lowered to the quotient of a witness x = P^T y, L^T y = e_k
    at the most negative pivot k, or to 0.0 if a zero pivot forced an
    off-diagonal one or left the factor exactly singular.  The value is a
    Rayleigh quotient of H (or 0.0), so never below lambda_min.
    """
    H = H.tocsr()
    sym_dev = symmetry_deviation(H)
    n = H.shape[0]
    if n == 0:
        return sym_dev, float("nan")
    try:
        lu = splu(H.tocsc(), **SPD_SPLU)
    except RuntimeError as err:
        if "exactly singular" not in str(err):
            raise
        return sym_dev, 0.0
    try:
        x = _ritz_vector(H, lu.solve)
        estimate = float(x @ (H @ x)) / float(x @ x)
    except ArpackError:
        estimate = float("nan")

    pivots = lu.U.diagonal()
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return sym_dev, float(np.fmin(estimate, 0.0))
    if np.all(pivots > 0):
        return sym_dev, estimate
    e = np.zeros(n)
    e[np.argmin(pivots)] = 1.0
    y = spsolve_triangular(lu.L.T.tocsr(), e, lower=False, unit_diagonal=True)
    x = y[lu.perm_c]
    return sym_dev, float(np.fmin(estimate, float(x @ (H @ x)) / float(x @ x)))


# -- dual-cell pairing --------------------------------------------------------


def dual_pairing_check(
    complex: SimplicialComplex,
    dual: DualComplex,
    p: int,
    basis: WhitneyBasis | None = None,
) -> tuple[float, dict[tuple[int, int], float]]:
    """Integrate the metric Hodge dual of each degree-p basis form over the
    dual (3-p)-cells by subdivision quadrature.

    Returns the max deviation of the pairing matrix from the Kronecker
    delta over the sampled pairs, together with the sampled entries.  The
    deviation is reported as measured; see the degree-0 closed form in the
    tests for what this pairing actually evaluates to on a single tet.
    """
    if p not in (0, 1, 2, 3):
        raise ValueError("degree must be in 0..3")
    basis = basis or WhitneyBasis(complex)
    cx = complex
    # The Hodge dual of a degree-p basis form has the same proxy: it is
    # integrated over the sub-tets (p = 0), the sub-triangles (p = 1, normal
    # along the edge) and the sub-segments (p = 2, along the face normal) of
    # the dual cells, or read at the tet centres (p = 3).
    tet_ids = np.arange(cx.n_tets)
    corners, owners, tets, sign = (
        (dual.vertex_pieces, dual.vertex_piece_owner, dual.vertex_piece_tet, 1.0),
        (dual.edge_pieces, dual.edge_piece_owner, dual.edge_piece_tet, dual.edge_piece_sign),
        (dual.face_pieces, dual.face_piece_owner, dual.face_piece_tet, dual.face_piece_sign),
        (dual.tet_centers[:, None], tet_ids, tet_ids, 1.0),
    )[p]
    # vals[k, s]: piece k's share of the pairing of its owner with local slot s.
    vals = _integrate(corners, lambda x: basis.eval(p, tets, basis.bary(tets, x)))
    vals = vals.reshape(len(tets), -1) * np.reshape(sign, (-1, 1))
    slots = basis.local_indices(p, tets)

    # Sum per (owner, simplex) pair.
    n = cx.n_simplices(p)
    uniq, inverse = np.unique((owners[:, None] * n + slots).ravel(), return_inverse=True)
    sums = np.bincount(inverse, weights=vals.ravel())
    rows, cols = uniq // n, uniq % n
    dev = float(np.abs(sums - (rows == cols)).max())
    entries = dict(zip(zip(rows.tolist(), cols.tolist()), sums.tolist()))
    return dev, entries


# -- coordinate-format text dump ----------------------------------------------


def write_coo(mat: sparse.spmatrix, path: str | Path) -> None:
    """Write ``declat-coo <rows> <cols> <nnz>`` followed by one entry per line."""
    coo = sparse.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    cplx = np.iscomplexobj(coo.data)
    values = coo.data[order].astype(complex if cplx else float).tolist()
    fmt = (lambda v: repr(v).strip("()")) if cplx else repr
    lines = [f"declat-coo {coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    lines += [f"{r} {c} {fmt(v)}" for r, c, v in
              zip(coo.row[order].tolist(), coo.col[order].tolist(), values)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_coo(path: str | Path) -> sparse.csr_matrix:
    """Read a ``declat-coo`` file, complex when any entry holds a ``j``.

    A body whose entry count differs from the header's nnz, or whose row or column
    is not an integer, is rejected with ``ValueError``.
    """
    text = Path(path).read_text().strip()
    head, *body = text.splitlines()
    if head.split()[:1] != ["declat-coo"]:
        raise ValueError("missing declat-coo header")
    nr, nc, nnz = map(int, head.split()[1:])
    entry = np.dtype([("row", np.int64), ("col", np.int64),
                      ("value", complex if "j" in text else float)])
    coo = _loadtxt(body, entry, 1)
    if len(coo) != nnz:
        raise ValueError(f"declat-coo header lists {nnz} entries, the body holds {len(coo)}")
    return sparse.coo_matrix((coo["value"], (coo["row"], coo["col"])), shape=(nr, nc)).tocsr()
