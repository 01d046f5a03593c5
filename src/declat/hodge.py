"""Discrete Hodge star matrices from Whitney forms and material weights.

The degree-1 star pairs edge basis forms through the permittivity tensor,
the degree-2 star pairs face basis forms through the inverse permeability;
the Galerkin-dual pair swaps the roles (inverse permittivity on faces,
permeability on edges).  Entries couple only simplices sharing a tet, so
the matrices are sparse with ultra-local stencils; they are symmetric and
positive definite for admissible materials.

The numerical inverse of a star is dense in general but its entries decay
away from the diagonal, which justifies the sparse approximate inverse
built here: a per-column Frobenius-norm least-squares fit restricted to a
neighbor-pattern of prescribed level.  Each fit is solved through its
normal equations, a small Cholesky solve on a block of H^H H, so a block
counts as singular once its condition number nears 1/eps (about 1e8 for
the sliced columns of H): stricter than a dense least-squares rank rule,
never looser.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve, eigh, get_lapack_funcs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu, spsolve_triangular

from .dual import DualComplex
from .mesh import SimplicialComplex
from .whitney import WhitneyBasis, _TET4, _integrate

__all__ = [
    "MaterialMap",
    "SparsityPattern",
    "assemble_hodge",
    "assemble_galerkin_dual",
    "spai_inverse",
    "check_spd",
    "dual_pairing_check",
    "write_coo",
    "read_coo",
]


def _per_tet_tensor(value, n_tets: int, name: str) -> np.ndarray:
    """Broadcast a scalar / per-tet scalar / per-tet 3x3 field to (M, 3, 3)."""
    arr = np.asarray(value, dtype=complex if np.iscomplexobj(value) else float)
    eye = np.eye(3)
    if arr.ndim == 0:
        out = arr * np.broadcast_to(eye, (n_tets, 3, 3))
    elif arr.ndim == 1:
        if arr.shape[0] != n_tets:
            raise ValueError(f"{name}: per-tet array must have length {n_tets}")
        out = arr[:, None, None] * eye
    elif arr.shape == (3, 3):
        out = np.broadcast_to(arr, (n_tets, 3, 3)).copy()
    elif arr.shape == (n_tets, 3, 3):
        out = arr.copy()
    else:
        raise ValueError(f"{name}: unsupported material shape {arr.shape}")
    return out


@dataclass
class MaterialMap:
    """Per-tet permittivity and permeability (scalars or symmetric tensors)."""

    eps: object = 1.0
    mu: object = 1.0

    def tensors(self, complex: SimplicialComplex) -> tuple[np.ndarray, np.ndarray]:
        m = complex.n_tets
        eps = _per_tet_tensor(self.eps, m, "eps")
        mu = _per_tet_tensor(self.mu, m, "mu")
        for name, t in (("eps", eps), ("mu", mu)):
            if not np.allclose(t, np.transpose(t, (0, 2, 1)), rtol=0, atol=1e-12):
                raise ValueError(f"{name} tensor must be symmetric")
            if not np.iscomplexobj(t):
                eig = np.linalg.eigvalsh(t)
                if eig.min() <= 0:
                    raise ValueError(f"{name} tensor must be positive definite")
        return eps, mu


def _mass_matrix(
    complex: SimplicialComplex,
    p: int,
    weight: np.ndarray,
    basis: WhitneyBasis | None = None,
) -> sparse.csr_matrix:
    """Weighted L2 pairing of the degree-p basis, degree-2 tet quadrature.

    ``weight`` is (M, 3, 3) per tet or (M, Q, 3, 3) per quadrature point.
    """
    basis = basis or WhitneyBasis(complex)
    cx = complex
    m = cx.n_tets
    tids = np.arange(m)
    vals_q = []
    for lam_t in _TET4:
        lam = np.broadcast_to(lam_t, (m, 4))
        vals_q.append(basis.eval(p, tids, lam))
    w = np.stack(vals_q, axis=1)  # (M, Q, n_loc, 3)

    if weight.ndim == 3:
        local = np.einsum("mqad,mde,mqbe->mab", w, weight, w)
    else:
        local = np.einsum("mqad,mqde,mqbe->mab", w, weight, w)
    local = local * (cx.volumes / len(_TET4))[:, None, None]

    ids = basis.local_indices(p, tids)  # (M, n_loc)
    n_loc = ids.shape[1]
    rows = np.repeat(ids, n_loc, axis=1).reshape(-1)
    cols = np.tile(ids, (1, n_loc)).reshape(-1)
    n = cx.n_simplices(p)
    return sparse.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()


def assemble_hodge(
    complex: SimplicialComplex,
    materials: MaterialMap | None = None,
    which: str = "eps",
    basis: WhitneyBasis | None = None,
) -> sparse.csr_matrix:
    """Assemble a discrete Hodge star matrix.

    ``which`` selects the star: ``"eps"`` (primal 1-cochains, permittivity
    weight) or ``"mu_inv"`` (primal 2-cochains, inverse permeability).
    """
    materials = materials or MaterialMap()
    eps, mu = materials.tensors(complex)
    if which == "eps":
        return _mass_matrix(complex, 1, eps, basis)
    if which == "mu_inv":
        return _mass_matrix(complex, 2, np.linalg.inv(mu), basis)
    raise ValueError("which must be 'eps' or 'mu_inv'")


def assemble_galerkin_dual(
    complex: SimplicialComplex,
    materials: MaterialMap | None = None,
    basis: WhitneyBasis | None = None,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The swapped-assignment pair: (inverse-eps star on faces, mu star on edges)."""
    materials = materials or MaterialMap()
    eps, mu = materials.tensors(complex)
    h_eps_inv = _mass_matrix(complex, 2, np.linalg.inv(eps), basis)
    h_mu = _mass_matrix(complex, 1, mu, basis)
    return h_eps_inv, h_mu


# -- sparse approximate inverse ----------------------------------------------


@dataclass
class SparsityPattern:
    """Admitted positions for the approximate inverse, by neighbor level.

    Level 0 is the pattern of the matrix itself plus the diagonal; level k
    multiplies that pattern k more times, so patterns are nested and encode
    successive k-level neighbors.
    """

    level: int
    pattern: sparse.csr_matrix

    @classmethod
    def build(cls, H: sparse.spmatrix, level: int) -> "SparsityPattern":
        if level < 0:
            raise ValueError("pattern level must be >= 0")
        # Boolean products: a position's neighbour count never wraps.
        base = ((abs(H) > 0) + sparse.eye(H.shape[0], dtype=bool)).tocsr()
        pat = base
        for _ in range(level):
            pat = (pat @ base).tocsr()
        return cls(level, pat.astype(np.int8))


def spai_inverse(
    H: sparse.spmatrix,
    pattern: SparsityPattern | int = 0,
    drop_tol: float = 0.0,
) -> tuple[sparse.csr_matrix, float]:
    """Sparse approximate inverse M with M H close to the identity.

    Row j of M is the least-squares fit min ||H[:, J] x - e_j|| over the
    pattern positions J of column j, which minimizes the Frobenius
    deviation ||I - M H||_F position by position (H symmetric).  It is
    solved through its normal equations (H^H H)[J, J] x = conj(H[j, J]):
    G = H^H H is formed once, each |J| x |J| block is gathered from the CSC
    columns of G in J and solved by Cholesky.  Only the nonzero rows of
    H[:, J] contribute to G, so this is the fit a dense least-squares
    solve on those rows makes.  Entries below ``drop_tol`` times the row
    maximum are pruned afterwards.  Returns (M, residual).

    Raises ``LinAlgError`` when row j of H has no stored entry in J (the
    unit vector lies outside the restricted row set), and when G[J, J] is
    singular: its Cholesky factorization breaks down, or LAPACK's estimate
    of its 1-norm condition number reaches 1/eps.  The normal equations
    square the condition number, so this rejects blocks with
    cond(H[:, J]) of about 1e8 and above, which the rank rule of a dense
    SVD solve (singular values above eps max(|I|, |J|) times the largest)
    accepted.  It is stricter than that rule and, on every rank-deficient
    block tried, never looser: such a block either breaks the
    factorization or leaves a factor whose condition estimate is far
    beyond 1/eps.
    """
    if not sparse.issparse(H):
        H = sparse.csr_matrix(H)
    if not isinstance(pattern, SparsityPattern):
        pattern = SparsityPattern.build(H, operator.index(pattern))
    n = H.shape[0]
    Hr = H.tocsr(copy=True)
    Hr.sum_duplicates()
    G = (Hr.conj().T @ Hr).tocsc()
    Pc = pattern.pattern.tocsc()
    dtype = np.result_type(G.dtype, float)
    (pocon,) = get_lapack_funcs(("pocon",), dtype=dtype)
    eps = np.finfo(float).eps
    # slot[i] is the position of index i in the current J, -1 elsewhere.
    slot = np.full(n, -1, dtype=np.int64)
    # Every block shares one Fortran-ordered buffer and is factored in
    # place, and the solutions go straight into arrays sized by the pattern:
    # per-column allocations fragment the heap and lift peak RSS.
    sizes = np.diff(Pc.indptr)
    buf = np.empty(sizes.max(initial=0) ** 2, dtype=dtype)
    vals_out = np.empty(Pc.nnz, dtype=dtype)
    keep = np.ones(Pc.nnz, dtype=bool)

    for j in range(n):
        out = slice(Pc.indptr[j], Pc.indptr[j + 1])
        J = Pc.indices[out]
        k = len(J)
        slot[J] = np.arange(k)
        # Gather G[J, J] from the CSC columns of G in J.
        starts = G.indptr[J]
        counts = G.indptr[J + 1] - starts
        at = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
        row = slot[G.indices[at]]
        inside = row >= 0
        col = np.repeat(np.arange(k), counts)[inside]
        vals = G.data[at[inside]]
        A = buf[: k * k].reshape((k, k), order="F")
        A.fill(0)
        A[row[inside], col] = vals
        norm1 = np.bincount(col, weights=np.abs(vals), minlength=k).max()
        # Right-hand side conj(H[j, J]) from CSR row j of H.
        lo, hi = Hr.indptr[j], Hr.indptr[j + 1]
        hit = slot[Hr.indices[lo:hi]]
        slot[J] = -1
        found = hit >= 0
        if not found.any():
            raise np.linalg.LinAlgError(
                f"column {j}: unit vector outside restricted row set"
            )
        b = np.zeros(k, dtype=dtype)
        b[hit[found]] = Hr.data[lo:hi][found].conj()
        try:
            factor = cho_factor(A, overwrite_a=True, check_finite=False)
            rcond, _ = pocon(factor[0], norm1)
        except np.linalg.LinAlgError:
            rcond = 0.0
        if not rcond > eps:
            raise np.linalg.LinAlgError(
                f"column {j}: singular restricted least-squares block"
            )
        x = cho_solve(factor, b, check_finite=False)
        vals_out[out] = x
        if drop_tol > 0.0:
            keep[out] = np.abs(x) >= drop_tol * np.abs(x).max()

    # Rows of M are the solved columns of the left inverse: M[j, J] = x.
    rows_out = np.repeat(np.arange(n), sizes)
    M = sparse.coo_matrix(
        (vals_out[keep], (rows_out[keep], Pc.indices[keep])), shape=(n, n)
    ).tocsr()
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
    off-diagonal one.  The value is a Rayleigh quotient of H (or 0.0), so
    never below lambda_min.
    """
    H = H.tocsr()
    d = H - H.T
    hnorm = np.sqrt(abs((H.multiply(H.conjugate())).sum()))
    sym_dev = float(np.sqrt(abs((d.multiply(d.conjugate())).sum())) / hnorm)

    n = H.shape[0]
    if n == 0:
        return sym_dev, float("nan")
    lu = splu(H.tocsc(), **SPD_SPLU)
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
    lines = [f"declat-coo {coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    order = np.lexsort((coo.col, coo.row))
    cplx = np.iscomplexobj(coo.data)
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        val = repr(complex(v)).strip("()") if cplx else repr(float(v))
        lines.append(f"{r} {c} {val}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_coo(path: str | Path) -> sparse.csr_matrix:
    text = Path(path).read_text().strip().splitlines()
    head = text[0].split()
    if head[:1] != ["declat-coo"]:
        raise ValueError("missing declat-coo header")
    nr, nc, nnz = int(head[1]), int(head[2]), int(head[3])
    rows, cols, vals = [], [], []
    for line in text[1 : 1 + nnz]:
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(complex(v) if "j" in v else float(v))
    return sparse.coo_matrix((vals, (rows, cols)), shape=(nr, nc)).tocsr()
