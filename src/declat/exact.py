"""Exact (no floating tolerance) linear algebra over the integers and GF(2).

Rank computations back the homology and degree-of-freedom bookkeeping.
:func:`certify_ranks` proves the ranks of a chain of incidence matrices
in near-linear time, or says which bound it could not close:

* a matrix whose rows are graph edges (one ``+a`` and one ``-a``) or
  grounds (one nonzero) has rank ``columns - ungrounded components``, read
  off the graph's connected components; this pins C0 (rows) and C2
  (columns) exactly;
* the rank of C1 is squeezed between a GF(2) rank from below (reduction
  mod 2 can only lose rank) and the chain-complex bounds ``N_E - r0`` and
  ``N_F - r2 - w`` from above, where ``w`` counts 2-cycles (inner boundary
  surfaces) proved independent by dual tet paths that pair with them to
  +-1;
* on the boundary-reduced chain the cavities instead tighten
  ``N_E - r0``, as relative 1-cocycles paired with interior-edge paths.

Every certificate is exact over Q.  :func:`integer_rank` (fraction-free
Bareiss elimination, cubic cost) is kept as the desk-scale oracle that
tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "integer_rank",
    "gf2_rank",
    "grounded_components",
    "graph_components",
    "RankBound",
    "ChainRanks",
    "certify_ranks",
]


def _to_int_rows(mat) -> list[list[int]]:
    if sparse.issparse(mat):
        mat = mat.toarray()
    arr = np.asarray(mat)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.round(arr)):
            raise ValueError("integer_rank requires an integer matrix")
        arr = arr.astype(np.int64)
    return [[int(x) for x in row] for row in arr]


def integer_rank(mat) -> int:
    """Exact rank over the rationals via Bareiss fraction-free elimination.

    Entries are Python integers throughout, so no pivots are lost to
    rounding.  Cost is cubic; this is the desk-scale oracle for tests, not
    a runtime path.
    """
    a = _to_int_rows(mat)
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot_row = None
        for r in range(row, m):
            if a[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        piv = a[row][col]
        for r in range(row + 1, m):
            arc = a[r][col]
            if arc == 0 and prev == 1:
                continue
            ar = a[r]
            ap = a[row]
            for c in range(col + 1, n):
                ar[c] = (piv * ar[c] - arc * ap[c]) // prev
            ar[col] = 0
        prev = piv
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def gf2_rank(mat) -> int:
    """Rank over GF(2), rows as arbitrary-precision bitsets.

    For an integer matrix this is a lower bound on the rational rank
    (specialization can only lose rank).  Rows are reduced against a pivot
    table keyed by lowest set bit, which behaves well on mesh incidence
    matrices ordered by construction.
    """
    if sparse.issparse(mat):
        coo = mat.tocoo()
        odd = (np.asarray(coo.data) % 2) != 0
        rows_idx = coo.row[odd]
        cols_idx = coo.col[odd]
        nrows = mat.shape[0]
        packed = [0] * nrows
        for r, c in zip(rows_idx.tolist(), cols_idx.tolist()):
            packed[r] ^= 1 << c
    else:
        arr = (np.asarray(mat) % 2).astype(np.uint8)
        packed = []
        for row in arr:
            x = 0
            for c in np.flatnonzero(row).tolist():
                x |= 1 << c
            packed.append(x)

    pivots: dict[int, int] = {}
    rank = 0
    for x in packed:
        while x:
            low = (x & -x).bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = x
                rank += 1
                break
            x ^= piv
    return rank


def graph_components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on ``n`` nodes with edges ``a[i]-b[i]``."""
    graph = sparse.coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
    return csgraph.connected_components(graph, directed=False)


def grounded_components(
    n_vertices: int,
    edges: np.ndarray,
    interior_vertices: np.ndarray,
    interior_edges: np.ndarray,
) -> tuple[bool, int]:
    """Certify that every interior vertex reaches the boundary by interior edges.

    Returns ``(grounded, n_floating)``, with ``n_floating`` the number of
    interior vertices whose component (under interior edges) holds no
    boundary vertex.  When ``grounded`` is True, the vertex-to-edge
    incidence restricted to interior rows and columns has full column rank
    over every field: a nonzero function on interior vertices (extended by
    zero to the boundary) cannot have zero gradient on all interior edges.
    """
    pairs = edges[interior_edges]
    _, labels = graph_components(n_vertices, pairs[:, 0], pairs[:, 1])
    boundary = np.ones(n_vertices, dtype=bool)
    boundary[interior_vertices] = False
    touches = np.zeros(labels.max(initial=-1) + 1, dtype=bool)
    touches[labels[boundary]] = True
    floating = int(np.count_nonzero(~touches[labels[interior_vertices]]))
    return (floating == 0, floating)


@dataclass(frozen=True)
class RankBound:
    """Proved bounds ``lower <= rank <= upper`` over Q, and how they were proved.

    The rank is certified when the bounds meet; ``how`` then names the
    certificate, and otherwise the bound that failed.
    """

    lower: int
    upper: int
    how: str

    @property
    def certified(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int | None:
        """The rank when certified, else None (no unproved number is given)."""
        return self.lower if self.certified else None

    @property
    def status(self) -> str:
        return f"{'certified' if self.certified else 'uncertified'}: {self.how}"


@dataclass(frozen=True)
class ChainRanks:
    """Certified ranks of a chain ``C0, C1, C2`` and the homology they imply.

    ``sizes`` are the column counts of C0, C1, C2 (N_V, N_E, N_F for a
    full complex; interior counts for a boundary-reduced one).
    """

    sizes: tuple[int, int, int]
    ranks: tuple[RankBound, RankBound, RankBound]

    @property
    def certified(self) -> bool:
        return all(r.certified for r in self.ranks)

    @property
    def betti(self) -> tuple[int | None, int | None, int | None]:
        """(b0, b1, b2); an entry is None when a rank it needs is uncertified."""
        r = [k.value for k in self.ranks]
        n = self.sizes

        def sub(size, *used):
            return None if None in used else size - sum(used)

        return (sub(n[0], r[0]), sub(n[1], r[0], r[1]), sub(n[2], r[1], r[2]))

    def require(self) -> tuple[int, int, int]:
        """The three ranks; raises ValueError naming each bound that failed."""
        failed = [f"rank C{p} {r.status}" for p, r in enumerate(self.ranks) if not r.certified]
        if failed:
            raise ValueError("; ".join(failed))
        return tuple(r.lower for r in self.ranks)


def _graph_rank(mat: sparse.spmatrix, what: str) -> RankBound:
    """Rank of a matrix whose rows are graph edges ``(a, -a)`` or grounds ``(a)``.

    Its kernel is the vectors constant on each component of the graph the
    two-entry rows span and zero on each component a one-entry row
    touches, so the rank is the column count minus the ungrounded
    components.  Any other row shape leaves only the trivial bounds.
    """
    m, n = mat.shape
    coo = sparse.coo_matrix(mat)
    keep = coo.data != 0
    order = np.argsort(coo.row[keep], kind="stable")
    rows, cols, vals = coo.row[keep][order], coo.col[keep][order], coo.data[keep][order]
    per_row = np.bincount(rows, minlength=m)
    if per_row.max(initial=0) > 2:
        r = int(np.argmax(per_row))
        return RankBound(0, min(m, n), f"{what} {r} has {per_row[r]} nonzeros")
    pair = per_row[rows] == 2
    head, tail = vals[pair][0::2], vals[pair][1::2]
    if np.any(head != -tail):
        r = int(rows[pair][0::2][np.argmax(head != -tail)])
        return RankBound(0, min(m, n), f"{what} {r} is not one +a and one -a")
    n_comp, labels = graph_components(n, cols[pair][0::2], cols[pair][1::2])
    grounded = np.zeros(n_comp, dtype=bool)
    grounded[labels[cols[~pair]]] = True
    rank = n - int(np.count_nonzero(~grounded))
    return RankBound(rank, rank, "graph components")


def _surface_pairs(C1: sparse.csr_matrix, C2: sparse.csr_matrix):
    """Boundary surfaces of a complex, paired for witness construction.

    Boundary faces are C2's one-entry columns; they form surfaces when
    joined across the edges they share in pairs.  Returns the boundary
    faces, the tet and C2 entry on each, each face's surface label, the
    tet graph across two-entry columns (edge weight: face index + 1) and
    the pairs ``(surface, reference)``: every surface but the first of its
    tet component, with that first one.
    """
    csc = C2.tocsc()
    csc.eliminate_zeros()
    per_face = np.diff(csc.indptr)
    bnd = np.flatnonzero(per_face == 1)
    bnd_tet = csc.indices[csc.indptr[bnd]]
    bnd_sign = csc.data[csc.indptr[bnd]]
    if not len(bnd):
        return bnd, bnd_tet, bnd_sign, bnd, None, []
    # Edges with more than two boundary faces are pinches between surfaces.
    pattern = abs(C1[bnd]).tocsc()
    pattern = pattern[:, np.flatnonzero(np.diff(pattern.indptr) == 2)]
    adjacent = (pattern @ pattern.T).tocoo()
    _, surf = graph_components(len(bnd), adjacent.row, adjacent.col)

    inner = np.flatnonzero(per_face == 2)
    ta, tb = csc.indices[csc.indptr[inner]], csc.indices[csc.indptr[inner] + 1]
    tet_graph = _weighted_graph(C2.shape[0], ta, tb, inner)
    _, tet_comp = graph_components(C2.shape[0], ta, tb)
    first = np.unique(surf, return_index=True)[1]
    reference: dict[int, int] = {}
    pairs = []
    for s, comp in enumerate(tet_comp[bnd_tet[first]].tolist()):
        ref = reference.setdefault(comp, s)
        if ref != s:
            pairs.append((s, ref))
    return bnd, bnd_tet, bnd_sign, surf, tet_graph, pairs


def _weighted_graph(n: int, a: np.ndarray, b: np.ndarray, label: np.ndarray) -> sparse.csr_matrix:
    """Symmetric graph whose edge ``a[i]-b[i]`` stores ``label[i] + 1``."""
    return sparse.csr_matrix(
        (np.concatenate([label, label]) + 1, (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(n, n),
    )


def _bfs_path(graph: sparse.csr_matrix, start: int, target: np.ndarray) -> list[int] | None:
    """Nodes of a shortest path from ``start`` to the nearest node with ``target`` set."""
    order, pred = csgraph.breadth_first_order(graph, start, directed=True,
                                              return_predecessors=True)
    hits = order[target[order]]
    if not len(hits):
        return None
    path = [int(hits[0])]
    while path[-1] != start:
        path.append(int(pred[path[-1]]))
    return path[::-1]


def _witnessed_2cycles(C1: sparse.csr_matrix, C2: sparse.csr_matrix) -> int:
    """Number of 2-cycles proved independent modulo boundaries ``im C2^T``.

    Each paired boundary surface gives a cycle ``z`` (its faces, signed as
    the tet on each sees them) and a dual tet path to its reference
    surface gives a 2-cocycle ``c`` (the path's oriented face crossings).
    ``C1^T z = 0`` and ``C2 c = 0`` are checked exactly; a cocycle vanishes
    on boundaries, so a diagonal, nonsingular pairing ``<c_i, z_j>`` proves
    the cycles independent modulo boundaries.
    """
    bnd, bnd_tet, bnd_sign, surf, tet_graph, pairs = _surface_pairs(C1, C2)
    cycles, cocycles = [], []
    for s, ref in pairs:
        entry = int(np.flatnonzero(surf == s)[0])
        on_ref = np.zeros(C2.shape[0], dtype=bool)
        on_ref[bnd_tet[surf == ref]] = True
        path = _bfs_path(tet_graph, int(bnd_tet[entry]), on_ref)
        if path is None:
            continue
        # A face counts with the sign of the tet the path leaves through it;
        # the entry face with the opposite sign.
        last = path[-1]
        exit_face = int(bnd[(surf == ref) & (bnd_tet == last)][0])
        c = {int(bnd[entry]): -int(bnd_sign[entry]), exit_face: int(C2[last, exit_face])}
        for t, u in zip(path, path[1:]):
            f = int(tet_graph[t, u]) - 1
            c[f] = int(C2[t, f])
        cocycles.append(c)
        cycles.append(dict(zip(bnd[surf == s].tolist(), bnd_sign[surf == s].tolist())))
    if not cycles:
        return 0
    z, c = _stack(cycles, C2.shape[1]), _stack(cocycles, C2.shape[1])
    if (C1.T @ z.T).count_nonzero() or (C2 @ c.T).count_nonzero():
        return 0
    return len(cycles) if _diagonal_nonsingular(c @ z.T) else 0


def _witnessed_1cocycles(C0, C1, C2, interior, C0_red, C1_red) -> int:
    """Number of relative 1-cocycles proved independent modulo ``im C0_red``.

    For a paired boundary surface, the gradient of its vertex indicator,
    kept on interior edges, is a cocycle ``x`` of the reduced chain; an
    interior-edge path from the surface to its reference surface is a
    relative 1-cycle ``g``.  ``C1_red x = 0`` and ``C0_red^T g = 0`` are
    checked exactly; such a cycle annihilates ``im C0_red``, so a diagonal,
    nonsingular pairing ``<g_i, x_j>`` proves the cocycles independent of
    the gradients.
    """
    C0_int = C0[interior[1]]
    C0_int.eliminate_zeros()
    if np.any(np.diff(C0_int.indptr) != 2):
        return 0
    bnd, _, _, surf, _, pairs = _surface_pairs(C1, C2)
    if not pairs:
        return 0
    ends = C0_int.indices.reshape(-1, 2)
    vertex_graph = _weighted_graph(C0.shape[1], ends[:, 0], ends[:, 1], np.arange(C0_int.shape[0]))
    # Vertices of each surface: the support of its faces' edges.
    membership = sparse.csr_matrix(
        (np.ones(len(bnd), dtype=np.int64), (surf, np.arange(len(bnd)))),
        shape=(surf.max() + 1, len(bnd)),
    )
    on_surface = (membership @ abs(C1[bnd]) @ abs(C0)).tocsr()
    on_surface.data[:] = 1

    cycles, cocycles = [], []
    for s, ref in pairs:
        target = on_surface[ref].toarray().ravel() > 0
        start = int(on_surface[s].indices[0])
        path = _bfs_path(vertex_graph, start, target)
        if path is None:
            continue
        # Step u -> v along edge e counts with C0[e, v]: +1 in C0's direction.
        g = {}
        for u, v in zip(path, path[1:]):
            e = int(vertex_graph[u, v]) - 1
            g[e] = int(C0_int[e, v])
        cycles.append(g)
        x = C0_int @ on_surface[s].toarray().ravel()
        cocycles.append({int(k): int(x[k]) for k in np.flatnonzero(x)})
    if not cycles:
        return 0
    g, x = _stack(cycles, C0_int.shape[0]), _stack(cocycles, C0_int.shape[0])
    if (C0_red.T @ g.T).count_nonzero() or (C1_red @ x.T).count_nonzero():
        return 0
    return len(cycles) if _diagonal_nonsingular(g @ x.T) else 0


def _stack(rows: list[dict], n: int) -> sparse.csr_matrix:
    """Sparse matrix with one row per ``{column: value}`` dict."""
    data = [(i, k, v) for i, row in enumerate(rows) for k, v in row.items()]
    i, k, v = (np.array(col, dtype=np.int64) for col in zip(*data))
    return sparse.csr_matrix((v, (i, k)), shape=(len(rows), n))


def _diagonal_nonsingular(pairing: sparse.spmatrix) -> bool:
    dense = pairing.toarray()
    diag = np.diag(dense)
    return not np.count_nonzero(dense - np.diag(diag)) and bool(np.all(diag))


def _int_csr(C) -> sparse.csr_matrix:
    C = sparse.csr_matrix(C)
    if not np.issubdtype(C.dtype, np.integer):
        if not np.all(C.data == np.round(C.data)):
            raise ValueError("certify_ranks requires integer matrices")
        C = C.astype(np.int64)
    return C


def certify_ranks(C0, C1, C2, interior: tuple | None = None) -> ChainRanks:
    """Certified ranks over Q of a chain of integer incidence matrices.

    ``C0`` (edges x vertices), ``C1`` (faces x edges) and ``C2`` (tets x
    faces) may be a complex's own matrices or fault-injected overrides:
    every hypothesis a certificate needs (graph row shape, ``C1 C0 = 0``,
    ``C2 C1 = 0``, cycle and cocycle identities) is checked on the
    matrices given.  With ``interior = (V, E, F)``, index arrays of the
    interior vertices, edges and faces, the ranks are those of the
    boundary-reduced chain ``C0[E][:, V]``, ``C1[F][:, E]``, ``C2[:, F]``.  A rank
    whose bounds do not meet is reported uncertified with the bounds that
    failed, never guessed.
    """
    C0, C1, C2 = full = tuple(_int_csr(C) for C in (C0, C1, C2))
    if interior is not None:
        V, E, F = interior
        C0, C1, C2 = C0[E][:, V], C1[F][:, E], C2[:, F]
    r0 = _graph_rank(C0, "C0 row")
    r2 = _graph_rank(C2.T, "C2 column")
    n_faces, n_edges = C1.shape
    lower = gf2_rank(C1)
    bounds = {"matrix size": min(n_faces, n_edges)}
    failed = []
    if not r0.certified:
        failed.append("N_E - r0 needs a certified r0")
    elif (C1 @ C0).count_nonzero():
        failed.append("N_E - r0 needs C1 C0 = 0")
    else:
        bounds["N_E - r0"] = n_edges - r0.lower
    if not r2.certified:
        failed.append("N_F - r2 needs a certified r2")
    elif (C2 @ C1).count_nonzero():
        failed.append("N_F - r2 needs C2 C1 = 0")
    else:
        bounds["N_F - r2"] = n_faces - r2.lower
    # N_E - r0 exceeds the rank by b1 and N_F - r2 by b2.  Cavities close
    # the gap as 2-cycles of the full chain, or as 1-cocycles of the
    # reduced one (where the roles of b1 and b2 swap).
    if lower < min(bounds.values()):
        if interior is None and "N_F - r2" in bounds:
            w = _witnessed_2cycles(C1, C2)
            bounds[f"N_F - r2 - {w} witnessed 2-cycles"] = bounds.pop("N_F - r2") - w
        elif interior is not None and "N_E - r0" in bounds:
            w = _witnessed_1cocycles(*full, interior, C0, C1)
            bounds[f"N_E - r0 - {w} witnessed 1-cocycles"] = bounds.pop("N_E - r0") - w
    how, upper = min(bounds.items(), key=lambda item: item[1])
    if lower == upper:
        r1 = RankBound(lower, upper, f"GF(2) rank meets {how}")
    else:
        listed = ", ".join(f"{name} = {value}" for name, value in bounds.items())
        r1 = RankBound(lower, upper, "; ".join([f"GF(2) rank {lower} below {listed}"] + failed))
    return ChainRanks(sizes=(C0.shape[1], n_edges, n_faces), ranks=(r0, r1, r2))
