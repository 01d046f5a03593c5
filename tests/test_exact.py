import functools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from declat import exact, generators
from declat.audit import audit_first_kind
from declat.exact import certify_ranks, gf2_rank, grounded_components, integer_rank
from declat.mesh import MeshError, SimplicialComplex, betti_numbers, classify_boundary

from _oracles import enumerate_skeleton, graph_rank_coo, relabel


def chain(mesh):
    return [mesh.incidence(p) for p in range(3)]


def hollow_box3() -> SimplicialComplex:
    """box3 without the six tets of its middle cell: one cavity, b2 = 1."""
    box = generators.box_mesh(3)
    centers = box.vertices[box.tets].mean(axis=1)
    middle = np.all((centers > 1 / 3) & (centers < 2 / 3), axis=1)
    assert middle.sum() == 6
    return SimplicialComplex(box.vertices, box.tets[~middle])


def disjoint_union(a, b, shift) -> SimplicialComplex:
    return SimplicialComplex(
        np.vstack([a.vertices, b.vertices + shift]),
        np.vstack([a.tets, b.tets + a.n_vertices]),
    )


@given(
    n=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    perm_seed=st.integers(0, 2**16),
)
def test_certified_ranks_match_bareiss_under_relabelling(n, seed, perm_seed):
    base = generators.jittered_box_mesh(n, seed=seed)
    rng = np.random.default_rng(perm_seed)
    relabel = rng.permutation(base.n_vertices)
    verts = np.empty_like(base.vertices)
    verts[relabel] = base.vertices
    tets = relabel[base.tets][rng.permutation(base.n_tets)]
    mesh = SimplicialComplex(verts, tets)
    cert = certify_ranks(*chain(mesh))
    assert cert.certified
    assert [r.value for r in cert.ranks] == [integer_rank(C) for C in chain(mesh)]
    assert cert.betti == (1, 0, 0)


def test_hollow_box_certifies_cavity():
    mesh = hollow_box3()
    assert betti_numbers(mesh) == (1, 0, 1)
    cert = certify_ranks(*chain(mesh))
    assert [r.value for r in cert.ranks] == [integer_rank(C) for C in chain(mesh)]


def test_handle_plus_cavity_needs_witnesses():
    mesh = disjoint_union(generators.annulus_mesh(8), hollow_box3(), 10.0)
    cert = certify_ranks(*chain(mesh))
    r1 = cert.ranks[1]
    # Without the witnessed 2-cycle the bounds stop at 295 vs 296.
    assert r1.value == 295 and "1 witnessed 2-cycles" in r1.how
    assert betti_numbers(mesh) == (2, 1, 1)


def tunnel_and_cavity() -> SimplicialComplex:
    """box4 less a tunnel and a cavity that touch along one edge."""
    box = generators.box_mesh(4)
    cell = np.floor(4 * box.vertices[box.tets].mean(axis=1))
    tunnel = (cell[:, 0] == 1) & (cell[:, 1] == 1)
    cavity = np.all(cell == [2, 2, 2], axis=1)
    return SimplicialComplex(box.vertices, box.tets[~(tunnel | cavity)])


# The full chain's ranks by integer_rank (about 5 s, too slow to rerun here).
_TUNNEL_AND_CAVITY_RANKS = [124, 469, 354]


def test_surfaces_pinched_along_an_edge_stay_apart():
    # A tunnel and a cavity that touch along one edge: joined across that
    # edge they would form one surface and leave no witness.
    mesh = tunnel_and_cavity()
    cert = certify_ranks(*chain(mesh))
    assert [r.value for r in cert.ranks] == _TUNNEL_AND_CAVITY_RANKS
    assert "1 witnessed 2-cycles" in cert.ranks[1].how
    assert cert.betti == (1, 1, 1)


def test_relative_chain_uses_cavity_witness():
    # Relative to the boundary, the handle and the cavity each leave one
    # simple bound loose; the cavity's 1-cocycle closes the gap.
    mesh = disjoint_union(generators.annulus_mesh(8), hollow_box3(), 10.0)
    cls = classify_boundary(mesh)
    iv, ie, jf = cls.interior_vertices, cls.interior_edges, cls.interior_faces
    cert = certify_ranks(*chain(mesh), interior=(iv, ie, jf))
    reduced = [
        mesh.incidence(0)[ie][:, iv],
        mesh.incidence(1)[jf][:, ie],
        mesh.incidence(2)[:, jf],
    ]
    assert [r.value for r in cert.ranks] == [integer_rank(C) for C in reduced]
    assert "1 witnessed 1-cocycles" in cert.ranks[1].how
    assert cert.betti == (0, 1, 1)


def test_sign_flip_leaves_curl_rank_uncertified(kuhn):
    C1 = kuhn.incidence(1).tolil()
    C1[5, C1.rows[5][0]] *= -1
    cert = certify_ranks(kuhn.incidence(0), C1.tocsr(), kuhn.incidence(2))
    r0, r1, r2 = cert.ranks
    assert r0.certified and r2.certified
    assert not r1.certified and r1.value is None
    assert "C1 C0 = 0" in r1.how and "C2 C1 = 0" in r1.how
    assert cert.betti == (1, None, None)

    section = audit_first_kind(
        kuhn, incidence_override={1: C1.tocsr()}, expected_betti=(1, 0, 0)
    )
    checks = {c.name: c for c in section.checks}
    assert not checks["incidence ranks certified"].passed
    assert "r1 uncertified" in checks["incidence ranks certified"].detail
    assert checks["cohomology b0 vs component count"].passed
    assert checks["cohomology b0 vs component count"].detail == "b0=1 components=1"


def chain_of_tets(n_vertices, tets):
    """C0, C1, C2 of a tet list by the alternating-sum rule on sorted vertices."""
    edges, faces = (sorted(cells) for cells in enumerate_skeleton(tets))
    vertices = [(v,) for v in range(n_vertices)]
    cells = [vertices, edges, faces, sorted(tuple(sorted(t)) for t in tets)]
    mats = []
    for facets, simplices in zip(cells, cells[1:]):
        index = {f: i for i, f in enumerate(facets)}
        rows, cols, signs = zip(*[(r, index[s[:k] + s[k + 1:]], (-1) ** k)
                                  for r, s in enumerate(simplices) for k in range(len(s))])
        mats.append(sparse.csr_matrix((signs, (rows, cols)),
                                       shape=(len(simplices), len(facets))))
    return mats


def test_nonmanifold_face_is_not_certified():
    # Three tets on face [0, 1, 2] build no complex, so their chain is fed
    # to the certifier as matrices.
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]],
        dtype=float,
    )
    tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]
    with pytest.raises(MeshError, match=re.escape("non-manifold face [0, 1, 2]")):
        SimplicialComplex(verts, np.array(tets))
    cert = certify_ranks(*chain_of_tets(len(verts), tets))
    assert not cert.ranks[2].certified
    assert "C2 column" in cert.ranks[2].how and "3 nonzeros" in cert.ranks[2].how
    with pytest.raises(ValueError, match="rank C2 uncertified"):
        cert.require()


def test_grounded_components_counts_floating_vertices():
    # Path 0-1-2 with 0 on the boundary, and an isolated pair 3-4.
    edges = np.array([[0, 1], [1, 2], [3, 4]])
    interior = np.array([1, 2, 3, 4])
    assert grounded_components(5, edges, interior, np.arange(3)) == (False, 2)
    assert grounded_components(5, edges, np.array([1, 2]), np.arange(2)) == (True, 0)


def test_betti_box10_is_fast():
    mesh = generators.box_mesh(10)
    t0 = time.monotonic()
    assert betti_numbers(mesh) == (1, 0, 0)
    assert time.monotonic() - t0 < 5.0


def interior_of(mesh):
    cls = classify_boundary(mesh)
    return cls.interior_vertices, cls.interior_edges, cls.interior_faces


def reduced_chain(mesh, interior):
    iv, ie, jf = interior
    return [mesh.incidence(0)[ie][:, iv], mesh.incidence(1)[jf][:, ie], mesh.incidence(2)[:, jf]]


_RANK_MESHES = {
    "kuhn": generators.kuhn_cube,
    "jittered2": lambda: generators.jittered_box_mesh(2, seed=3),
    "annulus8": lambda: generators.annulus_mesh(8),
    "hollow_box3": hollow_box3,
    "tunnel_and_cavity": tunnel_and_cavity,
}


@functools.cache
def bareiss_ranks(name):
    """Full and reduced chain ranks by integer_rank; they do not depend on labels."""
    mesh = _RANK_MESHES[name]()
    full = (_TUNNEL_AND_CAVITY_RANKS if name == "tunnel_and_cavity"
            else [integer_rank(C) for C in chain(mesh)])
    return tuple(full), tuple(integer_rank(C) for C in reduced_chain(mesh, interior_of(mesh)))


@pytest.mark.parametrize("name", list(_RANK_MESHES))
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_peeled_ranks_match_bareiss_full_and_reduced(name, seed):
    mesh = relabel(_RANK_MESHES[name](), seed)
    full, reduced = bareiss_ranks(name)
    assert certify_ranks(*chain(mesh)).require() == full
    assert certify_ranks(*chain(mesh), interior=interior_of(mesh)).require() == reduced


def kuhn_corner(keep):
    kuhn = generators.kuhn_cube()
    return SimplicialComplex(kuhn.vertices, kuhn.tets[keep])


@pytest.mark.parametrize("mesh, links", [
    (generators.single_tet(), 4),
    (generators.kuhn_cube(), 2),
    (kuhn_corner([0, 1, 2]), 3),
])
def test_corner_tet_drops_one_face(mesh, links):
    # A tet with two, three or four boundary faces is joined to the ground
    # once, so the forest drops one face per tet and the rest all peel.
    boundary = mesh.face_tets[:, 1] < 0
    assert np.bincount(mesh.face_tets[boundary, 0]).max() == links
    C1, C2 = (exact._int_csr(mesh.incidence(p)) for p in (1, 2))
    kept = mesh.n_faces - mesh.n_tets
    assert exact._peel_rank(C1, C2, C2 @ C1) == (kept, f"peel of {kept} faces")
    assert integer_rank(C1) == kept


_STRUCTURAL = ["drop_face", "drop_edge", "drop_tet", "face_on_three_tets"]
_ENTRY = ["flip", "zero", "double", "zero_in_C2"]
# A zeroed row keeps its entries stored; a doubled row vanishes mod 2.
_FAULTS = [*_ENTRY, "zero_row", "double_row", *_STRUCTURAL]


def faulted_chain(mesh, faults, seed):
    """The chain of ``mesh`` with each named fault applied at a random place."""
    rng = np.random.default_rng(seed)
    C0, C1, C2 = (mesh.incidence(p).toarray() for p in range(3))
    stored = []  # (matrix, row, col, fault) of value faults, applied to the CSR arrays
    for fault in sorted(faults, key=lambda f: f not in _STRUCTURAL):
        if fault == "drop_face" and len(C1) > 1:
            f = rng.integers(len(C1))
            C1, C2 = np.delete(C1, f, axis=0), np.delete(C2, f, axis=1)
        elif fault == "drop_edge" and C1.shape[1] > 1:
            e = rng.integers(C1.shape[1])
            C0, C1 = np.delete(C0, e, axis=0), np.delete(C1, e, axis=1)
        elif fault == "drop_tet" and len(C2) > 1:
            C2 = np.delete(C2, rng.integers(len(C2)), axis=0)
        elif fault == "face_on_three_tets":
            row = np.zeros((1, C2.shape[1]), dtype=C2.dtype)
            row[0, rng.integers(C2.shape[1])] = rng.choice([-1, 1])
            C2 = np.vstack([C2, row])
        else:  # a value fault on one entry of C1 or C2, or on a whole row of C1
            which = 2 if fault == "zero_in_C2" else 1
            r, c = np.nonzero((C1, C2)[which - 1])
            if len(r):
                k = rng.integers(len(r))
                stored.append((which, r[k], c[k] if fault in _ENTRY else None, fault))
    mats = [sparse.csr_matrix(C) for C in (C0, C1, C2)]
    for which, r, c, fault in stored:
        M = mats[which]
        k = M.indptr[r] + np.arange(M.indptr[r + 1] - M.indptr[r])
        k = k if c is None else k[M.indices[k] == c]
        M.data[k] = {"flip": -1, "double": 2, "double_row": 2}.get(fault, 0) * M.data[k]
    return mats


@settings(max_examples=150)
@given(name=st.sampled_from(["kuhn", "kuhn_corner", "box2", "jittered1"]),
       faults=st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_peel_bound_is_sound_on_faulted_chains(name, faults, seed):
    mesh = {"kuhn": generators.kuhn_cube, "kuhn_corner": lambda: kuhn_corner([0, 1, 2]),
            "box2": lambda: generators.box_mesh(2),
            "jittered1": lambda: generators.jittered_box_mesh(1, seed=seed % 7)}[name]()
    C0, C1, C2 = faulted_chain(mesh, faults, seed)
    rank, rank2 = integer_rank(C1), gf2_rank(C1)
    # The peel count plus the GF(2) rank of the rows left over is C1's GF(2)
    # rank: a face is dropped only for a tet whose row of C2 C1 is even.
    lower, _ = exact._peel_rank(C1, C2, C2 @ C1)
    assert lower == rank2 <= rank
    # A certified value is the rank, and an open bound is the GF(2) rank itself.
    r1 = certify_ranks(C0, C1, C2).ranks[1]
    assert r1.value == rank if r1.certified else r1.lower == rank2


@pytest.mark.parametrize("faults, seed", [
    (["zero_row"], 0), (["double_row"], 0), (["drop_face"], 0), (["face_on_three_tets"], 2),
])
def test_faulted_chain_certifies_by_peel(monkeypatch, faults, seed):
    # A GF(2) rank of all of C1 once certified these chains; the peel now
    # does, and gf2_rank sees only the rows it leaves over.
    C0, C1, C2 = faulted_chain(generators.kuhn_cube(), faults, seed)
    gf2 = exact.gf2_rank

    def spy(mat):
        assert mat.shape[0] < C1.shape[0], "gf2_rank took all of C1"
        return gf2(mat)

    monkeypatch.setattr(exact, "gf2_rank", spy)
    r1 = certify_ranks(C0, C1, C2).ranks[1]
    assert r1.value == integer_rank(C1)
    assert r1.how.startswith("peel of") and r1.how.endswith("meets N_E - r0"), r1.how


@settings(max_examples=60)
@given(n=st.integers(1, 6), rows=st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-2, -1, 0, 1, 2])), max_size=3),
    max_size=8), transpose=st.booleans())
def test_graph_rank_matches_coo_oracle(n, rows, transpose):
    # Rows of up to three entries; a 0 is stored, and is no entry.
    entries = {(i, c % n): v for i, row in enumerate(rows) for c, v in row}
    i, c = (np.array([key[k] for key in entries], dtype=np.int64) for k in (0, 1))
    mat = sparse.csr_matrix((np.array(list(entries.values()), dtype=np.int64), (i, c)),
                            shape=(len(rows), n))
    assert mat.nnz == len(entries)
    if transpose:  # the certifier reads C2 as a transposed (CSC) view
        mat = sparse.csc_matrix(mat)
    assert exact._graph_rank(mat, "row") == graph_rank_coo(mat, "row")


@pytest.mark.parametrize("name", ["kuhn", "box2", "annulus8", "hollow_box3"])
def test_graph_rank_matches_coo_oracle_on_meshes(name):
    mesh = {"kuhn": generators.kuhn_cube, "box2": lambda: generators.box_mesh(2),
            "annulus8": lambda: generators.annulus_mesh(8), "hollow_box3": hollow_box3}[name]()
    C0, _, C2 = chain(mesh)
    for mat, what in ((C0, "C0 row"), (C2.T, "C2 column")):
        assert exact._graph_rank(mat, what) == graph_rank_coo(mat, what)


def test_box10_certifies_without_gf2(monkeypatch):
    # The peel certifies box10's C1 on its own: no GF(2) elimination runs.
    def refuse(mat):
        raise AssertionError("gf2_rank ran")

    monkeypatch.setattr(exact, "gf2_rank", refuse)
    cert = certify_ranks(*chain(generators.box_mesh(10)))
    assert cert.betti == (1, 0, 0)
    assert cert.ranks[1].how == "peel of 6600 faces meets N_E - r0"


@pytest.mark.parametrize("name", ["tunnel_and_cavity", "annulus8_and_hollow_box3"])
def test_handle_and_cavity_certify_by_peel(monkeypatch, name):
    # With a handle and a cavity, the peel meets only the bound its witness
    # tightens; C1's GF(2) rank (all of its rows) is never taken.
    mesh = tunnel_and_cavity() if name == "tunnel_and_cavity" else disjoint_union(
        generators.annulus_mesh(8), hollow_box3(), 10.0)
    interior = interior_of(mesh)
    sizes = {mesh.n_faces, len(interior[2])}
    gf2 = exact.gf2_rank

    def spy(mat):
        assert mat.shape[0] not in sizes, "gf2_rank took all of C1"
        return gf2(mat)

    monkeypatch.setattr(exact, "gf2_rank", spy)
    for cert in (certify_ranks(*chain(mesh)), certify_ranks(*chain(mesh), interior=interior)):
        assert cert.certified and cert.ranks[1].how.startswith("peel of"), cert.ranks[1].how


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 8), st.integers(1, 8)))
def test_integer_rank_matches_sympy(seed, shape):
    # Pivots other than +-1 included: a row that a step leaves untouched
    # must still be scaled by the pivot, or the next exact division is not.
    import sympy

    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, shape) * (rng.random(shape) < 0.5)
    assert integer_rank(a) == sympy.Matrix(a).rank()


@settings(max_examples=40)
@given(n=st.integers(0, 12), edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                             max_size=20))
def test_graph_components_labels_as_scipy_on_the_graph(n, edges):
    from scipy.sparse import csgraph

    a, b = (np.array([e[k] % max(n, 1) for e in edges if n], dtype=np.int32) for k in (0, 1))
    graph = sparse.coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
    want = csgraph.connected_components(graph, directed=False)
    got = exact.graph_components(n, a, b)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
