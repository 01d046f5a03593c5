import re
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from declat import generators
from declat.audit import audit_first_kind
from declat.exact import certify_ranks, grounded_components, integer_rank
from declat.mesh import MeshError, SimplicialComplex, betti_numbers, classify_boundary

from _oracles import enumerate_skeleton


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


def test_surfaces_pinched_along_an_edge_stay_apart():
    # A tunnel and a cavity that touch along one edge: joined across that
    # edge they would form one surface and leave no witness.
    box = generators.box_mesh(4)
    cell = np.floor(4 * box.vertices[box.tets].mean(axis=1))
    tunnel = (cell[:, 0] == 1) & (cell[:, 1] == 1)
    cavity = np.all(cell == [2, 2, 2], axis=1)
    mesh = SimplicialComplex(box.vertices, box.tets[~(tunnel | cavity)])
    cert = certify_ranks(*chain(mesh))
    # The values integer_rank gives (about 5 s, too slow to rerun here).
    assert [r.value for r in cert.ranks] == [124, 469, 354]
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
