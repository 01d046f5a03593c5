import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from declat import generators
from declat.mesh import (
    MeshError,
    SimplicialComplex,
    betti_numbers,
    classify_boundary,
    euler_audit,
    load_mesh,
    parse_mesh,
    write_mesh,
)

from _oracles import boundary_faces, enumerate_skeleton, face_tets_loop, tet_neighbors_loop
from test_exact import hollow_box3


def test_single_tet_counts(single_tet):
    assert single_tet.counts() == (4, 6, 4, 1)


def test_kuhn_counts_against_enumeration(kuhn):
    edges, faces = enumerate_skeleton(kuhn.tets.tolist())
    assert kuhn.counts() == (8, len(edges), len(faces), 6)
    assert kuhn.counts() == (8, 19, 18, 6)
    assert {tuple(e) for e in kuhn.edges.tolist()} == edges
    assert {tuple(f) for f in kuhn.faces.tolist()} == faces


def test_vertex_out_of_range():
    with pytest.raises(MeshError, match="out of range"):
        SimplicialComplex(np.zeros((3, 3)), np.array([[0, 1, 2, 3]]))


def test_degenerate_tet_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]], dtype=float)
    with pytest.raises(MeshError, match="degenerate"):
        SimplicialComplex(verts, np.array([[0, 1, 2, 3]]))


def test_repeated_vertex_rejected():
    verts = np.eye(4, 3)
    with pytest.raises(MeshError, match="repeated"):
        SimplicialComplex(verts, np.array([[0, 1, 2, 2]]))


def test_duplicate_tets_rejected(single_tet):
    doubled = np.vstack([single_tet.tets, single_tet.tets[:, ::-1]])
    with pytest.raises(MeshError, match=re.escape("duplicated tet [0, 1, 2, 3] at rows [0, 1]")):
        SimplicialComplex(single_tet.vertices, doubled)


_DUPLICATE_HOSTS = {
    "kuhn": generators.kuhn_cube(),
    "box2": generators.box_mesh(2),
    "jittered2": generators.jittered_box_mesh(2, seed=4),
}


@given(
    name=st.sampled_from(sorted(_DUPLICATE_HOSTS)),
    seed=st.integers(0, 2**32 - 1),
    permuted=st.booleans(),
)
def test_duplicated_tet_named_in_any_vertex_order(name, seed, permuted):
    # One tet repeated, as stored or with its vertices permuted, among
    # shuffled rows: the error names the tet and the two input rows.
    mesh = _DUPLICATE_HOSTS[name]
    rng = np.random.default_rng(seed)
    tet = mesh.tets[rng.integers(mesh.n_tets)]
    copy = tet[rng.permutation(4)] if permuted else tet
    tets = np.vstack([mesh.tets, copy])[rng.permutation(mesh.n_tets + 1)]
    with pytest.raises(MeshError) as err:
        SimplicialComplex(mesh.vertices, tets)
    named, i, j = re.fullmatch(r"duplicated tet (\[.*\]) at rows \[(\d+), (\d+)\]",
                               str(err.value)).groups()
    assert named == str(sorted(tet.tolist()))
    assert sorted(tets[int(i)].tolist()) == sorted(tets[int(j)].tolist()) == sorted(tet.tolist())
    assert int(i) != int(j)


def test_folded_pair_rejected():
    # Both apexes lie above face (0, 1, 2): the two tets overlap there.
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.2, 0.2, 0.5]], dtype=float
    )
    with pytest.raises(MeshError, match="folded") as err:
        SimplicialComplex(verts, np.array([[0, 1, 2, 3], [0, 1, 2, 4]]))
    msg = str(err.value)
    assert "face [0, 1, 2]" in msg
    assert "[0, 1, 2, 3]" in msg and "[0, 1, 2, 4]" in msg


def test_parse_and_roundtrip(tmp_path, kuhn):
    path = tmp_path / "kuhn.mesh"
    write_mesh(kuhn, path)
    back = load_mesh(path)
    assert back.counts() == kuhn.counts()
    assert np.array_equal(back.tets, kuhn.tets)
    assert np.array_equal(back.vertices, kuhn.vertices)


def test_parse_rejects_bad_header():
    with pytest.raises(MeshError, match="header"):
        parse_mesh("declat-mesh 2\nvertices 0\ntets 0\n")


def test_parse_handles_comments():
    text = """# a comment
declat-mesh 1
vertices 4   # four of them
0 0 0
1 0 0
0 1 0
0 0 1
tets 1
0 1 2 3
"""
    mesh = parse_mesh(text)
    assert mesh.counts() == (4, 6, 4, 1)


def test_parse_truncated_sections():
    with pytest.raises(MeshError):
        parse_mesh("declat-mesh 1\nvertices 2\n0 0 0\n")


def test_incidence_row_sizes(all_meshes):
    for mesh in all_meshes.values():
        for p, expected in ((0, 2), (1, 3), (2, 4)):
            C = mesh.incidence(p)
            counts = np.diff(C.indptr)
            assert np.all(counts == expected)
            assert np.all(np.isin(C.data, (-1, 1)))


def test_triangle_boundary_alternating_sum(single_tet):
    # Face (0,1,2): +[1,2] - [0,2] + [0,1] in the sorted-index convention.
    C1 = single_tet.incidence(1)
    faces = [tuple(f) for f in single_tet.faces.tolist()]
    edges = [tuple(e) for e in single_tet.edges.tolist()]
    row = C1[faces.index((0, 1, 2))].toarray().ravel()
    assert row[edges.index((1, 2))] == 1
    assert row[edges.index((0, 2))] == -1
    assert row[edges.index((0, 1))] == 1


def test_nilpotency_exact(all_meshes):
    for name, mesh in all_meshes.items():
        for p in (0, 1):
            comp = mesh.incidence(p + 1) @ mesh.incidence(p)
            assert abs(comp).max() == 0, name


def test_orientation_invariance_under_permutation(box3, rng):
    tets = box3.tets.copy()
    for row in tets:
        rng.shuffle(row)
    rng.shuffle(tets)
    rebuilt = SimplicialComplex(box3.vertices, tets)
    for p in range(3):
        a = box3.incidence(p)
        b = rebuilt.incidence(p)
        assert (a != b).nnz == 0


def test_boundary_single_tet(single_tet):
    cls = classify_boundary(single_tet)
    assert cls.n_boundary(0) == 4
    assert cls.n_boundary(1) == 6
    assert cls.n_boundary(2) == 4
    assert cls.n_interior(2) == 0


def test_boundary_kuhn_against_coface_count(kuhn):
    cls = classify_boundary(kuhn)
    oracle = boundary_faces(kuhn.tets.tolist())
    assert cls.n_boundary(2) == len(oracle) == 12
    got = {tuple(kuhn.faces[i]) for i in cls.boundary_faces}
    assert got == oracle


def test_two_glued_tets_share_interior_face():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    mesh = SimplicialComplex(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
    cls = classify_boundary(mesh)
    assert cls.n_interior(2) == 1
    assert cls.n_boundary(2) == 6


def test_nonmanifold_face_rejected():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]],
        dtype=float,
    )
    mesh = SimplicialComplex(
        verts, np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    )
    with pytest.raises(MeshError, match="non-manifold"):
        classify_boundary(mesh)


def test_adjacency_matches_loop(all_meshes):
    meshes = dict(all_meshes, jittered4=generators.jittered_box_mesh(4, seed=2))
    for name, mesh in meshes.items():
        ft = mesh.face_tets
        assert ft.dtype == np.int64 and np.array_equal(ft, face_tets_loop(mesh)), name
        neigh = mesh.tet_neighbors()
        assert neigh.dtype == np.int64 and np.array_equal(neigh, tet_neighbors_loop(mesh)), name


def test_nonmanifold_message_matches_loop():
    # Faces (0, 1, 2) and (0, 1, 3) each have three tets; the loop raises
    # at the one whose third tet comes first in tet order.
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1], [1, 1, -1]],
        dtype=float,
    )
    mesh = SimplicialComplex(
        verts,
        np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 6], [0, 1, 2, 5], [0, 1, 3, 5]]),
    )
    with pytest.raises(MeshError) as want:
        face_tets_loop(mesh)
    with pytest.raises(MeshError) as got:
        mesh.face_tets
    assert str(got.value) == str(want.value)


def test_euler_single_tet(single_tet):
    rep = euler_audit(single_tet, classify_boundary(single_tet), genus=0)
    assert rep.bulk == (4 - 6, 1 - 4 + 1)
    assert rep.boundary == (4 - 6, 2 - 4)
    assert rep.passed


def test_euler_kuhn_from_enumeration(kuhn):
    edges, faces = enumerate_skeleton(kuhn.tets.tolist())
    assert 8 - len(edges) == 1 - len(faces) + 6  # -11 both sides
    rep = euler_audit(kuhn, classify_boundary(kuhn))
    assert rep.genus == 0 and rep.passed


def test_euler_annulus_needs_genus(annulus8):
    rep = euler_audit(annulus8, classify_boundary(annulus8))
    assert rep.genus == 1
    assert rep.passed
    flat = euler_audit(annulus8, classify_boundary(annulus8), genus=0)
    assert not flat.passed


def test_euler_hollow_box_counts_cavity():
    mesh = hollow_box3()
    rep = euler_audit(mesh, classify_boundary(mesh))
    assert (rep.genus, rep.cavities) == (0, 1)
    assert rep.bulk == (-214, -214)
    assert rep.boundary == (-116, -116)
    assert rep.combined == (98, 98)
    assert rep.passed
    assert not euler_audit(mesh, classify_boundary(mesh), cavities=0).passed


@pytest.mark.parametrize(
    "maker,expected",
    [
        (generators.single_tet, (1, 0, 0)),
        (generators.kuhn_cube, (1, 0, 0)),
        (lambda: generators.annulus_mesh(8), (1, 1, 0)),
    ],
)
def test_betti_numbers(maker, expected):
    assert betti_numbers(maker()) == expected


def test_betti_annulus_against_sympy(annulus8):
    sympy = pytest.importorskip("sympy")
    ranks = [
        sympy.Matrix(annulus8.incidence(p).toarray()).rank() for p in range(3)
    ]
    n = [annulus8.n_simplices(p) for p in range(4)]
    oracle = (n[0] - ranks[0], n[1] - ranks[0] - ranks[1], n[2] - ranks[1] - ranks[2])
    assert betti_numbers(annulus8) == oracle


def test_dual_volume_partition(all_meshes):
    from declat.dual import DualComplex

    for name, mesh in all_meshes.items():
        dual = DualComplex(mesh)
        vols = dual.vertex_cell_volumes()
        assert np.all(vols > 0)
        total = mesh.volumes.sum()
        assert abs(vols.sum() - total) <= 1e-12 * total, name


def test_dual_vertex_cells_quarter_volume(single_tet):
    from declat.dual import DualComplex

    vols = DualComplex(single_tet).vertex_cell_volumes()
    np.testing.assert_allclose(vols, single_tet.volumes[0] / 4.0, rtol=1e-13)


def test_dual_face_cells_are_center_segments(kuhn):
    from declat.dual import DualComplex

    dual = DualComplex(kuhn)
    cls = classify_boundary(kuhn)
    ft = kuhn.face_tets
    for f in cls.interior_faces.tolist():
        pieces = np.flatnonzero(dual.face_piece_owner == f)
        assert len(pieces) == 2  # one segment per incident tet center
        for k in pieces:
            assert np.allclose(dual.face_pieces[k, 0], dual.face_centers[f])
            t = dual.face_piece_tet[k]
            assert t in ft[f]
            assert np.allclose(dual.face_pieces[k, 1], dual.tet_centers[t])
