import hashlib
import re
import warnings
from collections import Counter
from itertools import combinations

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


def test_micrometre_box_builds_like_unit_box():
    # The degeneracy bound is relative to the largest tet, so scale alone
    # never makes a valid mesh degenerate.
    unit, tiny = generators.box_mesh(2), generators.box_mesh(2, lengths=(1e-5,) * 3)
    for name in ("edges", "faces", "tets", "tet_edges", "tet_faces"):
        assert np.array_equal(getattr(tiny, name), getattr(unit, name)), name


def test_flat_tet_in_unit_mesh_named():
    mesh = generators.box_mesh(2)
    flat = np.flatnonzero(mesh.vertices[:, 2] == 0.0)[[0, 1, 3, 4]]
    tets = np.vstack([mesh.tets, flat])
    with pytest.raises(MeshError, match=re.escape(f"degenerate tet {sorted(flat.tolist())} "
                                                  "(zero volume)")):
        SimplicialComplex(mesh.vertices, tets)


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


def _relabel(verts, tets, seed):
    # The same mesh under a random vertex labelling, tet order and corner
    # order; also returns each old vertex's new label.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(verts))
    moved = np.empty_like(verts)
    moved[perm] = verts
    return moved, rng.permuted(perm[tets], axis=1)[rng.permutation(len(tets))], perm


def _relabelled_box(n, seed):
    box = generators.box_mesh(n)
    return SimplicialComplex(*_relabel(box.vertices, box.tets, seed)[:2])


def _skeleton_digest(mesh) -> str:
    cls = classify_boundary(mesh)
    arrays = [mesh.edges, mesh.faces, mesh.tets, mesh.tet_edges, mesh.tet_faces,
              mesh.tet_face_signs, cls.boundary_vertices, cls.boundary_edges,
              cls.boundary_faces]
    for p in range(3):
        C = mesh.incidence(p)
        arrays += [C.indptr, C.indices, C.data]
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_GOLDEN_MESHES = {
    "kuhn": generators.kuhn_cube,
    "box4": lambda: generators.box_mesh(4),
    "annulus8": lambda: generators.annulus_mesh(8),
    "jittered6": lambda: generators.jittered_box_mesh(6, seed=5),
    "relabelled_box5": lambda: _relabelled_box(5, seed=11),
}

# Digests of the canonical arrays, recorded before the skeleton was built
# from integer keys; a refactor of the construction must not move them.
_GOLDEN_DIGESTS = {
    "kuhn": "0d5a15d76e028c3adb252a0adf48858cc258b0c18b01bacdc8c443d06bdd6f31",
    "box4": "f18d2691bead517b37a1d8e4c924dc77124799de354f6b9a3b60e11b0c716ccb",
    "annulus8": "fd26b1c0b4b590dc11c786edeaab036a0d054a870496f0f66a128c2e6440a944",
    "jittered6": "fbd6d8f7af7e178b02dad1da6e466f76de8861e7642bc124394ba7c0984fb2db",
    "relabelled_box5": "4f8a8d81c6cba927d918f1306508cbd08bb049e9c2f9b976c1508853688381fe",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DIGESTS))
def test_canonical_arrays_match_golden_digest(name):
    assert _skeleton_digest(_GOLDEN_MESHES[name]()) == _GOLDEN_DIGESTS[name]


def test_keys_do_not_wrap_past_millions_of_vertex_slots():
    # A key packing (a, b, c) as a*n^2 + b*n + c wraps past n = 2.6M; one
    # of these labellings (the 16th) hit that.  Sorted labels keep the
    # canonical order, so the skeleton is the original's relabelled.
    mesh = generators.box_mesh(2)
    n = 2_700_000
    rng = np.random.default_rng(0)
    verts = np.zeros((n, 3))
    for _ in range(20):
        label = np.sort(rng.choice(n, mesh.n_vertices, replace=False))
        verts[label] = mesh.vertices
        big = SimplicialComplex(verts, label[mesh.tets])
        verts[label] = 0.0
        assert np.array_equal(big.edges, label[mesh.edges])
        assert np.array_equal(big.faces, label[mesh.faces])
        for p in (1, 2):
            assert (big.incidence(p) != mesh.incidence(p)).nnz == 0


def _glued(verts_a, tets_a, verts_b, tets_b):
    # Union of two meshes, with coincident vertices merged into one.
    verts, label = np.unique(np.vstack([verts_a, verts_b]), axis=0, return_inverse=True)
    return verts, label.ravel()[np.vstack([tets_a, tets_b + len(verts_a)])]


_UNIT_TET = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
_KUHN, _BOX2 = generators.kuhn_cube(), generators.box_mesh(2)
_ONE = np.array([[0, 1, 2, 3]])
# Meshes whose tets meet at the named points without sharing a face there.
_PINCHED = {
    "tets@vertex": (_glued(_UNIT_TET, _ONE, -_UNIT_TET, _ONE), [[0, 0, 0]]),
    "tets@edge": (_glued(_UNIT_TET, _ONE, _UNIT_TET * [1, -1, -1], _ONE),
                  [[0, 0, 0], [1, 0, 0]]),
    "kuhn@corner": (_glued(_KUHN.vertices, _KUHN.tets, _KUHN.vertices + 1, _KUHN.tets),
                    [[1, 1, 1]]),
    "box2@corner": (_glued(_BOX2.vertices, _BOX2.tets, _BOX2.vertices + 1, _BOX2.tets),
                    [[1, 1, 1]]),
}


@given(name=st.sampled_from(sorted(_PINCHED)), seed=st.integers(0, 2**32 - 1))
def test_pinched_vertex_named_under_relabelling(name, seed):
    (verts, tets), points = _PINCHED[name]
    moved, moved_tets, perm = _relabel(verts, tets, seed)
    pinched = perm[[int(np.flatnonzero((verts == p).all(axis=1))[0]) for p in points]]
    with pytest.raises(MeshError) as err:
        SimplicialComplex(moved, moved_tets)
    named = re.fullmatch(r"non-manifold vertex (\d+): its tets do not all connect "
                         r"through faces that contain it", str(err.value)).group(1)
    assert int(named) == pinched.min()


def test_parse_and_roundtrip(tmp_path, kuhn):
    # One tet whose coordinates hold -0.0, subnormals and 1e+-300.
    scales = SimplicialComplex([[-0.0, 5e-324, 1e-300], [1e300, -0.0, 0.0],
                                [0.0, 1.0, -2.5e-310], [-1e-300, 0.0, 1.0]], [[0, 1, 2, 3]])
    for mesh in (kuhn, generators.jittered_box_mesh(3, seed=5), scales):
        path = tmp_path / "mesh.mesh"
        write_mesh(mesh, path)
        back = load_mesh(path)
        assert back.counts() == mesh.counts()
        assert back.tets.dtype == mesh.tets.dtype and np.array_equal(back.tets, mesh.tets)
        assert back.vertices.dtype == mesh.vertices.dtype
        assert back.vertices.tobytes() == mesh.vertices.tobytes()  # bit for bit


def test_parse_rejects_lines_after_tet_section(tmp_path, kuhn):
    path = tmp_path / "kuhn.mesh"
    write_mesh(kuhn, path)
    text = path.read_text()
    assert "tets 6\n" in text
    last = text.splitlines()[-1]
    with pytest.raises(MeshError) as err:
        parse_mesh(text.replace("tets 6\n", "tets 5\n"))
    assert str(err.value) == f"unexpected line after the tet section: {last!r}"


def test_parse_handles_comments():
    text = """# a comment
declat-mesh 1

vertices 4   # four of them
0 0 0
1 0 0
   # an indented comment between rows
0\t1 0
0 0 1

tets 1
0 1 2 3  # the only tet
# trailing comment

"""
    mesh = parse_mesh(text)
    assert mesh.counts() == (4, 6, 4, 1)


def _tet_text(vertices="vertices 4", rows=("0 0 0", "1 0 0", "0 1 0", "0 0 1"),
              tets="tets 1", tet_rows=("0 1 2 3",)) -> str:
    return "\n".join(["declat-mesh 1", vertices, *rows, tets, *tet_rows]) + "\n"


_HEADER = "missing or unsupported header (want 'declat-mesh 1')"


@pytest.mark.parametrize("text, message", [
    ("declat-mesh 2\nvertices 0\ntets 0\n", _HEADER),
    ("# nothing but a comment\n", _HEADER),
    ("declat-mesh 1\n", "unexpected end of file (expected 'vertices')"),
    (_tet_text().split("tets")[0], "unexpected end of file (expected 'tets')"),
    (_tet_text(vertices="verts 4"), "expected 'vertices <count>', got 'verts 4'"),
    (_tet_text(tets="tets 1 2"), "expected 'tets <count>', got 'tets 1 2'"),
    (_tet_text(vertices="vertices four"), "bad count in 'vertices' section"),
    (_tet_text(tets="tets 1.0"), "bad count in 'tets' section"),
    (_tet_text(vertices="vertices 7"), "vertex section truncated"),
    ("declat-mesh 1\nvertices 2\n0 0 0\n", "vertex section truncated"),
    (_tet_text(tets="tets 2"), "tet section truncated"),
    (_tet_text(rows=("0 0 0", "1 0 0", "0 one 0", "0 0 1")), "malformed vertex line"),
    (_tet_text(tet_rows=("0 1 2 3.5",)), "malformed tet line"),
    (_tet_text(tet_rows=("0 1 2 x",)), "malformed tet line"),
    (_tet_text(rows=("0 0 0", "1 0 0", "0 1 0", "0 0 1 0")), "malformed vertex line"),
    (_tet_text(tets="tets 2", tet_rows=("0 1 2 3", "0 1 2")), "malformed tet line"),
], ids=["header", "no-header", "no-vertices", "no-tets", "vertices-line", "tets-line",
        "vertex-count", "tet-count", "vertex-rows", "vertex-rows-short", "tet-rows",
        "vertex-value", "tet-float-index", "tet-word-index", "ragged-vertices", "ragged-tets"])
def test_parse_names_each_syntax_error(text, message):
    with pytest.raises(MeshError) as err:
        parse_mesh(text)
    assert str(err.value) == message


def loadtxt_that_warns(real):
    """Older numpy's ``loadtxt``: a float in an int column warns (DeprecationWarning) and truncates."""
    def loadtxt(lines, dtype, ndmin):
        try:
            return real(lines, dtype=dtype, ndmin=ndmin)
        except ValueError as exc:
            token = re.match(r"could not convert string '(\S+)' to int", str(exc))
            if token is None:
                raise
            try:
                warnings.warn("float to int cast", DeprecationWarning)
            except DeprecationWarning as warning:
                raise ValueError(str(exc)) from warning
            tok = token.group(1)
            cut = [re.sub(rf"(?<!\S){re.escape(tok)}(?!\S)", str(int(float(tok))), ln) for ln in lines]
            return loadtxt(cut, dtype, ndmin)
    return loadtxt


@pytest.mark.parametrize("older_numpy", [False, True], ids=["numpy", "warn-and-truncate"])
def test_float_tet_index_rejected_under_any_warning_filter(monkeypatch, older_numpy):
    if older_numpy:
        monkeypatch.setattr(np, "loadtxt", loadtxt_that_warns(np.loadtxt))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no error filter, as outside the test suite
        with pytest.raises(MeshError, match="^malformed tet line$"):
            parse_mesh(_tet_text(tet_rows=("0 1 2 3.5",)))


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
    with pytest.raises(MeshError, match=re.escape(
            "non-manifold face [0, 1, 2] (more than two incident tets)")):
        SimplicialComplex(verts, np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]]))


def test_adjacency_matches_loop(all_meshes):
    meshes = dict(all_meshes, jittered4=generators.jittered_box_mesh(4, seed=2))
    for name, mesh in meshes.items():
        ft = mesh.face_tets
        assert ft.dtype == np.int64 and np.array_equal(ft, face_tets_loop(mesh)), name
        neigh = mesh.tet_neighbors()
        assert neigh.dtype == np.int64 and np.array_equal(neigh, tet_neighbors_loop(mesh)), name


def test_nonmanifold_message_matches_loop():
    # Faces (0, 1, 2) and (0, 1, 3) each have three tets; a loop over the
    # sorted tet rows names the one whose third tet comes first.
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1], [1, 1, -1]],
        dtype=float,
    )
    tets = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 6], [0, 1, 2, 5], [0, 1, 3, 5]]
    count = Counter()
    for tet in sorted(sorted(t) for t in tets):
        count.update(combinations(tet, 3))
        full = [face for face in combinations(tet, 3) if count[face] == 3]
        if full:
            break
    with pytest.raises(MeshError) as got:
        SimplicialComplex(verts, np.array(tets))
    assert str(got.value) == f"non-manifold face {list(full[0])} (more than two incident tets)"


def _with_tet_on_interior_face(mesh):
    # The mesh plus one tet on its first interior face, which then has three.
    face = mesh.faces[np.flatnonzero(mesh.face_tets[:, 1] >= 0)[0]]
    apex = mesh.vertices[face].mean(axis=0) + [2.0, 3.0, 5.0]
    tets = np.vstack([mesh.tets, [*face, mesh.n_vertices]])
    return (np.vstack([mesh.vertices, apex]), tets), face


# Meshes with one face shared by three tets, and that face.
_OVERFULL = {
    "fan": ((np.vstack([_UNIT_TET, [[0, 0, -1], [1, 1, 1]]]),
             np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])), np.array([0, 1, 2])),
    "kuhn": _with_tet_on_interior_face(_KUHN),
    "box2": _with_tet_on_interior_face(_BOX2),
}


@given(name=st.sampled_from(sorted(_OVERFULL)), seed=st.integers(0, 2**32 - 1))
def test_overfull_face_named_under_relabelling(name, seed):
    (verts, tets), face = _OVERFULL[name]
    moved, moved_tets, perm = _relabel(verts, tets, seed)
    with pytest.raises(MeshError) as err:
        SimplicialComplex(moved, moved_tets)
    assert str(err.value) == (f"non-manifold face {sorted(perm[face].tolist())} "
                              "(more than two incident tets)")


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
