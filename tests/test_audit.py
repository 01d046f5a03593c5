import gc
import weakref

import numpy as np
import pytest
from scipy import sparse

from declat import generators, hodge
from declat.audit import (
    _BUILT_SYMMETRIC,
    _SPD_MARGIN,
    _dihedral_extremes,
    audit_first_kind,
    audit_hodge,
    audit_second_kind,
    run_full_audit,
)
from declat.dual import DualComplex
from declat.hodge import MaterialMap, assemble_hodge

from _oracles import dihedral_extremes_loop


class TestFirstKind:
    def test_clean_meshes_pass(self, all_meshes):
        expected = {
            "single_tet": (1, 0, 0),
            "kuhn": (1, 0, 0),
            "box3": (1, 0, 0),
            "annulus8": (1, 1, 0),
            "jittered3": (1, 0, 0),
        }
        for name, mesh in all_meshes.items():
            section = audit_first_kind(mesh, expected_betti=expected[name])
            assert section.passed, name
            for check in section.checks:
                assert check.measured == 0.0

    def test_sign_flip_detected_and_located(self, kuhn):
        C1 = kuhn.incidence(1).tolil()
        C1[5, C1.rows[5][0]] *= -1
        section = audit_first_kind(kuhn, incidence_override={1: C1.tocsr()})
        assert not section.passed
        nil = [c for c in section.checks if c.name == "nilpotency C2C1"][0]
        assert not nil.passed and "worst entry at" in nil.detail

    def test_cohomology_mismatch_flagged(self, kuhn):
        section = audit_first_kind(kuhn, expected_betti=(1, 1, 0))
        names = {c.name: c for c in section.checks}
        assert not names["cohomology dimensions vs expected"].passed


class TestSecondKind:
    def test_library_dual_passes_exactly(self, all_meshes):
        for name, mesh in all_meshes.items():
            section = audit_second_kind(mesh, DualComplex(mesh))
            assert section.passed, name

    def test_boundary_exclusion_reported(self, kuhn):
        section = audit_second_kind(kuhn, DualComplex(kuhn))
        detail = section.checks[0].detail
        assert "excluded boundary" in detail

    def test_injected_non_transpose_fails(self, kuhn):
        dual = DualComplex(kuhn)
        bad = kuhn.incidence(1).T.tolil()
        # Corrupt one interior coupling: kuhn's interior edge is the long
        # diagonal; flip one of its entries.
        from declat.mesh import classify_boundary

        cls = classify_boundary(kuhn)
        e = int(cls.interior_edges[0])
        f = int(cls.interior_faces[0])
        bad[e, f] = -bad[e, f] if bad[e, f] != 0 else 1
        section = audit_second_kind(kuhn, dual, dual_incidence=bad.tocsr())
        assert not section.passed

    def test_fractional_dual_incidence_fault_fails(self):
        # A float dual incidence with one interior entry halved (-1 to -0.5)
        # is off by 0.5 there, which truncation to an integer would hide.
        from declat.mesh import classify_boundary

        box2 = generators.box_mesh(2)
        cls = classify_boundary(box2)
        Ct = box2.incidence(1).T.tocsr()
        r, c = np.argwhere(Ct[cls.interior_edges][:, cls.interior_faces].toarray() == -1)[0]
        e, f = int(cls.interior_edges[r]), int(cls.interior_faces[c])
        bad = Ct.astype(float).tolil()
        bad[e, f] = -0.5
        section = audit_second_kind(box2, DualComplex(box2), dual_incidence=bad.tocsr())
        row = section.checks[0]
        assert row.name == "dual derivative equals transposed incidence (interior)"
        assert not row.passed and row.measured == 0.5 and row.detail == f"worst entry at {(e, f)}"

    def test_corrupted_dual_geometry_fails(self, box3):
        from declat.mesh import classify_boundary

        cls = classify_boundary(box3)
        dual = DualComplex(box3)
        inner_edge = np.isin(dual.edge_piece_owner, cls.interior_edges)
        inner_face = np.isin(dual.edge_piece_face, cls.interior_faces)
        k = int(np.flatnonzero(inner_edge & inner_face)[0])
        e = dual.edge_piece_owner[k]
        # Re-point one piece at an interior face that does not contain its edge.
        far = [f for f in cls.interior_faces if box3.incidence(1)[f, e] == 0]
        dual.edge_piece_face = dual.edge_piece_face.copy()
        dual.edge_piece_face[k] = far[0]
        checks = {c.name: c for c in audit_second_kind(box3, dual).checks}
        geo = checks["dual-cell geometry matches incidence pattern"]
        assert not geo.passed and geo.measured == 1


class TestHodgeSection:
    def test_clean_matrices_pass(self, box3, basis_of):
        Heps = assemble_hodge(box3, MaterialMap(), "eps", basis_of(box3))
        Hmu = assemble_hodge(box3, MaterialMap(), "mu_inv", basis_of(box3))
        section = audit_hodge(Heps, Hmu, box3)
        assert section.passed

    def test_asymmetric_matrix_fails(self, kuhn, basis_of):
        Heps = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)).tolil()
        Heps[0, 2] += 0.05
        Hmu = assemble_hodge(kuhn, MaterialMap(), "mu_inv", basis_of(kuhn))
        section = audit_hodge(Heps.tocsr(), Hmu, kuhn)
        assert not section.passed
        failing = [c for c in section.checks if not c.passed]
        assert any("symmetry" in c.name for c in failing)

    def test_indefinite_matrix_fails(self, kuhn, basis_of):
        Heps = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)).tolil()
        Heps[4, 4] = -1e-4
        Hmu = assemble_hodge(kuhn, MaterialMap(), "mu_inv", basis_of(kuhn))
        section = audit_hodge(Heps.tocsr(), Hmu, kuhn)
        failing = [c for c in section.checks if not c.passed]
        assert any("positive definite" in c.name for c in failing)

    def test_sliver_mesh_flagged_with_cells(self, monkeypatch):
        mesh = generators.sliver_mesh(delta=1e-7)
        Heps = assemble_hodge(mesh, MaterialMap(), "eps")
        Hmu = assemble_hodge(mesh, MaterialMap(), "mu_inv")
        monkeypatch.setattr("declat.audit._SPD_MARGIN", 1e-6)
        section = audit_hodge(Heps, Hmu, mesh)
        failing = [c for c in section.checks if not c.passed]
        assert failing
        assert any("worst cells" in c.detail for c in failing)

    def test_dihedral_extremes_match_loop(self, jittered3, annulus8):
        for mesh in (jittered3, annulus8):
            got = _dihedral_extremes(mesh)
            want = dihedral_extremes_loop(mesh.vertices, mesh.tets)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_sliver_conditioning_tracks_shape(self):
        # Flatter cells push the smallest eigenvalue down.
        from declat.hodge import check_spd

        eigs = []
        for delta in (1e-2, 1e-4, 1e-6):
            mesh = generators.sliver_mesh(delta=delta)
            H = assemble_hodge(mesh, MaterialMap(), "eps")
            eigs.append(check_spd(H)[1])
        assert eigs[1] < eigs[0] and eigs[2] < eigs[1]


def _count_check_spd(monkeypatch) -> list:
    calls = []
    real = hodge.check_spd

    def counted(H):
        calls.append(H.shape)
        return real(H)

    monkeypatch.setattr(hodge, "check_spd", counted)
    return calls


def _spd_rows(*sections) -> dict:
    return {c.name: c for s in sections for c in s.checks if "positive definite" in c.name}


class TestElementBoundPath:
    @pytest.mark.parametrize("name", ["kuhn", "box4"])
    def test_cli_audit_factors_nothing(self, name, tmp_path, monkeypatch):
        import json

        from declat.cli import main
        from declat.mesh import write_mesh

        mesh = {"kuhn": generators.kuhn_cube, "box4": lambda: generators.box_mesh(4)}[name]()
        write_mesh(mesh, tmp_path / "m.mesh")
        calls = _count_check_spd(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["audit", "--mesh", str(tmp_path / "m.mesh"), "--json", "--out", str(out)]) == 0
        assert calls == []
        rows = [c for s in json.loads(out.read_text())["sections"] for c in s["checks"]
                if "positive definite" in c["name"]]
        assert len(rows) == 2
        assert all(c["passed"] and c["detail"] == "element lower bound" for c in rows)

    def test_handed_in_star_is_estimated(self, kuhn, basis_of, monkeypatch):
        H = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)).tolil()
        H[4, 4] = -1e-4
        calls = _count_check_spd(monkeypatch)
        rows = _spd_rows(audit_hodge(H.tocsr(), None, kuhn))
        assert len(calls) == 1
        eps, mu = rows["eps star positive definite"], rows["mu-inverse star positive definite"]
        assert not eps.passed and "estimate" in eps.detail
        assert mu.passed and mu.detail == "element lower bound"

    def test_bound_below_margin_falls_back(self, monkeypatch):
        calls = _count_check_spd(monkeypatch)
        rows = _spd_rows(*run_full_audit(generators.sliver_mesh(delta=1e-7)).sections)
        assert len(calls) == 2
        for row in rows.values():
            assert not row.passed
            assert "does not clear the margin; estimate, not proved" in row.detail
            assert "worst cells" in row.detail

    def test_missing_star_needs_the_complex(self, kuhn, basis_of):
        Heps = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn))
        with pytest.raises(ValueError, match="no mu-inverse star handed in"):
            audit_hodge(Heps)

    def test_one_star_alive_at_a_time(self, box3, monkeypatch):
        # Each star's element matrices are let go before the next star is
        # built: at each build, count the earlier ones still alive.
        built, alive = [], []
        real = hodge.star_elements

        def tracked(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))
            elements = real(*args)
            built.append(weakref.ref(elements))
            return elements

        monkeypatch.setattr(hodge, "star_elements", tracked)
        assert run_full_audit(box3).passed
        assert alive == [0, 0]

    @pytest.mark.parametrize("handed_in", [True, False])
    def test_one_symmetry_deviation_per_star(self, box3, basis_of, monkeypatch, handed_in):
        # A star that falls back to check_spd takes its symmetry row from
        # that call rather than forming H - H^T a second time; a star the
        # audit builds is proved symmetric from its elements, with none.
        calls = []
        real = hodge.symmetry_deviation

        def counted(H):
            calls.append(H.shape)
            return real(H)

        monkeypatch.setattr(hodge, "symmetry_deviation", counted)
        if handed_in:
            Heps = assemble_hodge(box3, MaterialMap(), "eps", basis_of(box3))
            Hmu = assemble_hodge(box3, MaterialMap(), "mu_inv", basis_of(box3))
            assert audit_hodge(Heps, Hmu, box3).passed
        else:
            assert run_full_audit(box3).passed
        assert len(calls) == (2 if handed_in else 0)

    @pytest.mark.parametrize("sym_tol", [None])
    def test_built_star_assembled_only_when_unproved(self, box3, monkeypatch, sym_tol):
        # The element bound clears the margin: no star is assembled, and the
        # symmetry row reports the exact 0.0 that the assembled star has.
        calls = []
        real = hodge.ElementMatrices.assemble

        def counted(elements):
            calls.append(elements.n)
            return real(elements)

        monkeypatch.setattr(hodge.ElementMatrices, "assemble", counted)
        report = run_full_audit(box3)
        rows = {c.name: c for c in report.sections[2].checks}
        assert report.passed and calls == []
        for name, which in (("eps star", "eps"), ("mu-inverse star", "mu_inv")):
            sym, spd = rows[f"{name} symmetry"], rows[f"{name} positive definite"]
            H = assemble_hodge(box3, None, which)
            assert sym.measured == 0.0 == hodge.symmetry_deviation(H)
            assert sym.detail == _BUILT_SYMMETRIC
            diag = float(np.abs(H.diagonal()).max())
            assert diag < spd.threshold / _SPD_MARGIN < diag * (1 + 1e-14)
            assert spd.detail == "element lower bound"


class TestFullReport:
    def test_dual_pieces_stay_unbuilt(self):
        # The reciprocity check reads owner and face indices only, so the
        # audit builds no sub-simplex coordinates, centres or signs.
        box4 = generators.box_mesh(4)
        dual = DualComplex(box4)
        assert audit_second_kind(box4, dual).passed
        lazy = {"tet_centers", "face_centers", "vertex_pieces", "edge_pieces",
                "edge_piece_sign", "face_pieces", "face_piece_sign"}
        assert not lazy & set(vars(dual))
        assert dual.face_pieces.shape == (len(dual.face_piece_owner), 2, 3)
        assert lazy & set(vars(dual)) == {"tet_centers", "face_centers", "face_pieces"}

    def test_piece_indices_stay_unbuilt(self, box3):
        # The geometric adjacency reads only the edge pieces' owners and faces.
        dual = DualComplex(box3)
        dual.geometric_edge_face_adjacency()
        lazy = {"vertex_piece_owner", "vertex_piece_tet", "edge_piece_tet",
                "face_piece_owner", "face_piece_tet"}
        assert not lazy & set(vars(dual))

    def test_all_sections_pass_on_clean_mesh(self, kuhn):
        report = run_full_audit(kuhn)
        assert report.passed
        assert len(report.sections) == 3

    def test_fault_classes_hit_their_own_section(self, kuhn, basis_of):
        # Sign flip: only the first section fires.
        C1 = kuhn.incidence(1).tolil()
        C1[2, C1.rows[2][0]] *= -1
        s1 = audit_first_kind(kuhn, incidence_override={1: C1.tocsr()})
        s2 = audit_second_kind(kuhn, DualComplex(kuhn))
        Heps = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn))
        Hmu = assemble_hodge(kuhn, MaterialMap(), "mu_inv", basis_of(kuhn))
        s3 = audit_hodge(Heps, Hmu, kuhn)
        assert not s1.passed and s2.passed and s3.passed

    def test_report_rendering_deterministic(self, kuhn):
        a = run_full_audit(kuhn)
        b = run_full_audit(kuhn)
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()
        assert "overall: PASS" in a.to_text()

    def test_json_schema(self, kuhn):
        import json

        payload = json.loads(run_full_audit(kuhn).to_json())
        assert payload["schema"] == "declat-audit-1"
        assert {s["name"] for s in payload["sections"]} == {
            "pre-metric first kind",
            "pre-metric second kind",
            "hodge star consistency",
        }
