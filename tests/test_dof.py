import numpy as np
import pytest

from declat import exact, generators
from declat.dof import dof_audit
from declat.hodge import MaterialMap
from declat.maxwell import apply_pec, eigenmodes
from declat.mesh import SimplicialComplex, betti_numbers, classify_boundary


class TestDofAudit:
    def test_single_tet_all_zero(self, single_tet):
        rep = dof_audit(single_tet)
        assert rep.theta_E == rep.theta_B == 0
        assert rep.theta_E_raw == (6 - 6) - (4 - 4) == 0
        assert rep.theta_B_raw == (4 - 4) - (1 - 1) == 0
        assert rep.passed and rep.rank_certified

    def test_kuhn_counts(self, kuhn, classification_of):
        cls = classification_of(kuhn)
        rep = dof_audit(kuhn, cls)
        assert rep.theta_E == rep.theta_B == 1
        assert rep.harmonic_1 == rep.harmonic_2 == 0
        assert rep.euler_combined[0] == rep.euler_combined[1]
        assert rep.passed

    def test_box_and_jittered(self, box3, jittered3):
        for mesh in (box3, jittered3):
            rep = dof_audit(mesh)
            assert rep.theta_E == rep.theta_B
            assert rep.harmonic_1 == 0 and rep.harmonic_2 == 0
            assert rep.passed and rep.rank_certified

    def test_annulus_handle_counted(self, annulus8):
        rep = dof_audit(annulus8)
        assert rep.harmonic_2 == 1  # one handle: relative harmonic 2-cochains
        assert rep.harmonic_1 == 0
        assert rep.theta_E == rep.theta_B
        # Raw interior counts differ by exactly the handle count.
        assert rep.theta_B_raw - rep.theta_E_raw == 1
        assert rep.passed

    def test_eigen_crosscheck(self):
        mesh = generators.box_mesh(2)
        cls = classify_boundary(mesh)
        ops = apply_pec(mesh, cls, MaterialMap())
        res = eigenmodes(ops, count=ops.n_edges)
        nonzero = int((np.abs(res.k2) >= res.zero_tol).sum())
        rep = dof_audit(mesh, cls, eigen_zero_count=res.zero_count,
                        eigen_nonzero_count=nonzero)
        assert rep.identities["eigen_zero_multiplicity"]
        assert rep.identities["eigen_nonzero_count"]

    def test_disconnected_rejected(self, single_tet):
        verts = np.vstack([single_tet.vertices, single_tet.vertices + 10.0])
        tets = np.vstack([single_tet.tets, single_tet.tets + 4])
        mesh = SimplicialComplex(verts, tets)
        with pytest.raises(ValueError, match="connected"):
            dof_audit(mesh)

    def test_tunnel_and_cavity_certified(self):
        # A tunnel (b1 = 1) and a cavity (b2 = 1) in one box: the reduced
        # curl rank needs the cavity's relative 1-cocycle witness.
        box = generators.box_mesh(5)
        cell = np.floor(5 * box.vertices[box.tets].mean(axis=1))
        tunnel = (cell[:, 0] == 1) & (cell[:, 1] == 1)
        cavity = np.all(cell == [3, 3, 2], axis=1)
        mesh = SimplicialComplex(box.vertices, box.tets[~(tunnel | cavity)])
        assert betti_numbers(mesh) == (1, 1, 1)
        rep = dof_audit(mesh)
        assert rep.rank_certified and not rep.notes
        assert (rep.harmonic_1, rep.harmonic_2) == (1, 1)
        assert rep.theta_E == rep.theta_B == rep.rank_curl
        assert rep.passed

    def test_uncertified_rank_is_noted(self, kuhn, monkeypatch):
        # A peel one short of the rank leaves the curl rank open.
        peel_rank = exact._peel_rank
        monkeypatch.setattr(exact, "_peel_rank",
                            lambda *args: (peel_rank(*args)[0] - 1, "peel"))
        rep = dof_audit(kuhn)
        assert not rep.rank_certified
        assert [n for n in rep.notes if n.startswith("curl rank uncertified")
                and "N_E - r0" in n and "N_F - r2" in n]

    def test_edge_node_gap_reported(self, kuhn):
        rep = dof_audit(kuhn)
        # Closed-lattice shorthand differs from the interior count on any
        # mesh with boundary; both numbers surface in the report.
        assert rep.raw_edge_node_gap == kuhn.n_edges - kuhn.n_vertices
        assert rep.raw_edge_node_gap != rep.theta_E

    def test_json_schema(self, kuhn):
        import json

        payload = json.loads(dof_audit(kuhn).to_json())
        assert payload["schema"] == "declat-dof-1"
        assert payload["passed"] is True
        assert payload["theta_E"] == payload["theta_B"] == 1


class TestCorrespondence:
    """The full edge space splits into gradients, coexact images and
    harmonic cochains, by the certified ranks of C0 and C1 and b1."""

    def test_contractible_meshes_have_no_harmonic_part(self, single_tet, kuhn):
        for mesh in (single_tet, kuhn):
            cert = exact.certify_ranks(*(mesh.incidence(p) for p in range(3)))
            rank0, rank1, _ = cert.require()
            assert cert.betti[1] == 0
            assert rank0 + rank1 == mesh.n_edges

    def test_annulus_harmonic_dimension(self, annulus8):
        cert = exact.certify_ranks(*(annulus8.incidence(p) for p in range(3)))
        cert.require()
        assert cert.betti == (1, 1, 0)

    def test_counts_balance_exactly(self, box3):
        rank0, rank1, _ = exact.certify_ranks(*(box3.incidence(p) for p in range(3))).require()
        # Gradient dimension: nodes minus one component; curl rank from the
        # Euler characteristic of a ball, chi = 1 = V - E + F - T.
        assert rank0 == box3.n_vertices - 1
        assert rank1 == box3.n_faces - box3.n_tets
        assert rank0 + rank1 == box3.n_edges
