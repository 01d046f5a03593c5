import numpy as np
import pytest

from declat import generators, pml
from declat.hodge import MaterialMap, assemble_hodge
from declat.maxwell import reduce_pec
from declat.mesh import classify_boundary
from declat.pml import (
    StretchProfile,
    assemble_stretched,
    harmonic_solve,
    measure_reflection,
    reflection_sweep,
    stretch_tensor,
    write_sweep,
)

from _oracles import transfer_matrix_reflection


class TestStretchTensor:
    def test_identity_outside_layer(self):
        prof = StretchProfile(2, 3.0, 4.0, omega_max=5.0)
        lam = stretch_tensor(np.array([[0.5, 0.5, 1.0], [0.0, 0.0, 3.0]]), omega=2.0, profile=prof)
        np.testing.assert_array_equal(lam, np.ones((2, 3)))

    def test_single_axis_entries(self):
        # Uniform-strength slab probed at full depth (s = 1 + i Omega/omega),
        # and half depth (s = 1 + i Omega/(2 omega)), in one call.
        prof = StretchProfile(0, 1.0, 2.0, omega_max=3.0, order=1)
        omega = 1.5
        lam = stretch_tensor(np.array([[2.0, 0.0, 0.0], [1.5, 0.3, 0.0]]), omega=omega, profile=prof)
        for row, s in zip(lam, (1.0 + 1j * 3.0 / omega, 1.0 + 1j * 1.5 / omega)):
            np.testing.assert_allclose(row, [1.0 / s, s, s], rtol=1e-14)

    def test_frequency_conjugation(self):
        prof = StretchProfile(1, 0.0, 1.0, omega_max=2.0)
        pts = np.array([[0.0, 0.7, 0.0], [0.2, 0.4, 0.9]])
        a = stretch_tensor(pts, omega=1.0, profile=prof)
        b = stretch_tensor(pts, omega=-1.0, profile=prof)
        np.testing.assert_allclose(a.conj(), b, rtol=1e-14)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            StretchProfile(0, 0.0, 1.0, omega_max=-1.0)
        with pytest.raises(ValueError):
            StretchProfile(0, 0.0, 1.0, omega_max=1.0, a_max=0.5)
        prof = StretchProfile(0, 0.0, 1.0, omega_max=1.0)
        with pytest.raises(ValueError):
            prof.stretch(np.zeros((1, 3)), omega=0.0)


class TestStretchedAssembly:
    def test_trivial_profile_reproduces_real_matrices(self, kuhn, basis_of):
        prof = StretchProfile(2, 0.5, 1.0, omega_max=0.0)
        assert prof.is_trivial
        stars = assemble_stretched(kuhn, MaterialMap(), prof, omega=2.0, basis=basis_of(kuhn))
        for H, which in zip(stars, ("eps", "mu_inv")):
            real = assemble_hodge(kuhn, MaterialMap(), which, basis_of(kuhn))
            assert not np.iscomplexobj(H.data)
            for a in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(H, a), getattr(real, a)), (which, a)

    def test_complex_symmetry(self, box3, basis_of):
        prof = StretchProfile(2, 0.4, 1.0, omega_max=4.0)
        stars = assemble_stretched(box3, MaterialMap(), prof, omega=3.0,
                                    basis=basis_of(box3))
        for H in stars:
            d = (H - H.T).tocoo()
            hnorm = np.sqrt(abs(H.multiply(H.conjugate()).sum()))
            dev = np.sqrt(abs(d.multiply(d.conjugate()).sum())) / hnorm
            assert dev <= 1e-13
            assert np.iscomplexobj(H.data) and np.abs(H.data.imag).max() > 0

    def test_pre_metric_matrices_untouched(self, box3):
        # The layer acts through the stars only; incidence is bit-identical.
        C1_before = box3.incidence(1).copy()
        prof = StretchProfile(2, 0.4, 1.0, omega_max=4.0)
        assemble_stretched(box3, MaterialMap(), prof, omega=3.0)
        assert (box3.incidence(1) != C1_before).nnz == 0

    def test_omega_scaling_equivalence(self, kuhn, basis_of):
        # With a = 1 the stretch depends on Omega/omega only.
        p1 = StretchProfile(2, 0.3, 1.0, omega_max=2.0)
        p2 = StretchProfile(2, 0.3, 1.0, omega_max=4.0)
        h1 = assemble_stretched(kuhn, MaterialMap(), p2, omega=2.0, basis=basis_of(kuhn))
        h2 = assemble_stretched(kuhn, MaterialMap(), p1, omega=1.0, basis=basis_of(kuhn))
        assert np.abs((h1[0] - h2[0]).data).max(initial=0.0) <= 1e-14


class TestHarmonicSolve:
    def test_zero_source(self, box3, classification_of):
        cls = classification_of(box3)
        prof = StretchProfile(2, 0.5, 1.0, omega_max=2.0)
        ops = reduce_pec(box3, cls, *assemble_stretched(box3, MaterialMap(), prof, omega=2.0))
        E, res = harmonic_solve(ops, np.zeros(len(cls.interior_edges)), 2.0)
        assert np.all(E == 0.0) and res == 0.0

    def test_residual_small(self):
        mesh = generators.box_mesh(2, 2, 8, lengths=(1.0, 1.0, 4.0))
        cls = classify_boundary(mesh)
        prof = StretchProfile(2, 3.0, 4.0, omega_max=6.0)
        omega = 1.4 * np.pi
        ops = reduce_pec(mesh, cls, *assemble_stretched(mesh, MaterialMap(), prof, omega))
        rng = np.random.default_rng(0)
        J = rng.standard_normal(ops.n_edges)
        E, res = harmonic_solve(ops, J, omega)
        assert res <= 1e-10
        assert np.abs(E.imag).max() > 0


class TestReflection:
    def test_standing_wave_fit(self):
        z = np.linspace(0.0, 3.0, 40)
        kz = 2.2
        field = 1.3 * np.exp(1j * kz * z) + 0.05 * np.exp(-1j * kz * z)
        refl, resid = measure_reflection(field, z, kz)
        assert abs(refl - 0.05 / 1.3) <= 1e-12 and resid <= 1e-12

    def test_sweep_monotone_and_oracle_trend(self, tmp_path):
        omega = 1.4 * np.pi
        kz = float(np.sqrt(omega**2 - np.pi**2))
        om_maxes = [0.0, 2.0, 4.0, 8.0]
        rows = reflection_sweep(4, 20, 5.0, omega, om_maxes, pml_start=3.5,
                                source_z=0.625, sample_z=np.linspace(1.2, 3.2, 33))
        refl = np.array([r.reflection_mag for r in rows])
        # No layer: the far wall reflects everything.
        assert abs(refl[0] - 1.0) <= 0.15
        assert np.all(np.diff(refl) < 0)  # decreasing over this range
        for row, om in zip(rows[1:], om_maxes[1:]):
            oracle = transfer_matrix_reflection(kz, omega, om, 3.5, 5.0)
            assert 0.5 <= np.log(row.reflection_mag) / np.log(oracle) <= 2.0
        out = tmp_path / "sweep.csv"
        write_sweep(rows, out)
        assert out.read_text().startswith("omega,omega_max_profile,thickness")

    @pytest.mark.parametrize("omega", [0.9 * np.pi, np.pi, float("nan")])
    def test_sweep_rejects_omega_at_or_below_cutoff(self, omega, monkeypatch):
        def no_mesh(*args, **kwargs):
            raise AssertionError("mesh built for a rejected omega")

        monkeypatch.setattr(pml, "box_mesh", no_mesh)
        with pytest.raises(ValueError, match="above the TE10 cutoff"):
            reflection_sweep(2, 10, 2.5, omega, [0.0], pml_start=1.5, source_z=0.375,
                             sample_z=np.linspace(0.9, 1.4, 5))
