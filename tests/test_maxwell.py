import dataclasses
import functools
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

from declat import cli, generators, hodge, maxwell
from declat.hodge import MaterialMap, _neighbor_pattern, assemble_hodge
from declat.maxwell import (
    DiscreteCodifferential,
    MaxwellOperators,
    Trace,
    ampere_step,
    apply_pec,
    compare_inverse_modes,
    eigenmodes,
    hamiltonian,
    leapfrog_run,
    stable_timestep,
    write_trace,
)
from declat.mesh import SimplicialComplex, classify_boundary, write_mesh
from declat.whitney import AnalyticForm, de_rham

from _oracles import faraday_step, leapfrog_e_form_loop, leapfrog_run_loop, write_trace_csv


def unreduced_operators(mesh, materials=None):
    materials = materials or MaterialMap()
    return MaxwellOperators(
        C1=mesh.incidence(1).tocsr(),
        Heps=assemble_hodge(mesh, materials, "eps"),
        Hmu_inv=assemble_hodge(mesh, materials, "mu_inv"),
        C2=mesh.incidence(2).tocsr(),
    )


class TestFaraday:
    def test_constant_field_has_zero_circulation(self, single_tet):
        u = np.array([0.4, -0.2, 1.1])
        E = de_rham(AnalyticForm(1, lambda p: np.broadcast_to(u, p.shape)), single_tet)
        circ = faraday_step(single_tet.incidence(1), E.values)
        assert np.abs(circ).max() <= 1e-14

    def test_zero_field(self, kuhn):
        out = faraday_step(kuhn.incidence(1), np.zeros(kuhn.n_edges))
        assert np.all(out == 0.0)

    def test_random_field_matches_signed_sum(self, box3, rng):
        E = rng.standard_normal(box3.n_edges)
        circ = faraday_step(box3.incidence(1), E)
        # Brute-force per face: alternating sum over its three sorted edges.
        edges = {tuple(e): i for i, e in enumerate(box3.edges.tolist())}
        for f, tri in enumerate(box3.faces.tolist()):
            a, b, c = tri
            expect = E[edges[(b, c)]] - E[edges[(a, c)]] + E[edges[(a, b)]]
            assert abs(circ[f] - expect) <= 1e-12

    def test_metric_free_invariance(self, box3, rng):
        # Any re-embedding with the same connectivity leaves C1 untouched.
        verts = box3.vertices @ np.diag([1.0, 2.0, 0.5]) + rng.random(3)
        moved = SimplicialComplex(verts, box3.tets)
        assert (moved.incidence(1) != box3.incidence(1)).nnz == 0


class TestAmpere:
    def test_zero_everything(self, kuhn, classification_of):
        ops = apply_pec(kuhn, classification_of(kuhn))
        codiff = DiscreteCodifferential(ops)
        out = ampere_step(np.zeros(ops.n_faces), codiff, np.zeros(ops.n_edges))
        assert np.all(out == 0.0)

    def test_exact_vs_spai_within_residual(self, box3, classification_of, rng):
        ops = apply_pec(box3, classification_of(box3))
        exact = DiscreteCodifferential(ops)
        approx = DiscreteCodifferential(ops, level=3)
        B = rng.standard_normal(ops.n_faces)
        u = exact.apply(B)
        v = approx.apply(B)
        rhs = ops.C1.T @ (ops.Hmu_inv @ B)
        x = exact.solve_eps(rhs)
        # (M - Heps^{-1}) rhs = (M Heps - I) x; bounded by the Frobenius residual.
        assert np.linalg.norm(v - u) <= approx.residual * np.linalg.norm(x) + 1e-12

    def test_spai_support_containment(self, box3, classification_of):
        level = 2
        ops = apply_pec(box3, classification_of(box3))
        approx = DiscreteCodifferential(ops, level)
        B = np.zeros(ops.n_faces)
        B[7] = 1.0
        out = ampere_step(B, approx)
        # Nonzeros confined to the pattern rows reachable from the touched edges.
        touched = ops.C1.T @ (ops.Hmu_inv @ B)
        pattern = _neighbor_pattern(ops.Heps, level)
        reachable = np.zeros(ops.n_edges, dtype=bool)
        for j in np.flatnonzero(touched):
            reachable |= np.asarray(pattern[:, j].todense()).ravel() > 0
        assert np.all(reachable[np.abs(out) > 0])


class TestLeapfrog:
    def test_zero_state_stays_zero(self, kuhn, classification_of):
        ops = apply_pec(kuhn, classification_of(kuhn))
        E, B, trace = leapfrog_run(DiscreteCodifferential(ops), dt=0.1, steps=50)
        assert np.all(E == 0.0) and np.all(B == 0.0)
        assert np.all(trace.h_total == 0.0)

    def test_energy_flat_and_divergence_frozen(self, kuhn, classification_of, rng):
        ops = apply_pec(kuhn, classification_of(kuhn))
        dt = 0.9 * stable_timestep(ops)
        E0 = rng.standard_normal(ops.n_edges)
        B0 = rng.standard_normal(ops.n_faces)
        _, _, trace = leapfrog_run(DiscreteCodifferential(ops), dt, 10_000, E0, B0,
                                   trace_every=10)
        assert abs(trace.drift_per_step()) <= 1e-10
        assert trace.div_b_residual.max() <= 1e-12
        # Bounded oscillation: second half is no wilder than the first.
        h = trace.h_total
        half = len(h) // 2
        assert h[half:].max() <= h[:half].max() * (1 + 1e-9)

    def test_unstable_step_detected(self, kuhn, classification_of, rng):
        ops = apply_pec(kuhn, classification_of(kuhn))
        dt = 1.05 * stable_timestep(ops)
        E0 = rng.standard_normal(ops.n_edges)
        B0 = rng.standard_normal(ops.n_faces)
        with pytest.raises(FloatingPointError, match="blow-up"):
            leapfrog_run(DiscreteCodifferential(ops), dt, 200, E0, B0)

    @pytest.mark.parametrize("steps, trace_every", [(1, 1), (5, 5), (5, 8)])
    def test_drift_from_one_sample_is_nan(self, kuhn, classification_of, rng, steps,
                                          trace_every):
        # One trace row after step 0 defines no line: no fit, no RankWarning.
        ops = apply_pec(kuhn, classification_of(kuhn))
        _, _, trace = leapfrog_run(DiscreteCodifferential(ops), 0.1, steps,
                                   rng.standard_normal(ops.n_edges), trace_every=trace_every)
        assert list(trace.steps) == [0, steps] and np.isnan(trace.drift_per_step())

    @pytest.mark.parametrize("trace_every", [0, -1])
    def test_trace_every_below_one_rejected(self, kuhn, classification_of, trace_every):
        ops = apply_pec(kuhn, classification_of(kuhn))
        with pytest.raises(ValueError, match="trace_every"):
            leapfrog_run(DiscreteCodifferential(ops), 0.1, 5, trace_every=trace_every)

    def test_trace_csv(self, tmp_path, kuhn, classification_of, rng):
        ops = apply_pec(kuhn, classification_of(kuhn))
        dt = 0.5 * stable_timestep(ops)
        _, _, trace = leapfrog_run(
            DiscreteCodifferential(ops), dt, 20,
            rng.standard_normal(ops.n_edges), rng.standard_normal(ops.n_faces),
        )
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("step,time_s,H_total_J")

    def test_source_obeys_discrete_gauss_law(self, rng):
        # C1 C0 = 0 on interior edges of interior vertices, so the charge
        # G^T Heps E moves only by the deposited current.
        mesh = generators.jittered_box_mesh(4, seed=3)
        cls = classify_boundary(mesh)
        ops = apply_pec(mesh, cls)
        G = mesh.incidence(0)[cls.interior_edges][:, cls.interior_vertices].tocsr()
        J0 = rng.standard_normal(ops.n_edges)

        def source(t):
            return np.sin(3.0 * t) * J0

        dt, steps = 0.5 * stable_timestep(ops), 300
        E, _, _ = leapfrog_run(DiscreteCodifferential(ops), dt, steps,
                               B0=rng.standard_normal(ops.n_faces), source=source)
        charge = G.T @ (ops.Heps @ E)
        expected = -dt * sum(G.T @ source((n + 0.5) * dt) for n in range(steps))
        assert np.linalg.norm(charge - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("trace_every", [1, 7])
    @pytest.mark.parametrize("name", ["kuhn", "box3", "jittered4", "annulus8"])
    def test_matches_e_form_loop(self, request, classification_of, name, trace_every):
        # The D-form carries Heps E and Hmu_inv B; the E-form loop applies
        # the stars afresh each step.  Both march the same fields.
        mesh = (generators.jittered_box_mesh(4, seed=3) if name == "jittered4"
                else request.getfixturevalue(name))
        ops = apply_pec(mesh, classification_of(mesh))
        rng = np.random.default_rng(5)
        E0, B0 = rng.standard_normal(ops.n_edges), rng.standard_normal(ops.n_faces)
        J0 = rng.standard_normal(ops.n_edges)
        codiff = DiscreteCodifferential(ops)
        run = (codiff, 0.5 * stable_timestep(ops, codiff), 200, E0, B0,
               lambda t: np.cos(2.0 * t) * J0, trace_every)
        *state, trace = leapfrog_run(*run)
        *expect, oracle = leapfrog_e_form_loop(*run)
        assert np.array_equal(trace.steps, oracle.steps)
        for column in ("h_total", "h_electric", "h_magnetic", "h_invariant"):
            got, want = getattr(trace, column), getattr(oracle, column)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), column
        for got, want in zip(state, expect):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert trace.div_b_residual.max() <= 1e-12

    def test_symmetrised_spai_conserves_invariant(self):
        # (M + M^T)/2 is symmetric, so the D-form conserves E.D + B.Hmu_inv.B
        # with it; the raw level-1 SPAI drifted 3.2e-6 per step here.
        mesh = generators.jittered_box_mesh(4, seed=3)
        ops = apply_pec(mesh, classify_boundary(mesh))
        rng = np.random.default_rng(0)
        codiff = DiscreteCodifferential(ops, level=1)
        assert (codiff.M != codiff.M.T).nnz == 0
        _, _, trace = leapfrog_run(codiff, 0.9 * stable_timestep(ops), 2000,
                                   rng.standard_normal(ops.n_edges),
                                   rng.standard_normal(ops.n_faces))
        assert abs(trace.drift_per_step()) <= 1e-10


class TestInverseSpec:
    """``declat simulate --hodge-inverse`` is the one parser of the spec."""

    @pytest.fixture
    def kuhn_file(self, tmp_path, kuhn):
        path = tmp_path / "kuhn.mesh"
        write_mesh(kuhn, path)
        return path

    def test_accepted_forms(self, tmp_path, kuhn_file, monkeypatch):
        levels = []

        class Recorded(DiscreteCodifferential):
            def __init__(self, ops, level=None):
                levels.append(level)
                super().__init__(ops, level)

        monkeypatch.setattr(cli, "DiscreteCodifferential", Recorded)
        # The exact inverse serves the bound, and an exact run reuses it.
        for spec, built in (("exact", [None]), ("spai", [None, 1]), ("spai:1", [None, 1]),
                            ("spai:2", [None, 2]), ("spai:10", [None, 10])):
            levels.clear()
            assert cli.main(["simulate", "--mesh", str(kuhn_file), "--steps", "3",
                             "--hodge-inverse", spec,
                             "--out", str(tmp_path / "trace.csv")]) == 0
            assert levels == built, spec

    def test_malformed_rejected(self, tmp_path, kuhn_file, capsys):
        for spec in ("spaix", "spai:1:2", "spai:", "spai:x", "spai:-1", "Exact", "lu"):
            with pytest.raises(SystemExit) as exited:
                cli.main(["simulate", "--mesh", str(kuhn_file), "--hodge-inverse", spec,
                          "--out", str(tmp_path / "trace.csv")])
            error = capsys.readouterr().err.splitlines()[-1]
            assert exited.value.code == 2 and "--hodge-inverse" in error
            assert error.endswith(f"got {spec!r}")


class CountedLU:
    """A factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, x):
        self.solves += 1
        return self.lu.solve(x)


class TestSharedInverse:
    """Heps is factored once per run, through the module's ``splu`` binding."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []
        real = maxwell.splu

        def counted(A, *args, **kwargs):
            calls.append(CountedLU(real(A, *args, **kwargs)))
            return calls[-1]

        monkeypatch.setattr(maxwell, "splu", counted)
        return calls

    def test_malformed_spec_rejected_before_factoring(self, tmp_path, kuhn, splu_calls, capsys):
        path = tmp_path / "kuhn.mesh"
        write_mesh(kuhn, path)
        for spec in ("spai:1:2", "lu"):
            with pytest.raises(SystemExit) as exited:
                cli.main(["simulate", "--mesh", str(path), "--hodge-inverse", spec,
                          "--out", str(tmp_path / "trace.csv")])
            error = capsys.readouterr().err.splitlines()[-1]
            assert exited.value.code == 2 and error.endswith(f"got {spec!r}")
        assert splu_calls == [] and not (tmp_path / "trace.csv").exists()

    def test_bound_solve_count(self, splu_calls):
        # Lanczos: 91 solves here; the power iteration took 218-635 on
        # jittered n=6 boxes.
        mesh = generators.jittered_box_mesh(6, seed=3000)
        ops = apply_pec(mesh, classify_boundary(mesh))
        stable_timestep(ops)
        assert len(splu_calls) == 1 and 0 < splu_calls[0].solves <= 150

    def test_simulate_factors_once(self, tmp_path, kuhn, splu_calls):
        path = tmp_path / "kuhn.mesh"
        write_mesh(kuhn, path)
        for inverse in ("exact", "spai:1"):
            splu_calls.clear()
            assert cli.main(["simulate", "--mesh", str(path), "--steps", "20",
                             "--hodge-inverse", inverse,
                             "--out", str(tmp_path / "trace.csv")]) == 0
            assert len(splu_calls) == 1, inverse

    def test_sourced_step_solves_once(self, box3, classification_of, rng, splu_calls):
        # The source is folded into D, so it costs no solve of its own.
        ops = apply_pec(box3, classification_of(box3))
        codiff = DiscreteCodifferential(ops)
        dt = 0.5 * stable_timestep(ops, codiff)
        splu_calls[0].solves = 0
        J0 = rng.standard_normal(ops.n_edges)
        leapfrog_run(codiff, dt, 40, B0=rng.standard_normal(ops.n_faces),
                     source=lambda t: np.sin(t) * J0)
        assert len(splu_calls) == 1 and splu_calls[0].solves == 40

    def test_compare_inverse_modes_factors_once(self, box3, classification_of, splu_calls):
        ops = apply_pec(box3, classification_of(box3))
        compare_inverse_modes(ops, dt=0.05, steps=5, level=1)
        assert len(splu_calls) == 1

    def test_bound_needs_the_exact_inverse_of_its_operators(self, kuhn, box3,
                                                            classification_of):
        ops = apply_pec(box3, classification_of(box3))
        assert stable_timestep(ops, DiscreteCodifferential(ops)) == stable_timestep(ops)
        others = apply_pec(kuhn, classification_of(kuhn))
        for inverse in (DiscreteCodifferential(ops, 1), DiscreteCodifferential(others)):
            with pytest.raises(ValueError, match="exact inverse"):
                stable_timestep(ops, inverse)


class TestCodifferential:
    def test_apply_matches_the_triple_product_exactly(self, box3, classification_of, rng):
        ops = apply_pec(box3, classification_of(box3))
        for codiff in (DiscreteCodifferential(ops), DiscreteCodifferential(ops, 1)):
            for _ in range(20):
                B = rng.standard_normal(ops.n_faces)
                expect = codiff.solve_eps(ops.C1.T @ (ops.Hmu_inv @ B))
                assert np.array_equal(codiff.apply(B), expect)

    def test_exact_factor_ordered_symmetrically(self):
        # The default COLAMD order filled 11.5x nnz(Heps) on this box.
        mesh = generators.jittered_box_mesh(6, seed=3)
        ops = apply_pec(mesh, classify_boundary(mesh))
        lu = DiscreteCodifferential(ops)._lu
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert lu.L.nnz + lu.U.nnz <= 10 * ops.Heps.nnz


class TestHamiltonian:
    def test_zero_fields(self, kuhn, classification_of):
        ops = apply_pec(kuhn, classification_of(kuhn))
        h, he, hm = hamiltonian(
            ops.Heps, ops.Hmu_inv, np.zeros(ops.n_edges), np.zeros(ops.n_faces)
        )
        assert h == he == hm == 0.0

    def test_matches_field_pairing_exactly(self, box3, classification_of, rng):
        ops = apply_pec(box3, classification_of(box3))
        E = rng.standard_normal(ops.n_edges)
        B = rng.standard_normal(ops.n_faces)
        h, he, hm = hamiltonian(ops.Heps, ops.Hmu_inv, E, B)
        D = ops.Heps @ E
        Hf = ops.Hmu_inv @ B
        assert h == float(E @ D) + float(Hf @ B)  # same arithmetic, bit equal

    def test_quadratic_scaling(self, kuhn, classification_of, rng):
        ops = apply_pec(kuhn, classification_of(kuhn))
        E = rng.standard_normal(ops.n_edges)
        B = rng.standard_normal(ops.n_faces)
        _, he1, _ = hamiltonian(ops.Heps, ops.Hmu_inv, E, B)
        _, he2, _ = hamiltonian(ops.Heps, ops.Hmu_inv, 2 * E, B)
        assert abs(he2 - 4 * he1) <= 1e-12 * abs(he2)

    def test_nonnegative(self, box3, classification_of, rng):
        ops = apply_pec(box3, classification_of(box3))
        for _ in range(5):
            h, _, _ = hamiltonian(
                ops.Heps, ops.Hmu_inv,
                rng.standard_normal(ops.n_edges), rng.standard_normal(ops.n_faces),
            )
            assert h >= 0.0


class TestStableTimestep:
    def test_against_dense_oracle_single_tet(self, single_tet):
        ops = unreduced_operators(single_tet)
        bound = stable_timestep(ops)
        K = (ops.C1.T @ ops.Hmu_inv @ ops.C1).toarray()
        lam = eigh(K, ops.Heps.toarray(), eigvals_only=True)
        oracle = 2.0 / np.sqrt(lam.max())
        assert abs(bound - oracle) <= 1e-6 * oracle

    def test_matches_dense_eigh(self, kuhn, annulus8):
        # The power iteration it replaced sat up to 1e-4 below lambda_max.
        meshes = [kuhn, generators.box_mesh(4), annulus8,
                  generators.jittered_box_mesh(4, seed=3)]
        for mesh in meshes:
            ops = apply_pec(mesh, classify_boundary(mesh))
            K = (ops.C1.T @ ops.Hmu_inv @ ops.C1).toarray()
            oracle = 2.0 / np.sqrt(eigh(K, ops.Heps.toarray(), eigvals_only=True).max())
            assert abs(stable_timestep(ops) - oracle) <= 1e-10 * oracle, mesh.n_tets

    def test_unconverged_lanczos_raises(self, box3, classification_of, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(hodge, "eigsh", stalled)
        with pytest.raises(RuntimeError, match="no convergence"):
            stable_timestep(apply_pec(box3, classification_of(box3)))

    def test_zero_update_operator_rejected(self, kuhn, box3, classification_of):
        for mesh in (kuhn, box3):  # 1 and 117 unknowns: dense and Lanczos paths
            ops = apply_pec(mesh, classification_of(mesh))
            ops.Hmu_inv = 0.0 * ops.Hmu_inv
            with pytest.raises(ValueError, match="identically zero"):
                stable_timestep(ops)

    def test_refinement_shrinks_bound(self):
        bounds = []
        for n in (1, 2, 4):
            mesh = generators.box_mesh(n)
            ops = unreduced_operators(mesh)
            bounds.append(stable_timestep(ops))
        assert bounds[1] < bounds[0] and bounds[2] < bounds[1]

    def test_material_scaling_doubles_bound(self, kuhn, classification_of):
        # eps mu -> 4 eps mu halves the wave speed, doubling the bound.
        ops1 = apply_pec(kuhn, classification_of(kuhn), MaterialMap())
        ops4 = apply_pec(kuhn, classification_of(kuhn), MaterialMap(eps=2.0, mu=2.0))
        b1 = stable_timestep(ops1)
        b4 = stable_timestep(ops4)
        assert abs(b4 - 2.0 * b1) <= 1e-5 * b4


class TestPecReduction:
    def test_single_tet_empty(self, single_tet, classification_of):
        ops = apply_pec(single_tet, classification_of(single_tet))
        assert ops.n_edges == 0 and ops.n_faces == 0

    def test_kuhn_counts(self, kuhn, classification_of):
        cls = classification_of(kuhn)
        ops = apply_pec(kuhn, cls)
        assert ops.n_edges == kuhn.n_edges - cls.n_boundary(1) == 1
        assert ops.n_faces == kuhn.n_faces - cls.n_boundary(2) == 6

    def test_nilpotency_preserved(self, box3, classification_of):
        ops = apply_pec(box3, classification_of(box3))
        comp = ops.C2 @ ops.C1
        assert abs(comp).max() == 0

    @pytest.mark.parametrize("name", ["kuhn", "box3", "annulus8"])
    def test_reduced_incidence_is_exact_float(self, request, classification_of, name):
        # The time loop multiplies float cochains by C1, C1^T and C2; float64
        # +-1 saves scipy a cast per product.  The complex keeps the integers.
        mesh = request.getfixturevalue(name)
        cls = classification_of(mesh)
        ops = apply_pec(mesh, cls)
        C1 = mesh.incidence(1)[cls.interior_faces][:, cls.interior_edges].tocsr()
        C2 = mesh.incidence(2)[:, cls.interior_faces].tocsr()
        pairs = ((ops.C1, C1), (ops.C2, C2),
                 (DiscreteCodifferential(ops)._C1T, C1.T.tocsr()))
        for got, want in pairs:
            assert got.dtype == np.float64 and want.dtype.kind == "i"
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data) and set(got.data) <= {-1.0, 1.0}
        assert (ops.C2 @ ops.C1).nnz == 0


class TestEigenmodes:
    def test_zero_multiplicity_counts_gradients(self, classification_of):
        mesh = generators.box_mesh(2)
        cls = classify_boundary(mesh)
        ops = apply_pec(mesh, cls)
        res = eigenmodes(ops, count=ops.n_edges)
        assert res.zero_count == cls.n_interior(0)
        nonzero = int((np.abs(res.k2) >= res.zero_tol).sum())
        assert nonzero == cls.n_interior(1) - cls.n_interior(0)

    def test_empty_spectrum_single_tet(self, single_tet, classification_of):
        ops = apply_pec(single_tet, classification_of(single_tet))
        res = eigenmodes(ops, count=4)
        assert len(res.k2) == 0 and res.zero_count == 0

    def test_sparse_path_matches_dense(self, monkeypatch):
        def solve(dense_cutoff, ops, **kwargs):
            monkeypatch.setattr(maxwell, "_DENSE_CUTOFF", dense_cutoff)
            return eigenmodes(ops, **kwargs)

        mesh = generators.box_mesh(3)
        cls = classify_boundary(mesh)
        ops = apply_pec(mesh, cls)
        dense = solve(10**9, ops, count=ops.n_edges)
        nonzero_dense = np.sort(dense.k2[np.abs(dense.k2) >= dense.zero_tol])[:3]
        sparse_res = solve(1, ops, count=4, sigma=float(nonzero_dense[0]) * 0.9)
        lowest = np.sort(sparse_res.k2)[:3]
        np.testing.assert_allclose(lowest, nonzero_dense, rtol=1e-8)
        # Given a sigma, both paths return the count eigenvalues nearest it.
        box4 = generators.box_mesh(4)
        ops = apply_pec(box4, classify_boundary(box4))
        for sigma in (10.0, 20.0):  # at 10 the nearest four include a zero mode
            dense = solve(10**9, ops, count=4, sigma=sigma)
            sparse_res = solve(1, ops, count=4, sigma=sigma)
            assert dense.k2.shape == (4,) and np.all(np.diff(dense.k2) >= 0)
            np.testing.assert_allclose(dense.k2, sparse_res.k2, rtol=1e-8, atol=dense.zero_tol)

    def test_sparse_path_is_repeatable(self):
        # ARPACK starts from a seeded vector, so identical calls in one
        # process return identical bytes.
        box6 = generators.box_mesh(6)
        ops = apply_pec(box6, classify_boundary(box6))
        assert ops.n_edges == 1206
        runs = [eigenmodes(ops, count=4, sigma=10.0).k2.tobytes() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_shift_invert_factor_takes_the_spd_recipe(self, monkeypatch):
        # The sparse path factors K - sigma Heps once, as every symmetric
        # pencil is factored: by hodge.SPD_SPLU.
        box4 = generators.box_mesh(4)
        ops = apply_pec(box4, classify_boundary(box4))
        calls, splu = [], maxwell.splu
        monkeypatch.setattr(maxwell, "splu",
                            lambda A, **kwargs: calls.append(kwargs) or splu(A, **kwargs))
        monkeypatch.setattr(maxwell, "_DENSE_CUTOFF", 1)
        eigenmodes(ops, count=4, sigma=10.0)
        assert calls == [hodge.SPD_SPLU]


@pytest.fixture(scope="module")
def jittered4_ops():
    mesh = generators.jittered_box_mesh(4, seed=3)
    ops = apply_pec(mesh, classify_boundary(mesh))
    return ops, stable_timestep(ops)


class TestInverseModeComparison:
    def test_step_at_or_above_the_bound_rejected(self, box3, classification_of, monkeypatch):
        # c0 = 1/sqrt(1 - (dt/dt_max)^2) bounds the exact leapfrog only below
        # the bound.  Clamped, it "certified" a 4.5e27 divergence at 1.2x.
        ops = apply_pec(box3, classification_of(box3))
        dt_max = stable_timestep(ops)

        def refused(*args, **kwargs):
            raise AssertionError("built or marched past a refused step")

        monkeypatch.setattr(maxwell, "spai_inverse", refused)
        monkeypatch.setattr(maxwell, "_march", refused)
        with pytest.raises(ValueError, match=re.escape(f"dt={float(1.2 * dt_max)!r}")):
            compare_inverse_modes(ops, 1.2 * dt_max, 50, level=1)
        # Given the bound, it refuses before the exact factor as well.
        monkeypatch.setattr(maxwell, "splu", refused)
        for dt in (dt_max, 1.2 * dt_max, np.inf, np.nan):
            with pytest.raises(ValueError, match=re.escape(f"dt={float(dt)!r}") + ".*"
                               + re.escape(f"dt_max={float(dt_max)!r}")):
                compare_inverse_modes(ops, dt, 50, level=1, dt_max=dt_max)

    def test_divergence_within_envelope(self, box3, classification_of, jittered4_ops):
        ops = apply_pec(box3, classification_of(box3))
        cases = [(ops, stable_timestep(ops), 2)] + [(*jittered4_ops, k) for k in (1, 2, 3)]
        for ops, dt_max, level in cases:
            out = compare_inverse_modes(ops, dt=0.5 * dt_max, steps=150, level=level,
                                        dt_max=dt_max)
            assert out["within_envelope"], level
            assert out["max_divergence"] <= out["residual"] * out["steps"], level

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_divergence_is_the_gap_between_simulate_runs(self, jittered4_ops, level):
        # The comparison marches the same steps as leapfrog_run under each
        # inverse, so its last divergence is the distance of their end states.
        ops, dt_max = jittered4_ops
        rng = np.random.default_rng(level)
        E0, B0 = rng.standard_normal(ops.n_edges), rng.standard_normal(ops.n_faces)
        dt, steps = 0.5 * dt_max, 200
        out = compare_inverse_modes(ops, dt, steps, level, E0, B0, dt_max)
        ends = [leapfrog_run(DiscreteCodifferential(ops, inverse), dt, steps, E0, B0)
                for inverse in (None, level)]
        dE, dB = ends[0][0] - ends[1][0], ends[0][1] - ends[1][1]
        gap = np.sqrt(dE @ (ops.Heps @ dE) + dB @ (ops.Hmu_inv @ dB))
        np.testing.assert_allclose(out["divergence"][-1], gap, rtol=1e-12)


@functools.cache
def _codiff(name: str, level: int | None):
    """A codifferential of a PEC-reduced mesh, and its exact time-step bound."""
    make = {"kuhn": generators.kuhn_cube, "box3": lambda: generators.box_mesh(3),
            "jittered4": lambda: generators.jittered_box_mesh(4, seed=3),
            "annulus8": lambda: generators.annulus_mesh(8)}[name]
    mesh = make()
    ops = apply_pec(mesh, classify_boundary(mesh))
    exact = DiscreteCodifferential(ops)
    dt_max = stable_timestep(ops, exact)
    return (exact if level is None else DiscreteCodifferential(ops, level)), dt_max


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _csv_bytes(write, trace: Trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write(trace, f"{tmp}/trace.csv")
        with open(f"{tmp}/trace.csv", "rb") as fh:
            return fh.read()


class TestBitIdentity:
    """The step and the writer give the bytes of the integer-incidence loop."""

    @pytest.mark.parametrize("level", [None, 1, 2])
    @pytest.mark.parametrize("name", ["kuhn", "box3", "jittered4", "annulus8"])
    @settings(max_examples=8)
    @given(trace_every=st.sampled_from([1, 3, 7]), sourced=st.booleans(),
           steps=st.integers(1, 80), seed=st.integers(0, 2**16))
    def test_run_matches_integer_loop(self, name, level, trace_every, sourced, steps, seed):
        codiff, dt_max = _codiff(name, level)
        ops = codiff.ops
        rng = np.random.default_rng(seed)
        E0, B0 = rng.standard_normal(ops.n_edges), rng.standard_normal(ops.n_faces)
        J0 = rng.standard_normal(ops.n_edges)
        source = (lambda t: np.cos(2.0 * t) * J0) if sourced else None
        run = (codiff, 0.5 * dt_max, steps, E0, B0, source, trace_every)
        *state, trace = leapfrog_run(*run)
        *expect, oracle = leapfrog_run_loop(*run)
        for got, want in zip(state, expect):
            _assert_same_bytes(got, want)
        for field in dataclasses.fields(Trace):
            _assert_same_bytes(getattr(trace, field.name), getattr(oracle, field.name))
        assert _csv_bytes(write_trace, trace) == _csv_bytes(write_trace_csv, oracle)

    def test_writer_special_values(self):
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.5e308, 0.1])
        trace = Trace(np.arange(len(values)), *(np.roll(values, -k) for k in range(6)))
        got = _csv_bytes(write_trace, trace)
        assert got == _csv_bytes(write_trace_csv, trace)
        assert got.split(b"\r\n")[1] == b"0,nan,inf,-inf,-0.0,0.0,5e-324"

    @settings(max_examples=40)
    @given(st.data())
    def test_writer_matches_csv_writer(self, data):
        rows = data.draw(st.integers(0, 30))
        steps = data.draw(arrays(np.int64, rows, elements=st.integers(-2**62, 2**62)))
        columns = data.draw(arrays(np.float64, (6, rows), elements=st.floats(width=64)))
        trace = Trace(steps, *columns)
        assert _csv_bytes(write_trace, trace) == _csv_bytes(write_trace_csv, trace)
