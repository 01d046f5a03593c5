"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Shipped meshes: the single right tet, the six-tet unit cube, boxes up to
n = 6 cells per axis, and the genus-one annulus ring.  Every tolerance is
pinned here, in the test, not in the library.
"""

import time

import numpy as np
import pytest

from declat import generators
from declat.audit import audit_first_kind, audit_hodge, audit_second_kind
from declat.dof import dof_audit
from declat.dual import DualComplex
from declat.hodge import (
    MaterialMap,
    assemble_hodge,
    check_spd,
    dual_pairing_check,
    spai_inverse,
)
from declat.maxwell import (
    DiscreteCodifferential,
    apply_pec,
    compare_inverse_modes,
    eigenmodes,
    leapfrog_run,
    stable_timestep,
)
from declat.mesh import betti_numbers, classify_boundary, euler_audit
from declat.pml import StretchProfile, assemble_stretched, harmonic_solve, reflection_sweep
from declat.whitney import (
    AnalyticForm,
    WhitneyBasis,
    de_rham,
    interpolate_at_points,
    verify_coboundary,
    verify_partition_duality,
)

from _oracles import transfer_matrix_reflection, whitney_mass_oracle


def shipped_meshes():
    return {
        "single_tet": generators.single_tet(),
        "kuhn_cube": generators.kuhn_cube(),
        "box4": generators.box_mesh(4),
        "box6": generators.box_mesh(6),
        "annulus": generators.annulus_mesh(8),
    }


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_exact_combinatorics():
    ok = True
    details = []
    for name, mesh in shipped_meshes().items():
        t0 = time.monotonic()
        nil = max(
            abs(mesh.incidence(p + 1) @ mesh.incidence(p)).max() for p in (0, 1)
        )
        cls = classify_boundary(mesh)
        genus = dof_audit(mesh, cls).harmonic_2  # certified handle count
        euler = euler_audit(mesh, cls, genus=genus)
        elapsed = time.monotonic() - t0
        good = nil == 0 and euler.passed and elapsed < 1.0
        ok &= good
        details.append(f"{name}: nilpotency={nil} euler={euler.passed} t={elapsed:.2f}s")
    assert report(1, ok, "; ".join(details))


def test_criterion_02_whitney_structure():
    meshes = {
        "single_tet": generators.single_tet(),
        "kuhn_cube": generators.kuhn_cube(),
        "box4": generators.box_mesh(4),
        "annulus": generators.annulus_mesh(8),
    }
    worst_pairing = 0.0
    worst_cob = 0.0
    worst_const = 0.0
    rng = np.random.default_rng(0)
    for mesh in meshes.values():
        basis = WhitneyBasis(mesh)
        for p in (0, 1, 2):
            worst_pairing = max(worst_pairing, verify_partition_duality(mesh, p, basis))
        for p in (1, 2, 3):
            worst_cob = max(worst_cob, verify_coboundary(mesh, p, basis))
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        pts = []
        while len(pts) < 25:
            x = lo + (hi - lo) * rng.random(3)
            try:
                basis.locate(x)
            except Exception:
                continue
            pts.append(x)
        pts = np.array(pts)
        u = np.array([0.3, -1.1, 0.7])
        for p in (1, 2):
            form = AnalyticForm(p, lambda q: np.broadcast_to(u, q.shape))
            c = de_rham(form, mesh)
            vals = interpolate_at_points(basis, c, pts)
            worst_const = max(worst_const, float(np.abs(vals - u).max()))
    ok = worst_pairing <= 1e-12 and worst_cob <= 1e-12 and worst_const <= 1e-12
    assert report(
        2, ok,
        f"pairing dev {worst_pairing:.2e} <= 1e-12, coboundary {worst_cob:.2e} "
        f"<= 1e-12, constant-field {worst_const:.2e} <= 1e-12",
    )


def test_criterion_03_hodge_matrices():
    ok = True
    details = []
    for name, mesh in shipped_meshes().items():
        for which in ("eps", "mu_inv"):
            H = assemble_hodge(mesh, MaterialMap(), which)
            sym, min_eig = check_spd(H)
            good = sym <= 1e-13 and min_eig > 0
            ok &= good
            if not good:
                details.append(f"{name}/{which}: sym={sym:.2e} min_eig={min_eig:.2e}")
    tet = generators.single_tet()
    for degree, which in ((1, "eps"), (2, "mu_inv")):
        H = assemble_hodge(tet, MaterialMap(), which)
        tuples = [tuple(s) for s in (tet.edges if degree == 1 else tet.faces).tolist()]
        order = sorted(range(len(tuples)), key=lambda i: tuples[i])
        dense = H.toarray()[np.ix_(order, order)]
        _, oracle = whitney_mass_oracle(tet.vertices, tet.tets.tolist(), degree)
        dev = float(np.abs(dense - oracle).max())
        ok &= dev <= 1e-10
        details.append(f"right-tet p={degree} oracle dev {dev:.2e}")
    assert report(3, ok, "symmetry<=1e-13, SPD on all shipped meshes; " + "; ".join(details))


def test_criterion_04_barycentric_dual_pairing():
    # Faithful reading: integrate the metric Hodge dual of each basis form
    # over the dual cells by subdivision quadrature and compare against the
    # Kronecker delta at 1e-10.  The measured pairing is metric (it scales
    # with the mesh) and its one-tet closed form differs from the identity,
    # so this criterion records the deviation honestly rather than passing.
    worst = 0.0
    details = []
    for name, mesh in (
        ("single_tet", generators.single_tet()),
        ("kuhn_cube", generators.kuhn_cube()),
    ):
        dual = DualComplex(mesh)
        basis = WhitneyBasis(mesh)
        for p in (0, 1):
            dev, _ = dual_pairing_check(mesh, dual, p, basis)
            worst = max(worst, dev)
            details.append(f"{name} p={p}: dev {dev:.3e}")
    ok = worst <= 1e-10
    report(4, ok, "; ".join(details) + " (target 1e-10)")
    assert ok, (
        "dual-cell pairing of Hodge-dual basis forms deviates from the "
        f"identity by {worst:.3e}; see the decisions ledger for the analysis"
    )


def test_criterion_05_spai():
    mesh = generators.box_mesh(4)
    H = assemble_hodge(mesh, MaterialMap(), "eps")
    residuals = [spai_inverse(H, k)[1] for k in range(4)]
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    cls = classify_boundary(mesh)
    ops = apply_pec(mesh, cls, MaterialMap())
    dt_max = stable_timestep(ops)
    out = compare_inverse_modes(ops, dt=0.5 * dt_max, steps=200, level=3, dt_max=dt_max)
    ok = monotone and out["within_envelope"]
    assert report(
        5, ok,
        f"residuals k=0..3: {['%.3e' % r for r in residuals]} (non-increasing: "
        f"{monotone}); A/B max divergence {out['max_divergence']:.3e} within "
        f"envelope {out['max_envelope']:.3e} (residual {out['residual']:.3e} x "
        f"{out['steps']} steps)",
    )


def test_criterion_06_symplectic_energy():
    t0 = time.monotonic()
    mesh = generators.kuhn_cube()
    cls = classify_boundary(mesh)
    ops = apply_pec(mesh, cls, MaterialMap())
    dt = 0.9 * stable_timestep(ops)
    rng = np.random.default_rng(42)
    E0 = rng.standard_normal(ops.n_edges)
    B0 = rng.standard_normal(ops.n_faces)
    _, _, trace = leapfrog_run(DiscreteCodifferential(ops), dt, 10_000, E0, B0, trace_every=5)
    drift = abs(trace.drift_per_step())
    div_dev = float(trace.div_b_residual.max())
    elapsed = time.monotonic() - t0
    ok = drift <= 1e-10 and div_dev <= 1e-12 and elapsed < 30.0
    assert report(
        6, ok,
        f"10^4 steps at 0.9x bound: drift {drift:.2e}/step <= 1e-10, "
        f"div(B) deviation {div_dev:.2e} <= 1e-12, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_07_cavity_physics():
    t0 = time.monotonic()
    mesh = generators.box_mesh(15)  # 20250 tets in the unit cube
    cls = classify_boundary(mesh)
    ops = apply_pec(mesh, cls, MaterialMap())
    target = 2 * np.pi**2
    res = eigenmodes(ops, count=4, sigma=0.95 * target)
    nonzero = res.k2[np.abs(res.k2) > res.zero_tol]
    lowest = float(nonzero.min())
    rel = abs(lowest - target) / target

    rep = dof_audit(mesh, cls)
    zero_exact = rep.rank_certified and (
        rep.interior_counts["N_V_h"] + rep.harmonic_1
        == ops.n_edges - rep.rank_curl
    )
    nonzero_exact = rep.rank_certified and rep.identities["theta_equals_rank"]
    elapsed = time.monotonic() - t0
    ok = rel <= 0.05 and zero_exact and nonzero_exact and elapsed < 300.0
    assert report(
        7, ok,
        f"{mesh.n_tets} tets: lowest k^2 {lowest:.4f} vs 2*pi^2 {target:.4f} "
        f"({100 * rel:.2f}% <= 5%); zero multiplicity = N_V_h = "
        f"{rep.interior_counts['N_V_h']} (certified {rep.rank_certified}); "
        f"nonzero count = Theta_E = {rep.theta_E}; runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_08_charge_conservation():
    from declat.pic import verify_conservation

    t0 = time.monotonic()
    mesh = generators.box_mesh(3)
    basis = WhitneyBasis(mesh)
    rng = np.random.default_rng(7)
    q, tau = 1.0, 1.0
    worst = 0.0
    # Half within-tet paths, half arbitrary cell-crossing paths.
    for _ in range(5000):
        t = int(rng.integers(mesh.n_tets))
        lam = rng.dirichlet(np.ones(4), size=2)
        pts = lam @ mesh.vertices[mesh.tets[t]]
        worst = max(worst, verify_conservation(basis, pts[0], pts[1], q, tau))
    for _ in range(5000):
        a = rng.random(3) * 0.98 + 0.01
        b = rng.random(3) * 0.98 + 0.01
        worst = max(worst, verify_conservation(basis, a, b, q, tau))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 * abs(q / tau) and elapsed < 10.0
    assert report(
        8, ok,
        f"10^4 paths: worst node residual {worst:.3e} <= 1e-12*|qdot|; "
        f"runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_09_pml_reflection():
    omega = 1.4 * np.pi
    kz = float(np.sqrt(omega**2 - np.pi**2))
    om_maxes = [0.0, 2.0, 4.0, 8.0, 16.0]
    rows = reflection_sweep(4, 24, 6.0, omega, om_maxes, pml_start=4.5,
                            source_z=0.625, sample_z=np.linspace(1.2, 4.2, 49))
    refl = np.array([r.reflection_mag for r in rows])
    floor = refl.min()
    # Trend against the line-model oracle while it sits above the floor.
    trend_ok = True
    decreasing_ok = True
    checked = []
    for i in range(1, len(om_maxes)):
        oracle = transfer_matrix_reflection(kz, omega, om_maxes[i], 4.5, 6.0)
        if oracle >= floor:
            ratio = np.log(refl[i]) / np.log(oracle)
            checked.append(f"omega_max={om_maxes[i]:g}: |R|={refl[i]:.3e} "
                           f"oracle={oracle:.3e} log-ratio={ratio:.2f}")
            trend_ok &= 0.5 <= ratio <= 2.0
            decreasing_ok &= refl[i] < refl[i - 1]

    # Trivial profile: stretched assembly must reproduce the real operators
    # bit for bit, hence the identical solution.
    mesh = generators.box_mesh(4, 4, 24, lengths=(1.0, 1.0, 6.0))
    trivial = StretchProfile(2, 4.5, 6.0, 0.0)
    Heps, Hmu_inv = assemble_stretched(mesh, MaterialMap(), trivial, omega)
    real_eps = assemble_hodge(mesh, MaterialMap(), "eps")
    real_mu = assemble_hodge(mesh, MaterialMap(), "mu_inv")
    bit_same = np.array_equal(Heps.data, real_eps.data) and np.array_equal(
        Hmu_inv.data, real_mu.data
    )
    ok = trend_ok and decreasing_ok and abs(refl[0] - 1.0) <= 0.15 and bit_same
    assert report(
        9, ok,
        f"|R(0)|={refl[0]:.3f}~1; " + "; ".join(checked)
        + f"; floor {floor:.2e}; trivial profile bit-identical: {bit_same}",
    )


def test_criterion_10_dof_identities():
    ok = True
    details = []
    for name, mesh in shipped_meshes().items():
        rep = dof_audit(mesh)
        good = rep.theta_E == rep.theta_B and rep.rank_certified
        if name == "annulus":
            good &= betti_numbers(mesh)[1] == 1
            good &= rep.harmonic_2 == 1
        else:
            good &= rep.harmonic_1 == 0 and rep.harmonic_2 == 0
        ok &= good
        details.append(f"{name}: Theta={rep.theta_E}={rep.theta_B} "
                       f"h=({rep.harmonic_1},{rep.harmonic_2})")
    assert report(10, ok, "; ".join(details))


def test_criterion_11_audit_fault_classes():
    mesh = generators.kuhn_cube()
    dual = DualComplex(mesh)
    Heps = assemble_hodge(mesh, MaterialMap(), "eps")
    Hmu = assemble_hodge(mesh, MaterialMap(), "mu_inv")

    clean = [
        audit_first_kind(mesh, expected_betti=(1, 0, 0)).passed,
        audit_second_kind(mesh, dual).passed,
        audit_hodge(Heps, Hmu, mesh).passed,
    ]

    # Fault class 1: incidence sign flip -> first kind only.
    C1 = mesh.incidence(1).tolil()
    C1[5, C1.rows[5][0]] *= -1
    hit1 = (
        not audit_first_kind(mesh, incidence_override={1: C1.tocsr()}).passed,
        audit_second_kind(mesh, dual).passed,
        audit_hodge(Heps, Hmu, mesh).passed,
    )

    # Fault class 2: non-transpose dual -> second kind only.
    cls = classify_boundary(mesh)
    bad = mesh.incidence(1).T.tolil()
    e = int(cls.interior_edges[0])
    f = int(cls.interior_faces[0])
    bad[e, f] = -bad[e, f] if bad[e, f] != 0 else 1
    hit2 = (
        audit_first_kind(mesh, expected_betti=(1, 0, 0)).passed,
        not audit_second_kind(mesh, dual, dual_incidence=bad.tocsr()).passed,
        audit_hodge(Heps, Hmu, mesh).passed,
    )

    # Fault class 3a: asymmetric star; 3b: indefinite star -> third only.
    Ha = Heps.tolil()
    Ha[0, 2] += 0.05
    hit3a = (
        audit_first_kind(mesh, expected_betti=(1, 0, 0)).passed,
        audit_second_kind(mesh, dual).passed,
        not audit_hodge(Ha.tocsr(), Hmu, mesh).passed,
    )
    Hi = Heps.tolil()
    Hi[4, 4] = -1e-4
    hit3b = (
        audit_first_kind(mesh, expected_betti=(1, 0, 0)).passed,
        audit_second_kind(mesh, dual).passed,
        not audit_hodge(Hi.tocsr(), Hmu, mesh).passed,
    )

    ok = all(clean) and all(hit1) and all(hit2) and all(hit3a) and all(hit3b)
    assert report(
        11, ok,
        f"clean sections pass: {all(clean)}; sign-flip hits section 1 only: "
        f"{all(hit1)}; non-transpose dual hits section 2 only: {all(hit2)}; "
        f"asymmetric star hits section 3 only: {all(hit3a)}; indefinite star "
        f"hits section 3 only: {all(hit3b)}",
    )
