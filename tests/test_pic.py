import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from declat import generators, pic
from declat.maxwell import DiscreteCodifferential, apply_pec, leapfrog_run
from declat.pic import (
    Particle,
    gather,
    push,
    scatter_current,
    verify_conservation,
)
from declat.whitney import AnalyticForm, OutsideMeshError, WhitneyBasis, de_rham

from _oracles import (
    conservation_residual_all_edges,
    interpolate_at_points_loop,
    scatter_current_loop,
    walk_matmul,
    walk_row_reads,
)


def constant_form(degree, vec):
    vec = np.asarray(vec, dtype=float)
    return AnalyticForm(degree, lambda pts: np.broadcast_to(vec, pts.shape))


def point_charge(basis, x, q):
    """Node weights of a charge q resting at x: a zero-length path's deposit."""
    return scatter_current(basis, x, x, q, 1.0).node_charge.values


class TestScatterCharge:
    def test_tet_barycenter_quarters(self, single_tet, basis_of):
        center = single_tet.vertices[single_tet.tets[0]].mean(axis=0)
        w = point_charge(basis_of(single_tet), center, 2.0)
        np.testing.assert_allclose(w, 0.5, atol=1e-14)
        assert abs(w.sum() - 2.0) <= 1e-14

    def test_at_node_full_charge(self, single_tet, basis_of):
        w = point_charge(basis_of(single_tet), single_tet.vertices[1], -1.5)
        assert abs(w[1] + 1.5) <= 1e-14
        assert abs(w.sum() + 1.5) <= 1e-14

    def test_face_barycenter_thirds(self, single_tet, basis_of):
        # The planar reference case: a charge sitting on a triangle spreads
        # q/3 to each of that triangle's nodes.
        face = single_tet.vertices[[0, 1, 2]].mean(axis=0)
        w = point_charge(basis_of(single_tet), face, 3.0)
        for node in (0, 1, 2):
            assert abs(w[node] - 1.0) <= 1e-13
        assert abs(w[3]) <= 1e-13

    def test_weights_always_sum_to_charge(self, jittered3, basis_of, rng):
        basis = basis_of(jittered3)
        for _ in range(50):
            x = rng.random(3) * 0.98 + 0.01
            assert abs(point_charge(basis, x, 0.7).sum() - 0.7) <= 1e-13


class TestScatterCurrent:
    def test_zero_length_path(self, single_tet, basis_of):
        x = np.array([0.2, 0.2, 0.2])
        res = scatter_current(basis_of(single_tet), x, x, q=1.0, tau=0.1)
        assert np.abs(res.edge_current.values).max() == 0.0
        assert abs(res.node_charge.values.sum() - 1.0) <= 1e-13

    def test_within_tet_inflow_matches_rate(self, single_tet, basis_of):
        basis = basis_of(single_tet)
        a = np.array([0.1, 0.2, 0.1])
        b = np.array([0.4, 0.15, 0.3])
        res = scatter_current(basis, a, b, q=2.0, tau=0.5)
        qdot = 2.0 / 0.5
        lam_a = basis.bary(np.array([0]), a.reshape(1, 3))[0]
        lam_b = basis.bary(np.array([0]), b.reshape(1, 3))[0]
        inflow = single_tet.incidence(0).T @ res.edge_current.values
        np.testing.assert_allclose(inflow, qdot * (lam_b - lam_a), atol=1e-14)

    def test_reversed_path_negates(self, box3, basis_of, rng):
        a = rng.random(3) * 0.9 + 0.05
        b = rng.random(3) * 0.9 + 0.05
        r1 = scatter_current(basis_of(box3), a, b, 1.0, 1.0)
        r2 = scatter_current(basis_of(box3), b, a, 1.0, 1.0)
        assert np.abs(r1.edge_current.values + r2.edge_current.values).max() <= 1e-13

    def test_subdivision_composition(self, box3, basis_of, rng):
        a = rng.random(3) * 0.9 + 0.05
        b = rng.random(3) * 0.9 + 0.05
        whole = scatter_current(basis_of(box3), a, b, 1.0, 1.0)
        acc = np.zeros(box3.n_edges)
        cuts = np.linspace(0.0, 1.0, 5)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            seg = scatter_current(
                basis_of(box3), a + lo * (b - a), a + hi * (b - a), 1.0, 0.25
            )
            acc += 0.25 * seg.edge_current.values  # time-weighted accumulation
        scale = np.abs(whole.edge_current.values).max()
        assert np.abs(acc - whole.edge_current.values).max() <= 1e-13 * max(scale, 1)

    def test_exit_flagged_with_partial_deposit(self, single_tet, basis_of):
        res = scatter_current(
            basis_of(single_tet),
            np.array([0.2, 0.2, 0.2]),
            np.array([2.0, 2.0, 2.0]),
            q=1.0,
            tau=1.0,
        )
        assert res.exited
        assert abs(res.node_charge.values.sum() - 1.0) <= 1e-12

    def test_current_support_on_traversed_tets(self, box3, basis_of):
        basis = basis_of(box3)
        a = np.array([0.05, 0.05, 0.05])
        b = np.array([0.30, 0.08, 0.06])
        res = scatter_current(basis, a, b, 1.0, 1.0)
        touched = np.flatnonzero(np.abs(res.edge_current.values) > 0)
        allowed = set()
        for t in range(box3.n_tets):
            lam_a = basis.bary(np.array([t]), a.reshape(1, 3))[0]
            lam_b = basis.bary(np.array([t]), b.reshape(1, 3))[0]
            # Tets whose closure the straight segment can intersect.
            if min(lam_a.min(), lam_b.min()) > -0.5:
                allowed.update(box3.tet_edges[t].tolist())
        assert set(touched.tolist()) <= allowed or len(touched) <= 12


class TestConservation:
    def test_random_single_tet_paths(self, single_tet, basis_of, rng):
        basis = basis_of(single_tet)
        worst = 0.0
        for _ in range(500):
            lam = rng.dirichlet(np.ones(4), size=2)
            pts = lam @ single_tet.vertices[single_tet.tets[0]]
            worst = max(
                worst, verify_conservation(basis, pts[0], pts[1], q=1.3, tau=0.7)
            )
        assert worst <= 1e-12 * (1.3 / 0.7)

    def test_cell_crossing_paths(self, jittered3, basis_of, rng):
        basis = basis_of(jittered3)
        worst = 0.0
        for _ in range(300):
            a = rng.random(3) * 0.96 + 0.02
            b = rng.random(3) * 0.96 + 0.02
            worst = max(worst, verify_conservation(basis, a, b, q=-0.8, tau=0.2))
        assert worst <= 1e-12 * (0.8 / 0.2)

    def test_static_particle_all_zero(self, box3, basis_of):
        x = np.array([0.4, 0.5, 0.6])
        res = scatter_current(basis_of(box3), x, x, 1.0, 1.0)
        assert np.abs(res.edge_current.values).max() == 0.0
        assert np.abs(res.node_rate.values).max() <= 1e-14


def _interior_point(mesh, rng) -> np.ndarray:
    t = rng.integers(mesh.n_tets)
    return rng.dirichlet(np.ones(4)) @ mesh.vertices[mesh.tets[t]]


def _path_end(mesh, a, rng, leave: bool) -> np.ndarray:
    """Another interior point, or a point past the far side of the mesh from ``a``."""
    if not leave:
        return _interior_point(mesh, rng)
    u = rng.standard_normal(3)
    return a + 1.2 * np.ptp(mesh.vertices, axis=0).max() * np.sqrt(3) * u / np.linalg.norm(u)


@given(
    name=st.sampled_from(["kuhn", "jittered3", "box3", "annulus8"]),
    seed=st.integers(0, 2**32 - 1),
    chord=st.sampled_from(["interior", "leave", "still"]),
    q=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
    tau=st.floats(1e-3, 10.0),
)
def test_one_pass_split_matches_crossing_loop(all_meshes, basis_of, name, seed, chord, q, tau):
    # Chords from an interior point to another one (through the annulus
    # hole, some leave the mesh), out past the far side of the mesh, or of
    # zero length (a resting charge).
    mesh = all_meshes[name]
    basis = basis_of(mesh)
    rng = np.random.default_rng(seed)
    a = _interior_point(mesh, rng)
    b = a if chord == "still" else _path_end(mesh, a, rng, chord == "leave")
    res = scatter_current(basis, a, b, q, tau)
    final, rate, current, exited = scatter_current_loop(basis, a, b, q, tau)
    assert res.exited == exited and (res.exited or chord != "leave")
    for got, want in ((res.edge_current, current), (res.node_rate, rate), (res.node_charge, final)):
        assert np.abs(got.values - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
    residual = verify_conservation(basis, a, b, q, tau)
    assert residual <= 1e-12 * abs(q / tau)
    # Edges without current add exact zeros: the same residual as over every edge.
    assert residual == conservation_residual_all_edges(
        mesh, res.edge_current.values, res.node_rate.values)


@given(
    name=st.sampled_from(["kuhn", "box3", "jittered3", "annulus8"]),
    seed=st.integers(0, 2**32 - 1),
    chord=st.sampled_from(["interior", "leave", "still"]),
)
def test_scalar_walk_matches_matmul_walk(all_meshes, basis_of, name, seed, chord):
    # The scalar step rounds differently from the (2, 3) @ (3, 4) product,
    # but on generic chords it takes the same faces to the same tets.
    mesh = all_meshes[name]
    basis = basis_of(mesh)
    rng = np.random.default_rng(seed)
    t = int(rng.integers(mesh.n_tets))
    a = rng.dirichlet(np.ones(4)) @ mesh.vertices[mesh.tets[t]]
    b = a if chord == "still" else _path_end(mesh, a, rng, chord == "leave")
    ends = np.array([a, b])
    tets, coords, bounds, exited = pic._walk(basis, t, ends.tolist())
    want_segments, want_bounds, want_exited = walk_matmul(basis, t, ends, 1e-12)
    assert exited == want_exited and (exited or chord != "leave")
    assert tets == [s[0] for s in want_segments]
    want = np.array([s[1] + s[2] for s in want_segments])
    assert np.abs(np.reshape(coords, (-1, 8)) - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
    assert np.abs(np.array(bounds) - want_bounds).max() <= 1e-14
    if chord == "still":
        # Identical endpoints give identical coordinates: exact zero motion.
        assert bounds == [0.0, 1.0] and coords[:4] == coords[4:]
    # One frame row per step gives the two-row walk's floats exactly.
    row_segments, row_bounds, row_exited = walk_row_reads(basis, t, ends, 1e-12)
    assert tets == [s[0] for s in row_segments]
    assert coords == [c for s in row_segments for c in s[1] + s[2]]
    assert (bounds, exited) == (row_bounds, row_exited)


def _scatter_from_locate(basis, a, b, q, tau):
    """``scatter_current`` with its start tet from ``basis.locate``: the walk
    from the grid seed is made to report its step cap, so the fallback runs."""
    walk, calls = pic._walk, []

    def capped_first(*args):
        calls.append(None)
        return None if len(calls) == 1 else walk(*args)

    with mock.patch.object(pic, "_walk", capped_first):
        return scatter_current(basis, a, b, q, tau)


def _assert_same_scatter(got, want):
    assert got.exited == want.exited
    for name in ("edge_current", "node_rate", "node_charge"):
        assert np.array_equal(getattr(got, name).values, getattr(want, name).values), name


@given(
    name=st.sampled_from(["kuhn", "box3", "jittered3", "annulus8"]),
    seed=st.integers(0, 2**32 - 1),
    leave=st.booleans(),
)
def test_seed_walk_start_matches_locate_start(all_meshes, basis_of, name, seed, leave):
    # A generic interior start lies in one tet only, so both ways to find
    # it agree and the deposit must be bit-identical.
    mesh = all_meshes[name]
    basis = basis_of(mesh)
    rng = np.random.default_rng(seed)
    t = int(rng.integers(mesh.n_tets))
    a = rng.dirichlet(np.ones(4)) @ mesh.vertices[mesh.tets[t]]
    assume(basis.bary(np.array([t]), a.reshape(1, 3)).min() > 1e-9)
    b = _path_end(mesh, a, rng, leave)
    _assert_same_scatter(scatter_current(basis, a, b, 1.3, 0.7),
                         _scatter_from_locate(basis, a, b, 1.3, 0.7))


def test_seed_chord_across_annulus_hole_falls_back(annulus8, basis_of, monkeypatch):
    # The start's grid seed lies on the far side of the ring's hole: the
    # walk from the seed leaves the mesh, and basis.locate finds the start.
    basis = basis_of(annulus8)
    a, b = np.array([1.05, -1.371, 0.598]), np.array([1.6, 0.2, 0.4])
    want = _scatter_from_locate(basis, a, b, 1.0, 1.0)
    calls = []
    locate = WhitneyBasis.locate

    def counted(self, point):
        calls.append(point)
        return locate(self, point)

    monkeypatch.setattr(WhitneyBasis, "locate", counted)
    _assert_same_scatter(scatter_current(basis, a, b, 1.0, 1.0), want)
    assert len(calls) == 1


@pytest.mark.parametrize("name, start, end", [
    ("annulus8", (0.0, 0.0, 0.5), (1.5, 0.0, 0.5)),  # in the ring's hole
    ("box3", (1.5, 0.5, 0.5), (0.5, 0.5, 0.5)),  # outside the unit box
])
def test_start_outside_mesh_raises(all_meshes, basis_of, name, start, end):
    basis = basis_of(all_meshes[name])
    for deposit in (scatter_current, verify_conservation):
        with pytest.raises(OutsideMeshError):
            deposit(basis, np.array(start), np.array(end), 1.0, 1.0)


@pytest.mark.parametrize("start, end", [((np.nan, 0.5, 0.5), (0.5, 0.5, 0.5)),
                                        ((np.inf, 0.5, 0.5), (0.5, 0.5, 0.5)),
                                        ((0.5, 0.5, 0.5), (0.5, -np.inf, 0.5)),
                                        ((0.5, 0.5, 0.5), (0.5, 0.5, np.nan))])
def test_non_finite_path_end_raises(box3, basis_of, start, end):
    # A non-finite end lies in no tet; the walk would otherwise run on NaN
    # coordinates (whose comparisons are all false) to the boundary.
    with pytest.raises(OutsideMeshError, match="non-finite"):
        scatter_current(basis_of(box3), np.array(start), np.array(end), 1.0, 1.0)


@pytest.mark.parametrize("end", [(0.5, 0.5, 1e308), (1e308, 1e308, 1e308), (0.5, 0.5, -1.7e308)])
def test_far_finite_path_end_raises(box3, basis_of, end):
    # The end's coordinates overflow (inf - inf is NaN), so, as locate_all
    # rules for far points, it lies in no tet; no RuntimeWarning comes first
    # (warnings are errors in this suite).
    for deposit in (scatter_current, verify_conservation):
        with pytest.raises(OutsideMeshError, match="overflow"):
            deposit(basis_of(box3), np.full(3, 0.5), np.array(end), 1.0, 1.0)


def test_far_end_whose_coordinates_fit_exits(box3, basis_of):
    a, b = np.full(3, 0.5), np.array([0.5, 0.5, 1e300])
    assert scatter_current(basis_of(box3), a, b, 1.0, 1.0).exited
    assert verify_conservation(basis_of(box3), a, b, 1.0, 1.0) <= 1e-12


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in ("leapfrog_run dt", "push dt", "scatter_current tau")
      for value in (0.0, -1.0, math.nan, math.inf)),
    ("scatter_current q", math.nan), ("scatter_current q", math.inf),
    ("scatter_current q", 1e300)])  # over tau = 1e-10: q/tau overflows
def test_step_and_time_guards_refuse_before_work(kuhn, basis_of, classification_of, name, value):
    # NaN fails every comparison, so a guard written as `x <= 0` lets it pass.
    ops = apply_pec(kuhn, classification_of(kuhn))
    a, b = np.full(3, 0.2), np.full(3, 0.7)
    call = {
        "leapfrog_run dt": lambda: leapfrog_run(DiscreteCodifferential(ops), value, 30,
                                                np.ones(ops.n_edges)),
        "push dt": lambda: push(Particle(1.0, 1.0, a, b), np.ones(3), np.ones(3), value),
        "scatter_current tau": lambda: scatter_current(basis_of(kuhn), a, b, 1.0, value),
        "scatter_current q": lambda: scatter_current(basis_of(kuhn), a, b, value, 1e-10),
    }[name]
    with pytest.raises(ValueError, match=f"^{name.split()[1]}"):
        call()


class TestGather:
    def test_constant_fields(self, jittered3, box3, annulus8, basis_of, rng):
        u = np.array([0.2, -0.4, 0.9])
        w = np.array([-1.0, 0.5, 0.25])
        for mesh in (jittered3, box3, annulus8):
            basis = basis_of(mesh)
            E = de_rham(constant_form(1, u), mesh)
            B = de_rham(constant_form(2, w), mesh)
            tets = rng.integers(mesh.n_tets, size=20)
            pts = np.einsum("kq,kqd->kd", rng.dirichlet(np.ones(4), size=20),
                            mesh.vertices[mesh.tets[tets]])
            Ev, Bv = gather(basis, E, B, pts)
            assert Ev.shape == Bv.shape == (20, 3)
            assert np.abs(Ev - u).max() <= 1e-12
            assert np.abs(Bv - w).max() <= 1e-12
            assert np.abs(Ev - interpolate_at_points_loop(basis, E, pts)).max() <= 1e-14
            assert np.abs(Bv - interpolate_at_points_loop(basis, B, pts)).max() <= 1e-14

    def test_zero_cochains(self, single_tet, basis_of):
        from declat.whitney import Cochain

        E = Cochain(1, np.zeros(single_tet.n_edges))
        B = Cochain(2, np.zeros(single_tet.n_faces))
        Ev, Bv = gather(basis_of(single_tet), E, B, np.full((1, 3), 0.2))
        assert np.all(Ev == 0) and np.all(Bv == 0)

    def test_tangential_continuity_across_faces(self, box3, basis_of, rng):
        # Edge-element fields have single-valued tangential traces on faces.
        basis = basis_of(box3)
        from declat.whitney import Cochain

        E = Cochain(1, rng.standard_normal(box3.n_edges))
        cls_interior = [
            f for f in range(box3.n_faces) if box3.face_tets[f, 1] >= 0
        ]
        for f in cls_interior[:10]:
            tri = box3.faces[f]
            va, vb, vc = box3.vertices[tri]
            lam = rng.dirichlet(np.ones(3))
            pt = lam[0] * va + lam[1] * vb + lam[2] * vc
            t1, t2 = box3.face_tets[f]
            vals = []
            for t in (t1, t2):
                lam4 = basis.bary(np.array([t]), pt.reshape(1, 3))
                coeffs = E.values[box3.tet_edges[t]]
                w = basis.eval(1, np.array([t]), lam4)
                vals.append(np.einsum("q,qd->d", coeffs, w[0]))
            tang1 = vb - va
            tang2 = vc - va
            for tang in (tang1, tang2):
                assert abs((vals[0] - vals[1]) @ tang) <= 1e-12


class TestPush:
    def test_free_drift(self):
        p = Particle(1.0, 1.0, np.zeros(3), np.array([0.1, 0.2, 0.3]))
        for _ in range(10):
            p = push(p, np.zeros(3), np.zeros(3), 0.5)
        np.testing.assert_allclose(p.position, 5.0 * np.array([0.1, 0.2, 0.3]))

    def test_magnetic_rotation_conserves_speed(self):
        p = Particle(1.0, 0.5, np.zeros(3), np.array([0.3, 0.2, 0.1]))
        speed = np.linalg.norm(p.velocity)
        B = np.array([0.0, 0.0, 2.0])
        for _ in range(10_000):
            p = push(p, np.zeros(3), B, 1e-2)
        assert abs(np.linalg.norm(p.velocity) - speed) <= 1e-12

    def test_uniform_field_acceleration(self):
        p = Particle(2.0, 4.0, np.zeros(3), np.zeros(3))
        E = np.array([1.0, 0.0, 0.0])
        for _ in range(100):
            p = push(p, E, np.zeros(3), 0.1)
        np.testing.assert_allclose(p.velocity, [2.0 / 4.0 * 1.0 * 0.1 * 100, 0, 0])

    def test_macro_particle_same_trajectory(self):
        # Scaling charge and mass together leaves the dynamics unchanged.
        E = np.array([0.3, -0.1, 0.2])
        B = np.array([0.1, 0.4, -0.2])
        p1 = Particle(1.0, 1.0, np.zeros(3), np.array([0.1, 0.0, 0.0]))
        p2 = Particle(1e6, 1e6, np.zeros(3), np.array([0.1, 0.0, 0.0]))
        for _ in range(50):
            p1 = push(p1, E, B, 0.05)
            p2 = push(p2, E, B, 0.05)
        np.testing.assert_allclose(p1.position, p2.position, rtol=1e-12)
