import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi, roots_legendre

from declat import generators
from declat.mesh import SimplicialComplex
from declat.pic import verify_conservation
from declat.whitney import (
    AnalyticForm,
    Cochain,
    OutsideMeshError,
    WhitneyBasis,
    de_rham,
    interpolate_at_points,
    verify_coboundary,
    verify_partition_duality,
    _TET4,
)

from _oracles import (
    _tet_grads,
    interpolate_at_points_loop,
    partition_duality_loop,
    relabel,
    tet_grads_exact,
    tet_quadrature,
)


def constant_form(degree, vec):
    vec = np.asarray(vec, dtype=float)
    return AnalyticForm(degree, lambda pts: np.broadcast_to(vec, pts.shape))


class TestBarycentric:
    @pytest.fixture(scope="class")
    def located(self, single_tet, basis_of):
        # The center, vertex 0 and the midpoint of edge (0, 1), in one call.
        v = single_tet.vertices
        points = np.array([v[single_tet.tets[0]].mean(axis=0), v[0], 0.5 * (v[0] + v[1])])
        return basis_of(single_tet).locate_all(points)[1]

    def test_tet_center(self, located):
        np.testing.assert_allclose(located[0], 0.25, atol=1e-14)

    def test_vertex(self, located):
        np.testing.assert_allclose(located[1], [1, 0, 0, 0], atol=1e-14)

    def test_edge_midpoint(self, located):
        np.testing.assert_allclose(located[2], [0.5, 0.5, 0, 0], atol=1e-14)

    def test_outside_raises(self, single_tet, basis_of):
        with pytest.raises(OutsideMeshError):
            basis_of(single_tet).locate_all(np.array([[0.2, 0.2, 0.2], [2.0, 2.0, 2.0]]))

    def test_non_finite_point_raises(self, box3, basis_of):
        points = np.array([[0.5, 0.5, 0.5], [np.nan, 0.5, 0.5], [0.5, np.inf, 0.5]])
        for k in (1, 2):
            with pytest.raises(OutsideMeshError, match="non-finite"):
                basis_of(box3).locate_all(points[: k + 1])

    def test_far_finite_point_raises(self, box3, basis_of):
        # The first two points' coordinates overflow (inf - inf is NaN) in every
        # tet, the third's do not: none lies in a tet, and none makes a warning.
        basis = basis_of(box3)
        ones = Cochain(1, np.ones(box3.n_edges))
        for z in (-1.7e308, 1e308, -1e300):
            x = np.array([0.5, 0.5, z])
            for locate in (basis.locate_all, basis.locate,
                           lambda x: interpolate_at_points(basis, ones, x[None])):
                with pytest.raises(OutsideMeshError, match="outside the mesh"):
                    locate(x)

    def test_affine_reproduction(self, jittered3, basis_of, rng):
        basis = basis_of(jittered3)
        pts = rng.random((40, 3)) * 0.9 + 0.05
        tets, lam = basis.locate_all(pts)
        back = np.einsum("kq,kqd->kd", lam, jittered3.vertices[jittered3.tets[tets]])
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_walk_matches_scan(self, box3, basis_of, rng):
        basis = basis_of(box3)
        pts = rng.random((30, 3)) * 0.98 + 0.01
        for x, t_walk in zip(pts, basis.locate_all(pts)[0]):
            t_scan, _ = basis._scan(x)
            lam_w = basis.bary(np.array([t_walk]), x.reshape(1, 3))[0]
            lam_s = basis.bary(np.array([t_scan]), x.reshape(1, 3))[0]
            assert lam_w.min() >= -1e-10 and lam_s.min() >= -1e-10

    def test_scan_fallback_counted(self, annulus8):
        basis = WhitneyBasis(annulus8)
        with pytest.raises(OutsideMeshError):
            basis.locate(np.array([0.0, 0.0, 0.5]))  # in the hole of the ring
        assert basis.scans == 1
        # Seeded across the hole, the walk meets the inner wall and scans.
        x = annulus8.vertices[annulus8.tets[0]].mean(axis=0)
        far = int(np.argmin(annulus8.vertices[annulus8.tets].mean(axis=1) @ x))
        basis._seeds = lambda points: np.full(len(points), far)
        t, lam = basis.locate(x)
        assert basis.scans == 2 and t == basis._scan(x)[0]
        assert basis.bary(np.array([t]), x.reshape(1, 3)).min() >= -1e-10

    def test_seeded_walk_step_count(self, monkeypatch):
        # A count, not a time: the walk from tet 0 took 24.3 bary rows per
        # point here; the grid seed leaves about 2.6.
        basis = WhitneyBasis(generators.jittered_box_mesh(10, seed=3))
        pts = 0.02 + 0.96 * np.random.default_rng(3).random((400, 3))
        rows = []
        bary = WhitneyBasis.bary

        def counted(self, tets, points):
            rows.append(np.size(tets))
            return bary(self, tets, points)

        monkeypatch.setattr(WhitneyBasis, "bary", counted)
        for x in pts:
            basis.locate(x)
        assert sum(rows) / len(pts) <= 4.0 and basis.scans == 0

    def test_basis_makes_no_linalg_call(self, monkeypatch):
        # The gradients are face normals over a determinant: no LAPACK inverse or solve.
        mesh = generators.jittered_box_mesh(3, seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("WhitneyBasis called numpy.linalg")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert np.isfinite(WhitneyBasis(mesh).grads).all()

    def test_tables_built_once_on_first_use(self, box3, monkeypatch):
        # A basis alone builds no adjacency, frame table, centroids or seed
        # grid; two locations and a deposit build the adjacency once, and
        # each table is the same object on every access.
        calls = []
        tet_neighbors = SimplicialComplex.tet_neighbors
        monkeypatch.setattr(SimplicialComplex, "tet_neighbors",
                            lambda self: calls.append(None) or tet_neighbors(self))
        basis = WhitneyBasis(box3)
        tables = ("neighbors", "frames", "centroids", "_grid")
        assert set(tables).isdisjoint(vars(basis)) and calls == []
        pts = 0.05 + 0.9 * np.random.default_rng(1).random((20, 3))
        basis.locate_all(pts)
        basis.locate_all(pts[::-1])
        verify_conservation(basis, pts[0], pts[1], 1.0, 1.0)
        assert len(calls) == 1
        built = [getattr(basis, name) for name in tables]
        assert all(getattr(basis, name) is table for name, table in zip(tables, built))


def _seed_coordinate(lo, hi, h, n):
    """One coordinate of a seed query: in [lo, hi], on a bucket plane
    lo + i h or one float either side of it (where the division may round
    either way), or far outside the box (where the cell is clipped)."""
    plane = st.integers(-1, n + 1).map(lambda i: lo + i * h)
    return st.one_of(st.floats(lo, hi),
                     plane.flatmap(lambda x: st.sampled_from(
                         [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])),
                     st.floats(1e3, 1e308).flatmap(lambda r: st.sampled_from([lo - r, hi + r])))


@given(name=st.sampled_from(["kuhn", "box3", "jittered3", "annulus8"]), data=st.data())
def test_one_point_seed_matches_seeds(all_meshes, basis_of, name, data):
    # A path's start tet is read in scalar floats; it must be the tet the
    # array lookup reads, or the deposits would differ.
    mesh = all_meshes[name]
    basis = basis_of(mesh)
    lo, h, shape, _ = basis._grid
    box = zip(lo.tolist(), mesh.vertices.max(axis=0).tolist(), shape.tolist())
    x = [data.draw(_seed_coordinate(a, b, h, n)) for a, b, n in box]
    assert basis._seed(*x) == basis._seeds(np.array([x]))[0]


_GRADIENT_MESHES = {
    "kuhn": lambda seed: generators.kuhn_cube(),
    "box3": lambda seed: generators.box_mesh(3),
    "jittered3": lambda seed: generators.jittered_box_mesh(3, seed=seed),
    "annulus8": lambda seed: generators.annulus_mesh(8),
    "sliver": lambda seed: generators.sliver_mesh(delta=1e-7),
}


@pytest.mark.parametrize("name", _GRADIENT_MESHES)
@settings(max_examples=4)
@given(seed=st.integers(0, 2**16), perm_seed=st.integers(0, 2**16))
def test_gradients_match_exact_inverse(name, seed, perm_seed):
    # Relabelling changes each tet's v0 and edge order.  Both the closed form
    # and the LAPACK oracle stay within 4 eps of each row's largest entry of
    # the exact inverse of the float edge rows (the ones both invert), and
    # grad(lam_i) . (v_j - v0), summed exactly, is lam_i(v_j) - lam_i(v0) to 8 eps.
    mesh = relabel(_GRADIENT_MESHES[name](seed), perm_seed)
    grads = WhitneyBasis(mesh).grads
    eps = Fraction(np.finfo(float).eps)
    for t, verts in enumerate(mesh.vertices[mesh.tets]):
        edges = verts[1:] - verts[:1]
        lapack, _ = _tet_grads(verts)
        for i, row in enumerate(tet_grads_exact(edges)):
            bound = 4 * eps * max(map(abs, row))
            for got in (grads[t, i], lapack[i]):
                assert max(abs(Fraction(g) - r) for g, r in zip(got.tolist(), row)) <= bound
            for j, e in enumerate(edges.tolist(), start=1):
                dot = sum(Fraction(g) * Fraction(c) for g, c in zip(grads[t, i].tolist(), e))
                assert abs(dot - (int(i == j) - int(i == 0))) <= 8 * eps


class TestWhitneyEval:
    def test_node_value_at_own_vertex(self, single_tet, basis_of):
        hat = Cochain(0, np.eye(single_tet.n_vertices)[2])
        assert interpolate_at_points(basis_of(single_tet), hat, single_tet.vertices[[2]])[0] == 1.0

    def test_edge_integral_is_one(self, box3, basis_of):
        # 2-point Gauss along each edge against its own basis form.
        basis = basis_of(box3)
        dev = verify_partition_duality(box3, 1, basis)
        assert dev <= 1e-12

    def test_compact_support(self, box3, basis_of):
        basis = basis_of(box3)
        center = box3.vertices[box3.tets[0]].mean(axis=0)[None]
        (t,), _ = basis.locate_all(center)
        outside = [e for e in range(box3.n_edges) if e not in set(box3.tet_edges[t])]
        val = interpolate_at_points(basis, Cochain(1, np.eye(box3.n_edges)[outside[0]]), center)
        assert np.all(val == 0.0)

    def test_matches_planar_formula_on_shared_face(self, single_tet, basis_of):
        # Tangential trace on a face agrees with the two-coordinate formula
        # lambda_i d(lambda_j) - lambda_j d(lambda_i) written in the face plane.
        basis = basis_of(single_tet)
        va, vb, vc = single_tet.vertices[[0, 1, 2]]
        face_lam = [(0.6, 0.3), (0.2, 0.5), (1 / 3, 1 / 3)]
        pts = np.array([la * va + lb * vb + (1 - la - lb) * vc for la, lb in face_lam])
        edges = [tuple(e) for e in single_tet.edges.tolist()]
        hat = Cochain(1, np.eye(single_tet.n_edges)[edges.index((0, 1))])
        for (lam_a, lam_b), val3d in zip(face_lam, interpolate_at_points(basis, hat, pts)):
            # 2D formula inside the plane of face (0,1,2): gradients of the
            # face barycentric coordinates, computed independently.
            e1, e2 = vb - va, vc - va
            G = np.linalg.inv(np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]]))
            gb = G[0, 0] * e1 + G[0, 1] * e2  # grad of lambda_b in-plane
            gc = G[1, 0] * e1 + G[1, 1] * e2
            ga = -(gb + gc)
            w2d = lam_a * gb - lam_b * ga
            tang = (vb - va) / np.linalg.norm(vb - va)
            assert abs(val3d @ tang - w2d @ tang) <= 1e-12


class TestBroadcastEval:
    @pytest.mark.parametrize("p", [1, 2])
    def test_shared_points_match_per_point_bit_for_bit(self, all_meshes, basis_of, rng, p):
        # The same P points in every tet, through the column tets[:, None],
        # against one per-point call per point; all tets, then some, repeated.
        lam = rng.dirichlet(np.ones(4), size=5)
        for name, mesh in all_meshes.items():
            basis = basis_of(mesh)
            for tets in (np.arange(mesh.n_tets), rng.integers(0, mesh.n_tets, 7)):
                for points in (_TET4, lam):
                    shared = basis.eval(p, tets[:, None], points)
                    assert shared.shape == (len(tets), len(points), 6 if p == 1 else 4, 3)
                    for q, point in enumerate(points):
                        one = basis.eval(p, tets, np.broadcast_to(point, (len(tets), 4)))
                        assert np.array_equal(shared[:, q], one), (name, p, q)


class TestDeRham:
    def test_constant_one_form_unit_edge(self):
        mesh = generators.single_tet()
        c = de_rham(constant_form(1, [1.0, 0.0, 0.0]), mesh)
        edges = [tuple(e) for e in mesh.edges.tolist()]
        # Edge (0,1) runs from the origin to (1,0,0).
        assert abs(c.values[edges.index((0, 1))] - 1.0) <= 1e-14

    def test_constant_two_form_unit_triangle(self):
        mesh = generators.single_tet()
        c = de_rham(constant_form(2, [0.0, 0.0, 1.0]), mesh)
        faces = [tuple(f) for f in mesh.faces.tolist()]
        val = c.values[faces.index((0, 1, 2))]
        assert abs(abs(val) - 0.5) <= 1e-14  # area flux, sign by orientation
        # Canonical orientation: normal of (v0, v1, v2) points along +z here.
        assert val > 0

    def test_zero_form_is_point_evaluation(self):
        verts = np.array([[2, 0, 0], [3, 0, 0], [2, 1, 0], [2, 0, 1]], dtype=float)
        mesh = generators.SimplicialComplex(verts, np.array([[0, 1, 2, 3]]))
        c = de_rham(AnalyticForm(0, lambda p: p[:, 0]), mesh)
        assert c.values[0] == 2.0

    def test_degree_out_of_range_raises(self, single_tet):
        with pytest.raises(ValueError, match="degree must be in 0..3"):
            de_rham(constant_form(4, [1, 0, 0]), single_tet)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_quadratic_proxies_reduce_exactly(self, jittered3, rng, p):
        # Against rules of much higher order: 4-point Gauss-Legendre on
        # edges, a 4x4 conical product on triangles, 4x4x4 on tets, each as
        # normalized barycentric weights.
        x_leg, w_leg = roots_legendre(4)
        if p == 1:
            a = 0.5 * (x_leg + 1.0)
            lam, wgt = np.stack([1.0 - a, a], axis=1), w_leg
        elif p == 2:
            x_jac, w_jac = roots_jacobi(4, 1.0, 0.0)  # weight (1 - a) on [0, 1]
            a, b = np.meshgrid(0.5 * (x_jac + 1.0), 0.5 * (x_leg + 1.0), indexing="ij")
            a, b = a.ravel(), (b * (1.0 - a)).ravel()
            lam, wgt = np.stack([1.0 - a - b, a, b], axis=1), np.outer(w_jac, w_leg).ravel()
        else:
            lam, wgt = tet_quadrature(order=4)
        wgt = wgt / wgt.sum()

        c0, B, Q = rng.standard_normal(3), rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 3))
        field = lambda x: c0 + x @ B + np.einsum("ka,iab,kb->ki", x, Q, x)
        proxy = (lambda x: field(x)[:, 0]) if p == 3 else field
        got = de_rham(AnalyticForm(p, proxy), jittered3).values

        corners = jittered3.vertices[jittered3.simplices(p)]  # (K, p+1, 3)
        mean = sum(w * proxy(np.einsum("q,kqd->kd", l, corners)) for l, w in zip(lam, wgt))
        if p == 1:
            want = np.einsum("kd,kd->k", mean, corners[:, 1] - corners[:, 0])
        elif p == 2:
            nvec = 0.5 * np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
            want = np.einsum("kd,kd->k", mean, nvec)
        else:
            want = mean * jittered3.volumes
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestInterpolate:
    def test_constant_reproduction(self, jittered3, basis_of, rng):
        basis = basis_of(jittered3)
        u = np.array([0.3, -1.2, 0.7])
        pts = rng.random((60, 3)) * 0.9 + 0.05
        for p in (1, 2):
            c = de_rham(constant_form(p, u), jittered3)
            vals = interpolate_at_points(basis, c, pts)
            assert np.abs(vals - u).max() <= 1e-12

    def test_zero_cochain(self, single_tet, basis_of):
        c = Cochain(1, np.zeros(single_tet.n_edges))
        assert np.all(interpolate_at_points(basis_of(single_tet), c, np.full((1, 3), 0.2)) == 0.0)

    def test_affine_nodal_field(self, box3, basis_of, rng):
        f = AnalyticForm(0, lambda p: 1.0 + 2 * p[:, 0] - 0.5 * p[:, 1] + 3 * p[:, 2])
        c = de_rham(f, box3)
        pts = rng.random((40, 3)) * 0.98 + 0.01
        vals = interpolate_at_points(basis_of(box3), c, pts)
        assert np.abs(vals - f(pts)).max() <= 1e-12

    def test_reduction_after_interpolation_is_identity(self, box3, basis_of, rng):
        basis = basis_of(box3)
        for p in range(4):
            c = Cochain(p, rng.standard_normal(box3.n_simplices(p)))
            form = AnalyticForm(p, lambda q, c=c: interpolate_at_points(basis, c, q))
            back = de_rham(form, box3)
            assert np.abs(back.values - c.values).max() <= 1e-12

    @pytest.mark.parametrize("name", ["jittered3", "box3", "annulus8"])
    def test_batched_matches_point_loop(self, all_meshes, basis_of, name, rng):
        mesh = all_meshes[name]
        basis = basis_of(mesh)
        tets = rng.integers(mesh.n_tets, size=60)
        pts = np.einsum("kq,kqd->kd", rng.dirichlet(np.ones(4), size=60),
                        mesh.vertices[mesh.tets[tets]])
        for p in range(4):
            n = mesh.n_simplices(p)
            for values in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                c = Cochain(p, values)
                got = interpolate_at_points(basis, c, pts)
                want = interpolate_at_points_loop(basis, c, pts)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)

    def test_partition_of_unity(self, jittered3, basis_of, rng):
        basis = basis_of(jittered3)
        pts = rng.random((50, 3)) * 0.9 + 0.05
        _, lam = basis.locate_all(pts)
        assert np.abs(lam.sum(axis=1) - 1.0).max() <= 1e-14


class TestStructuralIdentities:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_pairing_matrix_is_identity(self, all_meshes, basis_of, p):
        for name, mesh in all_meshes.items():
            dev = verify_partition_duality(mesh, p, basis_of(mesh))
            assert dev <= 1e-12, (name, p, dev)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_pairing_matches_loop(self, all_meshes, basis_of, p):
        meshes = dict(all_meshes, jittered4=generators.jittered_box_mesh(4, seed=2))
        for name, mesh in meshes.items():
            basis = basis_of(mesh)
            got = verify_partition_duality(mesh, p, basis)
            assert got == partition_duality_loop(mesh, p, basis), (name, p)

    def test_pairing_degree_zero_exact(self, kuhn, basis_of):
        assert verify_partition_duality(kuhn, 0, basis_of(kuhn)) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_coboundary_identity(self, all_meshes, basis_of, p):
        for name, mesh in all_meshes.items():
            dev = verify_coboundary(mesh, p, basis_of(mesh))
            assert dev <= 1e-12, (name, p, dev)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_coboundary_reads_incidence_signs(self, p):
        # One flipped entry of the incidence matrix the simulation uses
        # must show up as a coboundary defect of order one.
        mesh = generators.kuhn_cube()
        C = mesh.incidence(p - 1).copy()
        C.data[0] = -C.data[0]
        mesh._incidence[p - 1] = C
        assert verify_coboundary(mesh, p) >= 1.0

    def test_gradient_closed_form_single_tet(self, single_tet, basis_of):
        # d of the node-0 hat function must equal its coboundary expansion,
        # and both equal the constant (-1, -1, -1) on the unit right tet.
        d_hat0 = Cochain(1, single_tet.incidence(0)[:, 0].toarray().ravel())
        center = single_tet.vertices.mean(axis=0)[None]
        total = interpolate_at_points(basis_of(single_tet), d_hat0, center)[0]
        np.testing.assert_allclose(total, [-1.0, -1.0, -1.0], atol=1e-14)


class TestConvergence:
    def test_interpolation_error_decreases_under_refinement(self):
        # Smooth non-polynomial field: reduce, interpolate, compare.
        def field(pts):
            out = np.zeros_like(pts)
            out[:, 0] = np.sin(np.pi * pts[:, 1])
            out[:, 1] = np.cos(np.pi * pts[:, 2])
            out[:, 2] = pts[:, 0] ** 2
            return out

        rng = np.random.default_rng(0)
        pts = rng.random((200, 3)) * 0.9 + 0.05
        errs = []
        for n in (1, 2, 4):
            mesh = generators.box_mesh(n)
            basis = WhitneyBasis(mesh)
            c = de_rham(AnalyticForm(1, field), mesh)
            vals = interpolate_at_points(basis, c, pts)
            errs.append(np.abs(vals - field(pts)).max())
        assert errs[1] < errs[0] and errs[2] < errs[1]


def test_cochain_validation():
    with pytest.raises(ValueError):
        Cochain(5, np.zeros(3))
