import hashlib
import itertools
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from declat import generators, hodge
from declat.audit import audit_hodge, run_full_audit
from declat.dual import DualComplex
from declat.hodge import (
    MaterialMap,
    _neighbor_pattern,
    assemble_galerkin_dual,
    assemble_hodge,
    check_spd,
    dual_pairing_check,
    read_coo,
    spai_inverse,
    star_elements,
    symmetry_deviation,
    write_coo,
)
from declat.maxwell import apply_pec
from declat.mesh import SimplicialComplex, classify_boundary
from declat.pml import StretchProfile, assemble_stretched
from declat.whitney import WhitneyBasis

from _oracles import (
    element_matrices_loop,
    spai_lstsq_loop,
    symmetry_deviation_multiply,
    whitney_mass_oracle,
)
from test_mesh import loadtxt_that_warns


def _dense_by_tuples(mesh, H, degree):
    """Reorder the assembled matrix by sorted simplex tuples (oracle order)."""
    simplices = mesh.edges if degree == 1 else mesh.faces
    tuples = [tuple(s) for s in simplices.tolist()]
    order = sorted(range(len(tuples)), key=lambda i: tuples[i])
    dense = H.toarray()
    return [tuples[i] for i in order], dense[np.ix_(order, order)]


def _pinwheel(n_rim: int) -> SimplicialComplex:
    """``n_rim`` tets around the axis edge (0,0,0)-(0,0,1), rim at z = 0.5."""
    angle = 2 * np.pi * np.arange(n_rim) / n_rim
    rim = np.column_stack([np.cos(angle), np.sin(angle), np.full(n_rim, 0.5)])
    verts = np.vstack([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], rim])
    k = np.arange(n_rim)
    tets = np.column_stack([np.zeros(n_rim), np.ones(n_rim), 2 + k, 2 + (k + 1) % n_rim])
    return SimplicialComplex(verts, tets.astype(np.int64))


def _assert_matches_oracle(H, level: int) -> None:
    """Normal-equation SPAI against the dense lstsq loop at one level."""
    M, res = spai_inverse(H, level)
    M_ref, res_ref = spai_lstsq_loop(H, level)
    scale = abs(M_ref).max()
    assert abs(M - M_ref).max() <= 1e-10 * scale
    # Where the pattern covers the whole inverse (kuhn from level 1) the
    # residual is rounding noise, so it is compared on the scale of 1.
    assert abs(res - res_ref) <= 1e-10 * max(res_ref, 1.0)


class TestAssembly:
    def test_right_tet_matches_quadrature_oracle(self, single_tet, basis_of):
        for degree, which in ((1, "eps"), (2, "mu_inv")):
            H = assemble_hodge(single_tet, MaterialMap(), which, basis_of(single_tet))
            tuples, dense = _dense_by_tuples(single_tet, H, degree)
            oracle_simplices, oracle = whitney_mass_oracle(
                single_tet.vertices, single_tet.tets.tolist(), degree
            )
            assert oracle_simplices == tuples
            assert np.abs(dense - oracle).max() <= 1e-10

    def test_right_tet_tensor_weight_against_oracle(self, single_tet, basis_of):
        W = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
        H = assemble_hodge(
            single_tet, MaterialMap(eps=W), "eps", basis_of(single_tet)
        )
        tuples, dense = _dense_by_tuples(single_tet, H, 1)
        _, oracle = whitney_mass_oracle(
            single_tet.vertices, single_tet.tets.tolist(), 1, weight=W
        )
        assert np.abs(dense - oracle).max() <= 1e-10

    def test_galerkin_duals_against_oracle(self, single_tet, basis_of):
        eps = 3.0
        mu = 2.0
        h_eps_inv, h_mu = assemble_galerkin_dual(
            single_tet, MaterialMap(eps=eps, mu=mu), basis_of(single_tet)
        )
        _, o2 = whitney_mass_oracle(
            single_tet.vertices, single_tet.tets.tolist(), 2, weight=np.eye(3) / eps
        )
        _, o1 = whitney_mass_oracle(
            single_tet.vertices, single_tet.tets.tolist(), 1, weight=mu * np.eye(3)
        )
        assert np.abs(h_eps_inv.toarray() - o2).max() <= 1e-10
        assert np.abs(h_mu.toarray() - o1).max() <= 1e-10

    def test_regular_tet_diagonal_symmetry(self):
        mesh = generators.regular_tet()
        H = assemble_hodge(mesh, MaterialMap(), "eps")
        d = H.diagonal()
        assert d.max() - d.min() <= 1e-14

    def test_linearity_in_materials(self, kuhn, basis_of):
        H1 = assemble_hodge(kuhn, MaterialMap(eps=1.0), "eps", basis_of(kuhn))
        H2 = assemble_hodge(kuhn, MaterialMap(eps=2.0), "eps", basis_of(kuhn))
        assert np.abs((H2 - 2 * H1).toarray()).max() == 0.0

    def test_galerkin_mu_star_equals_eps_star_at_unity(self, single_tet, basis_of):
        H = assemble_hodge(single_tet, MaterialMap(), "eps", basis_of(single_tet))
        _, h_mu = assemble_galerkin_dual(single_tet, MaterialMap(), basis_of(single_tet))
        assert np.abs((H - h_mu).toarray()).max() == 0.0

    def test_symmetry_and_spd_all_meshes(self, all_meshes, basis_of):
        for name, mesh in all_meshes.items():
            for which in ("eps", "mu_inv"):
                H = assemble_hodge(mesh, MaterialMap(), which, basis_of(mesh))
                sym, min_eig = check_spd(H)
                assert sym <= 1e-13, (name, which)
                assert min_eig > 0, (name, which)

    def test_ultra_local_sparsity(self, box3, basis_of):
        H = assemble_hodge(box3, MaterialMap(), "eps", basis_of(box3))
        share = {e: set() for e in range(box3.n_edges)}
        for row in box3.tet_edges:
            for e in row:
                share[int(e)].update(int(x) for x in row)
        coo = H.tocoo()
        for r, c in zip(coo.row, coo.col):
            assert int(c) in share[int(r)]

    def test_non_spd_material_rejected(self, single_tet):
        with pytest.raises(ValueError, match="positive definite"):
            MaterialMap(eps=-1.0).tensor("eps", single_tet)
        bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            MaterialMap(mu=bad).tensor("mu", single_tet)

    def test_symmetry_checked_relative_to_tensor_size(self, kuhn):
        # A rotated mu of size 4e5 carries a rounding asymmetry far above
        # 1e-12 but far below eps of its size: it is symmetric.
        a, b = 0.5, 1.1
        rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(b), -np.sin(b)], [0.0, np.sin(b), np.cos(b)]])
        r = rz @ rx
        mu = r @ np.diag([4e5, 2e5, 1e5]) @ r.T
        asym = np.abs(mu - mu.T).max()
        assert 1e-12 < asym < 1e-16 * np.abs(mu).max()
        assert np.array_equal(MaterialMap(mu=mu).tensor("mu", kuhn)[3], mu)
        # An eps of size 1e-11 with a 5% off-diagonal asymmetry is not.
        eps = 1e-11 * np.eye(3)
        eps[0, 1] += 5e-13
        with pytest.raises(ValueError, match="eps tensor must be symmetric"):
            MaterialMap(eps=eps).tensor("eps", kuhn)
        per_tet = np.broadcast_to(np.eye(3), (kuhn.n_tets, 3, 3)).copy()
        per_tet[4] = eps
        with pytest.raises(ValueError, match="eps tensor must be symmetric"):
            MaterialMap(eps=per_tet).tensor("eps", kuhn)

    def test_uniform_tensor_checked_once(self, kuhn, monkeypatch):
        # A uniform material is one (1, 3, 3) tensor: checked and inverted
        # once, then broadcast read-only over the tets, however many.
        huge = SimpleNamespace(n_tets=10**12)  # any per-tet copy would not fit
        W = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
        t = MaterialMap(eps=W).tensor("eps", huge)
        assert t.shape == (10**12, 3, 3) and not t.flags.writeable
        p, mu_inv = hodge._star_weight(huge, MaterialMap(mu=W), "mu_inv")
        assert p == 2 and np.array_equal(mu_inv[-1], np.linalg.inv(W))
        bad = W.copy()
        bad[0, 1] = 0.4
        for value, match in ((bad, "symmetric"), (-W, "positive definite")):
            with pytest.raises(ValueError, match=match):
                MaterialMap(mu=value).tensor("mu", huge)
            with pytest.raises(ValueError, match=match):
                hodge._star_weight(huge, MaterialMap(mu=value), "mu_inv")

        def per_tet_work(*args, **kwargs):
            raise AssertionError("per-tet work before the material check")

        monkeypatch.setattr(WhitneyBasis, "eval", per_tet_work)
        monkeypatch.setattr(WhitneyBasis, "local_indices", per_tet_work)
        with pytest.raises(ValueError, match="mu tensor must be symmetric"):
            star_elements(kuhn, MaterialMap(mu=bad), "mu_inv", WhitneyBasis(kuhn))

    @pytest.mark.parametrize("name", ["eps", "mu"])
    def test_non_finite_material_rejected(self, kuhn, name):
        # NaN != NaN, so without its own check a NaN tensor fails as asymmetric.
        per_tet = np.ones(kuhn.n_tets)
        per_tet[3] = np.nan
        tensor = np.eye(3)
        tensor[0, 1] = tensor[1, 0] = np.inf
        for value in (np.nan, np.inf, -np.inf, 1.0 + 1j * np.nan, per_tet, tensor):
            with pytest.raises(ValueError, match=f"^{name} tensor must be finite$"):
                MaterialMap(**{name: value}).tensor(name, kuhn)

    @settings(max_examples=40)
    @given(name=st.sampled_from(["kuhn", "box3", "jittered3", "annulus8"]),
           p=st.sampled_from([1, 2]),
           kind=st.sampled_from(["scalar", "per_tet", "anisotropic", "pml"]),
           seed=st.integers(0, 2**32 - 1))
    def test_element_matrices_match_loop(self, all_meshes, basis_of, name, p, kind, seed):
        # One broadcast evaluation and one batched product against one
        # evaluation per quadrature point and a three-operand einsum.
        mesh = all_meshes[name]
        m = mesh.n_tets
        rng = np.random.default_rng(seed)
        if kind == "scalar":
            weight = rng.uniform(0.1, 10.0) * np.broadcast_to(np.eye(3), (m, 3, 3))
        elif kind == "per_tet":
            weight = 10.0 ** rng.uniform(-3.0, 3.0, m)[:, None, None] * np.eye(3)
        elif kind == "anisotropic":
            a = rng.standard_normal((m, 3, 3))
            weight = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
        else:  # complex diagonal stretch per quadrature point, as the PML weighs
            stretch = rng.uniform(0.5, 2.0, (m, 4, 3)) + 1j * rng.uniform(0.0, 3.0, (m, 4, 3))
            weight = stretch[..., None] * np.eye(3)
        basis = basis_of(mesh)
        got = hodge._element_matrices(mesh, p, weight, basis).local
        want = element_matrices_loop(basis, p, weight)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @settings(max_examples=40)
    @given(name=st.sampled_from(["kuhn", "box3", "jittered3", "annulus8"]),
           p=st.sampled_from([1, 2]),
           kind=st.sampled_from(["scalar", "per_tet", "anisotropic", "pml"]),
           seed=st.integers(0, 2**32 - 1))
    def test_element_matrices_bitwise_symmetric(self, all_meshes, basis_of, name, p, kind, seed):
        # Each element matrix is written from its upper triangle into both.
        mesh = all_meshes[name]
        m = mesh.n_tets
        rng = np.random.default_rng(seed)
        if kind == "scalar":
            weight = rng.uniform(0.1, 10.0) * np.broadcast_to(np.eye(3), (m, 3, 3))
        elif kind == "per_tet":
            weight = 10.0 ** rng.uniform(-3.0, 3.0, m)[:, None, None] * np.eye(3)
        elif kind == "anisotropic":
            a = rng.standard_normal((m, 3, 3))
            weight = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
        else:
            stretch = rng.uniform(0.5, 2.0, (m, 4, 3)) + 1j * rng.uniform(0.0, 3.0, (m, 4, 3))
            weight = stretch[..., None] * np.eye(3)
        local = hodge._element_matrices(mesh, p, weight, basis_of(mesh)).local
        assert local.tobytes() == np.ascontiguousarray(local.transpose(0, 2, 1)).tobytes()

    def test_each_material_resolved_once(self, kuhn, monkeypatch):
        # Each star resolves and checks only the tensor it weighs with, so
        # building the eps and mu-inverse pair resolves eps once and mu once.
        resolved = []
        per_tet = hodge._per_tet_tensor
        monkeypatch.setattr(hodge, "_per_tet_tensor",
                            lambda value, m, name: resolved.append(name) or per_tet(value, m, name))
        apply_pec(kuhn, classify_boundary(kuhn))
        assert sorted(resolved) == ["eps", "mu"]
        resolved.clear()
        run_full_audit(kuhn)
        assert sorted(resolved) == ["eps", "mu"]

    def test_per_tet_materials(self, kuhn, basis_of):
        eps = np.linspace(1.0, 2.0, kuhn.n_tets)
        H = assemble_hodge(kuhn, MaterialMap(eps=eps), "eps", basis_of(kuhn))
        sym, min_eig = check_spd(H)
        assert sym <= 1e-13 and min_eig > 0


# Dyadic rationals, so the float inputs are the exact ones: the reference
# tet, a sheared tet stored with its last pair swapped (negative orientation
# as given), and an anisotropic SPD tensor.
_EXACT_TETS = {
    "reference": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "sheared": [[0, 0, 0], [0, 1, 0], [1, 0, 0], ["1/2", "1/4", "3/4"]],
}
_EXACT_TENSOR = [[2, "1/2", "1/4"], ["1/2", 3, "-1/8"], ["1/4", "-1/8", 1]]


def _exact_element_matrix(corners, p: int, tensor):
    """Exact integrals over one tet of w_a . W w_b for the degree-p Whitney
    forms of its edges or faces (vertices in increasing index order), as
    sympy rationals: each integrand is a polynomial in the reference
    coordinates, whose monomials integrate over the reference simplex to
    a! b! c! / (a + b + c + 3)!, scaled by |det J|."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x0:3")
    corners = [sympy.Matrix([sympy.Rational(c) for c in row]) for row in corners]
    jac = sympy.Matrix.hstack(*[c - corners[0] for c in corners[1:]])
    inv = jac.inv()
    grads = [-(inv[0, :] + inv[1, :] + inv[2, :]).T] + [inv[i, :].T for i in range(3)]
    lam = [1 - sum(x), *x]
    if p == 1:
        simplices = list(itertools.combinations(range(4), 2))
        forms = [lam[i] * grads[j] - lam[j] * grads[i] for i, j in simplices]
    else:
        simplices = list(itertools.combinations(range(4), 3))
        forms = [2 * (lam[i] * grads[j].cross(grads[k]) + lam[j] * grads[k].cross(grads[i])
                      + lam[k] * grads[i].cross(grads[j])) for i, j, k in simplices]
    w = sympy.Matrix([[sympy.Rational(c) for c in row] for row in tensor])

    def integral(expr):
        terms = sympy.Poly(sympy.expand(expr), *x).terms()
        return sum(coeff * sympy.prod(map(sympy.factorial, powers)) / sympy.factorial(sum(powers) + 3)
                   for powers, coeff in terms)

    volume = abs(jac.det())
    return {(s, t): volume * integral((forms[a].T * w * forms[b])[0])
            for a, s in enumerate(simplices) for b, t in enumerate(simplices)}


def _complex_kuhn_star(kuhn, basis):
    eps = 1.0 + 0.05j * np.linspace(0.0, 1.0, kuhn.n_tets)
    return assemble_hodge(kuhn, MaterialMap(eps=eps), "eps", basis)


# SHA-256 of the CSR arrays of M (as _star_digest hashes them) and
# repr(residual), for the eps star of jittered n=3 and the complex kuhn star,
# re-recorded when the element matrices became weighted gradient Grams
# times a constant moment table (the stars moved by rounding).
_SPAI_DIGESTS = {
    "jittered3/0": "b4a7f5fbdd47291ed14276e261343ec4f9f966306f18facbb83b161be20aacc2",
    "jittered3/1": "3902c7da170cf693346b9f148765174bf9f9931f5c54858ccec691150097c3e5",
    "jittered3/2": "a66e287930ca7045a69502fc2c7d49271622ebf07ad633b9464a3e76c106c3db",
    "jittered3/3": "e4c5da07b2d62f5ed054688a4cc7d251a59ee3c82aea5ec9af97b974d620c00d",
    "kuhn_complex/0": "656769d76946d883d7b3b1d8be496e75050c2f55e89ed19168255b56361dd529",
    "kuhn_complex/1": "f1c448460d35115322bf501ae879510f33ebdb32ee85b41422c4c882d9eec40b",
    "kuhn_complex/2": "f1c448460d35115322bf501ae879510f33ebdb32ee85b41422c4c882d9eec40b",
}


class TestExactOracle:
    def test_tet4_moments(self):
        # sum_q lam_i lam_j / 4 over the degree-2 rule: the exact moments
        # (1 + delta_ij) / 20 of a unit-volume tet, to 2 ulps.
        want = (1.0 + np.eye(4)) / 20.0
        assert np.all(np.abs(hodge._MOMENTS.sum(axis=0) - want) <= 2 * np.spacing(want))

    @pytest.mark.parametrize("tet", sorted(_EXACT_TETS))
    @pytest.mark.parametrize("p", [1, 2])
    def test_element_matrix_matches_exact_integrals(self, tet, p):
        corners = _EXACT_TETS[tet]
        exact = _exact_element_matrix(corners, p, _EXACT_TENSOR)
        verts = np.array([[float(Fraction(c)) for c in row] for row in corners])
        mesh = SimplicialComplex(verts, np.array([[0, 1, 2, 3]]))
        tensor = np.array([[float(Fraction(c)) for c in row] for row in _EXACT_TENSOR])
        elements = hodge._element_matrices(mesh, p, np.broadcast_to(tensor, (1, 3, 3)))
        simplices = [tuple(s) for s in mesh.simplices(p)[elements.ids[0]].tolist()]
        want = np.array([[float(exact[s, t]) for t in simplices] for s in simplices])
        assert np.abs(elements.local[0] - want).max() <= 4 * np.spacing(np.abs(want).max())


class TestSpai:
    def test_identity(self):
        I = sparse.eye(12, format="csr")
        M, res = spai_inverse(I, 0)
        assert res == 0.0
        assert np.abs(M.toarray() - np.eye(12)).max() == 0.0

    def test_diagonal_reciprocal(self):
        D = sparse.diags([2.0, 4.0, 5.0, 8.0]).tocsr()
        M, res = spai_inverse(D, 0)
        np.testing.assert_allclose(M.diagonal(), [0.5, 0.25, 0.2, 0.125])
        assert res <= 1e-14

    def test_residual_monotone_in_level(self, box3, basis_of):
        H = assemble_hodge(box3, MaterialMap(), "eps", basis_of(box3))
        residuals = [spai_inverse(H, k)[1] for k in range(4)]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-12
        assert residuals[3] < 1e-1 * residuals[0]

    def test_pattern_nesting(self, kuhn):
        # The pinwheel's axis edge has 145 neighbours, past an int8 count.
        for mesh in (kuhn, _pinwheel(48)):
            H = assemble_hodge(mesh, MaterialMap(), "eps")
            prev = None
            for k in range(3):
                pat = _neighbor_pattern(H, k).astype(np.int8)
                assert np.all(pat.diagonal() == 1)
                if prev is not None:
                    gained = (prev - (prev.multiply(pat))).nnz
                    assert gained == 0  # previous level contained in this one
                prev = pat

    def test_pattern_from_stored_positions(self, jittered3, basis_of):
        # An entry that cancels to 0 in exact arithmetic stays in the
        # pattern whatever its last bits: perturbed by 1e-16 of max|H|, or
        # set to exactly 0.0, H gives the same patterns and M moves by rounding only.
        H = assemble_hodge(jittered3, MaterialMap(), "eps", basis_of(jittered3))
        rng = np.random.default_rng(3)
        nudged = H.copy()
        nudged.data = H.data + 1e-16 * abs(H.data).max() * rng.uniform(-1.0, 1.0, H.nnz)
        zeroed = H.copy()
        off = np.flatnonzero(np.repeat(np.arange(H.shape[0]), np.diff(H.indptr)) != H.indices)
        zeroed.data[off[np.argmin(abs(H.data[off]))]] = 0.0
        assert (zeroed.data == 0.0).sum() == 1
        assert abs(H.data[off]).min() < 1e-12 * abs(H.data).max()  # cancelled in exact arithmetic
        for P in (nudged, zeroed):
            for k in range(3):
                want, got = _neighbor_pattern(H, k), _neighbor_pattern(P, k)
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
            M, _ = spai_inverse(H, 0)
            M_p, _ = spai_inverse(P, 0)
            assert np.array_equal(M_p.indptr, M.indptr) and np.array_equal(M_p.indices, M.indices)
            assert abs(M_p - M).max() <= 1e-10 * abs(M).max()

    def test_numpy_integer_level(self, kuhn, basis_of):
        H = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn))
        M, res = spai_inverse(H, np.int64(1))
        M_ref, res_ref = spai_inverse(H, 1)
        assert (M != M_ref).nnz == 0 and res == res_ref
        with pytest.raises(TypeError):
            spai_inverse(H, 1.0)

    def test_matches_lstsq_oracle(self, kuhn, box3, jittered3, annulus8, basis_of):
        for mesh in (kuhn, box3, jittered3, annulus8):
            H = assemble_hodge(mesh, MaterialMap(), "eps", basis_of(mesh))
            for k in range(4):
                _assert_matches_oracle(H, k)

    def test_complex_symmetric_star(self, kuhn, basis_of):
        H = _complex_kuhn_star(kuhn, basis_of(kuhn))
        assert np.iscomplexobj(H.data)
        for k in range(3):
            _assert_matches_oracle(H, k)

    @pytest.mark.parametrize("key", sorted(_SPAI_DIGESTS))
    def test_matches_golden_digest(self, key, jittered3, kuhn, basis_of):
        name, level = key.split("/")
        if name == "jittered3":
            H = assemble_hodge(jittered3, MaterialMap(), "eps", basis_of(jittered3))
        else:
            H = _complex_kuhn_star(kuhn, basis_of(kuhn))
        M, residual = spai_inverse(H, int(level))
        digest = hashlib.sha256(_star_digest(M).encode() + repr(residual).encode())
        assert digest.hexdigest() == _SPAI_DIGESTS[key]

    def test_singular_block_rejected(self):
        # The rank-2 block's normal matrix passes a plain Cholesky
        # factorization; the condition estimate rejects it.
        for rows in ([[1, 1], [1, 1]], [[8, -4, -6], [-4, 10, 1], [-6, 1, 5]]):
            H = sparse.csr_matrix(np.array(rows, dtype=float))
            for solve in (spai_inverse, spai_lstsq_loop):
                with pytest.raises(np.linalg.LinAlgError, match="singular restricted"):
                    solve(H, 0)

    def test_near_singular_block_rejected(self):
        # cond(H) ~ 4e10: the SVD rank rule keeps it, the normal equations
        # cannot resolve it.
        H = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]]))
        spai_lstsq_loop(H, 0)
        with pytest.raises(np.linalg.LinAlgError, match="singular restricted"):
            spai_inverse(H, 0)

    def test_empty_column_rejected(self):
        H = sparse.csr_matrix(np.array([[2.0, 0.0], [0.0, 0.0]]))
        for solve in (spai_inverse, spai_lstsq_loop):
            with pytest.raises(np.linalg.LinAlgError, match="column 1: unit vector"):
                solve(H, 0)


class TestSpdCheck:
    def test_flags_asymmetry(self, kuhn, basis_of):
        H = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)).tolil()
        H[0, 1] += 0.01
        sym, _ = check_spd(H.tocsr())
        assert sym > 1e-6

    def test_flags_indefiniteness(self, kuhn, basis_of):
        # At -1.0 the eigenvalue nearest zero is positive (0.038) while
        # lambda_min is -1.005: inverse iteration alone certified it.
        Hmu = assemble_hodge(kuhn, MaterialMap(), "mu_inv", basis_of(kuhn))
        for value in (-1e-3, -1.0):
            H = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)).tolil()
            H[3, 3] = value
            H = H.tocsr()
            sym, min_eig = check_spd(H)
            assert min_eig < 0
            assert min_eig >= np.linalg.eigvalsh(H.toarray()).min() - 1e-12
            failing = [c.name for c in audit_hodge(H, Hmu, kuhn).checks if not c.passed]
            assert "eps star positive definite" in failing

    def test_matches_dense_lambda_min(self, all_meshes, basis_of):
        # Shift-invert Lanczos; the inverse iteration it replaced was off
        # by up to 5e-4 relative (jittered3 eps).
        for name, mesh in all_meshes.items():
            for which in ("eps", "mu_inv"):
                H = assemble_hodge(mesh, MaterialMap(), which, basis_of(mesh))
                lam_min = np.linalg.eigvalsh(H.toarray()).min()
                _, min_eig = check_spd(H)
                assert abs(min_eig - lam_min) <= 1e-10 * lam_min, (name, which)

    def test_unconverged_lanczos_reports_nan(self, box3, basis_of, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(hodge, "eigsh", stalled)
        H = assemble_hodge(box3, MaterialMap(), "eps", basis_of(box3))
        sym, min_eig = check_spd(H)
        assert sym == 0.0 and np.isnan(min_eig)

    def test_unconverged_lanczos_keeps_negative_witness(self, box3, basis_of, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(hodge, "eigsh", stalled)
        H = assemble_hodge(box3, MaterialMap(), "eps", basis_of(box3)).tolil()
        H[3, 3] = -1.0
        _, min_eig = check_spd(H.tocsr())
        assert np.isfinite(min_eig) and min_eig < 0

    def test_zero_pivot_not_certified(self):
        # Eigenvalues -1.28 and 0.78; the zero diagonal forces an
        # off-diagonal pivot, so no proof and no positive value.
        H = sparse.csr_matrix(np.array([[-0.5, 1.0], [1.0, 0.0]]))
        assert check_spd(H)[1] <= 0.0

    def test_singular_factor_fails_the_audit_row(self, kuhn, basis_of):
        # SuperLU finds both factors exactly singular; the estimate is 0.0
        # (lambda_min <= 0) and the audit row fails instead of raising.
        H = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)).tolil()
        H[1, :] = H[0, :]
        H[:, 1] = H[:, 0]
        H = H.tocsr()
        assert check_spd(sparse.csr_matrix(np.ones((2, 2)))) == (0.0, 0.0)
        assert check_spd(H) == (0.0, 0.0)
        report = run_full_audit(kuhn, Heps=H)
        rows = {c.name: c for s in report.sections for c in s.checks}
        row = rows["eps star positive definite"]
        assert not row.passed and "near-indefinite" in row.detail and not report.passed


def _assert_bound_below_dense(mesh, materials=None):
    for which in ("eps", "mu_inv"):
        elements = star_elements(mesh, materials, which)
        bound = elements.lower_bound()
        lam_min = np.linalg.eigvalsh(elements.assemble().toarray()).min()
        assert bound <= lam_min, (which, bound, lam_min)


def _star_digest(H) -> str:
    h = hashlib.sha256()
    for a in (H.indptr, H.indices, H.data):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_STAR_MESHES = {
    "kuhn": generators.kuhn_cube,
    "box4": lambda: generators.box_mesh(4),
    "annulus8": lambda: generators.annulus_mesh(8),
    "jittered6": lambda: generators.jittered_box_mesh(6, seed=5),
    "waveguide": lambda: generators.box_mesh(4, 4, 24, lengths=(1.0, 1.0, 6.0)),
}

# Digests of the assembled stars' CSR arrays (float bytes included, numpy
# 2.4 and its bundled OpenBLAS on x86-64), re-recorded when the element
# matrices became weighted gradient Grams times a constant moment table;
# the stars feed the simulation, so nothing else may move them.
_STAR_DIGESTS = {
    "kuhn/eps": "75f63fd82fc871251ce2c294547749a5ed6a120bf7bd4f66f98f43c01ec8c560",
    "kuhn/mu_inv": "7ea03c586e39ef26eafd1dfa198c12b1260e55e92b53f1454b46df69200e3e4e",
    "box4/eps": "9fdde3b33104d4779471faf2dd0e036d48ca35b22e7231581e7dacf2c09dbb22",
    "box4/mu_inv": "336e239b4d37af18a34a195a9d06b460851367f5f38a40d506d2226c5a8a5069",
    "annulus8/eps": "8e72d38a5c2fbc7e7b60e5d5f46b16a339ee35063cfd1c64a7842bc56720632c",
    "annulus8/mu_inv": "51814c9b30f0071611f9904258a80846d086e1e1b4160103dc704c924825ff72",
    "jittered6/eps": "301dd219738bfaf616599e12b03c30b0790b28288618e2c89b320598ff834ae6",
    "jittered6/mu_inv": "76e00863930435625299bc15d0888545ccca3086ac4f0dfef8337f09f2df4046",
}


# The Galerkin-dual pair and two stretched pairs (omega = 2) under
# MaterialMap(eps=2.0, mu=1.5), re-recorded with the stars above.
_MATERIAL_DIGESTS = {
    "kuhn/eps_inv": "53a9fec6b85c6853dbb0c0bf8fae2ae6541e0d63d61ac824e5bbb62bf3ea58f7",
    "kuhn/mu": "b322e000878d3eddac62c38115a28a7a8eddc311a0c7206434dd088c78a3954c",
    "kuhn/pml_z/eps": "46af2cb21f5913394540da3ed3bbcd9c3c89f3c5c986fed0a7f24eae76ebb352",
    "kuhn/pml_z/mu_inv": "a4a3fb5c6231a6ff48e12764ea3bfd94d5f6fc9dcfbdd23496bb4223ef9b3336",
    "kuhn/pml_x/eps": "950dce22cafff2f588fd37e840c5c3bfc775084f84108b1f6d692e6a97474d1c",
    "kuhn/pml_x/mu_inv": "91910f30229a9e623877f689cc4140275cf77c6950b52b15cfc23f36cfda1365",
    "box4/eps_inv": "adc2b41d5a9448211a0d8c2f8afefd65f1cca720c52a4c7bade0299fa31fcbbd",
    "box4/mu": "6f3228a05f03b06436da8f1990958a88834a272587a4da229478344f859b4425",
    "box4/pml_z/eps": "56693d817cca20e326ac7f817303416361e3120f40e5430b6b907fbe13808057",
    "box4/pml_z/mu_inv": "0fcfd49b613300c9d762dac4f6d3062c9d37db2f05a13dbfd5a3273df4a48abb",
    "box4/pml_x/eps": "e30509f442b7af98e8313da38f6f2c1db45759f1b393a1bf3484d3a6a65f3bdf",
    "box4/pml_x/mu_inv": "af2beaca91875985b935f21474f91fa52b16a49b6013686f0e47e37f4ba3a081",
}
# The stretched pair of the default `declat pml --sweep` waveguide (the
# criterion 9 guide: box_mesh(4, 4, 24) of length 6, slab 4.5-6.0, omega
# 1.4 pi, unit materials) at omega_max 2 and 16, re-recorded with the
# stars above.
_SWEEP_DIGESTS = {
    "waveguide/2/eps": "ffcb459522502521dbcfcacebacb7d9ddee597b311df8df770709db68447e73a",
    "waveguide/2/mu_inv": "49dfdb28d5b87841d9e829462dcced9bc9c56af73664f620102e56e1b23a799e",
    "waveguide/16/eps": "e3ea694606832149bff0677558cca62d6ca384de423ff2b4459d9c39a330d4da",
    "waveguide/16/mu_inv": "6bb52392a9d8d53a68b912717da844bed4fafd4775ad9340bba4bbc00da8115e",
}
_GOLDEN_DIGESTS = {**_STAR_DIGESTS, **_MATERIAL_DIGESTS, **_SWEEP_DIGESTS}
_PROFILES = {
    "pml_z": StretchProfile(2, 0.5, 1.0, omega_max=4.0),
    "pml_x": StretchProfile(0, 0.25, 1.0, omega_max=2.0, a_max=1.5, order=1),
}


def _golden_star(key: str):
    name, *star = key.split("/")
    mesh = _STAR_MESHES[name]()
    if key in _STAR_DIGESTS:
        return assemble_hodge(mesh, MaterialMap(), star[0])
    materials = MaterialMap(eps=2.0, mu=1.5)
    if star[0] in ("eps_inv", "mu"):
        return assemble_galerkin_dual(mesh, materials)[star[0] == "mu"]
    if name == "waveguide":
        profile = StretchProfile(2, 4.5, 6.0, omega_max=float(star[0]))
        stars = assemble_stretched(mesh, None, profile, 1.4 * np.pi)
    else:
        stars = assemble_stretched(mesh, materials, _PROFILES[star[0]], 2.0)
    return stars[star[1] != "eps"]


class TestElementBound:
    @pytest.mark.parametrize("key", sorted(_GOLDEN_DIGESTS))
    def test_assembled_star_matches_golden_digest(self, key):
        assert _star_digest(_golden_star(key)) == _GOLDEN_DIGESTS[key]

    def test_below_dense_lambda_min(self, all_meshes):
        for name, mesh in all_meshes.items():
            _assert_bound_below_dense(mesh)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-7])
    def test_below_dense_lambda_min_on_slivers(self, delta):
        _assert_bound_below_dense(generators.sliver_mesh(delta))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0))
    def test_below_dense_lambda_min_jittered(self, seed, spread):
        # Per-tet scalar materials over up to six decades.
        mesh = generators.jittered_box_mesh(3, seed=seed)
        rng = np.random.default_rng(seed)
        eps, mu = 10.0 ** rng.uniform(-spread, spread, (2, mesh.n_tets))
        _assert_bound_below_dense(mesh, MaterialMap(eps=eps, mu=mu))

    def test_tight_on_uniform_faces(self, kuhn):
        # The six Kuhn tets are congruent, so their whitened mu-inverse
        # element matrices share one spectrum, and the bound misses
        # lambda_min = 1/3 only by its rounding allowance.
        bound = star_elements(kuhn, None, "mu_inv").lower_bound()
        assert 1 / 3 - 1e-13 < bound < 1 / 3

    def test_complex_elements_rejected(self, kuhn):
        with pytest.raises(ValueError, match="real symmetric"):
            star_elements(kuhn, MaterialMap(eps=1.0 + 0.1j), "eps").lower_bound()


def _block_outputs(mesh, materials, basis):
    """Element matrices, CSR arrays and bounds of the four stars, and the
    stretched pair, as bytes."""
    out = []
    for which in ("eps", "mu_inv", "eps_inv", "mu"):
        elements = star_elements(mesh, materials, which, basis)
        out.append(elements.local.tobytes())
        if not np.iscomplexobj(elements.local):
            out.append(repr(elements.lower_bound()))
        H = elements.assemble()
        out += [H.indptr.tobytes(), H.indices.tobytes(), H.data.tobytes()]
    profile = StretchProfile(2, 0.3, 1.0, omega_max=4.0, a_max=1.5)
    for H in assemble_stretched(mesh, materials, profile, 2.0, basis):
        out += [H.indptr.tobytes(), H.indices.tobytes(), H.data.tobytes()]
    return out


class TestTetBlocks:
    @pytest.mark.parametrize("name", ["annulus8", "jittered3"])
    @pytest.mark.parametrize("kind", ["scalar", "per_tet", "tensor", "complex"])
    def test_block_boundaries_bit_identical(self, all_meshes, basis_of, monkeypatch, name, kind):
        mesh = all_meshes[name]
        m = mesh.n_tets
        rng = np.random.default_rng(11)
        a = rng.standard_normal((m, 3, 3))
        materials = {
            "scalar": MaterialMap(eps=2.0, mu=1.5),
            "per_tet": MaterialMap(eps=rng.uniform(0.5, 4.0, m), mu=rng.uniform(0.5, 4.0, m)),
            "tensor": MaterialMap(eps=a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3), mu=np.eye(3)),
            "complex": MaterialMap(eps=1.0 + 0.05j * rng.uniform(0.0, 1.0, m), mu=1.5),
        }[kind]
        basis = basis_of(mesh)
        monkeypatch.setattr(hodge, "_TET_BLOCK", m)
        want = _block_outputs(mesh, materials, basis)
        for block in (1, 7, m - 1):
            monkeypatch.setattr(hodge, "_TET_BLOCK", block)
            assert _block_outputs(mesh, materials, basis) == want, block

    @settings(max_examples=20)
    @given(entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
           shift=st.floats(1e-3, 10.0))
    def test_uniform_tensor_matches_explicit_per_tet(self, jittered3, basis_of, entries, shift):
        a = np.reshape(entries, (3, 3))
        t = a @ a.T
        t = 0.5 * (t + t.T) + shift * np.eye(3)  # exactly symmetric, SPD
        per_tet = np.repeat(t[None], jittered3.n_tets, axis=0)
        basis = basis_of(jittered3)
        for which in ("eps", "mu_inv"):
            one = star_elements(jittered3, MaterialMap(eps=t, mu=t), which, basis).assemble()
            each = star_elements(jittered3, MaterialMap(eps=per_tet, mu=per_tet), which,
                                 basis).assemble()
            for x, y in ((one.indptr, each.indptr), (one.indices, each.indices),
                         (one.data, each.data)):
                assert x.tobytes() == y.tobytes(), which

    @pytest.mark.parametrize("which", ["eps", "mu_inv"])
    def test_transient_memory_one_block(self, monkeypatch, which):
        # tracemalloc counts numpy's allocations exactly, so the peak is
        # deterministic: the retained matrices plus a few blocks' arrays, where
        # one whole-mesh block (box8, 3,072 tets) needs more.  Per tet, a block
        # holds the k factor vectors F and F W (k x 3 each), the Gram (k x k),
        # the table product (2 n_up: both stored orientations) and the chosen
        # triangle (n_up), plus temporaries (the cross products' gathers, the
        # reshaped weight) counted as one more k x k.
        mesh = generators.box_mesh(8)
        basis = WhitneyBasis(mesh)
        block = 512
        n_loc, k = (6, 4) if which == "eps" else (4, 6)
        n_up = n_loc * (n_loc + 1) // 2
        arrays = block * (3 * k + 3 * k + 2 * k * k + 3 * n_up) * 8
        peaks = {}
        for size in (block, mesh.n_tets):
            monkeypatch.setattr(hodge, "_TET_BLOCK", size)
            star_elements(mesh, None, which, basis)  # the basis's lazy tables
            tracemalloc.start()
            try:
                elements = star_elements(mesh, None, which, basis)
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = elements.local.nbytes + elements.ids.nbytes + 3 * arrays
        assert peaks[block] < bound < peaks[mesh.n_tets]


class TestDualPairing:
    def test_degree_zero_closed_form(self, single_tet, basis_of):
        # Exact subdivision integrals on one tet: the pairing matrix is
        # V (52 I + 23) / 576, not the identity; frozen from the affine
        # closed form (sub-tet volumes V/24, vertex values 1, 1/2, 1/3, 1/4).
        dual = DualComplex(single_tet)
        V = single_tet.volumes[0]
        dev, entries = dual_pairing_check(single_tet, dual, 0, basis_of(single_tet))
        for i in range(4):
            for j in range(4):
                want = 25 * V / 192 if i == j else 23 * V / 576
                assert abs(entries[(i, j)] - want) <= 1e-14
        assert abs(dev - (1.0 - 25 * V / 192)) <= 1e-14

    def test_degree_three_reciprocal_volume(self, kuhn, basis_of):
        dual = DualComplex(kuhn)
        dev, entries = dual_pairing_check(kuhn, dual, 3, basis_of(kuhn))
        for t in range(kuhn.n_tets):
            assert abs(entries[(t, t)] - 1.0 / kuhn.volumes[t]) <= 1e-12

    def test_degree_one_positive_diagonal(self, single_tet, basis_of):
        dual = DualComplex(single_tet)
        _, entries = dual_pairing_check(single_tet, dual, 1, basis_of(single_tet))
        for e in range(single_tet.n_edges):
            assert entries[(e, e)] > 0  # dual faces oriented along their edges

    def test_pairing_scales_with_mesh(self, basis_of):
        # The raw pairing is metric: doubling all coordinates scales the
        # degree-0 entries by 8.
        base = generators.single_tet()
        big = generators.SimplicialComplex(base.vertices * 2.0, base.tets)
        _, e1 = dual_pairing_check(base, DualComplex(base), 0)
        _, e2 = dual_pairing_check(big, DualComplex(big), 0)
        assert abs(e2[(0, 0)] - 8.0 * e1[(0, 0)]) <= 1e-13


def test_coo_roundtrip(tmp_path, kuhn, basis_of):
    H = assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn))
    # -0.0, subnormals and 1e+-300, real and complex, stored explicitly.
    special = np.array([-0.0, 5e-324, -2.5e-310, 1e-300, -1e300, 1.7976931348623157e308, 1 / 3])
    rows, cols = np.array([0, 0, 1, 2, 2, 3, 4]), np.array([1, 4, 0, 2, 3, 3, 0])
    real = sparse.csr_matrix((special, (rows, cols)), shape=(5, 6))
    cplx = sparse.csr_matrix((special + 1j * special[::-1], (rows, cols)), shape=(5, 6))
    mixed = sparse.csr_matrix((np.where(special > 0, special + 1j, special), (rows, cols)),
                              shape=(5, 6))  # some entries real-valued
    for M in (H, real, cplx, mixed):
        path = tmp_path / "h.coo"
        write_coo(M, path)
        head = path.read_text().splitlines()[0].split()
        assert head[0] == "declat-coo"
        back = read_coo(path)
        assert back.dtype == M.dtype and back.shape == M.shape
        assert np.array_equal(back.indptr, M.indptr) and np.array_equal(back.indices, M.indices)
        assert back.data.tobytes() == M.data.tobytes()  # bit for bit


def test_read_coo_rejects_short_body(tmp_path, kuhn, basis_of):
    path = tmp_path / "h.coo"
    write_coo(assemble_hodge(kuhn, MaterialMap(), "eps", basis_of(kuhn)), path)
    lines = path.read_text().splitlines()
    nnz = int(lines[0].split()[3])
    assert len(lines) == 1 + nnz
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ValueError, match=f"{nnz} entries"):
        read_coo(path)
    # One entry short, padded to nnz lines by a blank line that the parser skips.
    path.write_text("\n".join(lines[:3] + [""] + lines[3:-1]) + "\n")
    with pytest.raises(ValueError, match=f"{nnz} entries, the body holds {nnz - 1}"):
        read_coo(path)


@pytest.mark.parametrize("older_numpy", [False, True], ids=["numpy", "warn-and-truncate"])
def test_read_coo_rejects_float_index(tmp_path, monkeypatch, older_numpy):
    if older_numpy:
        monkeypatch.setattr(np, "loadtxt", loadtxt_that_warns(np.loadtxt))
    path = tmp_path / "h.coo"
    path.write_text("declat-coo 3 3 2\n0 0 1.0\n0 2.7 1.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no error filter, as outside the test suite
        with pytest.raises(ValueError, match="'2.7' to int64"):
            read_coo(path)


@pytest.mark.parametrize("key", ["kuhn/eps", "box4/mu_inv", "jittered6/eps", "kuhn/pml_z/eps",
                                 "kuhn/pml_x/mu_inv", "box4/pml_z/eps", "waveguide/16/eps"])
@settings(max_examples=4)
@given(seed=st.integers(0, 2**32 - 1))
def test_symmetry_deviation_matches_multiply_oracle(key, seed):
    # Bit for bit, on real and complex (PML) stars as assembled, and with
    # an asymmetric perturbation and stored zeros on their pattern.
    H = _golden_star(key).tocsr()
    assert symmetry_deviation(H) == symmetry_deviation_multiply(H)
    rng = np.random.default_rng(seed)
    P = H.copy()
    P.data = P.data * (1.0 + 1e-6 * rng.standard_normal(P.nnz))
    P.data[rng.random(P.nnz) < 0.05] = 0.0
    dev = symmetry_deviation(P)
    assert dev > 0.0 and dev == symmetry_deviation_multiply(P)
