import numpy as np
import pytest

from helpers import evaluate, random_bracket, random_hermitian, random_unitary
from leibcrit.bracket import Bracket, gl_act, inf_act
from leibcrit.linalg import (
    Subspace,
    _action_matrix,
    _nullspace,
    derivation_space,
    hermitian_eigen,
    is_hermitian,
    restrict,
    subspace_product,
)
from leibcrit.moment import moment_matrix

LIE2 = Bracket.from_entries(2, {(1, 2, 2): 1}, antisymmetrize=True)
NONLIE2 = Bracket.from_entries(2, {(1, 1, 2): 1})
HEIS = Bracket.from_entries(3, {(1, 2, 3): 1}, antisymmetrize=True)
S1 = Bracket.from_entries(3, {(3, 3, 1): 1})


class TestNullspace:
    TOL = 1e-10

    def check(self, m, expected_dim):
        null = _nullspace(m, abs_tol=self.TOL)
        assert null.shape == (m.shape[1], expected_dim)
        np.testing.assert_allclose(null.conj().T @ null, np.eye(expected_dim), atol=1e-12)
        assert np.linalg.norm(m @ null, axis=0).max(initial=0.0) <= self.TOL

    def test_wide_rank_deficient(self, rng):
        # 2 x 5 of rank 2: the thin SVD alone would miss all 3 null vectors
        self.check(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)), 3)

    def test_wide_rank_one(self, rng):
        v = rng.standard_normal((3, 1))
        self.check(v @ rng.standard_normal((1, 6)), 5)

    def test_tall(self, rng):
        # 6 x 4 of rank 2
        m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        self.check(m.astype(complex), 2)

    def test_tall_full_rank(self, rng):
        self.check(rng.standard_normal((7, 3)), 0)

    def test_empty(self):
        self.check(np.zeros((0, 3)), 3)
        self.check(np.zeros((4, 0)), 0)


class TestActionMatrix:
    def test_matches_inf_act(self, rng):
        for n in (1, 2, 3, 4):
            mu = random_bracket(n, rng)
            op = _action_matrix(mu)
            assert op.shape == (n**3, n * n)
            for _ in range(3):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                np.testing.assert_allclose(
                    op @ a.ravel(), inf_act(a, mu).coeffs.ravel(), atol=1e-12 * mu.norm * np.linalg.norm(a)
                )


class TestDerivationSpace:
    def test_zero_bracket_everything(self):
        assert len(derivation_space(Bracket.zero(2))) == 4

    def test_nonlie2_dim_and_members(self):
        # hand-solved: the span of diag(1, 2) and the nilpotent map e1 -> e2
        ders = derivation_space(NONLIE2)
        assert len(ders) == 2
        nilp = np.zeros((2, 2), dtype=complex)
        nilp[1, 0] = 1.0
        for member in (np.diag([1.0 + 0j, 2.0]), nilp):
            proj = sum(a * np.vdot(a, member) for a in ders)
            assert np.linalg.norm(proj - member) < 1e-10

    def test_heisenberg_dim(self):
        assert len(derivation_space(HEIS)) == 6

    def test_every_member_annihilates(self, rng):
        mu = random_bracket(3, rng)
        for a in derivation_space(mu, tol=1e-9):
            assert inf_act(a, mu).norm <= 1e-9 * mu.norm

    def test_leibniz_rule_on_basis_pairs(self):
        tol = 1e-9
        for mu in (NONLIE2, HEIS, S1):
            for d in derivation_space(mu, tol):
                for i in range(mu.dim):
                    for j in range(mu.dim):
                        ei = np.eye(mu.dim)[:, i]
                        ej = np.eye(mu.dim)[:, j]
                        defect = (
                            d @ evaluate(mu, ei, ej)
                            - evaluate(mu, d @ ei, ej)
                            - evaluate(mu, ei, d @ ej)
                        )
                        assert np.linalg.norm(defect) < 10 * tol

    def test_dim_unitary_invariant(self, rng):
        for n in (2, 3):
            mu = random_bracket(n, rng)
            k = random_unitary(n, rng)
            assert len(derivation_space(gl_act(k, mu))) == len(derivation_space(mu))

    def test_orthonormal_under_trace_pairing(self, rng):
        ders = derivation_space(HEIS)
        for i, a in enumerate(ders):
            for j, b in enumerate(ders):
                assert np.vdot(b, a) == pytest.approx(float(i == j), abs=1e-12)


class TestHermitianEigen:
    def test_diagonal(self):
        w, u = hermitian_eigen(np.diag([-4.0, 0.0]))
        np.testing.assert_allclose(w, [-4.0, 0.0])
        np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, np.diag([-4.0, 0.0]))

    def test_moment_matrix_of_nonlie2(self):
        w, _ = hermitian_eigen(moment_matrix(NONLIE2))
        np.testing.assert_allclose(w, [-4.0, 2.0], atol=1e-12)

    def test_reconstruction(self, rng):
        h = random_hermitian(5, rng)
        w, u = hermitian_eigen(h)
        assert np.linalg.norm(u @ np.diag(w) @ u.conj().T - h) < 1e-10 * np.linalg.norm(h)
        assert np.all(np.diff(w) >= 0)

    def test_eigenvalue_sum_is_trace(self, rng):
        mu = random_bracket(4, rng)
        m = moment_matrix(mu)
        w, _ = hermitian_eigen(m)
        assert w.sum() == pytest.approx(np.trace(m).real, rel=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_verdict_does_not_depend_on_scale(self):
        nilpotent, symmetric = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 2.0], [2.0, 3.0]])
        scales = [10.0**k for k in range(-40, 41)]
        assert [s for s in scales if is_hermitian(s * nilpotent)] == []
        assert [s for s in scales if not is_hermitian(s * symmetric)] == []


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0], [1.0]]))

    def test_from_span_rank(self, rng):
        v = rng.standard_normal((4, 1))
        m = np.hstack([v, 2 * v, v + 1e-16 * rng.standard_normal((4, 1))])
        s = Subspace.from_span(4, m)
        assert s.rank == 1

    def test_zero_span(self):
        assert Subspace.from_span(3, np.zeros((3, 5))).rank == 0

    def test_from_span_rank_is_scale_free(self):
        # rank is judged relative to the largest singular value alone
        ranks = {k: Subspace.from_span(3, 10.0**k * np.eye(3)).rank for k in range(-40, 41)}
        assert ranks == {k: 3 for k in range(-40, 41)}
        for k in (-40, 0, 40):
            assert Subspace.from_span(3, 10.0**k * np.diag([1.0, 1e-12, 0.0])).rank == 1


class TestSubspaceProduct:
    def test_lie2_image(self):
        full = Subspace.full(2)
        img = subspace_product(LIE2, full, full)
        assert img.rank == 1
        np.testing.assert_allclose(np.abs(img.basis[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_rank_zero_factor(self):
        assert subspace_product(LIE2, Subspace.zero(2), Subspace.full(2)).rank == 0

    def test_s1_image(self):
        img = subspace_product(S1, Subspace.full(3), Subspace.full(3))
        assert img.rank == 1
        np.testing.assert_allclose(np.abs(img.basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_rank_does_not_depend_on_scale(self):
        full = Subspace.full(3)
        ranks = {k: subspace_product(Bracket(3, 10.0**k * S1.coeffs), full, full).rank
                 for k in range(-40, 41)}
        assert {k: r for k, r in ranks.items() if r != 1} == {}

    def test_monotone(self, rng):
        mu = random_bracket(4, rng)
        u_small = Subspace.from_span(4, rng.standard_normal((4, 2)))
        w_small = Subspace.from_span(4, rng.standard_normal((4, 1)))
        full = Subspace.full(4)
        inner = subspace_product(mu, u_small, w_small)
        outer = subspace_product(mu, full, full)
        d = inner.basis - outer.projector() @ inner.basis
        assert np.linalg.norm(d) <= 1e-10 * max(1.0, np.linalg.norm(inner.basis))


class TestRestrict:
    def test_restriction_of_invariant_subspace(self):
        # span{e2, e3} is a subalgebra of S1 containing the only product
        sub = Subspace(np.eye(3, dtype=complex)[:, [0, 2]])
        r = restrict(S1, sub)
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[1, 1, 0] = 1.0
        np.testing.assert_allclose(r.coeffs, expected, atol=1e-14)

    def test_unitary_conjugation_consistency(self, rng):
        mu = random_bracket(3, rng)
        full = Subspace.full(3)
        np.testing.assert_allclose(restrict(mu, full).coeffs, mu.coeffs, atol=1e-14)
