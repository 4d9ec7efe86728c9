import numpy as np
import pytest

from helpers import (
    evaluate,
    random_bracket,
    random_hermitian,
    random_unitary,
    reference_action_matrix,
)
from leibcrit.bracket import Bracket, _base_change, gl_act, inf_act
from leibcrit.linalg import (
    RANK_RTOL,
    _nullspace,
    _span,
    _subspace_product,
    _unit_coeffs,
    derivation_space,
    hermitian_eigen,
    is_hermitian,
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
            op = reference_action_matrix(mu)
            assert op.shape == (n**3, n * n)
            for _ in range(3):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                np.testing.assert_allclose(
                    op @ a.ravel(), inf_act(a, mu).coeffs.ravel(), atol=1e-12 * mu.norm * np.linalg.norm(a)
                )


class TestDerivationSpace:
    def test_zero_bracket_everything(self):
        assert len(derivation_space(Bracket.zero(2))) == 4

    def test_zero_dim_has_none(self):
        assert derivation_space(Bracket.zero(0)) == []

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
        for a in derivation_space(mu):
            assert inf_act(a, mu).norm <= 1e-9 * mu.norm

    def test_leibniz_rule_on_basis_pairs(self):
        tol = 1e-9
        for mu in (NONLIE2, HEIS, S1):
            for d in derivation_space(mu):
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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^expected a square matrix$"):
            hermitian_eigen(np.zeros((2, 3)))

    def test_verdict_does_not_depend_on_scale(self):
        nilpotent, symmetric = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 2.0], [2.0, 3.0]])
        scales = [10.0**k for k in range(-40, 41)]
        assert [s for s in scales if is_hermitian(s * nilpotent)] == []
        assert [s for s in scales if not is_hermitian(s * symmetric)] == []


class TestSpan:
    def test_rank(self, rng):
        v = rng.standard_normal((4, 1))
        m = np.hstack([v, 2 * v, v + 1e-16 * rng.standard_normal((4, 1))])
        assert _span(m).shape == (4, 1)

    def test_zero_span(self):
        assert _span(np.zeros((3, 5))).shape == (3, 0)
        assert _span(np.zeros((3, 0))).shape == (3, 0)

    def test_cut_is_absolute(self):
        # products on a unit product: a singular value at RANK_RTOL or below is
        # round-off however large the others are
        for big in (1.0, 1e9):
            assert _span(np.diag([big, 2 * RANK_RTOL, RANK_RTOL])).shape == (3, 2)


class TestSubspaceProduct:
    def test_lie2_image(self):
        full = np.eye(2)
        img = _subspace_product(_unit_coeffs(LIE2), full, full)
        assert img.shape == (2, 1)
        np.testing.assert_allclose(np.abs(img[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_rank_zero_factor(self):
        assert _subspace_product(_unit_coeffs(LIE2), np.zeros((2, 0)), np.eye(2)).shape == (2, 0)

    def test_s1_image(self):
        img = _subspace_product(_unit_coeffs(S1), np.eye(3), np.eye(3))
        assert img.shape == (3, 1)
        np.testing.assert_allclose(np.abs(img[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_rank_does_not_depend_on_scale(self):
        full = np.eye(3)
        ranks = {k: _subspace_product(_unit_coeffs(Bracket(3, 10.0**k * S1.coeffs)), full, full).shape[1]
                 for k in range(-40, 41)}
        assert {k: r for k, r in ranks.items() if r != 1} == {}

    def test_monotone(self, rng):
        c = _unit_coeffs(random_bracket(4, rng))
        u_small = _span(rng.standard_normal((4, 2)))
        w_small = _span(rng.standard_normal((4, 1)))
        inner = _subspace_product(c, u_small, w_small)
        outer = _subspace_product(c, np.eye(4), np.eye(4))
        d = inner - outer @ outer.conj().T @ inner
        assert np.linalg.norm(d) <= 1e-10 * max(1.0, np.linalg.norm(inner))


def compress(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients c compressed to the orthonormal columns b."""
    return _base_change(b.conj().T, b, c)


class TestRestrict:
    def test_restriction_of_invariant_subspace(self):
        # span{e2, e3} is a subalgebra of S1 containing the only product
        r = compress(_unit_coeffs(S1), np.eye(3, dtype=complex)[:, [0, 2]])
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[1, 1, 0] = 1.0
        np.testing.assert_allclose(r, expected, atol=1e-14)

    def test_unitary_conjugation_consistency(self, rng):
        c = _unit_coeffs(random_bracket(3, rng))
        np.testing.assert_allclose(compress(c, np.eye(3)), c, atol=1e-14)
