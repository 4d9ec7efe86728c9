import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import direct_sum, evaluate, random_bracket, random_invertible, random_unitary
from leibcrit.bracket import Bracket, _identity_terms, check_identities, gl_act, inf_act
from leibcrit.catalog import get, standard_rows
from leibcrit.flow import descend, perturb_in_orbit
from leibcrit.moment import criticality_decompose
from leibcrit.structure import verify_structure_theorem

E2 = np.eye(2)
E3 = np.eye(3)

LIE2 = Bracket.from_entries(2, {(1, 2, 2): 1}, antisymmetrize=True)
NONLIE2 = Bracket.from_entries(2, {(1, 1, 2): 1})
NS2 = Bracket.from_entries(2, {(1, 2, 2): 1})
S1 = Bracket.from_entries(3, {(3, 3, 1): 1})


class TestBracketType:
    def test_rejects_nonfinite(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Bracket(2, c)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Bracket(2, np.zeros((2, 2, 3)))

    def test_rejects_negative_dim(self):
        with pytest.raises(ValueError, match="^dimension must be nonnegative$"):
            Bracket(-1, np.zeros((0, 0, 0)))

    def test_antisymmetric_table_rejects_equal_first_indices(self):
        msg = "^antisymmetric table cannot have equal first indices$"
        with pytest.raises(ValueError, match=msg):
            Bracket.from_entries(3, {(1, 1, 2): 1}, antisymmetrize=True)

    def test_coeffs_read_only(self):
        with pytest.raises(ValueError):
            LIE2.coeffs[0, 0, 0] = 1.0

    def test_norm_sq_zero_iff_zero(self):
        assert Bracket.zero(3).norm_sq == 0.0
        assert Bracket.zero(3).is_zero
        assert LIE2.norm_sq > 0 and not LIE2.is_zero

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 1e-300])
    def test_norm_outside_the_range_of_norm_sq(self, scale):
        # |mu|^2 overflows above about 1e154 and underflows below about 1e-162
        base = random_bracket(3, np.random.default_rng(7))
        mu = Bracket(3, scale * base.coeffs)
        assert not 1e-300 < mu.norm_sq < np.inf
        assert mu.norm == pytest.approx(scale * base.norm, rel=1e-14)
        assert np.linalg.norm(mu.normalized().coeffs) == pytest.approx(1.0, rel=1e-14)

    def test_from_entries_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Bracket.from_entries(2, {(1, 3, 1): 1})


class TestEvaluate:
    def test_lie2_basis_product(self):
        # [e1, e2] = e2
        np.testing.assert_allclose(evaluate(LIE2, E2[:, 0], E2[:, 1]), E2[:, 1])
        np.testing.assert_allclose(evaluate(LIE2, E2[:, 1], E2[:, 0]), -E2[:, 1])

    def test_zero_argument(self, rng):
        mu = random_bracket(3, rng)
        np.testing.assert_allclose(evaluate(mu, rng.standard_normal(3), np.zeros(3)), 0)

    def test_s1_square(self):
        np.testing.assert_allclose(evaluate(S1, E3[:, 2], E3[:, 2]), E3[:, 0])

    def test_bilinear(self, rng):
        mu = random_bracket(3, rng)
        x, y, z = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3))
        a = 0.3 - 1.4j
        lhs = evaluate(mu, a * x + z, y)
        rhs = a * evaluate(mu, x, y) + evaluate(mu, z, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestGlAct:
    def test_identity_acts_trivially(self, rng):
        mu = random_bracket(3, rng)
        np.testing.assert_array_equal(gl_act(np.eye(3), mu).coeffs, mu.coeffs)

    def test_scaling_example(self):
        # doubling the basis vector halves the single coefficient
        out = gl_act(2 * np.eye(2), NONLIE2)
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[0, 0, 1] = 0.5
        np.testing.assert_allclose(out.coeffs, expected)

    def test_action_property(self, rng):
        mu = random_bracket(3, rng)
        g = random_invertible(3, rng)
        h = random_invertible(3, rng)
        lhs = gl_act(g @ h, mu)
        rhs = gl_act(g, gl_act(h, mu))
        assert np.linalg.norm(lhs.coeffs - rhs.coeffs) < 1e-10 * mu.norm

    def test_unitary_preserves_norm(self, rng):
        mu = random_bracket(4, rng)
        k = random_unitary(4, rng)
        assert gl_act(k, mu).norm_sq == pytest.approx(mu.norm_sq, rel=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            gl_act(np.zeros((2, 2)), LIE2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=re.escape("g must be 2x2, got shape (3, 3)")):
            gl_act(np.eye(3), LIE2)

    def test_zero_dim_returns_the_product(self):
        mu = Bracket.zero(0)
        assert gl_act(np.zeros((0, 0)), mu) is mu

    def test_preserves_variety_membership(self, rng):
        mu = LIE2.normalized()
        assert check_identities(mu).left_residual < 1e-12
        for _ in range(5):
            g = random_invertible(2, rng)
            cond = np.linalg.cond(g)
            res = check_identities(gl_act(g, mu)).left_residual
            assert res < 1e-8 * cond**3


class TestInfAct:
    def test_identity_matrix_scales(self, rng):
        mu = random_bracket(3, rng)
        np.testing.assert_allclose(inf_act(np.eye(3), mu).coeffs, -mu.coeffs, atol=1e-14)

    def test_weighted_diagonal_is_derivation(self):
        assert inf_act(np.diag([1.0, 2.0]), NONLIE2).norm == 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=re.escape("matrix must be 2x2, got shape (2, 3)")):
            inf_act(np.zeros((2, 3)), NONLIE2)

    def test_lie2_term_expansion(self):
        out = inf_act(np.diag([1.0, 0.0]), LIE2)
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[0, 1, 1] = -1.0
        expected[1, 0, 1] = 1.0
        np.testing.assert_allclose(out.coeffs, expected)

    def test_linear_in_matrix(self, rng):
        mu = random_bracket(3, rng)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        lhs = inf_act(2.0 * a + b, mu).coeffs
        rhs = 2.0 * inf_act(a, mu).coeffs + inf_act(b, mu).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestIdentities:
    def test_nonlie2_symmetric_not_lie(self):
        r = check_identities(NONLIE2)
        assert r.is_symmetric_leibniz and not r.is_lie

    def test_ns2_left_only(self):
        r = check_identities(NS2)
        assert r.is_left_leibniz and not r.is_right_leibniz
        assert not r.is_symmetric_leibniz

    def test_zero_bracket_all_true(self):
        r = check_identities(Bracket.zero(3))
        assert r.left_residual == r.right_residual == 0.0
        assert r.is_lie and r.is_symmetric_leibniz

    def test_residuals_scale_invariant(self):
        r1 = check_identities(NS2)
        r2 = check_identities(Bracket(2, 77.0 * NS2.coeffs))
        assert r1.right_residual == pytest.approx(r2.right_residual, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e170, 1e300, 1e-170, 1e-300])
    def test_flags_at_extreme_scales(self, scale):
        # a product's identity flags do not depend on its scale, also where
        # |mu|^2 leaves the float range
        for entry in standard_rows():
            mu = entry.bracket
            scaled = check_identities(Bracket(mu.dim, scale * mu.coeffs))
            ref = check_identities(mu)
            for flag in ("is_left_leibniz", "is_right_leibniz", "is_symmetric_leibniz", "is_lie"):
                assert getattr(scaled, flag) == getattr(ref, flag), (entry.label, flag)

    def test_lie_implies_leibniz_residuals(self, rng):
        # anticommutativity + Jacobi residuals below tol force both Leibniz
        # residuals below 10 tol
        for mu in (LIE2, Bracket.from_entries(3, {(1, 2, 3): 1}, antisymmetrize=True)):
            r = check_identities(mu)
            tol = max(r.anticommutativity_residual, r.jacobi_residual, 1e-16)
            assert r.left_residual < 10 * tol
            assert r.right_residual < 10 * tol

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            check_identities(LIE2, tol=0.0)

    def test_memory_bounded_at_n20(self):
        # six (n, n, n, n) einsum products peaked at 15.8 MB traced here; two
        # matrix products and their permuted views at 9.2 MB
        mu = perturb_in_orbit(get("mu_he", n=20).bracket, 0.5, seed=1)
        tracemalloc.start()
        try:
            check_identities(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def leibniz_precondition_cases() -> list:
    cases = [pytest.param(e.bracket, id=f"row-{i}-{e.label}") for i, e in enumerate(standard_rows())]
    cases += [pytest.param(Bracket(e.bracket.dim, np.exp(0.25j * np.pi) * e.bracket.coeffs),
                           id=f"row-{i}-{e.label}-phase") for i, e in enumerate(standard_rows())]
    for n in range(2, 9):
        for seed in range(2):
            mu = random_bracket(n, np.random.default_rng([n, seed, 5]))
            cases.append(pytest.param(mu, id=f"random({n})/seed{seed}"))
    # S5(alpha) is right Leibniz only; its left residual is alpha^2/2 on the unit product
    for alpha_sq in (1e-10, 1.9e-9, 2.1e-9, 1e-8):
        mu = get("S5", {"alpha": np.sqrt(alpha_sq)}).bracket
        cases.append(pytest.param(mu, id=f"S5(alpha^2={alpha_sq:g})"))
    return cases + [pytest.param(Bracket.zero(3), id="zero(3)")]


@pytest.mark.parametrize("mu", leibniz_precondition_cases())
def test_leibniz_precondition_matches_check_identities(mu):
    # the structure checks' precondition reads the residuals mu keeps from its
    # first check; a fresh copy of mu computes them again, bit for bit
    kept = check_identities(mu)
    fresh = Bracket(mu.dim, mu.coeffs)
    assert mu._identity_residuals == fresh._identity_residuals
    assert check_identities(fresh) == kept


def test_leibniz_precondition_cases_straddle_the_cut():
    verdicts = {check_identities(p.values[0]).is_symmetric_leibniz
                for p in leibniz_precondition_cases() if p.id.startswith("S5")}
    assert verdicts == {True, False}


@pytest.mark.parametrize("mu", [
    pytest.param(S1, id="S1"),
    pytest.param(gl_act(random_unitary(6, np.random.default_rng(0)), get("mu_sy", n=6).bracket),
                 id="mu_sy(6)@U"),
])
def test_identity_terms_run_once_per_product(mu, monkeypatch):
    # the analyze pipeline: both identity checks and the structure checks'
    # precondition read one computation (l_0 = 0 here, so no block is checked)
    mu = Bracket(mu.dim, mu.coeffs)
    calls = []
    monkeypatch.setattr("leibcrit.bracket._identity_terms",
                        lambda c: calls.append(c.shape) or _identity_terms(c))
    check_identities(mu)
    check_identities(mu, 1e-6)
    assert verify_structure_theorem(mu, criticality_decompose(mu)).all_passed
    assert calls == [(mu.dim,) * 3]


#: Every public function that takes a tolerance and checks it.
TOL_CHECKED = {
    "check_identities": check_identities,
    "criticality_decompose": criticality_decompose,
    "descend": descend,
}


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", list(TOL_CHECKED))
def test_tolerance_must_be_finite_and_positive(name, tol):
    with pytest.raises(ValueError, match=re.escape(f"tol must be a finite positive number, got {tol!r}")):
        TOL_CHECKED[name](LIE2, tol)


class TestDirectSum:
    def test_s1_from_summands(self):
        out = direct_sum(NONLIE2, Bracket.zero(1))
        expected = np.zeros((3, 3, 3), dtype=complex)
        expected[0, 0, 1] = 1.0
        np.testing.assert_array_equal(out.coeffs, expected)
        assert check_identities(out).is_symmetric_leibniz

    def test_zero_dim_identity(self):
        out = direct_sum(LIE2, Bracket.zero(0))
        np.testing.assert_array_equal(out.coeffs, LIE2.coeffs)

    def test_lie2_plus_trivial_matches_l2(self):
        out = direct_sum(LIE2, Bracket.zero(1))
        assert check_identities(out).is_lie

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_additive(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        a, b = random_bracket(n1, rng), random_bracket(n2, rng)
        s = direct_sum(a, b)
        assert s.norm_sq == pytest.approx(a.norm_sq + b.norm_sq, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(LIE2, NONLIE2), (NONLIE2, S1), (NS2, LIE2)])
    def test_flags_inherited(self, a, b):
        r = check_identities(direct_sum(a, b))
        ra, rb = check_identities(a), check_identities(b)
        assert r.is_left_leibniz == (ra.is_left_leibniz and rb.is_left_leibniz)
        assert r.is_right_leibniz == (ra.is_right_leibniz and rb.is_right_leibniz)
