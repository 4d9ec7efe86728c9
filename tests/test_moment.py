import dataclasses
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    evaluate,
    irrational_type_s2,
    random_bracket,
    random_hermitian,
    random_unitary,
    reference_action_matrix,
)
from leibcrit.bracket import Bracket, _check_tol, gl_act, inf_act
from leibcrit.catalog import get, standard_rows
from leibcrit.flow import descend, perturb_in_orbit
from leibcrit.linalg import RANK_RTOL, _nullspace, derivation_space, hermitian_eigen
from leibcrit.moment import (
    DEFAULT_MAX_DENOMINATOR,
    DEFAULT_TYPE_TOL,
    CriticalType,
    MomentReport,
    IrrationalTypeError,
    critical_type,
    critical_value_formula,
    criticality_decompose,
    functional_value,
    moment_matrix,
)

LIE2 = Bracket.from_entries(2, {(1, 2, 2): 1}, antisymmetrize=True)
NONLIE2 = Bracket.from_entries(2, {(1, 1, 2): 1})
HEIS = Bracket.from_entries(3, {(1, 2, 3): 1}, antisymmetrize=True)
SO3 = Bracket.from_entries(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}, antisymmetrize=True)

#: The values a MomentReport derives from its product and keeps after the first read.
DERIVED_ON_FIRST_READ = ["M", "c", "D", "residual_tangent", "residual_decomp"]
SL2 = Bracket.from_entries(3, {(3, 1, 1): 2, (3, 2, 2): -2, (1, 2, 3): 1}, antisymmetrize=True)


def moment_entrywise(mu: Bracket) -> np.ndarray:
    """Independent oracle: the defining sums evaluated basis pair by pair."""
    n = mu.dim
    e = np.eye(n)
    m = np.zeros((n, n), dtype=complex)
    prods = {(i, j): evaluate(mu, e[:, i], e[:, j]) for i in range(n) for j in range(n)}
    for u in range(n):
        for v in range(n):
            t1 = t2 = t3 = 0.0
            for i in range(n):
                for j in range(n):
                    t1 += np.conj(prods[i, j][v]) * prods[i, j][u]
                    t2 += prods[i, v][j] * np.conj(prods[i, u][j])
                    t3 += prods[v, i][j] * np.conj(prods[u, i][j])
            m[u, v] = 2.0 * (t1 - t2 - t3)
    return m


def _hermitian_coords(m: np.ndarray, n: int) -> np.ndarray:
    """Columns of m recombined from elementary maps to the Hermitian basis.

    The columns of m are indexed by the elementary maps E_pq (column
    ``p * n + q``).  The result has one column per element of the fixed
    basis E_pp, (E_pq + E_qp)/sqrt(2), i(E_pq - E_qp)/sqrt(2) (p < q) of the
    Hermitian n x n maps, which is orthonormal under Re tr(a b*); applied
    to the identity it gives that basis itself.
    """
    p, q = np.triu_indices(n, 1)
    upper, lower = m[:, p * n + q], m[:, q * n + p]
    r = math.sqrt(0.5)
    return np.hstack([m[:, :: n + 1], r * (upper + lower), 1j * r * (upper - lower)])


def hermitian_derivations(mu: Bracket, tol: float = RANK_RTOL) -> list[np.ndarray]:
    """Real-orthonormal basis of the Hermitian derivations of mu.

    One real-linear solve over the n^2 real coordinates of Hermitian maps:
    the operator a -> a.mu is taken in a fixed real-orthonormal basis of
    the Hermitian maps, its real and imaginary parts are stacked into a
    (2 n^3, n^2) real matrix, and the right singular vectors of a thin SVD
    with singular value at most ``tol * |mu|`` are kept.  Every returned map
    a is Hermitian and satisfies ``|a.mu| <= tol * |mu| * |a|``; the maps
    are orthonormal under the real trace pairing Re tr(a b*).  For the zero
    bracket all n^2 basis maps are returned.

    The solve costs O(n^7); it is the SVD reference of the matrix-free
    cross-check in :func:`criticality_decompose`.
    """
    _check_tol(tol)
    n = mu.dim
    if n == 0:
        return []
    op = _hermitian_coords(reference_action_matrix(mu), n)
    _, s, vh = np.linalg.svd(np.vstack([op.real, op.imag]), full_matrices=False)
    null = vh[s <= tol * mu.norm]
    basis = _hermitian_coords(np.eye(n * n, dtype=complex), n)
    maps = basis @ null.T
    return [maps[:, j].reshape(n, n) for j in range(maps.shape[1])]


def reference_hermitian_derivations(mu: Bracket) -> list[np.ndarray]:
    """Reference chain: the complex derivation space, then the Hermitian
    condition solved in its realification, then a real QR."""
    ders = derivation_space(mu)
    if not ders:
        return []
    n = mu.dim
    cands = ders + [1j * a for a in ders]
    defect = np.stack([(a - a.conj().T).ravel() for a in cands], axis=1)
    real_defect = np.vstack([defect.real, defect.imag])
    null = _nullspace(real_defect.astype(complex), abs_tol=1e-10 * max(1.0, np.abs(defect).max()))
    herms = [sum(c * a for c, a in zip(col, cands)) for col in null.real.T]
    herms = [0.5 * (a + a.conj().T) for a in herms]
    if not herms:
        return []
    stack = np.stack([np.concatenate([a.real.ravel(), a.imag.ravel()]) for a in herms], axis=1)
    q, r = np.linalg.qr(stack)
    keep = np.abs(np.diag(r)) > 1e-10 * max(1.0, np.abs(np.diag(r)).max())
    out = [q[: n * n, j].reshape(n, n) + 1j * q[n * n :, j].reshape(n, n) for j in np.flatnonzero(keep)]
    return [0.5 * (a + a.conj().T) for a in out]


def real_projector(maps: list[np.ndarray], n: int) -> np.ndarray:
    """Orthogonal projector onto the real span of maps, in (Re, Im) coordinates."""
    if not maps:
        return np.zeros((2 * n * n, 2 * n * n))
    stack = np.stack([np.concatenate([a.real.ravel(), a.imag.ravel()]) for a in maps], axis=1)
    q, _ = np.linalg.qr(stack)
    return q @ q.T


def check_real_orthonormal_hermitian(maps: list[np.ndarray]) -> None:
    for a in maps:
        assert np.linalg.norm(a - a.conj().T) <= 1e-12
    flat = np.stack([a.ravel() for a in maps]) if maps else np.zeros((0, 0))
    gram = (flat.conj() @ flat.T).real
    np.testing.assert_allclose(gram, np.eye(len(maps)), atol=1e-12)


def equivalence_cases() -> list:
    """Every catalog row (L4 among them), seeded unitary rotations of the
    three families and the non-critical filiform m0(5)."""
    cases = [pytest.param(entry.bracket, id=entry.label) for entry in standard_rows()]
    rng = np.random.default_rng(617)
    for name in ("mu_hy", "mu_he", "mu_sy"):
        for n in range(4, 9):
            mu = gl_act(random_unitary(n, rng), get(name, n=n).bracket)
            cases.append(pytest.param(mu, id=f"{name}({n})@U"))
    cases.append(pytest.param(get("m0", n=5).bracket, id="m0(5)"))
    return cases


def reference_residual_decomp(mu: Bracket, tol: float) -> float:
    """SVD reference of the cross-check: the residual of M after projecting
    it onto the real span of I / sqrt(n) and ``hermitian_derivations(mu, tol)``."""
    m = moment_matrix(mu)
    basis = [np.eye(mu.dim, dtype=complex) / math.sqrt(mu.dim)]
    basis.extend(hermitian_derivations(mu, tol))
    stack = np.stack([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis], axis=1)
    q, _ = np.linalg.qr(stack)
    mv = np.concatenate([m.real.ravel(), m.imag.ravel()])
    return float(np.linalg.norm(mv - q @ (q.T @ mv))) / float(np.linalg.norm(m))


def reference_report(mu: Bracket, tol: float = 1e-8) -> SimpleNamespace:
    """The certificate computed value by value as before the matrix-free
    cross-check, with the SVD reference for ``residual_decomp``: the stored
    fields of a report and the values it derives from ``mu``."""
    nsq = mu.norm_sq
    m = moment_matrix(mu)
    norm_m = float(np.linalg.norm(m))
    tr_m2 = float(np.vdot(m, m).real)
    c = tr_m2 / float(np.trace(m).real)
    d = m - c * np.eye(mu.dim)
    v = inf_act(m, mu)
    # <v, mu> as a Python scalar of mu's dtype: a real product stays real
    v_perp = v.coeffs - np.vdot(mu.coeffs, v.coeffs).item() / nsq * mu.coeffs
    residual_tangent = float(np.linalg.norm(v_perp)) / (norm_m * mu.norm)
    return SimpleNamespace(
        M=m, c=c, D=d,
        residual_decomp=reference_residual_decomp(mu, tol),
        residual_tangent=residual_tangent, is_critical=residual_tangent < tol,
        mu=mu, tol=tol,
    )


def decomp_equivalence_cases() -> list:
    """equivalence_cases() plus near-threshold families, random products,
    a perturbed filiform and five descent limits, two of them closure limits."""
    cases = equivalence_cases()
    for beta in (0.3, 0.26, 0.2501, 0.250001):
        cases.append(pytest.param(get("S3", {"beta": beta}).bracket, id=f"S3({beta})"))
    for alpha in (1e-2, 1e-4, 1e-6):
        cases.append(pytest.param(get("L3", {"alpha": alpha}).bracket, id=f"L3({alpha})"))
    for n in (3, 5, 8):
        for seed in range(3):
            mu = random_bracket(n, np.random.default_rng(seed))
            cases.append(pytest.param(mu, id=f"random({n})/seed{seed}"))
    m0_8 = perturb_in_orbit(get("m0", n=8).bracket, 0.5, seed=2)
    cases.append(pytest.param(m0_8, id="m0(8)+0.5/seed2"))
    for label, mu in (
        ("L5", get("L5").bracket),
        ("S3(1)", get("S3", {"beta": 1}).bracket),
        ("S2+0.3/seed1", perturb_in_orbit(get("S2").bracket, 0.3, seed=1)),
        ("L4", get("L4").bracket),
        ("S3(1/4)", get("S3", {"beta": 0.25}).bracket),
    ):
        cases.append(pytest.param(descend(mu).final_bracket, id=f"limit of {label}"))
    return cases


class TestMomentMatrix:
    @pytest.mark.parametrize(
        "mu,expected",
        [
            (LIE2, np.diag([-4.0, 0.0])),
            (NONLIE2, np.diag([-4.0, 2.0])),
            (HEIS, np.diag([-4.0, -4.0, 4.0])),
            (SL2, np.diag([-4.0, -4.0, -28.0])),
        ],
    )
    def test_golden_diagonals(self, mu, expected):
        np.testing.assert_allclose(moment_matrix(mu), expected, atol=1e-12)

    def test_matches_entrywise_oracle(self, rng):
        for n in (2, 3, 4):
            mu = random_bracket(n, rng)
            np.testing.assert_allclose(
                moment_matrix(mu), moment_entrywise(mu), atol=1e-10 * mu.norm_sq
            )

    def test_zero_bracket(self):
        assert np.all(moment_matrix(Bracket.zero(3)) == 0)

    def test_hermitian(self, rng):
        m = moment_matrix(random_bracket(4, rng))
        np.testing.assert_array_equal(m, m.conj().T)

    def test_unitary_equivariance(self, rng):
        mu = random_bracket(3, rng)
        k = random_unitary(3, rng)
        lhs = moment_matrix(gl_act(k, mu))
        rhs = k @ moment_matrix(mu) @ k.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * mu.norm_sq)

    def test_scaling(self, rng):
        mu = random_bracket(3, rng)
        c = 0.7 - 2.1j
        np.testing.assert_allclose(
            moment_matrix(Bracket(3, c * mu.coeffs)),
            abs(c) ** 2 * moment_matrix(mu),
            atol=1e-10 * mu.norm_sq,
        )

    def test_trace_identity_500_random(self):
        rng = np.random.default_rng(612)
        for trial in range(500):
            n = 2 + trial % 4
            mu = random_bracket(n, rng, scale=10.0 ** rng.uniform(-2, 2))
            m = moment_matrix(mu)
            assert abs(np.trace(m).real + 2 * mu.norm_sq) < 1e-9 * mu.norm_sq

    def test_pairing_identity(self):
        # tr(M A) = 2 <A.mu, mu> for Hermitian A
        rng = np.random.default_rng(613)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            mu = random_bracket(n, rng)
            a = random_hermitian(n, rng)
            lhs = np.trace(moment_matrix(mu) @ a).real
            rhs = 2.0 * np.vdot(mu.coeffs, inf_act(a, mu).coeffs).real
            assert abs(lhs - rhs) < 1e-8 * mu.norm_sq * np.linalg.norm(a)

    def test_finite_difference_derivative(self):
        # tr(M A) equals d/dt |exp(tA).mu|^2 at t = 0
        rng = np.random.default_rng(614)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(2, 5))
            mu = random_bracket(n, rng).normalized()
            a = random_hermitian(n, rng)
            plus = gl_act(scipy.linalg.expm(h * a), mu).norm_sq
            minus = gl_act(scipy.linalg.expm(-h * a), mu).norm_sq
            deriv = (plus - minus) / (2 * h)
            lhs = np.trace(moment_matrix(mu) @ a).real
            assert abs(lhs - deriv) <= 1e-4 * max(abs(lhs), abs(deriv), 1e-12)

    def test_trace_pairing_with_derivations(self, rng):
        # Hermitian derivations pair to zero with M; general derivations
        # give nonnegative tr M [A, A*]
        for mu in (NONLIE2, HEIS, SO3):
            m = moment_matrix(mu)
            for d in hermitian_derivations(mu):
                assert abs(np.trace(m @ d).real) < 1e-8 * np.linalg.norm(m) * np.linalg.norm(d)
            from leibcrit.linalg import derivation_space

            for a in derivation_space(mu):
                comm = a @ a.conj().T - a.conj().T @ a
                assert np.trace(m @ comm).real >= -1e-8


class TestFunctionalValue:
    def test_golden_values(self):
        assert functional_value(LIE2) == pytest.approx(4.0)
        assert functional_value(NONLIE2) == pytest.approx(20.0)
        assert functional_value(SO3) == pytest.approx(4.0 / 3.0)

    def test_scale_and_unitary_invariance(self, rng):
        mu = random_bracket(3, rng)
        k = random_unitary(3, rng)
        f = functional_value(mu)
        assert functional_value(Bracket(3, 5.5j * mu.coeffs)) == pytest.approx(f, rel=1e-10)
        assert functional_value(gl_act(k, mu)) == pytest.approx(f, rel=1e-10)

    def test_zero_bracket_rejected(self):
        with pytest.raises(ValueError, match="zero bracket"):
            functional_value(Bracket.zero(2))

    def test_lower_bound_and_scalar_gap(self):
        rng = np.random.default_rng(615)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            mu = random_bracket(n, rng)
            f = functional_value(mu)
            assert f >= 4.0 / n - 1e-10
            # F - 4/n equals the squared distance of m to its trace part
            m = moment_matrix(mu) / mu.norm_sq
            gap = m - (np.trace(m).real / n) * np.eye(n)
            assert f - 4.0 / n == pytest.approx(
                np.vdot(gap, gap).real, abs=1e-9 * max(1.0, f)
            )

    def test_equality_iff_scalar(self):
        assert functional_value(SO3) == pytest.approx(4.0 / 3.0, abs=1e-9)
        m = moment_matrix(SO3)
        assert np.linalg.norm(m - (np.trace(m) / 3) * np.eye(3)) < 1e-12


class TestCriticalityDecompose:
    def test_nonlie2(self):
        rep = criticality_decompose(NONLIE2)
        assert rep.c == pytest.approx(-10.0)
        np.testing.assert_allclose(rep.D, np.diag([6.0, 12.0]), atol=1e-12)
        assert rep.is_critical
        assert rep.residual_tangent < 1e-12 and rep.residual_decomp < 1e-12
        assert rep.derivation_defect < 1e-12

    def test_lie2(self):
        rep = criticality_decompose(LIE2)
        assert rep.c == pytest.approx(-4.0)
        np.testing.assert_allclose(rep.D, np.diag([0.0, 4.0]), atol=1e-12)
        assert rep.is_critical

    def test_sl2_weight_basis_not_critical(self):
        rep = criticality_decompose(SL2)
        assert not rep.is_critical
        assert rep.residual_tangent > 0.1
        assert rep.residual_decomp > 0.01

    def test_residuals_vanish_together(self):
        from leibcrit.catalog import standard_rows

        for entry in standard_rows():
            rep = criticality_decompose(entry.bracket)
            if rep.residual_tangent < rep.tol:
                assert rep.residual_decomp < 10 * rep.tol, entry.label
            if rep.residual_decomp < rep.tol:
                assert rep.residual_tangent < 10 * rep.tol, entry.label

    def test_no_false_alarm_at_tangent_certified_limit(self):
        # D has a singular value 6.0e-9 |mu| here, between the SVD's former
        # 1e-9 rank cut and tol; that cut made this residual 5.0e-3
        mu = descend(perturb_in_orbit(get("S2").bracket, 0.3, seed=1)).final_bracket
        rep = criticality_decompose(mu)
        assert rep.is_critical
        assert rep.residual_decomp < 10 * rep.tol

    @pytest.mark.parametrize("mu", decomp_equivalence_cases())
    def test_matches_svd_reference(self, mu):
        rep = criticality_decompose(mu)
        ref = reference_report(mu, rep.tol)
        assert abs(rep.residual_decomp - ref.residual_decomp) <= 1e-12
        # the values read from the fields, against the reference's own formulas
        nsq = mu.norm_sq
        assert rep.norm_sq == nsq
        assert rep.F == float(np.vdot(ref.M, ref.M).real) / nsq**2
        assert rep.is_critical is (ref.residual_tangent < rep.tol)
        assert rep.is_critical is ref.is_critical
        for name in [f.name for f in dataclasses.fields(MomentReport)] + DERIVED_ON_FIRST_READ:
            if name != "residual_decomp":
                assert np.array_equal(getattr(rep, name), getattr(ref, name)), name

    @pytest.mark.parametrize("mu", [pytest.param(e.bracket, id=e.label) for e in standard_rows()]
                             + [pytest.param(random_bracket(n, np.random.default_rng(n)),
                                             id=f"random({n})") for n in range(2, 7)])
    def test_derivation_part_moves_mu_off_its_line(self, mu):
        # <M.mu, mu> = -c |mu|^2 and I.mu = -mu, so D.mu is the part of M.mu
        # orthogonal to mu, which residual_tangent measures
        rep = criticality_decompose(mu)
        scale = float(np.linalg.norm(rep.M)) * mu.norm
        assert inf_act(rep.D, mu).norm == pytest.approx(
            rep.residual_tangent * scale, rel=1e-12, abs=1e-15 * scale
        )

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr("leibcrit.moment._CGLS_RTOL", 0.0)
        mu = random_bracket(3, np.random.default_rng(0))
        with pytest.raises(np.linalg.LinAlgError, match="CGLS did not converge in 28 iterations"):
            criticality_decompose(mu)

    def test_memory_bounded_at_n20(self):
        # the SVD cross-check peaked at 191 MB traced here; CGLS at about 1 MB
        mu = gl_act(random_unitary(20, np.random.default_rng(20)), get("mu_he", n=20).bracket)
        tracemalloc.start()
        try:
            criticality_decompose(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_trace_relation(self, rng):
        mu = random_bracket(3, rng)
        rep = criticality_decompose(mu)
        assert np.trace(rep.M).real == pytest.approx(-2 * rep.norm_sq, rel=1e-10)
        assert rep.F >= 4.0 / 3 - 1e-10

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero bracket"):
            criticality_decompose(Bracket.zero(2))


class TestReportValidation:
    """A report checks its two fields on construction, however it is built."""

    def test_zero_product(self):
        with pytest.raises(ValueError, match="zero bracket"):
            MomentReport(mu=Bracket.zero(3), tol=1e-8)

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e120, 1e-110])
    def test_norm_sq_out_of_range(self, scale):
        with pytest.raises(ValueError, match="outside the float range"):
            MomentReport(mu=Bracket(3, scale * get("S1").bracket.coeffs), tol=1e-8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_tol(self, tol):
        # with tol = inf the non-critical L5 read as critical, of a negative type
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            MomentReport(mu=get("L5").bracket, tol=tol)

    def test_replace_checks_again(self):
        rep = criticality_decompose(get("S1").bracket)
        with pytest.raises(ValueError, match="zero bracket"):
            dataclasses.replace(rep, mu=Bracket.zero(3))
        with pytest.raises(ValueError, match="tol must be"):
            dataclasses.replace(rep, tol=math.nan)

    def test_certifies_its_product_only(self):
        mu = get("S1").bracket
        rep = criticality_decompose(mu)
        assert rep.certifies(mu) and rep.certifies(Bracket(3, mu.coeffs.copy()))
        assert not rep.certifies(get("S2").bracket)
        assert not rep.certifies(get("lie2").bracket)


class TestHermitianDerivations:
    def test_nonlie2_contains_weight_map(self):
        herms = hermitian_derivations(NONLIE2)
        target = np.diag([1.0 + 0j, 2.0])
        proj = sum(h * np.real(np.vdot(h, target)) for h in herms)
        assert np.linalg.norm(proj - target) < 1e-9

    def test_all_hermitian_and_derivations(self, rng):
        mu = random_bracket(3, rng)
        for h in hermitian_derivations(mu):
            assert np.linalg.norm(h - h.conj().T) < 1e-9
            assert inf_act(h, mu).norm < 1e-7 * mu.norm

    def test_zero_bracket_gives_every_hermitian_map(self):
        herms = hermitian_derivations(Bracket.zero(3))
        assert len(herms) == 9
        check_real_orthonormal_hermitian(herms)

    @pytest.mark.parametrize("mu", equivalence_cases())
    def test_matches_complex_then_realified_chain(self, mu):
        tol = 1e-9
        herms = hermitian_derivations(mu, tol)
        ref = reference_hermitian_derivations(mu)
        assert len(herms) == len(ref)
        check_real_orthonormal_hermitian(herms)
        for h in herms:
            assert inf_act(h, mu).norm <= tol * mu.norm
        diff = real_projector(herms, mu.dim) - real_projector(ref, mu.dim)
        assert np.linalg.norm(diff) <= 1e-8

    def test_memory_stays_below_full_svd(self):
        # a full-matrices SVD of the (n^3, n^2) operator allocates an
        # n^3 x n^3 U; with it this call peaked at 57 MB traced
        mu = get("mu_he", n=12).bracket
        tracemalloc.start()
        try:
            criticality_decompose(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def report_product_cases() -> list:
    """The standard rows and a unitary rotation of each."""
    cases = []
    for i, e in enumerate(standard_rows()):
        u = random_unitary(e.bracket.dim, np.random.default_rng([i, 7]))
        cases += [pytest.param(e.bracket, id=e.label),
                  pytest.param(gl_act(u, e.bracket), id=f"{e.label}@U")]
    return cases


def reference_clusters(w: np.ndarray, gap: float) -> list[tuple[float, int]]:
    """Loop reference for the clusters of ``critical_type``: (mean, size) of
    each run of ascending values with no step above gap."""
    out, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            out.append((float(np.mean(w[start:i])), i - start))
            start = i
    return out


class TestCriticalType:
    @pytest.mark.parametrize("mu", report_product_cases())
    def test_clusters_match_the_loop(self, mu):
        rep = criticality_decompose(mu)
        if rep.type is None:
            pytest.skip("no rational type")
        d = rep.D / rep.norm_sq
        w = np.linalg.eigvalsh(d)
        clusters = reference_clusters(w, DEFAULT_TYPE_TOL * max(1.0, float(np.abs(w).max())))
        t = critical_type(d)
        assert list(t.ds) == [size for _, size in clusters]
        if t.ks != (0,):
            means = np.array([mean for mean, _ in clusters])
            assert np.abs(t.scale * means - np.array(t.ks)).max() < DEFAULT_TYPE_TOL

    def test_weighted_pair(self):
        t = critical_type(np.diag([6.0, 12.0]))
        assert (t.ks, t.ds) == ((1, 2), (1, 1))
        assert t.scale == pytest.approx(1.0 / 6.0)

    def test_zero_map(self):
        t = critical_type(np.zeros((3, 3)))
        assert t == CriticalType.zero(3)
        assert str(t) == "(0;3)"

    def test_s1_spectrum(self):
        t = critical_type(np.diag([12.0, 10.0, 6.0]))
        assert (t.ks, t.ds) == ((3, 5, 6), (1, 1, 1))
        assert t.scale == pytest.approx(0.5)

    def test_multiplicity_clustering(self):
        t = critical_type(np.diag([4.0, 4.0 + 1e-9, 8.0]))
        assert (t.ks, t.ds) == ((1, 2), (2, 1))

    def test_negative_entries_allowed(self):
        t = critical_type(np.diag([-2.0, 4.0]))
        assert t.ks == (-1, 2)
        assert t.scale > 0

    def test_irrational_raises(self):
        with pytest.raises(IrrationalTypeError, match=r"best rounding error 0\.00357"):
            critical_type(np.diag([1.0, np.sqrt(2.0)]))

    def test_str_format(self):
        assert str(CriticalType((0, 1), (1, 2))) == "(0<1;1,2)"
        assert str(CriticalType((3, 5, 6), (1, 1, 1))) == "(3<5<6;1,1,1)"

    def test_type_validation(self):
        with pytest.raises(ValueError, match="coprime"):
            CriticalType((2, 4), (1, 1))
        with pytest.raises(ValueError, match="increasing"):
            CriticalType((2, 1), (1, 1))
        with pytest.raises(ValueError, match="positive"):
            CriticalType((1, 2), (1, 0))

    def test_type_validation_messages(self):
        with pytest.raises(ValueError, match="^ks and ds must be nonempty and of equal length$"):
            CriticalType((1, 2), (1,))
        # lists are stored as tuples, so a list type equals the tuple one
        assert CriticalType([0], [3]) == CriticalType.zero(3)
        assert CriticalType([1, 2], [1, 1]) == CriticalType((1, 2), (1, 1))
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="^scale must be positive$"):
                CriticalType((1, 2), (1, 1), scale)

    def test_empty_matrix_has_no_type(self):
        with pytest.raises(ValueError, match="^empty matrix has no type$"):
            critical_type(np.zeros((0, 0)))

    @given(
        st.lists(st.integers(-6, 8), min_size=1, max_size=4, unique=True),
        st.floats(0.1, 10.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_from_integer_spectrum(self, raw_ks, inv_scale, seed):
        rng = np.random.default_rng(seed)
        ks = sorted(raw_ks)
        nonzero = [abs(k) for k in ks if k]
        if nonzero:
            g = math.gcd(*nonzero)
            ks = [k // g for k in ks]
        else:
            ks = [0]
        ds = [int(rng.integers(1, 4)) for _ in ks]
        eigs = np.repeat(np.array(ks, dtype=float) / inv_scale, ds)
        u = random_unitary(len(eigs), rng)
        d = u @ np.diag(eigs) @ u.conj().T
        t = critical_type(0.5 * (d + d.conj().T))
        if ks == [0]:
            assert t == CriticalType.zero(int(sum(ds)))
        else:
            assert t.ks == tuple(ks)
            assert t.ds == tuple(ds)


def reference_critical_type(d: np.ndarray) -> CriticalType:
    """``critical_type`` as it was written with numpy reductions: np.mean per
    cluster and array arithmetic for the gap, reference entry and rounding error."""
    w, _ = hermitian_eigen(d)
    n = len(w)
    if n == 0:
        raise ValueError("empty matrix has no type")
    gap = DEFAULT_TYPE_TOL * max(1.0, float(np.abs(w).max()))
    # clusters are the runs of ascending eigenvalues with no step above gap
    cuts = [0, *(np.flatnonzero(np.diff(w) > gap) + 1).tolist(), n]
    reps = np.array([float(np.mean(w[a:b])) for a, b in zip(cuts, cuts[1:])])
    mults = [b - a for a, b in zip(cuts, cuts[1:])]
    if np.abs(reps).max() <= gap:
        return CriticalType.zero(n)

    ref = reps[int(np.argmax(np.abs(reps)))]
    fracs = [Fraction(float(r / ref)).limit_denominator(DEFAULT_MAX_DENOMINATOR) for r in reps]
    common = math.lcm(*(fr.denominator for fr in fracs))
    ints = [fr.numerator * (common // fr.denominator) for fr in fracs]
    sign = 1 if ref > 0 else -1
    ints = [sign * m for m in ints]
    g = math.gcd(*(abs(m) for m in ints if m != 0))
    ks = [m // g for m in ints]
    scale = common / (g * abs(ref))
    err = float(np.abs(scale * reps - np.array(ks, dtype=float)).max())
    if err >= DEFAULT_TYPE_TOL:
        raise IrrationalTypeError(
            f"no admissible scaling found (best rounding error {err:.3g})"
        )
    return CriticalType(tuple(ks), tuple(mults), scale)


def type_outcome(typer, d: np.ndarray) -> tuple:
    """(ks, ds, scale) of a type, or the message of its IrrationalTypeError."""
    try:
        t = typer(d)
    except IrrationalTypeError as exc:
        return ("irrational", str(exc))
    return t.ks, t.ds, t.scale


def assert_same_type(d: np.ndarray) -> None:
    # equal ks and ds, a bit-equal scale, or the same error message
    assert type_outcome(critical_type, d) == type_outcome(reference_critical_type, d)


def certificate_products() -> list:
    """The standard rows and the three families at n = 3..16 in the catalog
    basis and under a seeded unitary."""
    products = [pytest.param(e.bracket, id=e.label) for e in standard_rows()]
    for name in ("mu_hy", "mu_he", "mu_sy"):
        for n in range(3, 17):
            mu = get(name, n=n).bracket
            u = random_unitary(n, np.random.default_rng([n, 5]))
            products += [pytest.param(mu, id=f"{name}({n})"),
                         pytest.param(gl_act(u, mu), id=f"{name}({n})@U")]
    return products


class TestOnePassType:
    @pytest.mark.parametrize("mu", certificate_products())
    def test_matches_the_numpy_reductions_on_certificates(self, mu):
        rep = criticality_decompose(mu)
        assert_same_type(rep.D)
        assert_same_type(rep.D / rep.norm_sq)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_the_numpy_reductions_on_descent_limits(self, n):
        rep = criticality_decompose(descend(get("m0", n=n).bracket).final_bracket)
        assert_same_type(rep.D)
        assert_same_type(rep.D / rep.norm_sq)

    def test_same_irrational_message(self):
        d = np.diag([1.0, np.sqrt(2.0)])
        assert type_outcome(critical_type, d) == type_outcome(reference_critical_type, d)
        assert type_outcome(critical_type, d)[0] == "irrational"

    @given(
        st.lists(st.integers(-12, 12), min_size=1, max_size=4, unique=True),
        st.lists(st.integers(9, 40), min_size=4, max_size=4),
        st.floats(0.05, 20.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_numpy_reductions_on_large_clusters(self, ks, sizes, scale, seed):
        # clusters of more than 8 equal eigenvalues plus noise of about 1e-9,
        # where a sequential sum and np.mean's pairwise sum part in the last bits
        rng = np.random.default_rng(seed)
        eigs = np.repeat(np.array(ks, dtype=float) / scale, sizes[: len(ks)])
        eigs += 1e-9 * rng.standard_normal(eigs.size)
        assert_same_type(np.diag(np.sort(eigs)))


class TestReportType:
    def test_none_when_not_critical(self):
        assert criticality_decompose(get("L4").bracket).type is None

    def test_none_when_irrational(self):
        rep = criticality_decompose(irrational_type_s2(), 1e-2)
        assert rep.is_critical
        with pytest.raises(IrrationalTypeError):
            critical_type(rep.D)
        assert rep.type is None

    def test_matches_critical_type_on_catalog(self):
        for entry in standard_rows():
            rep = criticality_decompose(entry.bracket)
            if rep.is_critical:
                assert rep.type == critical_type(rep.D), entry.label

    def test_follows_replaced_product(self):
        # D is derived from mu (test_cannot_replace_a_derived_value), so a report
        # can only be moved to another product, whose D and type it then reads
        rep = criticality_decompose(get("L1").bracket)
        moved = dataclasses.replace(rep, mu=get("S1").bracket)
        assert str(rep.type) == "(1<2;2,1)" and str(moved.type) == "(3<5<6;1,1,1)"
        assert np.array_equal(moved.D, criticality_decompose(moved.mu).D)


class TestReportProduct:
    def test_certificate_calls_no_inf_act(self, monkeypatch):
        calls = []
        monkeypatch.setattr("leibcrit.moment.inf_act", lambda *a: calls.append(a))
        for e in standard_rows():
            criticality_decompose(e.bracket)
        assert calls == []

    @pytest.mark.parametrize("mu", report_product_cases())
    def test_certificate_builds_no_bracket(self, mu, constructions):
        criticality_decompose(mu)
        assert constructions["Bracket"] == 0

    @pytest.mark.parametrize("mu", report_product_cases())
    def test_derives_what_the_certificate_computed(self, mu):
        # a report built from the stored fields alone reads the same values,
        # bit for bit, as the one criticality_decompose returns
        rep = criticality_decompose(mu)
        fresh = MomentReport(mu=mu, tol=rep.tol)
        for name in DERIVED_ON_FIRST_READ + ["F", "is_critical", "type"]:
            assert np.array_equal(getattr(fresh, name), getattr(rep, name)), name
        assert all(np.array_equal(a, b) for a, b in zip(fresh.eigen, rep.eigen))

    @pytest.mark.parametrize("name", DERIVED_ON_FIRST_READ)
    def test_cannot_replace_a_derived_value(self, name):
        rep = criticality_decompose(get("S1").bracket)
        with pytest.raises(TypeError):
            dataclasses.replace(rep, **{name: getattr(rep, name)})

    @pytest.mark.parametrize("mu", report_product_cases())
    def test_holds_its_product(self, mu):
        rep = criticality_decompose(mu)
        assert rep.mu is mu
        assert rep.derivation_defect == inf_act(rep.D, mu).norm / mu.norm


class TestCriticalValueFormula:
    @pytest.mark.parametrize(
        "ks,ds,n,expected",
        [
            ((0,), (3,), 3, 4.0 / 3.0),
            ((1, 2), (2, 1), 3, 12.0),
            ((3, 5, 6), (1, 1, 1), 3, 20.0),
            ((0, 1), (1, 2), 3, 4.0),
            ((0, 3, 5, 6), (1, 1, 1, 1), 4, 10.0 / 3.0),
            ((0, 3, 5, 6), (3, 1, 1, 1), 6, 1.25),
            ((2, 3, 4), (2, 1, 1), 4, 12.0),
            ((1, 2), (1, 1), 2, 20.0),
        ],
    )
    def test_golden(self, ks, ds, n, expected):
        # the rational value rounded once: float arithmetic gave 11.999999999999995,
        # 19.999999999999982 and 20.000000000000004 for (1<2;2,1), S1 and nonlie2
        assert critical_value_formula(CriticalType(ks, ds), n) == expected

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            critical_value_formula(CriticalType((1,), (3,)), 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="multiplicity"):
            critical_value_formula(CriticalType((0, 1), (1, 1)), 3)

    def test_consistency_on_criticals(self):
        for mu, n in ((LIE2, 2), (NONLIE2, 2), (HEIS, 3), (SO3, 3)):
            rep = criticality_decompose(mu)
            assert rep.is_critical
            t = critical_type(rep.D)
            assert critical_value_formula(t, n) == pytest.approx(rep.F, rel=1e-8)
