"""Metamorphic tests: verdicts do not depend on the basis or the scale.

A unitary base change and a rescaling leave F, the criticality verdict, the
critical type, the structure profile and the identity flags unchanged; a
well-conditioned GL base change leaves the identity flags and the structure
profile unchanged.  The inputs are every ``standard_rows()`` entry and the
mu families at n = 3, 5 and 8.  A fixed set of products keeps the same
verdicts and structure checks from 1e-50 to 1e50 times its scale, and
beyond 1e60 either way the certificate asks for a rescale.  A real product,
stored and processed as float64, gets the verdicts of its phase multiple
e^{i pi/4} mu, stored and processed as complex128.  A descent from a
perturbed start reaches a limit of the same critical type, whatever the
seed and size of the perturbation.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import filiform, random_bracket, random_invertible, random_unitary
from leibcrit.bracket import Bracket, check_identities, gl_act
from leibcrit.catalog import get, standard_rows
from leibcrit.cli import run
from leibcrit.fileio import save_algebra
from leibcrit.flow import descend, perturb_in_orbit
from leibcrit.linalg import derivation_space, hermitian_eigen
from leibcrit.moment import criticality_decompose, moment_matrix
from leibcrit.structure import structure_profile, verify_structure_theorem

ALGEBRAS = [e.bracket for e in standard_rows()] + [
    get(name, n=n).bracket for name in ("mu_hy", "mu_he", "mu_sy") for n in (3, 5, 8)
]

indices = st.integers(0, len(ALGEBRAS) - 1)
seeds = st.integers(0, 2**32 - 1)


def _flags(mu: Bracket) -> tuple[bool, bool, bool]:
    idr = check_identities(mu)
    return idr.is_left_leibniz, idr.is_right_leibniz, idr.is_lie


@lru_cache(maxsize=None)
def _verdicts(i: int) -> tuple:
    mu = ALGEBRAS[i]
    rep = criticality_decompose(mu)
    return rep.F, rep.is_critical, rep.type, structure_profile(mu), _flags(mu)


@given(indices, seeds, st.floats(-3.0, 3.0))
@settings(max_examples=80, deadline=None)
def test_unitary_and_scale_invariance(i, seed, log_scale):
    mu = ALGEBRAS[i]
    g = random_unitary(mu.dim, np.random.default_rng(seed))
    moved = Bracket(mu.dim, 10.0**log_scale * gl_act(g, mu).coeffs)
    f, critical, type_, profile, flags = _verdicts(i)
    rep = criticality_decompose(moved)
    assert rep.F == pytest.approx(f, rel=1e-9)
    assert rep.is_critical == critical
    assert rep.type == type_
    assert structure_profile(moved) == profile
    assert _flags(moved) == flags


@given(indices, seeds)
@settings(max_examples=80, deadline=None)
def test_gl_invariance(i, seed):
    mu = ALGEBRAS[i]
    moved = gl_act(random_invertible(mu.dim, np.random.default_rng(seed), 10.0), mu)
    *_, profile, flags = _verdicts(i)
    assert structure_profile(moved) == profile
    assert _flags(moved) == flags


SCALED = {
    **{name: get(name).bracket for name in ("S1", "L5", "L1", "so3")},
    "mu_he(5)": get("mu_he", n=5).bracket,
    "mu_sy(4)": get("mu_sy", n=4).bracket,
    "random(4)": random_bracket(4, np.random.default_rng(5)),
}


@lru_cache(maxsize=None)
def _scale_verdicts(name: str, k: int = 0) -> tuple:
    """Criticality, type, identity flags, profile, structure checks and
    cross-check residual of SCALED[name] times 10^k."""
    mu = SCALED[name]
    mu = Bracket(mu.dim, 10.0**k * mu.coeffs)
    rep = criticality_decompose(mu)
    t, checks = rep.type, None
    if t is not None and check_identities(mu).is_symmetric_leibniz:
        v = verify_structure_theorem(mu, rep)
        checks = (v.adjoint_closed, v.l0_reductive, v.center_normal, v.nilradical_ok,
                  v.is_nilpotent_radical, v.degenerate_abelian_nilradical, v.type_matches)
    type_ = None if t is None else (t.ks, t.ds)
    return rep.is_critical, type_, _flags(mu), structure_profile(mu), checks, rep.residual_decomp


@pytest.mark.parametrize("k", [-50, -20, -10, -4, 4, 10, 20, 50])
@pytest.mark.parametrize("name", SCALED)
def test_verdicts_do_not_depend_on_the_scale(name, k):
    *verdicts, decomp = _scale_verdicts(name, k)
    *expected, expected_decomp = _scale_verdicts(name)
    assert decomp == pytest.approx(expected_decomp, abs=1e-12)
    assert verdicts == expected


@pytest.mark.parametrize("scale", [1e60, 1e-60, 1e80, 1e-80, 1e100, 1e-100])
@pytest.mark.parametrize("name", ["S1", "L5"])
def test_certificate_asks_for_a_rescale(tmp_path, name, scale):
    # |M.mu|^2, about |mu|^6, would leave the normal floats
    mu = Bracket(3, scale * get(name).bracket.coeffs)
    with pytest.raises(ValueError, match="rescale"):
        criticality_decompose(mu)
    path = tmp_path / "scaled.json"
    save_algebra(path, mu)
    assert run(["analyze", str(path)]) == 2


REAL_PRODUCTS = [
    pytest.param(e.bracket, id=e.label) for e in standard_rows()
    if e.critical_in_given_basis and e.bracket.coeffs.dtype == np.float64
] + [
    pytest.param(get(name, n=n).bracket, id=f"{name}({n})")
    for name in ("mu_hy", "mu_he", "mu_sy") for n in range(4, 9)
] + [pytest.param(filiform(n), id=f"m0({n})") for n in range(5, 9)]

PHASE = np.exp(0.25j * np.pi)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _all_facts(mu: Bracket) -> tuple[tuple, tuple]:
    """(verdicts, residuals) of the analyze pipeline on mu."""
    idr = check_identities(mu)
    rep = criticality_decompose(mu)
    verdicts = [_flags(mu), rep.is_critical, rep.type, structure_profile(mu)]
    residuals = [idr.left_residual, idr.right_residual, idr.anticommutativity_residual,
                 idr.jacobi_residual, rep.F, rep.c, rep.residual_tangent, rep.residual_decomp,
                 rep.derivation_defect]
    if rep.type is not None and idr.is_symmetric_leibniz:
        v = verify_structure_theorem(mu, rep)
        verdicts += [v.adjoint_closed, v.l0_reductive, v.center_normal, v.nilradical_ok,
                     v.is_nilpotent_radical, v.degenerate_abelian_nilradical,
                     v.restricted_type, v.type_matches]
        residuals += [v.adjoint_residual, v.l0_residual, v.center_residual, v.nilradical_residual]
    return tuple(verdicts), tuple(residuals)


@pytest.mark.parametrize("mu", REAL_PRODUCTS)
def test_real_and_complex_arithmetic_agree(mu):
    z = Bracket(mu.dim, PHASE * mu.coeffs)
    assert mu.coeffs.dtype == np.float64 and z.coeffs.dtype == np.complex128
    # the same orbit: the phase multiple is the base change by e^{-i pi/4} I
    np.testing.assert_allclose(gl_act(np.eye(mu.dim) / PHASE, mu).coeffs, z.coeffs, atol=1e-15)
    verdicts, residuals = _all_facts(mu)
    z_verdicts, z_residuals = _all_facts(z)
    assert z_verdicts == verdicts
    assert all(_close(a, b) for a, b in zip(z_residuals, residuals)), (z_residuals, residuals)


@pytest.mark.parametrize("imag, dtype", [
    (0.0, np.float64), (-0.0, np.float64), (1e-300, np.complex128), (1.0, np.complex128),
])
def test_stored_real_exactly_when_every_imaginary_part_is_zero(imag, dtype):
    c = np.ones((2, 2, 2), dtype=complex)
    c[1, 0, 1] = complex(2.0, imag)
    mu = Bracket(2, c)
    assert mu.coeffs.dtype == dtype
    np.testing.assert_array_equal(mu.coeffs, c)
    assert Bracket(2, c.real.astype(int)).coeffs.dtype == np.float64


def test_real_start_stays_real():
    mu = get("mu_he", n=5).bracket
    rep = criticality_decompose(mu)
    assert moment_matrix(mu).dtype == np.float64 and rep.D.dtype == np.float64
    assert all(d.dtype == np.float64 for d in derivation_space(mu))
    # the eigenbasis of D in which verify_structure_theorem reads mu
    assert hermitian_eigen(rep.D)[1].dtype == np.float64
    tr = descend(filiform(6))
    assert tr.iterations > 0 and tr.final_bracket.coeffs.dtype == np.float64


DESCENT_STARTS = {
    "S2": get("S2").bracket,
    "L3(2)": get("L3", {"alpha": 2}).bracket,
    "S7(2)": get("S7", {"alpha": 2}).bracket,
    "m0(5)": filiform(5),
    "L5": get("L5").bracket,
    "S3(1)": get("S3", {"beta": 1}).bracket,
}


@lru_cache(maxsize=None)
def _limit_type(name: str):
    return descend(DESCENT_STARTS[name]).final_report.type


@given(st.sampled_from(list(DESCENT_STARTS)), seeds, st.floats(0.05, 0.5))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_limit_type_does_not_depend_on_the_perturbation(name, seed, magnitude):
    tr = descend(perturb_in_orbit(DESCENT_STARTS[name], magnitude, seed))
    assert tr.converged and _limit_type(name) is not None
    assert tr.final_report.type == _limit_type(name)
