"""Metamorphic tests: verdicts do not depend on the basis or the scale.

A unitary base change and a rescaling leave F, the criticality verdict, the
critical type, the structure profile and the identity flags unchanged; a
well-conditioned GL base change leaves the identity flags and the structure
profile unchanged.  The inputs are every ``standard_rows()`` entry and the
mu families at n = 3, 5 and 8.  A fixed set of products keeps the same
verdicts and structure checks from 1e-50 to 1e50 times its scale, and
beyond 1e60 either way the certificate asks for a rescale.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bracket, random_invertible, random_unitary
from leibcrit.bracket import Bracket, check_identities, gl_act
from leibcrit.catalog import get, standard_rows
from leibcrit.cli import run
from leibcrit.fileio import save_algebra
from leibcrit.moment import criticality_decompose
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
