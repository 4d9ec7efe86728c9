"""Metamorphic tests: verdicts do not depend on the basis or the scale.

A unitary base change and a rescaling leave F, the criticality verdict, the
critical type, the structure profile and the identity flags unchanged; a
well-conditioned GL base change leaves the identity flags and the structure
profile unchanged.  The inputs are every ``standard_rows()`` entry and the
mu families at n = 3, 5 and 8.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_invertible, random_unitary
from leibcrit.bracket import Bracket, check_identities, gl_act
from leibcrit.catalog import get, standard_rows
from leibcrit.moment import criticality_decompose
from leibcrit.structure import structure_profile

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
