import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leibcrit.bracket import Bracket, check_identities
from leibcrit.catalog import get
from leibcrit.flow import descend, perturb_in_orbit
from leibcrit.moment import critical_type, critical_value_formula, criticality_decompose


class TestDescendTolerance:
    def test_default_tol_accepted(self):
        tr = descend(get("S1").bracket)
        assert tr.converged and tr.final_report.tol == 1e-8

    def test_rejects_bad(self):
        s1 = get("S1").bracket
        for tol in (0.0, -1e-8, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"got {tol!r}"):
                descend(s1, tol)


class TestDescend:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            descend(Bracket.zero(2))

    def test_already_critical_stops_immediately(self):
        tr = descend(get("S1").bracket)
        assert tr.converged and tr.iterations == 0
        assert tr.final_report.F == pytest.approx(20.0, rel=1e-10)

    def test_perturbed_nonlie2_reaches_20(self):
        mu = perturb_in_orbit(get("nonlie2").bracket, 0.3, seed=11)
        tr = descend(mu)
        assert tr.converged
        assert tr.final_report.F == pytest.approx(20.0, abs=1e-6)

    def test_perturbed_heisenberg_reaches_12(self):
        mu = perturb_in_orbit(get("L1").bracket, 0.3, seed=7)
        tr = descend(mu)
        assert tr.converged
        assert tr.final_report.F == pytest.approx(12.0, abs=1e-6)

    def test_sl2_weight_basis_reaches_4_thirds(self):
        tr = descend(get("L5").bracket)
        assert tr.converged
        assert tr.iterations <= 50_000
        assert tr.final_report.F == pytest.approx(4.0 / 3.0, abs=1e-6)
        # the limiting moment matrix is scalar: type (0; 3)
        t = critical_type(tr.final_report.D)
        assert str(t) == "(0;3)"

    def test_monotone_decrease(self):
        mu = perturb_in_orbit(get("S2").bracket, 0.4, seed=5)
        tr = descend(mu)
        diffs = np.diff(tr.F_history)
        assert np.all(diffs <= 1e-14 * np.maximum(1.0, tr.F_history[:-1]))

    def test_orbit_preservation(self):
        mu = get("S3", {"beta": 1}).bracket
        assert check_identities(mu).left_residual < 1e-12
        tr = descend(mu)
        idr = check_identities(tr.final_bracket)
        assert idr.left_residual < 1e-7 and idr.right_residual < 1e-7

    def test_limit_consistency_with_formula(self):
        mu = get("S3", {"beta": 1}).bracket
        tr = descend(mu)
        assert tr.converged
        t = critical_type(tr.final_report.D)
        assert critical_value_formula(t, 3) == pytest.approx(tr.final_report.F, rel=1e-6)

    def test_final_bracket_unit_norm(self):
        tr = descend(get("L5").bracket)
        assert tr.final_bracket.norm == pytest.approx(1.0, abs=1e-12)

    def test_closure_limit_flagged(self):
        # this orbit contains no critical point: the converged limit lives in
        # a boundary orbit and the trace must say so
        s6 = get("S6").bracket
        tr = descend(s6)
        assert tr.converged
        assert "closure" in tr.message
        assert tr.final_report.F == pytest.approx(4.0, abs=1e-6)

    def test_already_critical_has_no_caveat(self):
        tr = descend(get("S1").bracket)
        assert tr.converged and tr.message == ""

    def test_unique_limit_up_to_unitary_s2(self):
        finals = []
        for seed in (21, 22):
            mu = perturb_in_orbit(get("S2").bracket, 0.3, seed=seed)
            tr = descend(mu)
            assert tr.converged
            finals.append(tr.final_report)
        assert finals[0].F == pytest.approx(finals[1].F, abs=1e-8)
        s0 = np.linalg.eigvalsh(finals[0].M)
        s1 = np.linalg.eigvalsh(finals[1].M)
        np.testing.assert_allclose(s0, s1, atol=1e-6)


class TestPerturbInOrbit:
    def test_zero_magnitude_identity(self):
        mu = get("S1").bracket
        assert perturb_in_orbit(mu, 0.0, seed=3) is mu

    def test_deterministic(self):
        mu = get("S2").bracket
        a = perturb_in_orbit(mu, 0.2, seed=9)
        b = perturb_in_orbit(mu, 0.2, seed=9)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_identity_flags_preserved(self):
        mu = get("S2").bracket
        p = perturb_in_orbit(mu, 0.3, seed=7)
        idr = check_identities(p)
        assert idr.left_residual < 1e-8 and idr.right_residual < 1e-8

    def test_functional_changes_for_s2(self):
        mu = get("S2").bracket
        p = perturb_in_orbit(mu, 0.3, seed=7)
        assert criticality_decompose(p).F > criticality_decompose(mu).F

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            perturb_in_orbit(get("S1").bracket, -0.1, seed=0)

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf")])
    def test_nonfinite_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match=f"perturbation magnitude .* got {magnitude!r}"):
            perturb_in_orbit(get("S1").bracket, magnitude, seed=0)

    @pytest.mark.parametrize("magnitude", [50.0, 1e308])
    def test_ill_conditioned_move_rejected(self, magnitude):
        # magnitude 50 has condition number 2.1e9; 1e308 overflows exp(a)
        with pytest.raises(ValueError, match=re.escape(f"magnitude {magnitude!r} is too large")):
            perturb_in_orbit(get("L5").bracket, magnitude, seed=0)


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, leibcrit; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def filiform(n: int) -> Bracket:
    """m0(n): the filiform Lie algebra [e1, ei] = e(i+1)."""
    return Bracket.from_entries(n, {(1, i, i + 1): 1 for i in range(2, n)}, antisymmetrize=True)


#: Descents that stay in their orbit, with their exact step counts and limit
#: types.  A kernel that changes a trajectory shows here first.
PINNED_DESCENTS = [
    ("L5", lambda: get("L5").bracket, 33, "(0;3)"),
    ("S3(beta=1)", lambda: get("S3", {"beta": 1}).bracket, 99, "(1<2;2,1)"),
    ("S2+0.3/seed1", lambda: perturb_in_orbit(get("S2").bracket, 0.3, 1), 66, "(1<2;2,1)"),
    ("m0(5)", lambda: filiform(5), 68, "(2<9<11<13<15;1,1,1,1,1)"),
    ("m0(6)", lambda: filiform(6), 134, "(1<9<10<11<12<13;1,1,1,1,1,1)"),
    ("m0(7)", lambda: filiform(7), 229, "(1<16<17<18<19<20<21;1,1,1,1,1,1,1)"),
    ("m0(8)", lambda: filiform(8), 359, "(1<26<27<28<29<30<31<32;1,1,1,1,1,1,1,1)"),
]


@pytest.mark.parametrize("start, steps, type_",
                         [pytest.param(s, k, t, id=label) for label, s, k, t in PINNED_DESCENTS])
def test_pinned_descent(start, steps, type_):
    tr = descend(start())
    assert tr.converged
    assert tr.iterations == steps
    assert str(critical_type(tr.final_report.D)) == type_
