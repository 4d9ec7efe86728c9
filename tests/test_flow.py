import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from helpers import filiform, random_unitary
from leibcrit.bracket import Bracket, check_identities, gl_act
from leibcrit.catalog import get, standard_rows
from leibcrit.flow import FlowTrace, _expm, descend, perturb_in_orbit
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
        # these orbits contain no critical point: the converged limit lives in
        # a boundary orbit, reached only as G degenerates, and the trace must
        # say so (S6 ends at cond(G) 8.7e7, S8 at 3.0e8)
        for name in ("S6", "S8"):
            tr = descend(get(name).bracket)
            assert tr.converged
            assert "closure" in tr.message
            assert tr.cond_g > 1e4
            assert tr.final_report.F == pytest.approx(4.0, abs=1e-6)

    def test_l4_stays_lie_without_a_type(self):
        # L4's orbit has no critical point and F tends to its infimum 4: the
        # descent must not cross to a lower F (the coefficient-space descent
        # reached (0;3) at F = 4/3 from L4+0.3/seed0) or to another class
        tr = descend(get("L4").bracket)
        assert tr.converged
        assert check_identities(tr.final_bracket).is_lie
        assert tr.final_report.F == pytest.approx(4.0, abs=1e-6)
        assert tr.final_report.type is None

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


#: Scripts that must run without loading scipy; sys.argv[1] is a scratch file.
NO_SCIPY_CASES = {
    "import": "import leibcrit",
    "descend": "from leibcrit import descend, get; assert descend(get('L5').bracket).converged",
    "perturb": ("from leibcrit import get, perturb_in_orbit;"
                " perturb_in_orbit(get('S2').bracket, 0.3, seed=1)"),
    "cli-flow-perturb": ("from leibcrit import cli, get, save_algebra;"
                         " save_algebra(sys.argv[1], get('S2').bracket);"
                         " assert cli.run(['flow', sys.argv[1], '--perturb', '0.3']) == 0"),
}


@pytest.mark.parametrize("code", NO_SCIPY_CASES.values(), ids=NO_SCIPY_CASES)
def test_does_not_load_scipy(code, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = f"import sys; {code}; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s2.json")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", range(1, 21))
def test_expm_matches_scipy(n):
    # perturb_in_orbit's moves, kept when their condition number is at most 1e4
    for seed in range(10):
        for magnitude in (0.01, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a *= magnitude / np.linalg.norm(a)
            ref = scipy.linalg.expm(a)
            if np.linalg.cond(ref) > 1e4:
                continue
            err = np.linalg.norm(_expm(a) - ref) / np.linalg.norm(ref)
            assert err <= 1e-13, (seed, magnitude, err)


def test_expm_with_overflowing_norm_is_nonfinite():
    # finite entries whose 1-norm overflows: no OverflowError, so
    # perturb_in_orbit reads the result as condition number inf
    a = np.full((3, 3), 1e308, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_expm(a)).all()


M0_TYPES = {
    5: "(2<9<11<13<15;1,1,1,1,1)",
    6: "(1<9<10<11<12<13;1,1,1,1,1,1)",
    7: "(1<16<17<18<19<20<21;1,1,1,1,1,1,1)",
    8: "(1<26<27<28<29<30<31<32;1,1,1,1,1,1,1,1)",
}

#: Descents with their exact step counts and limit types: the perfbench
#: starts.  A kernel that changes a trajectory shows here first.  The
#: perturbed L3, S7 and m0 starts are the ones a descent in coefficient
#: space carried out of their orbit, to type (0;n).
PINNED_DESCENTS = [
    ("L5", lambda: get("L5").bracket, 7, "(0;3)"),
    ("S3(beta=1)", lambda: get("S3", {"beta": 1}).bracket, 7, "(1<2;2,1)"),
    ("S2+0.3/seed1", lambda: perturb_in_orbit(get("S2").bracket, 0.3, 1), 5, "(1<2;2,1)"),
    ("L3(alpha=2)+0.5/seed1",
     lambda: perturb_in_orbit(get("L3", {"alpha": 2}).bracket, 0.5, 1), 4, "(0<1;1,2)"),
    ("S7(alpha=2)+0.5/seed1",
     lambda: perturb_in_orbit(get("S7", {"alpha": 2}).bracket, 0.5, 1), 23, "(0<1;1,2)"),
    ("m0(5)", lambda: filiform(5), 5, M0_TYPES[5]),
    ("m0(6)", lambda: filiform(6), 5, M0_TYPES[6]),
    ("m0(7)", lambda: filiform(7), 10, M0_TYPES[7]),
    ("m0(8)", lambda: filiform(8), 14, M0_TYPES[8]),
    ("m0(5)+0.5/seed2", lambda: perturb_in_orbit(filiform(5), 0.5, 2), 13, M0_TYPES[5]),
    ("m0(6)+0.5/seed2", lambda: perturb_in_orbit(filiform(6), 0.5, 2), 19, M0_TYPES[6]),
    ("m0(7)+0.5/seed2", lambda: perturb_in_orbit(filiform(7), 0.5, 2), 30, M0_TYPES[7]),
    ("m0(8)+0.5/seed2", lambda: perturb_in_orbit(filiform(8), 0.5, 2), 27, M0_TYPES[8]),
]


@pytest.mark.parametrize("start, steps, type_",
                         [pytest.param(s, k, t, id=label) for label, s, k, t in PINNED_DESCENTS])
def test_pinned_descent(start, steps, type_):
    mu = start()
    tr = descend(mu)
    assert tr.converged
    assert tr.iterations == steps
    assert str(critical_type(tr.final_report.D)) == type_
    assert tr.message == "" and tr.cond_g < 10.0
    assert identity_flags(tr.final_bracket) == identity_flags(mu)
    assert tr.final_bracket is tr.final_report.mu


@pytest.mark.parametrize("start", [pytest.param(s, id=label) for label, s, _, _ in PINNED_DESCENTS])
def test_history_ends_at_the_final_certificate(start):
    # the descent's stopping residual is the certificate's, bit for bit
    tr = descend(start())
    assert tr.residual_history[-1] == tr.final_report.residual_tangent
    assert tr.converged == tr.final_report.is_critical


@pytest.mark.parametrize("start", [pytest.param(s, id=label) for label, s, _, _ in PINNED_DESCENTS])
def test_one_moment_matrix_per_trial(start, monkeypatch):
    # the start's moment matrix, then one per line-search trial: each iterate
    # reuses the matrix of the trial that was accepted
    import leibcrit.flow as flow

    mu = start()
    firsts, trial_fs = [], []
    real_first, real_trial = flow.moment_matrix, flow._moment_matrix

    def trial(c):
        m = real_trial(c)
        trial_fs.append(float(np.vdot(m, m).real))
        return m

    monkeypatch.setattr(flow, "moment_matrix", lambda b: firsts.append(b) or real_first(b))
    monkeypatch.setattr(flow, "_moment_matrix", trial)
    tr = descend(mu)
    assert len(firsts) == 1
    later = iter(trial_fs)
    assert all(f in later for f in tr.F_history[1:])  # in order, among the trials


def projection_factorizations(mu: Bracket, monkeypatch) -> tuple[int, FlowTrace]:
    """descend(mu), and the number of QR factorizations it takes outside the
    derivation solve: one per factoring of the projection basis."""
    import leibcrit.flow as flow

    real_qr, real_solve = np.linalg.qr, flow.derivation_space
    inside, count = [], [0]

    def qr(*args, **kwargs):
        if not inside:
            count[0] += 1
        return real_qr(*args, **kwargs)

    def solve(b):
        inside.append(b)
        try:
            return real_solve(b)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(flow, "derivation_space", solve)
    tr = descend(mu)
    return count[0], tr


@pytest.mark.parametrize("start", [pytest.param(s, id=label) for label, s, _, _ in PINNED_DESCENTS])
def test_one_projection_basis_per_orbit_descent(start, monkeypatch):
    # the basis of span{I, A Der(mu0) A^-1} is factored at A = I and reused:
    # an orbit descent never moves far enough from it to refactor
    count, tr = projection_factorizations(start(), monkeypatch)
    assert tr.converged and tr.iterations > 0
    assert count == 1


def test_closure_descent_refactors_its_basis(monkeypatch):
    # S8's G degenerates (cond 2.5e8), so M drifts in the anchor frame and
    # the basis is refactored at the current G; without that the descent
    # runs into the iteration limit
    count, tr = projection_factorizations(get("S8").bracket, monkeypatch)
    assert count >= 2
    assert tr.converged and "closure" in tr.message


@pytest.mark.parametrize("start, pinned",
                         [pytest.param(s, None, id=label) for label, s, _, _ in PINNED_DESCENTS]
                         + [pytest.param(lambda: get("S8").bracket, (28, 28, 3), id="S8")])
def test_records_count_the_trials_and_refactorings(start, pinned, monkeypatch):
    # a record holds the trials and the refactoring of the step that reached
    # its iterate: the trials sum to the moment matrices of candidates, and the
    # refactorings to the basis factorizations after the one at the start;
    # S8's (steps, trials, factorizations) are pinned
    import leibcrit.flow as flow

    trials, real_trial = [], flow._moment_matrix
    monkeypatch.setattr(flow, "_moment_matrix", lambda c: trials.append(c) or real_trial(c))
    count, tr = projection_factorizations(start(), monkeypatch)
    assert tr.steps[0].trials == 0 and tr.steps[0].refactored is False
    assert all(s.trials >= 1 for s in tr.steps[1:])
    assert sum(s.trials for s in tr.steps) == len(trials)
    assert 1 + sum(s.refactored for s in tr.steps) == count
    if pinned is not None:
        assert (tr.iterations, len(trials), count) == pinned


@pytest.mark.parametrize("start", [pytest.param(s, id=label) for label, s, _, _ in PINNED_DESCENTS])
def test_descent_is_unitary_equivariant(start):
    # a unitary base change U of the start moves the whole descent by U:
    # the step count, the type and cond(G) do not change
    mu = start()
    tr = descend(mu)
    for seed in range(3):
        u = random_unitary(mu.dim, np.random.default_rng(seed))
        tu = descend(gl_act(u, mu))
        assert tu.converged, seed
        assert tu.iterations == tr.iterations, seed
        assert str(critical_type(tu.final_report.D)) == str(critical_type(tr.final_report.D)), seed
        assert tu.cond_g == pytest.approx(tr.cond_g, rel=1e-6), seed


def test_iteration_limit_reached(monkeypatch):
    import leibcrit.flow as flow

    monkeypatch.setattr(flow, "_MAX_ITER", 3)
    tr = descend(perturb_in_orbit(get("S2").bracket, 0.3, 1))  # 5 steps without the limit
    assert tr.message == "iteration limit reached"
    assert not tr.converged
    assert len(tr.F_history) == 4 and tr.iterations == 3


def test_line_search_underflow(monkeypatch):
    import leibcrit.flow as flow

    monkeypatch.setattr(flow, "_MAX_BACKTRACKS", 0)
    tr = descend(perturb_in_orbit(get("S2").bracket, 0.3, 1))
    assert tr.message == "line search underflow"
    assert not tr.converged and tr.iterations == 0


def identity_flags(mu: Bracket) -> tuple[bool, bool, bool]:
    idr = check_identities(mu)
    return idr.is_left_leibniz, idr.is_right_leibniz, idr.is_lie


def sweep_entries() -> list:
    """Every critical standard row, and the three families at n = 5 and 6."""
    entries = [e for e in standard_rows() if e.expected_type is not None]
    entries += [get(name, n=n) for name in ("mu_hy", "mu_he", "mu_sy") for n in (5, 6)]
    return [pytest.param(e, id=e.label) for e in entries]


@pytest.mark.parametrize("entry", sweep_entries())
def test_perturbed_starts_reach_their_type(entry):
    # 32 entries x 2 magnitudes x 4 seeds = 256 descents, 1,200 steps in all;
    # the coefficient-space descent got 150 of them right in 62,659 steps
    for magnitude in (0.3, 0.5):
        for seed in range(4):
            mu = perturb_in_orbit(entry.bracket, magnitude, seed)
            tr = descend(mu)
            label = f"{entry.label}+{magnitude}/seed{seed}"
            assert tr.converged, label
            assert tr.final_report.type == entry.expected_type, label
            assert identity_flags(tr.final_bracket) == identity_flags(mu), label
            assert tr.message == "" and tr.cond_g < 10.0, label
