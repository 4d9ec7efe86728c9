"""Acceptance suite: every top-level requirement, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from helpers import random_bracket, random_hermitian
from leibcrit.bracket import check_identities, gl_act
from leibcrit.catalog import get, standard_rows, verify_catalog
from leibcrit.extensions import ExtensionSpec, build_general_extension, build_solvable_extension
from leibcrit.flow import descend, perturb_in_orbit
from leibcrit.moment import (
    critical_type,
    critical_value_formula,
    criticality_decompose,
    moment_matrix,
)
from leibcrit.structure import structure_profile, verify_structure_theorem


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


@pytest.fixture(scope="module")
def catalog_rows():
    t0 = time.monotonic()
    rows = verify_catalog()
    return rows, time.monotonic() - t0


def _critical_points_found():
    """(label, unit bracket, report) for every critical point in suites 1-5."""
    found = []
    for entry in standard_rows():
        if entry.expected_type is None:
            continue
        mu = entry.bracket.normalized()
        rep = criticality_decompose(mu)
        if rep.is_critical:
            found.append((entry.label, mu, rep))
        else:
            tr = descend(entry.bracket)
            assert tr.converged, entry.label
            found.append((entry.label + " [flow]", tr.final_bracket, tr.final_report))
    return found


def test_criterion_1_table_reproduction(catalog_rows):
    rows, elapsed = catalog_rows
    with criterion(1, "classification table reproduced (direct, flow and dead rows)"):
        by_label = {r.label: r for r in rows}
        direct = ["L1", "L2", "S1", "S2", "S4"]
        direct += [f"L3(alpha={a})" for a in (1, 2, "1j")]
        direct += [f"S5(alpha={a})" for a in (1, 2, "1j")]
        direct += [f"S7(alpha={a})" for a in (1, 2, "1j")]
        for label in direct:
            row = by_label[label]
            assert row.passed and row.strategy == "direct", label
            assert abs(row.computed_value - row.expected_value) <= 1e-8 * row.expected_value
            assert row.computed_type == row.expected_type
        for label, value in (("L5", 4.0 / 3.0), ("S3(beta=1)", 12.0)):
            row = by_label[label]
            assert row.passed and row.strategy == "flow", label
            assert abs(row.computed_value - value) <= 1e-6 * value
        for label in ("L4", "S3(beta=0.25)", "S6", "S8"):
            row = by_label[label]
            assert row.passed and row.strategy == "noncritical"
            assert row.residual > 0.1
        assert all(r.passed for r in rows)
        assert elapsed < 60.0, f"catalog verify took {elapsed:.1f}s"


def test_criterion_2_two_dimensional_classification():
    with criterion(2, "both 2-d algebras are direct critical points: (0<1;1,1)/4 and (1<2;1,1)/20"):
        for name, tstr, value in (("lie2", "(0<1;1,1)", 4.0), ("nonlie2", "(1<2;1,1)", 20.0)):
            rep = criticality_decompose(get(name).bracket)
            assert rep.is_critical
            assert str(critical_type(rep.D)) == tstr
            assert abs(rep.F - value) <= 1e-8 * value


def test_criterion_3_maximum():
    with criterion(3, "degeneration-level-one families at n=4 give 4/12/20; the 3-d maximum 20 is S1 alone"):
        expected = {
            "mu_hy": ("(0<1;1,3)", 4.0),
            "mu_he": ("(2<3<4;2,1,1)", 12.0),
            "mu_sy": ("(3<5<6;1,2,1)", 20.0),
        }
        for name, (tstr, value) in expected.items():
            rep = criticality_decompose(get(name, n=4).bracket)
            assert rep.is_critical
            assert str(critical_type(rep.D)) == tstr
            assert abs(rep.F - value) <= 1e-8 * value
        values_3d = {}
        for label, mu, rep in _critical_points_found():
            if mu.dim == 3:
                values_3d[label.replace(" [flow]", "")] = rep.F
        top = max(values_3d.values())
        assert abs(top - 20.0) <= 1e-8 * 20.0
        assert [k for k, v in values_3d.items() if v > 20.0 - 1e-6] == ["S1"]


def test_criterion_4_minimum():
    with criterion(4, "scalar so3 basis attains 4/3 directly; descent from the weight basis reaches it"):
        rep = criticality_decompose(get("so3").bracket)
        assert rep.is_critical
        m = rep.M
        assert np.linalg.norm(m - (np.trace(m) / 3) * np.eye(3)) < 1e-10
        assert abs(rep.F - 4.0 / 3.0) <= 1e-10
        tr = descend(get("L5").bracket)
        assert tr.converged and tr.iterations <= 50_000
        assert abs(tr.final_report.F - 4.0 / 3.0) <= 1e-6


def test_criterion_5_nonsymmetric_example():
    with criterion(5, "one-sided 2-d algebra is a non-symmetric critical point of type (0<1;1,1), value 4"):
        mu = get("ns2").bracket
        idr = check_identities(mu)
        assert idr.is_left_leibniz and not idr.is_symmetric_leibniz
        rep = criticality_decompose(mu)
        assert rep.is_critical
        assert str(critical_type(rep.D)) == "(0<1;1,1)"
        assert abs(rep.F - 4.0) <= 1e-8 * 4.0


def test_criterion_6_trace_identity_suite():
    with criterion(6, "500 random products satisfy the trace identity and the 4/n lower bound"):
        rng = np.random.default_rng(1234)
        for trial in range(500):
            n = 2 + trial % 4
            mu = random_bracket(n, rng, scale=10.0 ** rng.uniform(-1.5, 1.5))
            m = moment_matrix(mu)
            nsq = mu.norm_sq
            assert abs(np.trace(m).real + 2 * nsq) < 1e-9 * nsq
            f = float(np.vdot(m, m).real) / nsq**2
            assert f >= 4.0 / n - 1e-10


def test_criterion_7_pairing_finite_difference():
    with criterion(7, "tr(M A) matches the derivative of the squared orbit norm on 100 random pairs"):
        rng = np.random.default_rng(4321)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(2, 6))
            mu = random_bracket(n, rng).normalized()
            a = random_hermitian(n, rng)
            lhs = float(np.trace(moment_matrix(mu) @ a).real)
            plus = gl_act(scipy.linalg.expm(h * a), mu).norm_sq
            minus = gl_act(scipy.linalg.expm(-h * a), mu).norm_sq
            deriv = (plus - minus) / (2 * h)
            assert abs(lhs - deriv) <= 1e-4 * max(abs(lhs), abs(deriv), 1e-12)


def test_criterion_8_rationality_nonnegativity():
    with criterion(8, "all found critical points have small-denominator integer types; "
                      "symmetric ones are nonnegative, nilpotent symmetric ones positive"):
        nilpotent_witnesses = set()
        for label, mu, rep in _critical_points_found():
            t = critical_type(rep.D)  # raises if irrational
            eigs = np.linalg.eigvalsh(rep.D)
            idr = check_identities(mu)
            if idr.is_symmetric_leibniz:
                assert eigs.min() >= -1e-8, label
                if structure_profile(mu).is_nilpotent:
                    assert eigs.min() > 0, label
                    nilpotent_witnesses.add(label.split("(")[0].replace(" [flow]", ""))
        for needed in ("L1", "S1", "S2", "S3"):
            assert needed in nilpotent_witnesses, needed


def test_criterion_9_structure_theorem():
    with criterion(9, "structural checks pass at every symmetric critical catalog point"):
        checked = 0
        for label, mu, rep in _critical_points_found():
            if not check_identities(mu).is_symmetric_leibniz:
                continue
            v = verify_structure_theorem(mu, rep)
            assert v.all_passed, label
            assert max(v.adjoint_residual, v.l0_residual,
                       v.center_residual, v.nilradical_residual) < 1e-8, label
            parent = critical_type(rep.D)
            stripped = tuple(k for k in parent.ks if k != 0)
            if v.degenerate_abelian_nilradical or not stripped:
                assert v.restricted_type is None, label
            elif 0 in parent.ks:
                assert v.restricted_type is not None, label
                assert v.restricted_type.ks == stripped, label
            else:
                assert v.restricted_type == parent, label
            checked += 1
        assert checked >= 12


def test_criterion_10_extension_builders():
    with criterion(10, "solvable and reductive extensions certify with the predicted types and values"):
        s1 = get("S1").bracket
        rep_s1 = criticality_decompose(s1)
        z3 = np.zeros((3, 3), dtype=complex)
        out, rep = build_solvable_extension(
            ExtensionSpec(core=s1, core_report=rep_s1,
                          left_maps=(np.diag([0.0, 1.0, 0.0]).astype(complex),),
                          right_maps=(z3,))
        )
        t = critical_type(rep.D)
        assert str(t) == "(0<3<5<6;1,1,1,1)"
        assert abs(rep.F - 10.0 / 3.0) <= 1e-8
        assert abs(rep.F - critical_value_formula(t, 4)) <= 1e-8

        outg, repg = build_general_extension(
            ExtensionSpec(core=s1, core_report=rep_s1,
                          left_maps=(z3, z3, z3), right_maps=(z3, z3, z3),
                          f_bracket=get("so3").bracket, semisimple=(0, 1, 2), center=())
        )
        tg = critical_type(repg.D)
        assert str(tg) == "(0<3<5<6;3,1,1,1)"
        assert abs(repg.F - 1.25) <= 1e-8
        assert abs(repg.F - critical_value_formula(tg, 6)) <= 1e-8


def test_criterion_11_descent_consistency():
    with criterion(11, "descents from perturbed critical points return the critical value and spectrum"):
        for name in ("L1", "S1", "S2"):
            entry = get(name)
            base = criticality_decompose(entry.bracket.normalized())
            base_spec = np.linalg.eigvalsh(base.M)
            for seed in (1, 2, 3):
                start = perturb_in_orbit(entry.bracket, 0.3, seed=seed)
                tr = descend(start)
                assert tr.converged, (name, seed)
                assert abs(tr.final_report.F - entry.expected_value) <= 1e-6, (name, seed)
                spec = np.linalg.eigvalsh(tr.final_report.M)
                np.testing.assert_allclose(spec, base_spec, atol=1e-5)
