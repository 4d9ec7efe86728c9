import dataclasses
import re

import numpy as np
import pytest

from helpers import irrational_type_s2
from leibcrit.bracket import Bracket, check_identities
from leibcrit.catalog import get
from leibcrit.extensions import (
    CertificationFailed,
    ExtensionSpec,
    GramNotPositive,
    HypothesisViolation,
    NotLie,
    NotSymmetricLeibniz,
    _certify,
    build_general_extension,
    build_solvable_extension,
)
from leibcrit.flow import perturb_in_orbit
from leibcrit.moment import CriticalType, critical_type, critical_value_formula, criticality_decompose

Z2 = np.zeros((2, 2), dtype=complex)
Z3 = np.zeros((3, 3), dtype=complex)


@pytest.fixture(scope="module")
def s1():
    mu = get("S1").bracket
    return mu, criticality_decompose(mu)


def so3_bracket() -> Bracket:
    return get("so3").bracket


def as_f_zero(spec: ExtensionSpec) -> ExtensionSpec:
    """The general-builder form of a solvable spec: f = 0, every generator central."""
    return dataclasses.replace(
        spec, f_bracket=Bracket.zero(spec.d1), semisimple=(), center=tuple(range(spec.d1))
    )


def assert_both_reject(spec: ExtensionSpec, clause: str) -> None:
    """The solvable build and its f = 0 general form fail on the same clause."""
    for build, s in ((build_solvable_extension, spec), (build_general_extension, as_f_zero(spec))):
        with pytest.raises(HypothesisViolation) as info:
            build(s)
        assert info.value.clause == clause, build.__name__


class TestSolvableExtension:
    def test_s1_core_worked_example(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(np.diag([0.0, 1.0, 0.0]).astype(complex),),
            right_maps=(Z3,),
        )
        out, out_rep = build_solvable_extension(spec)
        assert out.dim == 4
        assert out_rep.is_critical and out_rep.residual_tangent < 1e-8
        assert out_rep.c == pytest.approx(-10.0, rel=1e-10)
        t = critical_type(out_rep.D)
        assert str(t) == "(0<3<5<6;1,1,1,1)"
        assert out_rep.F == pytest.approx(10.0 / 3.0, abs=1e-8)
        assert out_rep.F == pytest.approx(critical_value_formula(t, 4), rel=1e-10)
        # the generator was rescaled by sqrt(5) to make its Gram norm one
        assert abs(out.coeffs[0, 2, 2]) == pytest.approx(np.sqrt(5.0), rel=1e-12)
        np.testing.assert_allclose(
            np.diag(out_rep.M).real, [-10.0, 2.0, 0.0, -4.0], atol=1e-10
        )

    def test_trace_identity_of_output(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(np.diag([0.0, 1.0, 0.0]).astype(complex),),
            right_maps=(Z3,),
        )
        out, out_rep = build_solvable_extension(spec)
        assert np.trace(out_rep.M).real == pytest.approx(-2 * out.norm_sq, rel=1e-10)

    def test_zero_maps_rejected(self):
        core = get("nonlie2").bracket
        spec = ExtensionSpec(
            core=core, core_report=criticality_decompose(core),
            left_maps=(Z2,), right_maps=(Z2,),
        )
        assert_both_reject(spec, "(ii)")

    def test_non_leibniz_assembly_rejected(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(np.diag([2.0, 0.0, 1.0]).astype(complex),),
            right_maps=(Z3,),
        )
        with pytest.raises(NotSymmetricLeibniz):
            build_solvable_extension(spec)

    def test_noncommuting_with_core_derivation_rejected(self, s1):
        mu, rep = s1
        bad = np.zeros((3, 3), dtype=complex)
        bad[0, 1] = 1.0  # maps the weight-10 line into the weight-12 line
        spec = ExtensionSpec(core=mu, core_report=rep, left_maps=(bad,), right_maps=(Z3,))
        assert_both_reject(spec, "(i)")

    def test_non_normal_map_rejected(self, s1):
        mu, rep = s1
        shift = np.zeros((3, 3), dtype=complex)
        shift[1, 0] = 1.0  # weight-12 line into weight-10: not normal
        spec_bad = ExtensionSpec(core=mu, core_report=rep, left_maps=(shift,), right_maps=(Z3,))
        # S1's weights are distinct, so a non-diagonal map already fails (i)
        assert_both_reject(spec_bad, "(i)")
        # on the abelian core every map commutes with D = I and is a derivation
        nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        spec_nil = ExtensionSpec(
            core=Bracket.zero(2), core_report=None, left_maps=(nil,), right_maps=(Z2,),
            core_c=-1.0,
        )
        assert_both_reject(spec_nil, "(ii)")

    def test_degenerate_core_rebuilds_l2(self):
        spec = ExtensionSpec(
            core=Bracket.zero(2), core_report=None,
            left_maps=(np.diag([1.0, 0.0]).astype(complex),),
            right_maps=(np.diag([-1.0, 0.0]).astype(complex),),
            core_c=-4.0,
        )
        out, rep = build_solvable_extension(spec)
        assert str(critical_type(rep.D)) == "(0<1;1,2)"
        assert rep.F == pytest.approx(4.0, rel=1e-10)
        ref = criticality_decompose(get("L2").bracket)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rep.M), np.linalg.eigvalsh(ref.M), atol=1e-8
        )

    def test_degenerate_core_rebuilds_s4_mirror(self):
        spec = ExtensionSpec(
            core=Bracket.zero(2), core_report=None,
            left_maps=(np.diag([1.0, 0.0]).astype(complex),),
            right_maps=(Z2,),
            core_c=-2.0,
        )
        out, rep = build_solvable_extension(spec)
        assert str(critical_type(rep.D)) == "(0<1;1,2)"
        ref = criticality_decompose(get("S4").bracket)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(rep.M), np.linalg.eigvalsh(ref.M), atol=1e-8
        )
        assert rep.F == pytest.approx(ref.F, rel=1e-8)

    def test_degenerate_mode_validation(self):
        spec = ExtensionSpec(
            core=get("S1").bracket, core_report=None,
            left_maps=(Z3,), right_maps=(Z3,),
            core_c=-1.0,
        )
        with pytest.raises(ValueError, match="zero core"):
            build_solvable_extension(spec)

    def test_non_positive_core_type_rejected(self):
        lie2 = get("lie2").bracket  # type (0<1;1,1): has a zero eigenvalue
        spec = ExtensionSpec(
            core=lie2, core_report=criticality_decompose(lie2),
            left_maps=(np.eye(2, dtype=complex),), right_maps=(Z2,),
        )
        assert_both_reject(spec, "core type")

    def test_irrational_core_type_rejected(self):
        core = irrational_type_s2()
        spec = ExtensionSpec(core=core, core_report=criticality_decompose(core, 1e-2),
                             left_maps=(Z3,), right_maps=(Z3,))
        with pytest.raises(HypothesisViolation, match="no rational critical type") as info:
            build_solvable_extension(spec, 1e-2)
        assert info.value.clause == "core type"

    def test_f_bracket_rejected(self, s1):
        mu, rep = s1
        spec = as_f_zero(ExtensionSpec(core=mu, core_report=rep, left_maps=(Z3,), right_maps=(Z3,)))
        with pytest.raises(ValueError, match="^solvable extension takes no reductive bracket;"
                                             " use the general builder$"):
            build_solvable_extension(spec)


class TestGeneralExtension:
    def test_missing_f_bracket_rejected(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(core=mu, core_report=rep, left_maps=(Z3,), right_maps=(Z3,))
        with pytest.raises(ValueError,
                           match="^general extension needs the reductive bracket f_bracket$"):
            build_general_extension(spec)

    def test_so3_times_s1(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(Z3, Z3, Z3), right_maps=(Z3, Z3, Z3),
            f_bracket=so3_bracket(), semisimple=(0, 1, 2), center=(),
        )
        out, out_rep = build_general_extension(spec)
        assert out.dim == 6
        t = critical_type(out_rep.D)
        assert str(t) == "(0<3<5<6;3,1,1,1)"
        assert out_rep.F == pytest.approx(1.25, abs=1e-8)
        assert out_rep.F == pytest.approx(critical_value_formula(t, 6), rel=1e-12)
        assert out_rep.c == pytest.approx(-10.0, rel=1e-10)
        assert check_identities(out).is_symmetric_leibniz

    def test_pure_center_matches_solvable(self, s1):
        mu, rep = s1
        lmap = np.diag([0.0, 1.0, 0.0]).astype(complex)
        solv, solv_rep = build_solvable_extension(
            ExtensionSpec(core=mu, core_report=rep, left_maps=(lmap,), right_maps=(Z3,))
        )
        gen, gen_rep = build_general_extension(
            ExtensionSpec(
                core=mu, core_report=rep, left_maps=(lmap,), right_maps=(Z3,),
                f_bracket=Bracket.zero(1), semisimple=(), center=(0,),
            )
        )
        np.testing.assert_array_equal(solv.coeffs, gen.coeffs)
        assert solv_rep.F == gen_rep.F
        assert solv_rep.c == gen_rep.c
        assert solv_rep.residual_tangent == gen_rep.residual_tangent

    def test_non_skew_action_rejected(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(np.diag([0.0, 1.0, 0.0]).astype(complex), Z3, Z3),
            right_maps=(Z3, Z3, Z3),
            f_bracket=so3_bracket(), semisimple=(0, 1, 2), center=(),
        )
        with pytest.raises(HypothesisViolation, match="skew"):
            build_general_extension(spec)

    def test_non_lie_f_rejected(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(Z3, Z3, Z3), right_maps=(Z3, Z3, Z3),
            f_bracket=Bracket.from_entries(3, {(1, 1, 2): 1}),
            semisimple=(0, 1, 2), center=(),
        )
        with pytest.raises(NotLie):
            build_general_extension(spec)

    def test_noncentral_center_index_rejected(self, s1):
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(Z3, Z3, Z3), right_maps=(Z3, Z3, Z3),
            f_bracket=so3_bracket(), semisimple=(0, 1), center=(2,),
        )
        with pytest.raises(HypothesisViolation, match="central"):
            build_general_extension(spec)

    def test_partition_validation(self, s1):
        mu, rep = s1
        with pytest.raises(ValueError, match="partition"):
            build_general_extension(
                ExtensionSpec(
                    core=mu, core_report=rep,
                    left_maps=(Z3, Z3, Z3), right_maps=(Z3, Z3, Z3),
                    f_bracket=so3_bracket(), semisimple=(0, 1), center=(),
                )
            )

    def test_central_clauses_rechecked_after_orthonormalization(self):
        # L_0 and L_3 are not Gram-orthogonal, so the orthonormal central
        # generator picks up an so(3) part and is no longer central in f
        c = np.zeros((4, 4, 4), dtype=complex)
        c[:3, :3, :3] = so3_bracket().coeffs
        skew = 1j * np.diag([1.0, -1.0])
        spec = ExtensionSpec(
            core=Bracket.zero(2), core_report=None,
            left_maps=(skew, Z2, Z2, np.diag([1.0, 0.0]).astype(complex)),
            right_maps=(Z2, Z2, Z2, Z2),
            f_bracket=Bracket(4, c), semisimple=(0, 1, 2), center=(3,),
            core_c=-1.0,
        )
        with pytest.raises(HypothesisViolation) as info:
            build_general_extension(spec)
        assert info.value.clause == "center after orthonormalization"

    def test_singular_gram_rejected(self, s1):
        # a "semisimple" generator that acts by nothing at all slips past the
        # skewness checks but leaves the Gram form singular
        mu, rep = s1
        spec = ExtensionSpec(
            core=mu, core_report=rep,
            left_maps=(Z3,), right_maps=(Z3,),
            f_bracket=Bracket.zero(1), semisimple=(0,), center=(),
        )
        with pytest.raises(GramNotPositive):
            build_general_extension(spec)


class TestDtype:
    """Real maps build in real arithmetic, complex ones in complex."""

    @staticmethod
    def spec(phase: complex) -> ExtensionSpec:
        # mu_he(4) extended by L = phase diag(1, 0, 1, 0), R = -L; the real maps
        # come as complex128 with zero imaginary part
        lmap = phase * np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        return ExtensionSpec(core=get("mu_he", n=4).bracket, core_report=None,
                             left_maps=(lmap,), right_maps=(-lmap,))

    def test_real_spec_builds_real(self):
        real, cplx = self.spec(1.0), self.spec(1j)
        assert [a.dtype for a in (*real.left_maps, *real.right_maps)] == [np.float64] * 2
        assert [a.dtype for a in (*cplx.left_maps, *cplx.right_maps)] == [np.complex128] * 2
        out, rep = build_solvable_extension(real)
        out_c, rep_c = build_solvable_extension(cplx)
        assert out.coeffs.dtype == np.float64 and out_c.coeffs.dtype == np.complex128
        # the complex spec is the real one with the generator A replaced by iA
        np.testing.assert_allclose(np.abs(out_c.coeffs), np.abs(out.coeffs), atol=1e-12)
        t = get("mu_he", n=4).expected_type
        assert rep.type == rep_c.type == CriticalType((0,) + t.ks, (1,) + t.ds)
        assert rep.F == pytest.approx(rep_c.F, rel=1e-12)
        assert rep.F == pytest.approx(critical_value_formula(rep.type, 5), rel=1e-10)


class TestSpecValidation:
    def test_map_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            ExtensionSpec(
                core=get("S1").bracket, core_report=None,
                left_maps=(Z2,), right_maps=(Z2,),
            )

    def test_core_dimension_zero_rejected(self):
        z0 = np.zeros((0, 0))
        with pytest.raises(ValueError, match="^core dimension must be at least 1$"):
            ExtensionSpec(core=Bracket.zero(0), core_report=None, left_maps=(z0,), right_maps=(z0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="pair"):
            ExtensionSpec(
                core=get("S1").bracket, core_report=None,
                left_maps=(Z3, Z3), right_maps=(Z3,),
            )

    @pytest.mark.parametrize("indices", [{"semisimple": (0,)}, {"center": (0,)}],
                             ids=["semisimple", "center"])
    def test_generator_indices_without_f_bracket_rejected(self, indices):
        # L = diag(0, 1, 0) is not skew-Hermitian, as a semisimple generator's
        # maps must be; without the check this spec built silently as an
        # all-central extension of type (0<3<5<6;1,1,1,1)
        ell = np.diag([0.0, 1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="^semisimple and center index the generators"
                                             " of f_bracket, which is None$"):
            ExtensionSpec(core=get("S1").bracket, core_report=None,
                          left_maps=(ell,), right_maps=(-ell,), **indices)

    def test_core_report_of_another_product_rejected(self, s1):
        # S2's certificate is critical with a positive type, so without the
        # check the build went on and blamed the assembled product
        mu, rep = s1
        spec = ExtensionSpec(core=mu, core_report=criticality_decompose(get("S2").bracket),
                             left_maps=(np.diag([0.0, 1.0, 0.0]).astype(complex),),
                             right_maps=(Z3,))
        for build, s in ((build_solvable_extension, spec), (build_general_extension, as_f_zero(spec))):
            with pytest.raises(ValueError, match="core_report does not certify core"):
                build(s)
        # a report of an equal product built apart from it is accepted
        same = dataclasses.replace(spec, core=Bracket(3, mu.coeffs.copy()), core_report=rep)
        assert build_solvable_extension(same)[1].is_critical


class TestCertify:
    """The last gate of both builders: the assembled product must be critical,
    keep the core's constant and have the core's type with a 0 prepended."""

    def test_not_critical(self, s1):
        _, rep = s1
        moved = perturb_in_orbit(get("S2").bracket, 0.3, 1)  # symmetric Leibniz, not critical
        msg = "assembled product is not critical (tangent residual 0.288)"
        with pytest.raises(CertificationFailed, match=re.escape(msg)):
            _certify(moved, [], rep.c, rep.type, 1e-8)

    def test_constant_changed(self, s1):
        mu, rep = s1
        msg = "^constant changed: core -20 vs assembled -10$"
        with pytest.raises(CertificationFailed, match=msg):
            _certify(mu, [], 2 * rep.c, rep.type, 1e-8)

    def test_type_differs(self, s1):
        # one generator expects (0<3<5<6;1,1,1,1); S1 itself reads (3<5<6;1,1,1)
        mu, rep = s1
        with pytest.raises(CertificationFailed, match=re.escape(
                "type (3<5<6;1,1,1) differs from expected (0<3<5<6;1,1,1,1)")):
            _certify(mu, [Z3], rep.c, rep.type, 1e-8)
