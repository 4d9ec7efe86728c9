import tracemalloc

import numpy as np
import pytest

from leibcrit.bracket import Bracket, check_identities
from leibcrit.catalog import CatalogEntry, get, names, standard_rows, verify_catalog
from leibcrit.moment import criticality_decompose


class TestGet:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown catalog entry"):
            get("S99")

    def test_s1_data(self):
        e = get("S1")
        assert e.dim == 3
        assert str(e.expected_type) == "(3<5<6;1,1,1)"
        assert e.expected_value == 20.0
        assert e.bracket.coeffs[2, 2, 0] == 1.0

    def test_dim_is_the_brackets(self):
        assert isinstance(CatalogEntry.dim, property)
        assert all(e.dim == e.bracket.dim for e in standard_rows())

    def test_l4_has_no_expected_type(self):
        e = get("L4")
        assert e.expected_type is None and e.expected_value is None

    def test_mu_sy_family(self):
        e = get("mu_sy", n=4)
        assert str(e.expected_type) == "(3<5<6;1,2,1)"
        assert e.expected_value == 20.0
        e5 = get("mu_sy", n=5)
        assert str(e5.expected_type) == "(3<5<6;1,3,1)"

    def test_mu_he_small_n_reduces(self):
        assert str(get("mu_he", n=3).expected_type) == "(1<2;2,1)"
        assert str(get("mu_he", n=5).expected_type) == "(2<3<4;2,2,1)"

    def test_param_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            get("L3", {"alpha": 0})
        with pytest.raises(ValueError, match="alpha"):
            get("S5", {"alpha": 0})
        with pytest.raises(ValueError, match="^S7 requires alpha != 0$"):
            get("S7", {"alpha": 0})
        with pytest.raises(ValueError, match="n >="):
            get("mu_he", n=2)

    @pytest.mark.parametrize(
        "name,params,n,msg",
        [
            ("S3", {"alpha": 0.25}, None, "S3 has no parameter alpha; it takes: beta"),
            ("S1", None, 7, "S1 has no parameter n; it takes: none"),
            ("mu_he", {"n": 4.7}, None, "integer n, got 4.7"),
            ("mu_he", {"n": 2j}, None, "integer n, got 2j"),
            ("mu_sy", None, True, "n >= 2"),
        ],
    )
    def test_rejects_unusable_parameters(self, name, params, n, msg):
        with pytest.raises(ValueError, match=msg):
            get(name, params, n)

    def test_integral_float_n_accepted(self):
        e = get("mu_he", {"n": 4.0})
        assert e.dim == 4 and e.params == {"n": 4} and e.label == "mu_he(n=4)"

    def test_s3_quarter_is_dead_row(self):
        e = get("S3", {"beta": 0.25})
        assert e.expected_type is None

    def test_label(self):
        assert get("S3", {"beta": 0.25}).label == "S3(beta=0.25)"
        assert get("L3", {"alpha": 2}).label == "L3(alpha=2)"
        assert get("L3", {"alpha": 1e20}).label == "L3(alpha=1e+20)"


class TestIdentityClasses:
    def test_declared_class_holds_tightly(self):
        for e in standard_rows():
            idr = check_identities(e.bracket, tol=1e-12)
            if e.algebra_class == "lie":
                assert idr.is_lie, e.label
            elif e.algebra_class == "symmetric":
                assert idr.is_symmetric_leibniz and not idr.is_lie, e.label
            elif e.algebra_class == "left":
                assert idr.is_left_leibniz and not idr.is_right_leibniz, e.label
            else:
                assert idr.is_right_leibniz and not idr.is_left_leibniz, e.label

    @pytest.mark.parametrize(
        "name,params,n",
        [("mu_hy", None, n) for n in range(2, 11)]
        + [("mu_sy", None, n) for n in range(2, 11)]
        + [("mu_he", None, n) for n in range(3, 11)]
        + [(name, {"alpha": a}, None) for name in ("L3", "S5", "S7") for a in (-3, 0.5, 10, 2 - 1j)]
        + [("S3", {"beta": b}, None) for b in (0, -3, 0.5)],
    )
    def test_family_class_holds_tightly(self, name, params, n):
        # |alpha| stays >= 1e-3: S5's left defect is alpha^2, below the 1e-12 cut for smaller alpha
        e = get(name, params, n)
        idr = check_identities(e.bracket, tol=1e-12)
        assert {
            "lie": idr.is_lie,
            "symmetric": idr.is_symmetric_leibniz and not idr.is_lie,
            "right": idr.is_right_leibniz and not idr.is_left_leibniz,
        }[e.algebra_class], e.label

    @pytest.mark.parametrize("entry", standard_rows(), ids=lambda e: e.label)
    def test_opposite_product_swaps_sides_only(self, entry):
        # c[j, i, k] swaps left and right multiplications, which M sums alike
        mu = entry.bracket
        op = Bracket(mu.dim, mu.coeffs.transpose(1, 0, 2))
        rep, rep_op = criticality_decompose(mu), criticality_decompose(op)
        np.testing.assert_array_equal(rep_op.M, rep.M)
        assert (rep_op.F, rep_op.is_critical, rep_op.type) == (rep.F, rep.is_critical, rep.type)
        idr, idr_op = check_identities(mu), check_identities(op)
        assert (idr_op.is_left_leibniz, idr_op.is_right_leibniz) == (
            idr.is_right_leibniz, idr.is_left_leibniz)

    def test_one_sided_rows_lie_outside_s3(self):
        one_sided = [e for e in standard_rows() if e.algebra_class == "right"]
        assert {e.name for e in one_sided} == {"S4", "S5", "S7", "S8"}
        for e in one_sided:
            assert e.notes.endswith("right Leibniz only; its opposite is left Leibniz only;"
                                    " in S_3 in neither orientation"), e.label

    def test_get_does_not_check_identities(self):
        # the class is the builder's: a lookup runs no O(n^4) identity check
        tracemalloc.start()
        try:
            e = get("mu_he", n=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.dim == e.bracket.dim == 60
        assert e.bracket.coeffs.dtype == np.float64
        assert peak < 16e6

    def test_all_names_construct(self):
        for name in names():
            assert get(name).bracket.dim >= 2


@pytest.fixture(scope="module")
def rows():
    return verify_catalog()


class TestVerifyCatalog:

    def test_all_rows_pass(self, rows):
        failed = [r.label for r in rows if not r.passed]
        assert not failed, f"failing rows: {failed}"

    def test_strategies(self, rows):
        by_label = {r.label: r for r in rows}
        assert by_label["L1"].strategy == "direct"
        assert by_label["L5"].strategy == "flow"
        assert by_label["S3(beta=1)"].strategy == "flow"
        assert by_label["L4"].strategy == "noncritical"

    def test_noncritical_rows_decisive(self, rows):
        for label in ("L4", "S3(beta=0.25)", "S6", "S8"):
            row = next(r for r in rows if r.label == label)
            assert row.residual > 0.1

    def test_extremes_at_dim_3(self, rows):
        vals = {}
        for r in rows:
            if r.computed_value is None:
                continue
            entry_dim = 2 if r.label in ("lie2", "nonlie2", "ns2") else 3
            if "n=4" in r.label:
                entry_dim = 4
            if entry_dim == 3:
                vals[r.label] = r.computed_value
        top = max(vals.values())
        assert top == pytest.approx(20.0, rel=1e-8)
        argmax = [k for k, v in vals.items() if v > 20.0 - 1e-6]
        assert argmax == ["S1"]
        bottom = min(vals.values())
        assert bottom == pytest.approx(4.0 / 3.0, rel=1e-6)
        argmin = sorted(k for k, v in vals.items() if v < 4.0 / 3.0 + 1e-6)
        assert argmin == ["L5", "so3"]

    def test_both_2d_entries_critical(self):
        for name in ("lie2", "nonlie2"):
            rep = criticality_decompose(get(name).bracket)
            assert rep.is_critical

    def test_direct_flag_agrees_with_computation(self):
        for e in standard_rows():
            rep = criticality_decompose(e.bracket)
            assert rep.is_critical == e.critical_in_given_basis, e.label
