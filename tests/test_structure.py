import dataclasses

import numpy as np
import pytest

import leibcrit
from helpers import irrational_type_s2, random_bracket, random_unitary
from leibcrit import structure
from leibcrit.bracket import Bracket, _base_change, check_identities, gl_act, inf_act
from leibcrit.catalog import get, standard_rows
from leibcrit.extensions import ExtensionSpec, build_solvable_extension
from leibcrit.flow import descend, perturb_in_orbit
from leibcrit.linalg import _unit_coeffs, hermitian_eigen
from leibcrit.moment import _spectrum_type, critical_type, criticality_decompose
from leibcrit.structure import _center_subspace, structure_profile, verify_structure_theorem

NONLIE2 = Bracket.from_entries(2, {(1, 1, 2): 1})
LIE2 = Bracket.from_entries(2, {(1, 2, 2): 1}, antisymmetrize=True)
SO3 = Bracket.from_entries(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}, antisymmetrize=True)


#: Symmetric Leibniz critical points whose checks reach every clause's kernels.
KERNEL_CASES = [pytest.param(get(name, n=n).bracket, id=name if n is None else f"{name}({n})")
                for name, n in (("S1", None), ("so3", None), ("mu_hy", 5), ("mu_he", 7),
                                ("mu_sy", 6), ("S2", None))]


def one_spectrum_cases() -> list:
    """S2, mu_he(7) and mu_sy(6), whose l_+ is the whole algebra, and a unitary rotation of each."""
    cases = []
    for i, (name, n) in enumerate((("S2", None), ("mu_he", 7), ("mu_sy", 6))):
        mu = get(name, n=n).bracket
        u = random_unitary(mu.dim, np.random.default_rng(i))
        label = name if n is None else f"{name}({n})"
        cases += [pytest.param(mu, id=label), pytest.param(gl_act(u, mu), id=f"{label}@U")]
    return cases


def graded_basis(mu, rep) -> dict:
    """What :func:`verify_structure_theorem` reads while it checks mu against
    rep: the eigenbasis ``u`` of ``rep.eigen`` with its eigenvalues ``w`` scaled
    back to those of rep.D, and the column blocks ``neg``, ``zero`` and ``pos``
    of l_-, l_0 and l_+ its clauses get."""
    seen = {"w": rep.eigen[0] * rep.norm_sq, "u": rep.eigen[1]}
    spies = {"_lminus_nonnormality": lambda args, out: {"neg": args[1]},
             "_adjoint_closure": lambda args, out: {"zero": args[1]},
             "_nilradical": lambda args, out: {"pos": args[1]}}
    with pytest.MonkeyPatch.context() as mp:
        for name, record in spies.items():
            def spy(*args, real=getattr(structure, name), record=record):
                out = real(*args)
                seen.update(record(args, out))
                return out

            mp.setattr(structure, name, spy)
        verify_structure_theorem(mu, rep)
    return seen


def rank(part: slice) -> int:
    return part.stop - part.start


def eigenspaces(g: dict, rep) -> tuple[list[np.ndarray], tuple[float, ...]]:
    """The columns of g["u"] in one block per entry of rep.type, and their mean eigenvalues."""
    bounds = np.cumsum((0,) + rep.type.ds)
    blocks = list(zip(bounds, bounds[1:]))
    return [g["u"][:, a:b] for a, b in blocks], tuple(float(np.mean(g["w"][a:b])) for a, b in blocks)


def symmetric_critical_entries():
    out = []
    for e in standard_rows():
        if e.algebra_class in ("lie", "symmetric") and e.critical_in_given_basis:
            out.append(e)
    return out


def reference_verify_structure_theorem(mu, report):
    """The structure checks as they ran while a report stored its own D: a
    guard that D is a derivation of mu to the report's tolerance, and l_+
    re-certified here also when it is the whole algebra, where clause (iv)
    reads the report's type."""
    if not report.is_critical:
        raise ValueError("report does not certify a critical point")
    t = report.type
    if t is None:
        raise ValueError("report has no rational critical type")
    if not check_identities(mu).is_symmetric_leibniz:
        raise ValueError("bracket is not symmetric Leibniz")
    defect = inf_act(report.D, mu).norm
    bound = report.tol * float(np.linalg.norm(report.M)) * mu.norm
    if not defect <= bound:
        raise ValueError(
            f"report does not certify this bracket (|D.mu| {defect:.3g} vs {bound:.3g})"
        )
    u = hermitian_eigen(report.D)[1]
    c, tol = _base_change(u.conj().T, u, mu.coeffs / mu.norm), report.tol
    rm = sum(d for k, d in zip(t.ks, t.ds) if k < 0)
    r0 = sum(d for k, d in zip(t.ks, t.ds) if k == 0)
    neg, zero, pos = slice(0, rm), slice(rm, rm + r0), slice(rm + r0, mu.dim)
    *reductive, center = structure._l0_reductive(c, zero, tol)
    passed, ideal_res, is_nilp, degenerate, restr_type, matches = structure._nilradical(
        c, pos, t, tol)
    if restr_type is not None:
        restr_type = criticality_decompose(Bracket(rank(pos), c[pos, pos, pos]), tol).type
        matches = restr_type == (structure._strip_zero(t) or t)
        passed = ideal_res < tol and is_nilp and matches
    return structure.StructureVerdict(
        *structure._adjoint_closure(c, zero, tol),
        *reductive,
        *structure._center_normal(c, zero, center, tol),
        passed, ideal_res, is_nilp, degenerate, restr_type, matches,
        structure._lminus_nonnormality(c, neg),
    )


def verdict_cases() -> list:
    """Every symmetric critical standard row, mu_hy, mu_he and mu_sy at
    n = 3-16 in the catalog basis and rotated, the m0(5-8) descent limits,
    and the solvable extension of S1 by L = diag(0, 1, 0), R = -L, in both
    bases: its l_+ is the core, the only case here whose l_+ is re-certified
    (in every other one l_+ is zero, has the zero product, or is all of mu)."""
    cases = [pytest.param(e.bracket, id=e.label) for e in symmetric_critical_entries()]
    rng = np.random.default_rng(271)
    ext, _ = build_solvable_extension(ExtensionSpec(
        core=get("S1").bracket, core_report=None,
        left_maps=(np.diag([0.0, 1.0, 0.0]),), right_maps=(-np.diag([0.0, 1.0, 0.0]),)))
    cases.append(pytest.param(ext, id="S1+ad(0,1,0)"))
    cases.append(pytest.param(gl_act(random_unitary(4, rng), ext), id="S1+ad(0,1,0)@U"))
    for name in ("mu_hy", "mu_he", "mu_sy"):
        for n in range(3, 17):
            mu = get(name, n=n).bracket
            cases.append(pytest.param(mu, id=f"{name}({n})"))
            cases.append(pytest.param(gl_act(random_unitary(n, rng), mu), id=f"{name}({n})@U"))
    for n in range(5, 9):
        limit = descend(get("m0", n=n).bracket).final_bracket
        cases.append(pytest.param(limit, id=f"limit of m0({n})"))
    return cases


def assert_same_verdict(got, want) -> None:
    """Every field equal: types and flags exactly, numbers to 1e-12."""
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, float) and isinstance(b, float):
            assert a == pytest.approx(b, rel=0, abs=1e-12), f.name
        else:
            assert a == b, f.name


class TestStructureProfile:
    def test_nonlie2_nilpotent(self):
        p = structure_profile(NONLIE2)
        assert p.lower_central_dims == (2, 1, 0)
        assert p.is_nilpotent and p.is_solvable

    def test_lie2_solvable_not_nilpotent(self):
        p = structure_profile(LIE2)
        assert p.derived_dims == (2, 1, 0)
        assert p.lower_central_dims == (2, 1, 1)
        assert p.is_solvable and not p.is_nilpotent

    def test_so3_perfect(self):
        p = structure_profile(SO3)
        assert p.derived_dims[:2] == (3, 3)
        assert not p.is_solvable and not p.is_nilpotent
        assert p.center_dim == 0

    def test_series_non_increasing(self, rng):
        mu = random_bracket(4, rng)
        p = structure_profile(mu)
        assert all(a >= b for a, b in zip(p.derived_dims, p.derived_dims[1:]))
        assert all(a >= b for a, b in zip(p.lower_central_dims, p.lower_central_dims[1:]))

    def test_nilpotent_implies_solvable_flagwise(self):
        for e in standard_rows():
            p = structure_profile(e.bracket)
            if p.is_nilpotent:
                assert p.is_solvable

    def test_nilpotent_center_nonzero(self):
        for mu in (NONLIE2, get("L1").bracket, get("S1").bracket, get("S2").bracket):
            p = structure_profile(mu)
            assert p.is_nilpotent
            assert p.center_dim > 0

    @pytest.mark.parametrize("entry", standard_rows(), ids=lambda e: e.label)
    def test_computes_the_derived_algebra_once(self, monkeypatch, entry):
        calls = []
        real = structure._subspace_product
        monkeypatch.setattr(structure, "_subspace_product", lambda *a: calls.append(a) or real(*a))
        p = structure_profile(entry.bracket)
        # one product per entry after the first of each series, less the shared [mu, mu]
        assert len(calls) == len(p.derived_dims) + len(p.lower_central_dims) - 3

    @pytest.mark.parametrize("mu", KERNEL_CASES)
    def test_kernels_take_arrays(self, mu, constructions):
        # the series and the center run on one unit tensor: mu/|mu| is the one Bracket
        structure_profile(mu)
        assert (constructions["Bracket"], constructions["normalized"]) == (1, 1)

    @pytest.mark.parametrize("delta", [2e-9, 5e-9, 3e-8])
    @pytest.mark.parametrize("seed", range(4))
    def test_series_do_not_grow_under_rotation(self, delta, seed):
        # [L, [L, L]] is about delta e2 on the unit product: a small largest
        # singular value beside round-off, which a relative cut counted as rank
        mu = Bracket.from_entries(3, {(1, 1, 2): 1, (1, 2, 2): delta})
        p = structure_profile(gl_act(random_unitary(3, np.random.default_rng(seed)), mu))
        for dims in (p.derived_dims, p.lower_central_dims):
            assert all(a >= b for a, b in zip(dims, dims[1:])), dims
        ref = structure_profile(mu)
        assert (p.derived_dims, p.lower_central_dims) == (ref.derived_dims, ref.lower_central_dims)

    def test_center_rank_does_not_depend_on_scale(self):
        s1 = get("S1").bracket
        ranks = {k: _center_subspace(_unit_coeffs(Bracket(3, 10.0**k * s1.coeffs))).shape[1]
                 for k in range(-40, 41)}
        assert {k: r for k, r in ranks.items() if r != 2} == {}

    def test_center_of_heisenberg(self):
        z = _center_subspace(_unit_coeffs(get("L1").bracket))
        assert z.shape == (3, 1)
        np.testing.assert_allclose(np.abs(z[:, 0]), [0, 0, 1], atol=1e-12)


class TestGradingDecomposition:
    """The eigenbasis of D in which verify_structure_theorem reads mu is graded
    by the critical type."""

    def test_l2_grading(self):
        l2 = get("L2").bracket
        g = graded_basis(l2, criticality_decompose(l2))
        assert (rank(g["neg"]), rank(g["zero"]), rank(g["pos"])) == (0, 1, 2)
        np.testing.assert_allclose(np.abs(g["u"][:, g["zero"]][:, 0]), [1, 0, 0], atol=1e-12)

    def test_zero_derivation(self):
        rep = criticality_decompose(SO3)
        assert np.linalg.norm(rep.D) < 1e-12
        g = graded_basis(SO3, rep)
        assert rank(g["zero"]) == 3
        assert eigenspaces(g, rep)[1] == pytest.approx((0.0,), abs=1e-12)

    def test_s1_all_positive(self):
        s1 = get("S1").bracket
        g = graded_basis(s1, criticality_decompose(s1))
        assert rank(g["pos"]) == 3
        assert rank(g["zero"]) == 0

    def test_rejects_uncertified_report(self):
        sl2, ns2 = get("L5").bracket, get("ns2").bracket
        with pytest.raises(ValueError, match="does not certify a critical point"):
            verify_structure_theorem(sl2, criticality_decompose(sl2))
        # the report is judged before the product
        with pytest.raises(ValueError, match="does not certify a critical point"):
            verify_structure_theorem(ns2, criticality_decompose(sl2))
        mu = irrational_type_s2()
        rep = criticality_decompose(mu, 1e-2)
        assert rep.is_critical
        with pytest.raises(ValueError, match="no rational critical type"):
            verify_structure_theorem(mu, rep)

    def test_parts_orthogonal_and_complete(self):
        s2 = get("S2").bracket
        rep = criticality_decompose(s2)
        g = graded_basis(s2, rep)
        blocks, _ = eigenspaces(g, rep)
        assert sum(b.shape[1] for b in blocks) == 3
        stacked = np.hstack(blocks)
        np.testing.assert_allclose(stacked.conj().T @ stacked, np.eye(3), atol=1e-10)
        assert (g["neg"].start, g["neg"].stop, g["zero"].stop, g["pos"].stop) == (
            0, g["zero"].start, g["pos"].start, 3)

    def test_eigenspaces_follow_the_type(self):
        for entry in symmetric_critical_entries():
            rep = criticality_decompose(entry.bracket)
            g = graded_basis(entry.bracket, rep)
            blocks, values = eigenspaces(g, rep)
            assert tuple(b.shape[1] for b in blocks) == rep.type.ds, entry.label
            np.testing.assert_allclose(rep.type.scale * np.array(values), rep.type.ks, atol=1e-6)
            signs = np.sign(rep.type.ks)
            for part, sign in ((g["neg"], -1), (g["zero"], 0), (g["pos"], 1)):
                assert rank(part) == sum(d for k, d in zip(signs, rep.type.ds) if k == sign)

    def test_perturbed_l2_limit_has_one_block_per_type_entry(self):
        # critical to about 1e-8, with D eigenvalues 0, 1.99999999 and 2.00000001
        tr = descend(perturb_in_orbit(get("L2").bracket, 0.3, 0))
        rep = tr.final_report
        assert rep.is_critical and str(rep.type) == "(0<1;1,2)"
        blocks, values = eigenspaces(graded_basis(tr.final_bracket, rep), rep)
        assert tuple(b.shape[1] for b in blocks) == (1, 2) == rep.type.ds
        assert values == pytest.approx((0.0, 2.0), abs=1e-7)

    def test_eigenspace_product_rule(self):
        # products of eigenvectors land in the eigenspace of the summed weight
        for entry in symmetric_critical_entries():
            mu = entry.bracket.normalized()
            rep = criticality_decompose(mu)
            blocks, values = eigenspaces(graded_basis(mu, rep), rep)
            for a, sa in zip(values, blocks):
                for b, sb in zip(values, blocks):
                    img = np.einsum("ia,jb,ijk->kab", sa, sb, mu.coeffs)
                    img = img.reshape(mu.dim, -1)
                    hits = np.where(np.abs(np.array(values) - (a + b)) < 1e-6)[0]
                    if hits.size:
                        target = blocks[hits[0]]
                        img = img - target @ target.conj().T @ img
                    assert np.linalg.norm(img) < 1e-8, entry.label

    def test_blocks_are_the_type_multiplicities(self):
        # the type clusters the eigenvalues of rep.eigen and the grading slices
        # its eigenvectors, so each block holds as many columns as the type's
        # entries of its sign count, over eigenvalues of that sign
        for entry in symmetric_critical_entries():
            rep = criticality_decompose(entry.bracket)
            w, t = rep.eigen[0], rep.type
            assert t == _spectrum_type(w), entry.label
            g = graded_basis(entry.bracket, rep)
            ints = np.round(w * t.scale * rep.norm_sq)
            for part, sign in ((g["neg"], -1), (g["zero"], 0), (g["pos"], 1)):
                assert rank(part) == sum(d for k, d in zip(t.ks, t.ds) if np.sign(k) == sign)
                assert np.all(np.sign(ints[part]) == sign), entry.label

    @pytest.mark.parametrize("mu", one_spectrum_cases())
    def test_analyze_pipeline_decomposes_one_spectrum(self, mu, monkeypatch):
        # the type and the grading read one eigendecomposition of D/|mu|^2
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
        check_identities(mu)
        rep = criticality_decompose(mu)
        assert rep.type is not None
        structure_profile(mu)
        assert verify_structure_theorem(mu, rep).all_passed
        assert calls == [(mu.dim, mu.dim)]


class TestVerifyStructure:
    def test_all_symmetric_criticals_pass(self):
        for entry in symmetric_critical_entries():
            rep = criticality_decompose(entry.bracket)
            v = verify_structure_theorem(entry.bracket, rep)
            assert v.all_passed, entry.label
            assert max(
                v.adjoint_residual, v.l0_residual, v.center_residual, v.nilradical_residual
            ) < 1e-8

    def test_l2_degenerate_abelian(self):
        l2 = get("L2").bracket
        v = verify_structure_theorem(l2, criticality_decompose(l2))
        assert v.degenerate_abelian_nilradical
        assert v.restricted_type is None
        assert v.all_passed

    def test_s1_restriction_is_itself(self):
        s1 = get("S1").bracket
        v = verify_structure_theorem(s1, criticality_decompose(s1))
        assert not v.degenerate_abelian_nilradical
        assert str(v.restricted_type) == "(3<5<6;1,1,1)"
        assert v.type_matches and v.is_nilpotent_radical

    def test_heisenberg_restriction(self):
        l1 = get("L1").bracket
        v = verify_structure_theorem(l1, criticality_decompose(l1))
        assert str(v.restricted_type) == "(1<2;2,1)"
        assert v.all_passed

    def test_so3_reductive_zero_part(self):
        v = verify_structure_theorem(SO3, criticality_decompose(SO3))
        assert v.all_passed
        assert v.killing_min_sv is not None and v.killing_min_sv > 1e-6
        assert v.restricted_type is None  # no positive part at all

    def test_rotated_lie2_round_off_l0_is_not_structure(self):
        # l_0 of lie2 is 1-d with zero product; rotated, that product is round-off,
        # which the unit product's cut must read as zero: no Killing form to test
        mu = gl_act(random_unitary(2, np.random.default_rng(5)), LIE2)
        v = verify_structure_theorem(mu, criticality_decompose(mu))
        assert v.all_passed
        assert v.killing_min_sv is None

    def test_rejects_report_of_another_bracket(self):
        s1, s2, l2 = (get(name).bracket for name in ("S1", "S2", "L2"))
        with pytest.raises(ValueError, match="does not certify this bracket"):
            verify_structure_theorem(s2, criticality_decompose(s1))
        with pytest.raises(ValueError, match="does not certify this bracket"):
            verify_structure_theorem(s1, criticality_decompose(l2))

    def test_rejects_non_derivation(self):
        # a report whose D is not a derivation of its product cannot be built:
        # D follows from mu, and moving the report to another product moves D
        s1, s2 = get("S1").bracket, get("S2").bracket
        rep = criticality_decompose(s1)
        with pytest.raises(TypeError):
            dataclasses.replace(rep, D=np.diag([1.0, 0.0, 0.0]))
        moved = dataclasses.replace(rep, mu=s2)
        assert moved.derivation_defect < 1e-12
        with pytest.raises(ValueError, match="does not certify this bracket"):
            verify_structure_theorem(s1, moved)

    def test_accepts_report_of_an_equal_product(self):
        s1 = get("S1").bracket
        rep = criticality_decompose(s1)
        copy = Bracket(s1.dim, s1.coeffs.copy())
        assert copy is not s1
        assert_same_verdict(verify_structure_theorem(copy, rep), verify_structure_theorem(s1, rep))

    @pytest.mark.parametrize("mu", verdict_cases())
    def test_matches_reference_verdict(self, mu):
        rep = criticality_decompose(mu)
        assert_same_verdict(verify_structure_theorem(mu, rep),
                            reference_verify_structure_theorem(mu, rep))

    @pytest.mark.parametrize("name", ["mu_he", "mu_sy"])
    def test_whole_nilradical_calls_no_inf_act_and_no_certificate(self, monkeypatch, name):
        # every entry of their types is positive, so l_+ is the whole algebra
        mu = get(name, n=8).bracket
        rep = criticality_decompose(mu)
        calls = []
        for mod in (leibcrit, *(getattr(leibcrit, m) for m in ("bracket", "moment", "structure"))):
            for fn in ("inf_act", "criticality_decompose"):
                if hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, lambda *a, fn=fn: calls.append(fn))
        v = verify_structure_theorem(mu, rep)
        assert calls == []
        assert v.all_passed and v.type_matches and v.restricted_type == rep.type

    def test_reads_the_critical_type_once(self, monkeypatch):
        import leibcrit.moment as moment

        real = moment._spectrum_type
        for entry in symmetric_critical_entries():
            rep = criticality_decompose(entry.bracket)
            seen = []

            def counting(w):
                # rep's read types the eigenvalues of rep.eigen while its type
                # is not yet kept; a re-certified l_+ would type another spectrum
                seen.append(w is vars(rep).get("eigen", (None,))[0] and "type" not in vars(rep))
                return real(w)

            monkeypatch.setattr(moment, "_spectrum_type", counting)
            verify_structure_theorem(entry.bracket, rep)
            monkeypatch.setattr(moment, "_spectrum_type", real)
            # one read of rep.type and no other: no row re-certifies its l_+
            assert seen == [True], entry.label

    @pytest.mark.parametrize("mu", KERNEL_CASES)
    def test_builds_only_the_grading_subspaces(self, mu, constructions):
        # one Bracket each for a nonzero l_0 and l_+; the grading itself is the
        # columns of one eigenbasis
        rep = criticality_decompose(mu)
        r0 = sum(d for k, d in zip(rep.type.ks, rep.type.ds) if k == 0)
        rp = sum(d for k, d in zip(rep.type.ks, rep.type.ds) if k > 0)
        constructions.clear()
        verify_structure_theorem(mu, rep)
        assert constructions["Bracket"] == (r0 > 0) + (rp > 0)

    def test_center_of_l0_computed_once(self, monkeypatch):
        calls = []
        real = structure._center_subspace  # clause (ii) keeps the unit product's cut

        def counting(c, *args):
            calls.append(c.shape[0])
            return real(c, *args)

        monkeypatch.setattr(structure, "_center_subspace", counting)
        verify_structure_theorem(SO3, criticality_decompose(SO3))
        assert calls == [3]  # l_0 is all of so3 and l_+ = 0

    def test_nilradical_is_ideal_and_nilpotent(self):
        for entry in symmetric_critical_entries():
            mu = entry.bracket.normalized()
            g = graded_basis(mu, criticality_decompose(mu))
            lp = g["u"][:, g["pos"]]
            if lp.shape[1] == 0:
                continue
            proj_out = np.eye(mu.dim) - lp @ lp.conj().T
            left = np.einsum("ia,ijk->kaj", lp, mu.coeffs).reshape(mu.dim, -1)
            right = np.einsum("ja,ijk->kai", lp, mu.coeffs).reshape(mu.dim, -1)
            assert np.linalg.norm(proj_out @ left) < 1e-8
            assert np.linalg.norm(proj_out @ right) < 1e-8
            sub = Bracket(lp.shape[1], _base_change(lp.conj().T, lp, mu.coeffs))
            if not sub.is_zero:
                assert structure_profile(sub).is_nilpotent

    def test_precondition_not_critical(self):
        sl2 = get("L5").bracket
        rep = criticality_decompose(sl2)
        with pytest.raises(ValueError, match="critical"):
            verify_structure_theorem(sl2, rep)

    def test_precondition_not_symmetric(self):
        ns2 = get("ns2").bracket
        rep = criticality_decompose(ns2)
        assert rep.is_critical
        with pytest.raises(ValueError, match="symmetric"):
            verify_structure_theorem(ns2, rep)

    def test_precondition_irrational_type(self):
        mu = irrational_type_s2()
        rep = criticality_decompose(mu, 1e-2)
        assert rep.is_critical
        with pytest.raises(ValueError, match="no rational critical type"):
            verify_structure_theorem(mu, rep)


class TestFailingClauses:
    """Each clause must report failure for a Hermitian derivation of L1 (of
    mu_he(4) for the type match) that is not the critical certificate, with
    the residual that shows it."""

    @staticmethod
    def verdict(diag, name="L1", n=None):
        # the clauses on the catalog product name(n) graded by the derivation
        # diag(diag) and its type, as verify_structure_theorem grades by the
        # certificate's D, at its tolerance; a proper l_+ is re-certified
        mu, d = get(name, n=n).bracket, np.diag(diag).astype(complex)
        assert inf_act(d, mu).norm == 0.0
        u = hermitian_eigen(d)[1]
        c = _base_change(u.conj().T, u, mu.coeffs / mu.norm)
        return structure._graded_verdict(c, critical_type(d), criticality_decompose(mu).tol)

    def test_zero_derivation_breaks_closure_and_reductivity(self):
        v = self.verdict([0.0, 0.0, 0.0])
        assert not v.adjoint_closed and not v.l0_reductive
        assert v.adjoint_residual == pytest.approx(1.0)
        assert v.l0_residual == pytest.approx(1.0)
        assert v.center_normal and v.nilradical_ok
        assert not v.all_passed

    def test_negative_weight_breaks_nilradical(self):
        v = self.verdict([1.0, -1.0, 0.0])
        assert v.adjoint_closed and v.l0_reductive and v.center_normal
        assert not v.nilradical_ok
        assert v.nilradical_residual == pytest.approx(2**-0.5)
        assert v.lminus_min_nonnormality == pytest.approx(2**-0.5)
        assert not v.all_passed

    def test_split_zero_part_breaks_closure_and_normality(self):
        v = self.verdict([1.0, 0.0, 1.0])
        assert not v.adjoint_closed and not v.center_normal
        assert v.center_residual == pytest.approx(2**-0.5)
        assert v.l0_reductive and v.nilradical_ok
        assert not v.all_passed

    def test_lminus_nonnormality_over_basis_and_pairwise_sums(self):
        # all of L1 is l_-; right multiplication by the central e3 is zero
        v = self.verdict([-1.0, -1.0, -2.0])
        assert v.lminus_min_nonnormality == 0.0
        assert v.restricted_type is None

    def test_wrong_type_breaks_type_match(self):
        # l_0 = e4 and l_+ is the Heisenberg algebra, of type (1<2;2,1), not the
        # stripped (1<2<3;1,1,1) of the grading
        v = self.verdict([1.0, 2.0, 3.0, 0.0], "mu_he", 4)
        assert not v.type_matches and not v.nilradical_ok
        assert str(v.restricted_type) == "(1<2;2,1)"
        assert v.nilradical_residual < 1e-12
        assert v.adjoint_closed and v.l0_reductive and v.center_normal
        assert not v.all_passed
