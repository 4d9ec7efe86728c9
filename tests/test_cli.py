import json
import re
import tracemalloc

import numpy as np
import pytest

from helpers import irrational_type_s2, random_bracket
from leibcrit.bracket import Bracket
from leibcrit.catalog import get, names
from leibcrit.cli import run, _analysis_document
from leibcrit.extensions import HypothesisViolation, build_solvable_extension
from leibcrit.fileio import (
    AlgebraFileError,
    algebra_to_dict,
    bracket_from_dict,
    load_algebra,
    load_extension_spec,
    save_algebra,
)
from leibcrit.moment import criticality_decompose


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlgebraFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        c = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        mu = Bracket(3, c)
        path = tmp_path / "alg.json"
        save_algebra(path, mu, name="random")
        loaded, meta = load_algebra(path)
        np.testing.assert_array_equal(loaded.coeffs, mu.coeffs)
        assert meta["name"] == "random"

    def test_unlisted_coefficients_zero(self):
        mu, _ = bracket_from_dict({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 2, "re": 1.0, "im": 0.0}]})
        assert mu.coeffs[0, 0, 1] == 1.0
        assert np.count_nonzero(mu.coeffs) == 1

    @pytest.mark.parametrize(
        "doc,msg",
        [
            ({"dim": 0, "entries": []}, "positive integer"),
            ({"dim": 2}, "'entries'"),
            ({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 3, "re": 1.0, "im": 0}]}, "entry #1"),
            ({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0},
                                    {"i": 1, "j": 1, "k": 1, "re": 2.0, "im": 0}]}, "duplicate"),
            ({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 1, "re": "x", "im": 0}]}, "finite number"),
            ({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0, "q": 1}]}, "unknown fields"),
            ({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 10 ** 400}]}, "finite number"),
        ],
    )
    def test_malformed_documents(self, doc, msg):
        with pytest.raises(AlgebraFileError, match=msg):
            bracket_from_dict(doc)


    def test_real_file_loads_without_complex_staging(self, tmp_path):
        path = tmp_path / "mu_he80.json"
        save_algebra(path, get("mu_he", n=80).bracket)
        tracemalloc.start()
        try:
            mu, _ = load_algebra(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mu.coeffs.dtype == np.float64
        assert peak < 10e6  # the float64 tensor is 4.1 MB, a complex128 one 8.2 MB


class TestCheckCommand:
    def test_nonlie2_symmetric(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"dim": 2, "entries": [{"i": 1, "j": 1, "k": 2, "re": 1.0, "im": 0.0}]}))
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        assert "symmetric Leibniz:  yes" in out
        assert "Lie:                no" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": [{"i": 9, "j": 1, "k": 1, "re": 1.0, "im": 0}]}))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "entry #1" in err

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10_000 + "]" * 10_000)
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/alg.json")
        assert code == 2


class TestAnalyzeCommand:
    def test_s1_text(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        save_algebra(path, get("S1").bracket, name="S1")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "F = 20" in out
        assert "(3<5<6;1,1,1)" in out

    def test_json_round_trip_bit_for_bit(self, tmp_path, capsys):
        entry = get("S2")
        path = tmp_path / "s2.json"
        code, _, _ = run_cli(capsys, "catalog", "export", "S2", str(path))
        assert code == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "--format", "json", "analyze", str(path))
        assert code == 0
        loaded_doc = json.loads(out)
        # exporting lost nothing: the in-memory analysis of the catalog
        # bracket serializes to the identical report
        rep = criticality_decompose(entry.bracket, 1e-8)
        direct_doc = _analysis_document(rep, {})
        for section in ("identities", "moment", "structure", "structure_checks"):
            assert json.dumps(loaded_doc[section]) == json.dumps(
                json.loads(json.dumps(direct_doc[section]))
            ), section

    def test_json_schema_pinned(self, tmp_path, capsys):
        # the report key lists, in order: a new dataclass field is a schema change
        path = tmp_path / "s1.json"
        save_algebra(path, get("S1").bracket, name="S1")
        code, out, _ = run_cli(capsys, "--format", "json", "analyze", str(path))
        assert code == 0
        doc = json.loads(out)
        assert list(doc["identities"]) == [
            "left_residual", "right_residual", "anticommutativity_residual",
            "jacobi_residual", "tol", "is_left_leibniz", "is_right_leibniz",
            "is_symmetric_leibniz", "is_lie",
        ]
        assert list(doc["structure"]) == [
            "derived_dims", "lower_central_dims", "center_dim", "is_solvable", "is_nilpotent",
        ]
        assert list(doc["structure_checks"]) == [
            "adjoint_closed", "adjoint_residual", "l0_reductive", "l0_residual",
            "killing_min_sv", "center_normal", "center_residual", "nilradical_ok",
            "nilradical_residual", "is_nilpotent_radical", "degenerate_abelian_nilradical",
            "restricted_type", "type_matches", "lminus_min_nonnormality", "all_passed",
        ]
        assert doc["structure_checks"]["restricted_type"] == "(3<5<6;1,1,1)"
        assert doc["structure"]["derived_dims"] == [3, 1, 0]

    def test_computes_the_type_once_per_report(self, tmp_path, capsys, monkeypatch):
        # one call types the certificate of S2; its l_+ is all of S2, so the
        # structure checks read that type instead of re-certifying
        import leibcrit.moment as moment

        calls = []
        real = moment._spectrum_type
        monkeypatch.setattr(moment, "_spectrum_type", lambda w: calls.append(w) or real(w))
        path = tmp_path / "s2.json"
        save_algebra(path, get("S2").bracket, name="S2")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and "(1<2;2,1)" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("name, n", [("S2", None), ("mu_he", 7), ("mu_sy", 6)])
    def test_decomposes_one_spectrum(self, tmp_path, capsys, monkeypatch, name, n):
        # the type, the structure grading and the printed D eigenvalues share one eigh
        calls = []
        for fn in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, fn)
            monkeypatch.setattr(np.linalg, fn, lambda a, fn=fn, real=real: calls.append(fn) or real(a))
        path = tmp_path / "mu.json"
        save_algebra(path, get(name, n=n).bracket, name=name)
        for fmt, verdict in (("text", "nilradical yes"), ("json", '"nilradical_ok": true')):
            calls.clear()
            code, out, _ = run_cli(capsys, "--format", fmt, "analyze", str(path))
            assert code == 0 and verdict in out
            assert calls == ["eigh"], fmt

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_norm_sq_out_of_float_range_exit_2(self, tmp_path, capsys, scale):
        # nonzero, so not the zero-bracket message; |mu|^2 overflows or underflows
        path = tmp_path / "s1.json"
        save_algebra(path, Bracket(3, scale * get("S1").bracket.coeffs))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert "outside the float range; rescale" in err and "zero bracket" not in err

    def test_deterministic(self, tmp_path, capsys):
        path = tmp_path / "l1.json"
        save_algebra(path, get("L1").bracket)
        _, out1, _ = run_cli(capsys, "--format", "json", "analyze", str(path))
        _, out2, _ = run_cli(capsys, "--format", "json", "analyze", str(path))
        assert out1 == out2

    def test_zero_bracket_exit_2(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dim": 2, "entries": []}))
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "zero bracket" in err

    def test_critical_without_rational_type(self, tmp_path, capsys):
        path = tmp_path / "s2.json"
        save_algebra(path, irrational_type_s2())
        code, out, _ = run_cli(capsys, "--tol", "1e-2", "analyze", str(path))
        assert code == 0
        assert "critical: yes" in out and "critical type" not in out
        assert "structure checks: not applicable" in out
        code, out, _ = run_cli(capsys, "--tol", "1e-2", "--format", "json", "analyze", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["moment"]["is_critical"] and doc["identities"]["is_symmetric_leibniz"]
        assert doc["moment"]["critical_type"] is None and doc["structure_checks"] is None

    def test_no_rational_type_is_the_stated_reason(self, tmp_path, capsys):
        path = tmp_path / "s2.json"
        save_algebra(path, irrational_type_s2())
        code, out, _ = run_cli(capsys, "--tol", "1e-2", "analyze", str(path))
        assert code == 0
        assert "structure checks: not applicable (no rational type)\n" in out

    def test_non_critical_needs_critical_point(self, tmp_path, capsys):
        path = tmp_path / "l5.json"
        save_algebra(path, get("L5").bracket)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and "critical: no" in out
        assert ("structure checks: not applicable"
                " (needs a symmetric Leibniz critical point)\n") in out

    def test_cgls_iteration_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("leibcrit.moment._CGLS_RTOL", 0.0)
        path = tmp_path / "random3.json"
        save_algebra(path, random_bracket(3, np.random.default_rng(0)))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 3 and out == ""
        assert err.startswith("internal error: CGLS did not converge in 28 iterations")

    def test_linalg_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("leibcrit.cli.criticality_decompose", fail)
        path = tmp_path / "s1.json"
        save_algebra(path, get("S1").bracket)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 3 and out == ""
        assert err == "internal error: SVD did not converge\n"

    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # an allocation failure is not a failed verification (exit 1)
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 119. GiB for an array")

        monkeypatch.setattr("leibcrit.cli.criticality_decompose", fail)
        path = tmp_path / "s1.json"
        save_algebra(path, get("S1").bracket)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 3 and out == ""
        assert err == "internal error: Unable to allocate 119. GiB for an array\n"


#: A dimension whose coefficient tensor (8e15 bytes) no allocator grants, so
#: the request fails at once without touching memory.
HUGE_DIM = 10**5


@pytest.mark.parametrize("command", ["catalog", "analyze", "extend"])
def test_product_too_large_to_allocate_exit_2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    if command == "catalog":
        argv = ["catalog", "show", "mu_he", "--n", str(HUGE_DIM)]
    elif command == "analyze":
        path.write_text(json.dumps({"dim": HUGE_DIM, "entries": [
            {"i": 1, "j": 1, "k": 2, "re": 1.0, "im": 0.0}]}))
        argv = ["analyze", str(path)]
    else:
        path.write_text(json.dumps({"core": {"abelian": {"dim": HUGE_DIM, "c": -1}},
                                    "left_maps": [[[1, 0], [0, 0]]],
                                    "right_maps": [[[-1, 0], [0, 0]]]}))
        argv = ["extend", "solvable", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: a product of dimension {HUGE_DIM} ")
    assert err.endswith("does not fit in memory\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "{s1}/x"],
    ["extend", "solvable", "{s1}/spec.json"],
    ["extend", "solvable", "{spec}", "-o", "{s1}/out.json"],
    ["catalog", "export", "S1", "{s1}/x.json"],
    ["check", "{tmp}/" + "a" * 300],
    ["check", "{tmp}"],
], ids=["analyze-under-a-file", "extend-under-a-file", "extend-output-under-a-file",
        "export-under-a-file", "check-name-too-long", "check-a-directory"])
def test_file_error_exit_2(tmp_path, capsys, argv):
    # a path through a regular file (NotADirectoryError), a name longer than
    # the file system allows (OSError) or a directory is the input's fault,
    # not a failed check
    s1 = tmp_path / "s1.json"
    save_algebra(s1, get("S1").bracket, name="S1")
    spec = TestExtendCommand.write_solvable_spec(tmp_path)
    code, out, err = run_cli(capsys, *(a.format(s1=s1, spec=spec, tmp=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno ")


class TestToleranceFlag:
    # every command checks --tol, also those that compute nothing with it;
    # OUT is the file that export would write
    @pytest.mark.parametrize("tol, name, argv", [
        ("nan", "S1", ["analyze"]),
        ("inf", "L5", ["analyze"]),
        ("nan", None, ["catalog", "verify"]),
        ("nan", "S1", ["check"]),
        ("-1", None, ["catalog", "list"]),
        ("nan", None, ["catalog", "show", "S1"]),
        ("nan", None, ["catalog", "export", "S1", "OUT"]),
    ], ids=["nan-analyze", "inf-analyze", "nan-catalog-verify", "nan-check",
            "negative-catalog-list", "nan-catalog-show", "nan-catalog-export"])
    def test_nonfinite_tol_exit_2(self, tmp_path, capsys, tol, name, argv):
        if name is not None:
            path = tmp_path / f"{name}.json"
            save_algebra(path, get(name).bracket, name=name)
            argv = [*argv, str(path)]
        out_path = tmp_path / "out.json"
        argv = [str(out_path) if a == "OUT" else a for a in argv]
        code, out, err = run_cli(capsys, "--tol", tol, *argv)
        assert code == 2 and out == ""
        assert f"tol must be a finite positive number, got {float(tol)}" in err
        assert not out_path.exists()


class TestFlowCommand:
    def test_l5_reaches_minimum(self, tmp_path, capsys):
        path = tmp_path / "l5.json"
        save_algebra(path, get("L5").bracket, name="L5")
        code, out, _ = run_cli(capsys, "--format", "json", "flow", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["flow"]["converged"]
        assert doc["final"]["moment"]["F"] == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert 1.0 <= doc["flow"]["cond_g"] < 10.0 and doc["flow"]["message"] == ""

    def test_perturb_flag(self, tmp_path, capsys):
        path = tmp_path / "s2.json"
        save_algebra(path, get("S2").bracket)
        code, out, _ = run_cli(
            capsys, "--format", "json", "flow", str(path), "--perturb", "0.3", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["flow"]["iterations"] > 0
        assert doc["final"]["moment"]["F"] == pytest.approx(12.0, abs=1e-6)

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_perturbed_so3_limit_passes_structure_checks(self, tmp_path, capsys, seed):
        # the limit's D is a derivation only to its tangent residual, about 1e-8
        path = tmp_path / "so3.json"
        save_algebra(path, get("so3").bracket, name="so3")
        code, out, err = run_cli(capsys, "flow", str(path), "--perturb", "0.3", "--seed", seed)
        assert code == 0, err
        assert "critical type = (0;3)" in out
        assert ("structure checks: adjoint-closed yes; l0 reductive yes;"
                " center normal yes; nilradical yes") in out

    def test_certifies_the_limit_once(self, tmp_path, capsys, monkeypatch):
        # one call certifies the limit; its l_+ is the whole limit, so the
        # structure checks read the limit's type instead of re-certifying
        import leibcrit.moment as moment

        calls = []
        real = moment.criticality_decompose

        def counted(mu, tol=moment.DEFAULT_CRITICAL_TOL):
            calls.append(mu)
            return real(mu, tol)

        for module in ("cli", "flow", "structure"):
            monkeypatch.setattr(f"leibcrit.{module}.criticality_decompose", counted)
        path = tmp_path / "s2.json"
        save_algebra(path, get("S2").bracket, name="S2")
        code, out, _ = run_cli(capsys, "flow", str(path), "--perturb", "0.3", "--seed", "1")
        assert code == 0 and "critical type = (1<2;2,1)" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_flows_at_extreme_scales(self, tmp_path, capsys, scale):
        path = tmp_path / "s1.json"
        save_algebra(path, Bracket(3, scale * get("S1").bracket.coeffs))
        code, out, err = run_cli(capsys, "flow", str(path))
        assert code == 0 and err == ""
        assert "converged yes" in out and "critical type = (3<5<6;1,1,1)" in out
        assert "symmetric Leibniz:  yes" in out

    def test_nan_perturb_exit_2(self, tmp_path, capsys):
        path = tmp_path / "l5.json"
        save_algebra(path, get("L5").bracket, name="L5")
        code, out, err = run_cli(capsys, "flow", str(path), "--perturb", "nan")
        assert code == 2 and out == ""
        assert "perturbation magnitude must be a finite nonnegative number, got nan" in err

    @pytest.mark.parametrize("argv", [
        ["flow", "S2", "--step0", "0.1"],
        ["flow", "S2", "--max-iter", "10"],
        ["flow", "S2", "--tol", "1e-6"],
        ["catalog", "verify", "--tol", "1e-6"],
        ["--max-den", "100", "analyze", "S2"],
    ], ids=["flow-step0", "flow-max-iter", "flow-tol", "catalog-verify-tol", "max-den"])
    def test_removed_flag_exit_2(self, tmp_path, capsys, argv):
        if argv[0] == "flow":
            path = tmp_path / "s2.json"
            save_algebra(path, get("S2").bracket)
            argv = ["flow", str(path), *argv[2:]]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if argv[0] == "--max-den":  # the removed global flag's value is read as the command
            assert "invalid choice: '100'" in err
        else:
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize("magnitude", ["50", "1e308"])
    def test_ill_conditioned_perturb_exit_2(self, tmp_path, capsys, magnitude):
        path = tmp_path / "l5.json"
        save_algebra(path, get("L5").bracket, name="L5")
        code, out, err = run_cli(capsys, "flow", str(path), "--perturb", magnitude)
        assert code == 2 and out == ""
        assert err.startswith(f"error: perturbation magnitude {float(magnitude)!r} is too large")

    def test_filiform_limit_without_rational_type(self, tmp_path, capsys):
        # the limit's D is rational only to 1.9e-6, above the 1e-6 type tolerance
        m0 = Bracket.from_entries(9, {(1, i, i + 1): 1 for i in range(2, 9)},
                                  antisymmetrize=True)
        path = tmp_path / "m0_9.json"
        save_algebra(path, m0)
        code, out, err = run_cli(capsys, "flow", str(path))
        assert code == 0 and err == ""
        assert "converged yes" in out and "critical type" not in out
        assert "structure checks: not applicable" in out


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        names = out.split()
        assert "S1" in names and "mu_sy" in names

    def test_show_with_param(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "S3", "--param", "beta=0.25")
        assert code == 0
        assert "no critical point" in out

    def test_show_small_alpha(self, capsys):
        # S5 is right Leibniz only for every alpha != 0, although its left defect
        # alpha^2 falls below a 1e-12 residual cut here
        code, out, _ = run_cli(capsys, "catalog", "show", "S5", "--param", "alpha=1e-6")
        assert code == 0
        assert out.splitlines()[0] == "S5(alpha=1e-06): right, dim 3"

    def test_export_json_names_the_output_file(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "export", "S1", str(path))
        assert code == 0
        assert json.loads(out) == {"output_file": str(path)}
        np.testing.assert_array_equal(load_algebra(path)[0].coeffs, get("S1").bracket.coeffs)
        code, out, _ = run_cli(capsys, "catalog", "export", "S1", str(path))
        assert code == 0 and out == f"wrote {path}\n"

    def test_show_family_with_n(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "mu_sy", "--n", "5")
        assert code == 0
        assert "(3<5<6;1,3,1)" in out

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "nope")
        assert code == 2
        assert "unknown catalog entry" in err

    @pytest.mark.parametrize("verb", ["show", "export"])
    def test_unknown_name_message_unquoted(self, tmp_path, capsys, verb):
        path = tmp_path / "x.json"
        argv = ["catalog", verb, "nope"] + ([str(path)] if verb == "export" else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: unknown catalog entry 'nope'; known: {', '.join(names())}\n"
        assert not path.exists()

    def test_bad_param_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "show", "L3", "--param", "alpha=0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,msg",
        [
            (["S3", "--param", "alpha=0.25"], "S3 has no parameter alpha"),
            (["S1", "--n", "7"], "S1 has no parameter n"),
            (["mu_he", "--param", "n=4.7"], "integer n, got 4.7"),
            (["mu_he", "--param", "n=2j"], "integer n, got 2j"),
        ],
    )
    def test_unusable_param_exit_2(self, capsys, argv, msg):
        code, out, err = run_cli(capsys, "catalog", "show", *argv)
        assert code == 2
        assert msg in err
        assert out == ""

    def test_integral_param_n_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "mu_he", "--param", "n=4")
        assert code == 0
        assert out.startswith("mu_he(n=4): lie, dim 4")

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "verify")
        assert code == 0
        assert "all rows pass" in out
        assert "FAIL" not in out

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        labels = [r["label"] for r in doc["rows"]]
        assert "S1" in labels and "L4" in labels

    def test_verify_json_row_schema_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "verify")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["rows", "all_passed"]
        for row in doc["rows"]:
            assert list(row) == [
                "label", "strategy", "computed_type", "computed_value", "expected_type",
                "expected_value", "residual", "passed", "note",
            ]
        s1 = next(r for r in doc["rows"] if r["label"] == "S1")
        assert s1["computed_type"] == s1["expected_type"] == "(3<5<6;1,1,1)"


class TestExtendCommand:
    @staticmethod
    def write_solvable_spec(tmp_path):
        spec = {
            "core": {"catalog": "S1"},
            "left_maps": [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]],
            "right_maps": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_solvable(self, tmp_path, capsys):
        path = self.write_solvable_spec(tmp_path)
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "--format", "json", "extend", "solvable",
                               str(path), "-o", str(out_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"]
        assert doc["type"] == "(0<3<5<6;1,1,1,1)"
        assert doc["F"] == pytest.approx(10.0 / 3.0, abs=1e-8)
        mu, _ = load_algebra(out_path)
        assert mu.dim == 4

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_exit_2(self, tmp_path, capsys, tol):
        path = self.write_solvable_spec(tmp_path)
        code, _, err = run_cli(capsys, "--tol", tol, "extend", "solvable", str(path),
                               "-o", str(tmp_path / "result.json"))
        assert code == 2
        assert f"tol must be a finite positive number, got {tol}" in err
        assert not (tmp_path / "result.json").exists()

    def test_general_so3(self, tmp_path, capsys):
        z = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        spec = {
            "core": {"catalog": "S1"},
            "left_maps": [z, z, z],
            "right_maps": [z, z, z],
            "f_bracket": algebra_to_dict(get("so3").bracket),
            "semisimple": [1, 2, 3],
            "center": [],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "--format", "json", "extend", "general", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "(0<3<5<6;3,1,1,1)"
        assert doc["F"] == pytest.approx(1.25, abs=1e-8)

    def test_abelian_core_spec(self, tmp_path, capsys):
        # a "scale" key in core.abelian, of the former D = scale * I, is ignored
        outputs = []
        for core in ({"dim": 2, "c": -4.0}, {"dim": 2, "scale": 4.0, "c": -4.0}):
            spec = {
                "core": {"abelian": core},
                "left_maps": [[[1, 0], [0, 0]]],
                "right_maps": [[[-1, 0], [0, 0]]],
            }
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            code, out, _ = run_cli(capsys, "--format", "json", "extend", "solvable", str(path))
            assert code == 0
            assert json.loads(out)["type"] == "(0<1;1,2)"
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_core_certified_at_the_build_tolerance(self, tmp_path, capsys):
        # S1 plus 1e-6 e1 on e2.e3: tangent residual 6.3e-7 and left defect
        # 3.7e-7, so the core and the assembled product pass at 1e-3 only
        core = get("S1").bracket.coeffs.copy()
        core[1, 2, 0] += 1e-6
        path = self.write_solvable_spec(tmp_path)
        spec = json.loads(path.read_text())
        spec["core"] = {"algebra": algebra_to_dict(Bracket(3, core))}
        path.write_text(json.dumps(spec))
        _, rep = build_solvable_extension(load_extension_spec(path), 1e-3)
        assert str(rep.type) == "(0<3<5<6;1,1,1,1)"
        assert rep.F == pytest.approx(10 / 3, rel=1e-9)
        code, out, _ = run_cli(capsys, "--tol", "1e-3", "--format", "json", "extend", "solvable",
                               str(path), "-o", str(tmp_path / "out.json"))
        assert code == 0
        assert json.loads(out)["type"] == "(0<3<5<6;1,1,1,1)"
        with pytest.raises(HypothesisViolation, match="core criticality") as info:
            build_solvable_extension(load_extension_spec(path))
        assert info.value.residual == pytest.approx(6.32e-7, rel=1e-2)
        code, _, err = run_cli(capsys, "extend", "solvable", str(path))
        assert code == 1
        assert err == f"verification failed: {info.value}\n"

    def test_hypothesis_violation_exit_1(self, tmp_path, capsys):
        spec = {
            "core": {"catalog": "nonlie2"},
            "left_maps": [[[0, 0], [0, 0]]],
            "right_maps": [[[0, 0], [0, 0]]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "extend", "solvable", str(path))
        assert code == 1
        assert "verification failed" in err

    @pytest.mark.parametrize("mode,f_bracket,msg", [
        ("solvable", True,
         "solvable extension takes no reductive bracket; use the general builder"),
        ("general", False, "general extension needs the reductive bracket f_bracket"),
    ])
    def test_spec_of_the_other_mode_exit_2(self, tmp_path, capsys, mode, f_bracket, msg):
        path = self.write_solvable_spec(tmp_path)
        if f_bracket:
            spec = json.loads(path.read_text())
            spec.update(f_bracket=algebra_to_dict(Bracket.zero(1)), center=[1])
            path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "extend", mode, str(path), "-o", str(tmp_path / "o.json"))
        assert code == 2 and out == ""
        assert err == f"error: {msg}\n"
        assert not (tmp_path / "o.json").exists()

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"core": {"catalog": "S1"}, "left_maps": []}))
        code, _, err = run_cli(capsys, "extend", "solvable", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "abelian,msg",
        [
            ({"dim": 2.7, "c": -4.0}, "'core.abelian.dim'=2.7"),
            ({"dim": True, "c": -4.0}, "'core.abelian.dim'=True"),
            ({"dim": 0, "c": -4.0}, "'core.abelian.dim'=0"),
            ({"dim": "2", "c": -4.0}, "'core.abelian.dim'='2'"),
            ({"dim": 2, "c": True}, "'core.abelian.c'=True"),
            ({"dim": 2, "c": float("nan")}, "'core.abelian.c'=nan"),
            ({"dim": 2, "c": float("-inf")}, "'core.abelian.c'=-inf"),
            ({"dim": 2, "c": "-4"}, "'core.abelian.c'='-4'"),
            ({"dim": 2, "c": -10 ** 400}, "'core.abelian.c'="),
            ({"dim": 2}, "needs numeric dim and c"),
            ({"dim": 2, "c": 0}, "degenerate mode needs core_c < 0"),
            ({"dim": 2, "c": 4.0}, "degenerate mode needs core_c < 0"),
        ],
    )
    def test_bad_abelian_core_exit_2(self, tmp_path, capsys, abelian, msg):
        # each must be rejected where it is read, not coerced (2.7 -> 2, true -> 1.0)
        spec = {
            "core": {"abelian": abelian},
            "left_maps": [[[1, 0], [0, 0]]],
            "right_maps": [[[-1, 0], [0, 0]]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "extend", "solvable", str(path))
        assert code == 2
        assert msg in err
        assert out == ""

    @pytest.mark.parametrize(
        "core,msg",
        [
            ({"file": 3}, "'core.file'=3 must be a string"),
            ({"catalog": ["S1"]}, "'core.catalog'=['S1'] must be a string"),
            ({"catalog": "S1", "params": 5}, "'core.params'=5 must be an object"),
            ({"catalog": "mu_he", "params": {"n": [4]}},
             "'core.params.n'=[4] is not a finite number"),
            ("S1", "'core' must be an object"),
            ({"bogus": 1}, "'core' needs one of: catalog, file, algebra, abelian"),
            ({"catalog": "S9"}, "unknown catalog entry 'S9'; known: " + ", ".join(names())),
        ],
    )
    def test_bad_core_field_exit_2(self, tmp_path, capsys, core, msg):
        spec = {
            "core": core,
            "left_maps": [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]],
            "right_maps": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "extend", "solvable", str(path))
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    @pytest.mark.parametrize(
        "cell,where",
        [
            (float("nan"), "right_maps[1][2][1]=nan"),
            (float("inf"), "right_maps[1][2][1]=inf"),
            ([0.0, float("nan")], "right_maps[1][2][1]=nan"),
            ([float("-inf"), 0.0], "right_maps[1][2][1]=-inf"),
        ],
    )
    def test_nonfinite_matrix_cell_exit_2(self, tmp_path, capsys, cell, where):
        spec = {
            "core": {"catalog": "S1"},
            "left_maps": [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]],
            "right_maps": [[[0, 0, 0], [cell, 0, 0], [0, 0, 0]]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))  # json writes NaN / Infinity, json.load reads them
        code, _, err = run_cli(capsys, "extend", "solvable", str(path))
        assert code == 2
        assert where in err and "not a finite number" in err

    def test_bad_matrix_cell_type_exit_2(self, tmp_path, capsys):
        spec = {
            "core": {"catalog": "S1"},
            "left_maps": [[[0, 0, 0], [0, 1, 0], [0, 0, True]]],
            "right_maps": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "extend", "solvable", str(path))
        assert code == 2
        assert "left_maps[1][3][3] must be a number or [re, im] pair" in err


S1_SPEC = {
    "core": {"catalog": "S1"},
    "left_maps": [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]],
    "right_maps": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
}
Z3 = [[0, 0, 0]] * 3
SO3_SPEC = {
    "core": {"catalog": "S1"}, "left_maps": [Z3] * 3, "right_maps": [Z3] * 3,
    "f_bracket": algebra_to_dict(get("so3").bracket), "semisimple": [1, 2, 3], "center": [],
}


class TestInputChecks:
    """Each check of an algebra or spec document, with its exit code and message."""

    @pytest.mark.parametrize("doc,msg", [
        ([1, 2], "algebra document must be a JSON object"),
        ({"dim": 2, "entries": [5]}, "entry #1 is not an object"),
        ({"dim": 2, "entries": [{"i": 1, "j": 1, "re": 1.0}]}, "entry #1 is missing field 'k'"),
    ], ids=["not-an-object", "entry-not-an-object", "missing-index"])
    def test_bad_algebra_document_exit_2(self, tmp_path, capsys, doc, msg):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out, err) == (2, "", f"error: {msg}\n")

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text('{"dim": 2,')
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: invalid JSON (Expecting property name enclosed in"
                       " double quotes: line 1 column 11 (char 10))\n")

    @pytest.mark.parametrize("mode,doc,msg", [
        ("solvable", [S1_SPEC], "extension spec must be a JSON object"),
        ("solvable", {**S1_SPEC, "bogus_key": 1}, "extension spec has unknown fields ['bogus_key']"),
        ("solvable", {**S1_SPEC, "left_maps": [Z3[:2]]}, "left_maps[1] must be a list of 3 rows"),
        ("solvable", {**S1_SPEC, "left_maps": [[[0, 0, 0], [0, 1], [0, 0, 0]]]},
         "left_maps[1] row 2 must have 3 entries"),
        ("solvable", {**S1_SPEC, "right_maps": [Z3, Z3]},
         "'left_maps' and 'right_maps' must have equal length"),
        ("general", {**SO3_SPEC, "semisimple": [0, 1, 2]},
         "'semisimple' must list 1-based generator indices"),
        ("general", {**SO3_SPEC, "semisimple": [1, 2, 4]},
         "'semisimple' must list 1-based generator indices"),
        ("general", {**SO3_SPEC, "center": "1"}, "'center' must list 1-based generator indices"),
        ("general", {**SO3_SPEC, "f_bracket": algebra_to_dict(get("lie2").bracket)},
         "f_bracket has dimension 2, expected 3"),
        # semisimple and center are read without an f_bracket too, so the spec rejects them
        ("solvable", {**S1_SPEC, "semisimple": [1]},
         "semisimple and center index the generators of f_bracket, which is None"),
        ("general", {**S1_SPEC, "semisimple": [1]},
         "semisimple and center index the generators of f_bracket, which is None"),
        ("solvable", {**S1_SPEC, "center": [7]}, "'center' must list 1-based generator indices"),
    ], ids=["not-an-object", "unknown-key", "row-count", "row-length", "unequal-map-lists",
            "index-zero", "index-beyond-d1", "indices-not-a-list", "f-bracket-dimension",
            "semisimple-without-f-bracket", "general-semisimple-without-f-bracket",
            "center-beyond-d1"])
    def test_bad_spec_exit_2(self, tmp_path, capsys, mode, doc, msg):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "extend", mode, str(path), "-o", str(out_path))
        assert (code, out, err) == (2, "", f"error: {msg}\n")
        assert not out_path.exists()

    def test_core_file_is_relative_to_the_spec(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "specs").mkdir()
        save_algebra(tmp_path / "specs" / "core.json", get("S1").bracket)
        path = tmp_path / "specs" / "spec.json"
        path.write_text(json.dumps({**S1_SPEC, "core": {"file": "core.json"}}))
        monkeypatch.chdir(tmp_path)  # core.json is not in the working directory
        code, out, err = run_cli(capsys, "--format", "json", "extend", "solvable",
                                 "specs/spec.json", "-o", "out.json")
        assert code == 0 and err == ""
        assert json.loads(out)["type"] == "(0<3<5<6;1,1,1,1)"
        assert load_algebra(tmp_path / "out.json")[0].dim == 4


class TestPinnedOutputs:
    """Outputs of CLI paths that no other test prints, pinned as they are."""

    def test_check_json(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        save_algebra(path, get("S1").bracket, name="S1")
        code, out, _ = run_cli(capsys, "--format", "json", "check", str(path))
        assert code == 0
        assert out == json.dumps({"algebra": {"dim": 3, "name": "S1"}, "identities": {
            "left_residual": 0.0, "right_residual": 0.0, "anticommutativity_residual": 2.0,
            "jacobi_residual": 0.0, "tol": 1e-09, "is_left_leibniz": True,
            "is_right_leibniz": True, "is_symmetric_leibniz": True, "is_lie": False,
        }}, indent=2) + "\n"

    def test_catalog_list_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "list")
        assert code == 0
        assert out == json.dumps({"names": [
            "L1", "L2", "L3", "L4", "L5", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8",
            "lie2", "nonlie2", "ns2", "so3", "mu_hy", "mu_he", "mu_sy",
        ]}, indent=2) + "\n"

    @pytest.mark.parametrize("argv,doc", [
        (["S1"], {"label": "S1", "class": "symmetric", "dim": 3, "expected_type": "(3<5<6;1,1,1)",
                  "expected_value": 20.0, "critical_in_given_basis": True, "notes": "",
                  "algebra": {"dim": 3, "entries": [
                      {"i": 3, "j": 3, "k": 1, "re": 1.0, "im": 0.0}], "name": "S1"}}),
        (["S5", "--param", "alpha=2"], {
            "label": "S5(alpha=2)", "class": "right", "dim": 3, "expected_type": "(0<1;1,2)",
            "expected_value": 4.0, "critical_in_given_basis": True,
            "notes": "right Leibniz only; its opposite is left Leibniz only;"
                     " in S_3 in neither orientation",
            "algebra": {"dim": 3, "entries": [
                {"i": 1, "j": 3, "k": 1, "re": 2.0, "im": 0.0},
                {"i": 2, "j": 3, "k": 2, "re": 1.0, "im": 0.0},
                {"i": 3, "j": 2, "k": 2, "re": -1.0, "im": 0.0}],
                "name": "S5(alpha=2)", "params": {"alpha": {"re": 2.0, "im": 0.0}}}}),
    ], ids=["S1", "S5-alpha2"])
    def test_catalog_show_json(self, capsys, argv, doc):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "show", *argv)
        assert code == 0
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_extend_text(self, tmp_path, capsys):
        path, out_path = tmp_path / "spec.json", tmp_path / "out.json"
        path.write_text(json.dumps(S1_SPEC))
        code, out, err = run_cli(capsys, "extend", "solvable", str(path), "-o", str(out_path))
        assert code == 0 and err == ""
        # only the round-off tangent residual is not pinned to the digit
        first, second = out.splitlines()
        assert re.fullmatch(r"certified critical point: dim 4, type \(0<3<5<6;1,1,1,1\),"
                            r" F = 3\.33333333333, c = -10 \(tangent residual \d\.\d+e-1[5-7]\)",
                            first), first
        assert second == f"wrote {out_path}"

    @pytest.mark.parametrize("param,msg", [
        ("alpha", "bad --param 'alpha', expected NAME=VALUE"),
        ("=2", "bad --param '=2', expected NAME=VALUE"),
        ("alpha=x", "bad --param value 'x'"),
        ("alpha=1+", "bad --param value '1+'"),
        ("alpha=nan", "bad --param value 'nan'"),
        ("alpha=-inf", "bad --param value '-inf'"),
        ("alpha=1+nanj", "bad --param value '1+nanj'"),
        ("n=1e400", "bad --param value '1e400'"),
    ], ids=["no-equals", "no-name", "not-a-number", "dangling-sign", "nan", "inf", "nan-imag",
            "overflow"])
    def test_malformed_param_exit_2(self, capsys, param, msg):
        code, out, err = run_cli(capsys, "catalog", "show", "S5", "--param", param)
        assert (code, out, err) == (2, "", f"error: {msg}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["check", "{alg}"], ["analyze", "{alg}"], ["flow", "{alg}"], ["catalog", "list"],
    ["catalog", "show", "S1"], ["catalog", "export", "S1", "{out}"], ["catalog", "verify"],
    ["extend", "solvable", "{spec}", "-o", "{out}"],
], ids=["check", "analyze", "flow", "catalog-list", "catalog-show", "catalog-export",
        "catalog-verify", "extend"])
def test_one_stdout_write_per_command(tmp_path, monkeypatch, fmt, argv):
    import leibcrit.cli as cli

    paths = {"alg": tmp_path / "l5.json", "spec": tmp_path / "spec.json",
             "out": tmp_path / "out.json"}
    save_algebra(paths["alg"], get("L5").bracket, name="L5")
    paths["spec"].write_text(json.dumps(S1_SPEC))
    writes = []

    def counting_print(*args, file=None, **kwargs):
        if file is None:
            writes.append(args)

    monkeypatch.setattr(cli, "print", counting_print, raising=False)
    assert run(["--format", fmt, *(a.format(**paths) for a in argv)]) == 0
    assert len(writes) == 1
