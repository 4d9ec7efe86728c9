"""Shape of the public API: the exported names, which functions take a
tolerance, and its default.

Fixed cuts read a module constant and take no argument; every settable
tolerance the global ``--tol`` reaches defaults to ``DEFAULT_CRITICAL_TOL``.
"""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

import leibcrit
from leibcrit import bracket, catalog, cli, extensions, fileio, flow, linalg, moment, structure
from leibcrit.bracket import DEFAULT_IDENTITY_TOL, Bracket
from leibcrit.moment import DEFAULT_CRITICAL_TOL

MODULES = (bracket, catalog, extensions, flow, linalg, moment, structure)

#: The public functions with a ``tol`` parameter and its default.
TOL_DEFAULTS = {
    "check_identities": DEFAULT_IDENTITY_TOL,
    "criticality_decompose": DEFAULT_CRITICAL_TOL,
    "descend": DEFAULT_CRITICAL_TOL,
    "verify_catalog": DEFAULT_CRITICAL_TOL,
    "build_solvable_extension": DEFAULT_CRITICAL_TOL,
    "build_general_extension": DEFAULT_CRITICAL_TOL,
}

#: Functions whose cut is a module constant, with their full parameter lists.
FIXED_CUTS = {
    linalg.is_hermitian: ["a"],
    linalg.derivation_space: ["mu"],
    structure.structure_profile: ["mu"],
    structure.verify_structure_theorem: ["mu", "report"],
    moment.critical_type: ["d"],
    Bracket.from_entries: ["dim", "entries", "antisymmetrize"],
}


#: Everything ``from leibcrit import *`` exports.
PACKAGE_ALL = [
    "Bracket", "IdentityReport", "check_identities", "gl_act", "inf_act",
    "derivation_space", "hermitian_eigen",
    "CriticalType", "IrrationalTypeError", "MomentReport", "critical_type",
    "critical_value_formula", "criticality_decompose", "functional_value",
    "moment_matrix",
    "StructureProfile", "StructureVerdict", "structure_profile",
    "verify_structure_theorem",
    "FlowTrace", "descend", "perturb_in_orbit",
    "CatalogEntry", "VerifyRow", "get", "names", "verify_catalog",
    "CertificationFailed", "ExtensionError", "ExtensionSpec", "GramNotPositive",
    "HypothesisViolation", "NotLie", "NotSymmetricLeibniz",
    "build_general_extension", "build_solvable_extension",
    "AlgebraFileError", "load_algebra", "save_algebra",
    "__version__",
]

#: Helpers that only tests called, deleted from the library.
REMOVED = {
    leibcrit: ["evaluate", "inner_product", "direct_sum", "left_op", "right_op", "Subspace",
               "subspace_product", "restrict", "GradingDecomposition", "grading_decomposition"],
    bracket: ["evaluate", "_check_vector", "inner_product", "direct_sum"],
    linalg: ["left_op", "right_op", "trace_pairing", "cluster_values", "Subspace",
             "subspace_product", "restrict"],
    structure: ["center_subspace", "GradingDecomposition", "grading_decomposition"],
}

#: The stored fields of the reports that summarize a product or a descent,
#: and the values each derives from them on read (on each read, or on the
#: first and kept).
REPORT_FIELDS = {
    moment.MomentReport: (["mu", "tol"],
                          ["M", "c", "D", "residual_tangent", "residual_decomp", "norm_sq", "F",
                           "is_critical", "derivation_defect", "eigen", "type"]),
    flow.FlowTrace: (["steps", "final_report", "cond_g", "message"],
                     ["F_history", "residual_history", "final_bracket", "iterations", "converged"]),
    structure.StructureProfile: (["derived_dims", "lower_central_dims", "center_dim"],
                                 ["is_solvable", "is_nilpotent"]),
}


def test_package_all():
    assert leibcrit.__all__ == PACKAGE_ALL


@pytest.mark.parametrize("mod", (leibcrit, *MODULES, fileio), ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("owner", REMOVED, ids=lambda o: o.__name__)
def test_removed_names_stay_removed(owner):
    assert [name for name in REMOVED[owner] if hasattr(owner, name)] == []


def _public_functions():
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield name, obj


def test_tol_defaults():
    found = {name: inspect.signature(fn).parameters["tol"].default
             for name, fn in _public_functions()
             if "tol" in inspect.signature(fn).parameters}
    assert found == TOL_DEFAULTS


@pytest.mark.parametrize("fn, params", FIXED_CUTS.items(), ids=[fn.__qualname__ for fn in FIXED_CUTS])
def test_fixed_cuts_take_no_tolerance(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_cli_tol_default():
    assert cli.build_parser().parse_args(["check", "x.json"]).tol == DEFAULT_CRITICAL_TOL


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_readme_names_every_fixed_cut(mod):
    """Every public int or float constant of a module has its one home named in README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    short = mod.__name__.rsplit(".", 1)[-1]
    defined = [t.id for node in ast.parse(inspect.getsource(mod)).body
               if isinstance(node, ast.Assign) for t in node.targets
               if isinstance(t, ast.Name) and not t.id.startswith("_")]
    cuts = [name for name in defined
            if type(getattr(mod, name)) in (int, float) and f"{short}.{name}" not in readme]
    assert cuts == []


@pytest.mark.parametrize("cls", REPORT_FIELDS, ids=lambda c: c.__name__)
def test_reports_store_no_derived_value(cls):
    stored, derived = REPORT_FIELDS[cls]
    assert [f.name for f in dataclasses.fields(cls)] == stored
    assert [name for name in derived
            if not isinstance(vars(cls).get(name), (property, functools.cached_property))] == []
