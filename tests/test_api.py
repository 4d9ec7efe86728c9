"""Shape of the public API: which functions take a tolerance, and its default.

Fixed cuts read a module constant and take no argument; every settable
tolerance the global ``--tol`` reaches defaults to ``DEFAULT_CRITICAL_TOL``.
"""

import inspect

import pytest

from leibcrit import bracket, catalog, cli, extensions, flow, linalg, moment, structure
from leibcrit.bracket import DEFAULT_IDENTITY_TOL, Bracket
from leibcrit.linalg import RANK_RTOL, Subspace
from leibcrit.moment import DEFAULT_CRITICAL_TOL

MODULES = (bracket, catalog, extensions, flow, linalg, moment, structure)

#: The public functions with a ``tol`` parameter and its default.
TOL_DEFAULTS = {
    "check_identities": DEFAULT_IDENTITY_TOL,
    "derivation_space": RANK_RTOL,
    "criticality_decompose": DEFAULT_CRITICAL_TOL,
    "descend": DEFAULT_CRITICAL_TOL,
    "verify_catalog": DEFAULT_CRITICAL_TOL,
    "build_solvable_extension": DEFAULT_CRITICAL_TOL,
    "build_general_extension": DEFAULT_CRITICAL_TOL,
}

#: Functions whose cut is a module constant, with their full parameter lists.
FIXED_CUTS = {
    linalg.is_hermitian: ["a"],
    Subspace.from_span: ["n", "vectors"],
    Subspace.contains: ["self", "other"],
    linalg.subspace_product: ["mu", "u", "w"],
    structure.center_subspace: ["mu"],
    structure.structure_profile: ["mu"],
    structure.grading_decomposition: ["report"],
    structure.verify_structure_theorem: ["mu", "report"],
    moment.critical_type: ["d"],
    Bracket.from_entries: ["dim", "entries", "antisymmetrize"],
}


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
