"""Moment-map analysis on varieties of complex Leibniz algebras.

The package represents an n-dimensional complex algebra by its structure
constants, computes the Hermitian moment matrix and the scale-invariant
functional F = tr(M^2)/|mu|^4, certifies critical points of F through the
decomposition M = c I + D with D a derivation, extracts the coprime
integer spectrum of D (the critical type), descends F inside a GL(n)
orbit, verifies the structural properties of symmetric Leibniz critical
points, and builds higher-dimensional critical points from a nilpotent
core plus compatible action maps.  A catalog of the standard two- and
three-dimensional algebras with their known critical data is built in,
together with a CLI (``leibcrit``) and a JSON algebra file format.
"""

from .bracket import (
    Bracket,
    IdentityReport,
    check_identities,
    gl_act,
    inf_act,
)
from .linalg import derivation_space, hermitian_eigen
from .moment import (
    CriticalType,
    IrrationalTypeError,
    MomentReport,
    critical_type,
    critical_value_formula,
    criticality_decompose,
    functional_value,
    moment_matrix,
)
from .structure import (
    StructureProfile,
    StructureVerdict,
    structure_profile,
    verify_structure_theorem,
)
from .flow import FlowTrace, descend, perturb_in_orbit
from .catalog import CatalogEntry, VerifyRow, get, names, verify_catalog
from .extensions import (
    CertificationFailed,
    ExtensionError,
    ExtensionSpec,
    GramNotPositive,
    HypothesisViolation,
    NotLie,
    NotSymmetricLeibniz,
    build_general_extension,
    build_solvable_extension,
)
from .fileio import AlgebraFileError, load_algebra, save_algebra

__version__ = "0.1.0"

__all__ = [
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
