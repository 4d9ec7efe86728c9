"""Built-in library of low-dimensional Leibniz algebras with known critical data.

Entries are stored in their customary printed bases.  Whether such a basis
is itself a critical point of F is decided numerically, never assumed:
:func:`verify_catalog` certifies each entry directly when the basis passes
the criticality test, and otherwise descends F inside the orbit and
certifies the limit.  Rows without a critical point ("L4", "S3(1/4)",
"S6", "S8") are checked to be decisively non-critical in their given basis.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass
from typing import Callable

from .bracket import Bracket
from .flow import descend
from .moment import DEFAULT_CRITICAL_TOL, CriticalType, criticality_decompose

__all__ = ["CatalogEntry", "VerifyRow", "get", "names", "standard_rows", "verify_catalog"]

FLOW_VALUE_TOL = 1e-6
NONCRITICAL_MIN_RESIDUAL = 0.1


@dataclass(frozen=True)
class CatalogEntry:
    """A named algebra with its expected critical data (None for none)."""

    name: str
    params: dict
    bracket: Bracket
    algebra_class: str  # "lie" | "symmetric" | "left" | "right"
    expected_type: CriticalType | None
    expected_value: float | None
    critical_in_given_basis: bool
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.bracket.dim

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def _fmt_param(v) -> str:
    if isinstance(v, complex) and v.imag == 0:
        v = v.real
    if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    return str(v)


def _lie(dim: int, table: dict) -> Bracket:
    return Bracket.from_entries(dim, table, antisymmetrize=True)


def _alg(dim: int, table: dict) -> Bracket:
    return Bracket.from_entries(dim, table)


def _t(ks, ds) -> CriticalType:
    return CriticalType(tuple(ks), tuple(ds))


def _dim_param(name: str, n, least: int) -> int:
    """The dimension parameter as an int >= least; a float must be integral."""
    try:
        k = operator.index(n)
    except TypeError:
        if not (isinstance(n, float) and n.is_integer()):
            raise ValueError(f"{name} requires an integer n, got {n!r}") from None
        k = int(n)
    if k < least:
        raise ValueError(f"{name} requires n >= {least}")
    return k


#: Note of the one-sided rows S4, S5, S7 and S8: the opposite product c[j, i, k] swaps the
#: identities, so neither orientation lies in the variety S_3 of symmetric Leibniz algebras.
_ONE_SIDED = "right Leibniz only; its opposite is left Leibniz only; in S_3 in neither orientation"


def _entry_L1() -> CatalogEntry:
    return CatalogEntry("L1", {}, _lie(3, {(1, 2, 3): 1}), "lie", _t((1, 2), (2, 1)), 12.0, True,
                        "Heisenberg algebra")


def _entry_L2() -> CatalogEntry:
    return CatalogEntry("L2", {}, _lie(3, {(1, 2, 2): 1}), "lie", _t((0, 1), (1, 2)), 4.0, True,
                        "2-d solvable plus a trivial summand")


def _entry_L3(alpha=1.0) -> CatalogEntry:
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("L3 requires alpha != 0")
    b = _lie(3, {(3, 1, 1): 1, (3, 2, 2): alpha})
    return CatalogEntry("L3", {"alpha": alpha}, b, "lie", _t((0, 1), (1, 2)), 4.0, True)


def _entry_L4() -> CatalogEntry:
    b = _lie(3, {(3, 1, 1): 1, (3, 1, 2): 1, (3, 2, 2): 1})
    return CatalogEntry("L4", {}, b, "lie", None, None, False,
                        "no critical point in its orbit")


def _entry_L5() -> CatalogEntry:
    b = _lie(3, {(3, 1, 1): 2, (3, 2, 2): -2, (1, 2, 3): 1})
    return CatalogEntry("L5", {}, b, "lie", _t((0,), (3,)), 4.0 / 3.0, False,
                        "sl(2) in a weight basis; the critical basis is so3")


def _entry_S1() -> CatalogEntry:
    return CatalogEntry("S1", {}, _alg(3, {(3, 3, 1): 1}), "symmetric",
                        _t((3, 5, 6), (1, 1, 1)), 20.0, True)


def _entry_S2() -> CatalogEntry:
    return CatalogEntry("S2", {}, _alg(3, {(2, 2, 1): 1, (3, 3, 1): 1}), "symmetric",
                        _t((1, 2), (2, 1)), 12.0, True)


def _entry_S3(beta=1.0) -> CatalogEntry:
    beta = complex(beta)
    b = _alg(3, {(2, 2, 1): beta, (3, 2, 1): 1, (3, 3, 1): 1})
    if beta == 0.25:
        return CatalogEntry("S3", {"beta": beta}, b, "symmetric", None, None, False,
                            "no critical point in its orbit")
    return CatalogEntry("S3", {"beta": beta}, b, "symmetric",
                        _t((1, 2), (2, 1)), 12.0, False)


def _entry_S4() -> CatalogEntry:
    return CatalogEntry("S4", {}, _alg(3, {(1, 3, 1): 1}), "right", _t((0, 1), (1, 2)), 4.0, True,
                        _ONE_SIDED)


def _entry_S5(alpha=1.0) -> CatalogEntry:
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("S5 requires alpha != 0")
    b = _alg(3, {(1, 3, 1): alpha, (2, 3, 2): 1, (3, 2, 2): -1})
    return CatalogEntry("S5", {"alpha": alpha}, b, "right",
                        _t((0, 1), (1, 2)), 4.0, True, _ONE_SIDED)


def _entry_S6() -> CatalogEntry:
    b = _alg(3, {(2, 3, 2): 1, (3, 2, 2): -1, (3, 3, 1): 1})
    return CatalogEntry("S6", {}, b, "symmetric", None, None, False,
                        "no critical point in its orbit")


def _entry_S7(alpha=1.0) -> CatalogEntry:
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("S7 requires alpha != 0")
    b = _alg(3, {(1, 3, 1): alpha, (2, 3, 2): 1})
    return CatalogEntry("S7", {"alpha": alpha}, b, "right",
                        _t((0, 1), (1, 2)), 4.0, True, _ONE_SIDED)


def _entry_S8() -> CatalogEntry:
    b = _alg(3, {(1, 3, 1): 1, (1, 3, 2): 1, (3, 3, 1): 1})
    return CatalogEntry("S8", {}, b, "right", None, None, False,
                        "no critical point in its orbit; " + _ONE_SIDED)


def _entry_lie2() -> CatalogEntry:
    return CatalogEntry("lie2", {}, _lie(2, {(1, 2, 2): 1}), "lie", _t((0, 1), (1, 1)), 4.0, True,
                        "the non-abelian 2-d Lie algebra")


def _entry_nonlie2() -> CatalogEntry:
    return CatalogEntry("nonlie2", {}, _alg(2, {(1, 1, 2): 1}), "symmetric",
                        _t((1, 2), (1, 1)), 20.0, True,
                        "the non-Lie symmetric 2-d algebra; global maximum of F")


def _entry_ns2() -> CatalogEntry:
    return CatalogEntry("ns2", {}, _alg(2, {(1, 2, 2): 1}), "left", _t((0, 1), (1, 1)), 4.0, True,
                        "left Leibniz but not right: a non-symmetric critical point")


def _entry_so3() -> CatalogEntry:
    b = _lie(3, {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1})
    return CatalogEntry("so3", {}, b, "lie", _t((0,), (3,)), 4.0 / 3.0, True,
                        "cyclic basis of sl(2); the moment matrix is scalar")


def _entry_mu_hy(n=4) -> CatalogEntry:
    n = _dim_param("mu_hy", n, 2)
    b = _lie(n, {(1, i, i): 1 for i in range(2, n + 1)})
    t = _t((0, 1), (1, n - 1))
    return CatalogEntry("mu_hy", {"n": n}, b, "lie", t, 4.0, True,
                        "scaling algebra: one generator acting as the identity")


def _entry_mu_he(n=4) -> CatalogEntry:
    n = _dim_param("mu_he", n, 3)
    b = _lie(n, {(1, 2, 3): 1})
    t = _t((1, 2), (2, 1)) if n == 3 else _t((2, 3, 4), (2, n - 3, 1))
    return CatalogEntry("mu_he", {"n": n}, b, "lie", t, 12.0, True,
                        "Heisenberg algebra plus a trivial summand")


def _entry_mu_sy(n=4) -> CatalogEntry:
    n = _dim_param("mu_sy", n, 2)
    b = _alg(n, {(1, 1, 2): 1})
    t = _t((1, 2), (1, 1)) if n == 2 else _t((3, 5, 6), (1, n - 2, 1))
    return CatalogEntry("mu_sy", {"n": n}, b, "symmetric", t, 20.0, True,
                        "non-Lie 2-d algebra plus a trivial summand")


_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "L1": _entry_L1,
    "L2": _entry_L2,
    "L3": _entry_L3,
    "L4": _entry_L4,
    "L5": _entry_L5,
    "S1": _entry_S1,
    "S2": _entry_S2,
    "S3": _entry_S3,
    "S4": _entry_S4,
    "S5": _entry_S5,
    "S6": _entry_S6,
    "S7": _entry_S7,
    "S8": _entry_S8,
    "lie2": _entry_lie2,
    "nonlie2": _entry_nonlie2,
    "ns2": _entry_ns2,
    "so3": _entry_so3,
    "mu_hy": _entry_mu_hy,
    "mu_he": _entry_mu_he,
    "mu_sy": _entry_mu_sy,
}


def names() -> list[str]:
    return list(_BUILDERS)


def get(name: str, params: dict | None = None, n: int | None = None) -> CatalogEntry:
    """Look up a catalog entry; parametrized families take params and/or n.

    Raises KeyError for an unknown name and ValueError for a parameter the
    entry does not take or a value it cannot use.
    """
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
    builder = _BUILDERS[name]
    kwargs = dict(params or {})
    if n is not None:
        kwargs["n"] = n
    known = inspect.signature(builder).parameters
    unknown = [k for k in kwargs if k not in known]
    if unknown:
        raise ValueError(f"catalog entry {name} has no parameter {', '.join(unknown)};"
                         f" it takes: {', '.join(known) or 'none'}")
    return builder(**kwargs)


@dataclass(frozen=True)
class VerifyRow:
    """One certification row of :func:`verify_catalog`."""

    label: str
    strategy: str  # "direct" | "flow" | "noncritical"
    computed_type: CriticalType | None
    computed_value: float | None
    expected_type: CriticalType | None
    expected_value: float | None
    residual: float
    passed: bool
    note: str = ""


PARAM_SAMPLES = (1, 2, 1j, 1 + 1j)

#: Default golden set: the classification table at n = 3, the 2-d algebras,
#: the non-symmetric 2-d example, the scalar sl(2) basis and the three
#: arbitrary-dimension families at n = 4.
def standard_rows() -> list[CatalogEntry]:
    rows: list[CatalogEntry] = [get("L1"), get("L2")]
    rows += [get("L3", {"alpha": a}) for a in PARAM_SAMPLES]
    rows += [get("L4"), get("L5"), get("S1"), get("S2")]
    rows += [get("S3", {"beta": 0.25}), get("S3", {"beta": 1})]
    rows += [get("S4")]
    rows += [get("S5", {"alpha": a}) for a in PARAM_SAMPLES]
    rows += [get("S6")]
    rows += [get("S7", {"alpha": a}) for a in PARAM_SAMPLES]
    rows += [get("S8")]
    rows += [get("lie2"), get("nonlie2"), get("ns2"), get("so3")]
    rows += [get("mu_hy", n=4), get("mu_he", n=4), get("mu_sy", n=4)]
    return rows


def _relerr(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def verify_catalog(tol: float = DEFAULT_CRITICAL_TOL) -> list[VerifyRow]:
    """Certify every :func:`standard_rows` entry against its expected type and value.

    Entries critical in their stored basis are compared directly at
    relative tolerance ``tol``; the rest are descended first and compared
    at ``FLOW_VALUE_TOL``.  Entries without expected data must show a
    clearly non-critical basis (tangent residual above 0.1).
    """
    rows = []
    for entry in standard_rows():
        rep = criticality_decompose(entry.bracket, tol)
        if entry.expected_type is None:
            passed = rep.residual_tangent > NONCRITICAL_MIN_RESIDUAL
            rows.append(
                VerifyRow(entry.label, "noncritical", None, None, None, None,
                          rep.residual_tangent, passed and not entry.critical_in_given_basis,
                          "expected no critical point")
            )
            continue
        if rep.is_critical:
            strategy, final, value_tol, note = "direct", rep, tol, ""
        else:
            trace = descend(entry.bracket, tol)
            strategy, final, value_tol = "flow", trace.final_report, FLOW_VALUE_TOL
            note = f"{trace.iterations} descent steps"
        # only a critical report has a type, so a type match certifies the limit
        passed = (
            entry.critical_in_given_basis == rep.is_critical
            and final.type == entry.expected_type
            and _relerr(final.F, entry.expected_value) <= value_tol
        )
        rows.append(
            VerifyRow(entry.label, strategy, final.type, final.F, entry.expected_type,
                      entry.expected_value, final.residual_tangent, passed, note)
        )
    return rows
