"""Algebra files, extension-spec files and JSON report serialization.

An algebra file is a JSON document::

    {"dim": 3,
     "entries": [{"i": 3, "j": 3, "k": 1, "re": 1.0, "im": 0.0}, ...],
     "name": "S1",            # optional
     "params": {}}            # optional

with 1-based indices; entry (i, j, k) holds the e_k-coefficient of the
product of e_i and e_j, unlisted coefficients are zero and duplicate index
triples are rejected.  Floats round-trip exactly through JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Any

import numpy as np

from . import catalog
from .bracket import Bracket
from .extensions import ExtensionSpec
from .moment import CriticalType, MomentReport

__all__ = [
    "AlgebraFileError",
    "load_algebra",
    "save_algebra",
    "algebra_to_dict",
    "bracket_from_dict",
    "load_extension_spec",
    "moment_report_dict",
    "report_dict",
]


class AlgebraFileError(ValueError):
    """Bad input: a malformed algebra or extension-spec document, a bad
    ``--param`` value or an unknown catalog name."""


def algebra_to_dict(mu: Bracket, name: str | None = None, params: dict | None = None) -> dict:
    entries = []
    c = mu.coeffs
    for (i, j, k) in np.argwhere(c != 0):
        v = c[i, j, k]
        entries.append(
            {"i": int(i) + 1, "j": int(j) + 1, "k": int(k) + 1,
             "re": float(v.real), "im": float(v.imag)}
        )
    doc: dict[str, Any] = {"dim": mu.dim, "entries": entries}
    if name is not None:
        doc["name"] = name
    if params:
        doc["params"] = {k: _param_to_json(v) for k, v in params.items()}
    return doc


def _param_to_json(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def save_algebra(path, mu: Bracket, name: str | None = None, params: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(mu, name, params), fh, indent=2)
        fh.write("\n")


def bracket_from_dict(doc: Any) -> tuple[Bracket, dict]:
    """Parse an algebra document; returns the bracket and its metadata."""
    if not isinstance(doc, dict):
        raise AlgebraFileError("algebra document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise AlgebraFileError("'dim' must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise AlgebraFileError("'entries' must be a list")
    table: dict[tuple[int, int, int], complex] = {}
    for pos, e in enumerate(entries):
        where = f"entry #{pos + 1}"
        if not isinstance(e, dict):
            raise AlgebraFileError(f"{where} is not an object")
        extra = set(e) - {"i", "j", "k", "re", "im"}
        if extra:
            raise AlgebraFileError(f"{where} has unknown fields {sorted(extra)}")
        try:
            i, j, k = e["i"], e["j"], e["k"]
        except KeyError as exc:
            raise AlgebraFileError(f"{where} is missing field {exc}") from None
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= dim:
                raise AlgebraFileError(
                    f"{where}: index {label}={idx!r} not an integer in [1, {dim}]"
                )
        if (i, j, k) in table:
            raise AlgebraFileError(f"{where}: duplicate index triple ({i},{j},{k})")
        re, im = (_finite(e.get(label, 0.0), f"{where}: {label}") for label in ("re", "im"))
        table[i, j, k] = complex(re, im)
    meta = {key: doc[key] for key in ("name", "params") if key in doc}
    return Bracket.from_entries(dim, table), meta


def _read_json(path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise AlgebraFileError(f"{path}: JSON nested too deeply") from None


def load_algebra(path) -> tuple[Bracket, dict]:
    return bracket_from_dict(_read_json(path))


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(val: Any, what: str) -> float:
    """``val`` as a float; raises unless it is a finite JSON number."""
    try:
        if _is_number(val) and math.isfinite(val):
            return float(val)
    except OverflowError:  # an integer beyond the float range
        pass
    raise AlgebraFileError(f"{what}={val!r} is not a finite number")


def _string(val: Any, what: str) -> str:
    if not isinstance(val, str):
        raise AlgebraFileError(f"{what}={val!r} must be a string")
    return val


def _matrix_from_json(obj: Any, m: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != m:
        raise AlgebraFileError(f"{what} must be a list of {m} rows")
    out = [[0j] * m for _ in range(m)]
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != m:
            raise AlgebraFileError(f"{what} row {r + 1} must have {m} entries")
        for cidx, cell in enumerate(row):
            where = f"{what}[{r + 1}][{cidx + 1}]"
            parts = cell if isinstance(cell, list) and len(cell) == 2 else [cell, 0.0]
            if not all(_is_number(x) for x in parts):
                raise AlgebraFileError(f"{where} must be a number or [re, im] pair")
            out[r][cidx] = complex(*(_finite(x, where) for x in parts))
    return np.array(out)


def load_extension_spec(path):
    """Parse an extension-spec document into an :class:`ExtensionSpec`.

    The core is given as ``{"catalog": NAME}``, ``{"file": PATH}`` (relative
    to the document's directory), an inline ``{"algebra": {...}}``, or the degenerate
    ``{"abelian": {"dim": m, "c": c}}``.  Matrices are lists of
    rows whose cells are numbers or [re, im] pairs; generator index lists
    ``semisimple`` and ``center`` are 1-based and read with or without an
    ``f_bracket``.  A top-level key other than ``core``, ``left_maps``,
    ``right_maps``, ``f_bracket``, ``semisimple`` and ``center`` is rejected.
    ``core_report`` is left None, so the builder certifies the core at the
    build's tolerance.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise AlgebraFileError("extension spec must be a JSON object")
    extra = set(doc) - {"core", "left_maps", "right_maps", "f_bracket", "semisimple", "center"}
    if extra:
        raise AlgebraFileError(f"extension spec has unknown fields {sorted(extra)}")
    core_doc = doc.get("core")
    if not isinstance(core_doc, dict):
        raise AlgebraFileError("'core' must be an object")

    core_c = None
    if "abelian" in core_doc:
        ab = core_doc["abelian"]
        if not isinstance(ab, dict) or not {"dim", "c"} <= set(ab):
            raise AlgebraFileError("'core.abelian' needs numeric dim and c")
        m = ab["dim"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise AlgebraFileError(f"'core.abelian.dim'={m!r} must be a positive integer")
        core_c = _finite(ab["c"], "'core.abelian.c'")
        core = Bracket.zero(m)
    elif "catalog" in core_doc:
        name = _string(core_doc["catalog"], "'core.catalog'")
        params = core_doc.get("params", {})
        if not isinstance(params, dict):
            raise AlgebraFileError(f"'core.params'={params!r} must be an object")
        params = {k: _finite(v, f"'core.params.{k}'") for k, v in params.items()}
        try:
            core = catalog.get(name, params).bracket
        except KeyError as exc:
            raise AlgebraFileError(exc.args[0]) from None
    elif "file" in core_doc:
        rel = os.path.join(os.path.dirname(os.fspath(path)),
                           _string(core_doc["file"], "'core.file'"))
        core, _ = load_algebra(rel)
    elif "algebra" in core_doc:
        core, _ = bracket_from_dict(core_doc["algebra"])
    else:
        raise AlgebraFileError("'core' needs one of: catalog, file, algebra, abelian")

    m = core.dim
    lm_doc = doc.get("left_maps")
    rm_doc = doc.get("right_maps")
    if not isinstance(lm_doc, list) or not isinstance(rm_doc, list) or not lm_doc:
        raise AlgebraFileError("'left_maps' and 'right_maps' must be nonempty lists")
    if len(lm_doc) != len(rm_doc):
        raise AlgebraFileError("'left_maps' and 'right_maps' must have equal length")
    lmaps = tuple(_matrix_from_json(x, m, f"left_maps[{a + 1}]") for a, x in enumerate(lm_doc))
    rmaps = tuple(_matrix_from_json(x, m, f"right_maps[{a + 1}]") for a, x in enumerate(rm_doc))

    f_bracket = bracket_from_dict(doc["f_bracket"])[0] if "f_bracket" in doc else None

    def _indices(key: str) -> tuple[int, ...]:
        lst = doc.get(key, [])
        if not isinstance(lst, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= len(lmaps) for x in lst
        ):
            raise AlgebraFileError(f"'{key}' must list 1-based generator indices")
        return tuple(x - 1 for x in lst)

    return ExtensionSpec(
        core=core,
        core_report=None,
        left_maps=lmaps,
        right_maps=rmaps,
        f_bracket=f_bracket,
        semisimple=_indices("semisimple"),
        center=_indices("center"),
        core_c=core_c,
    )


def _matrix_to_json(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def report_dict(obj: Any) -> dict:
    """JSON-ready dict of a report dataclass.

    The keys are the dataclass fields in declaration order, followed by the
    class's ``property`` flags in definition order.  A :class:`CriticalType`
    is written as its string and a tuple as a list; other values are kept.
    """
    names = [f.name for f in dataclasses.fields(obj)]
    names += [k for k, v in vars(type(obj)).items() if isinstance(v, property)]
    return {k: _json_value(getattr(obj, k)) for k in names}


def _json_value(v: Any) -> Any:
    if isinstance(v, CriticalType):
        return str(v)
    return list(v) if isinstance(v, tuple) else v


def moment_report_dict(rep: MomentReport) -> dict:
    t = rep.type
    return {
        "dim": rep.M.shape[0],
        "norm_sq": rep.norm_sq,
        "F": rep.F,
        "trace_M": float(np.trace(rep.M).real),
        "c": rep.c,
        "is_critical": rep.is_critical,
        "residual_tangent": rep.residual_tangent,
        "residual_decomp": rep.residual_decomp,
        "derivation_defect": rep.derivation_defect,
        "critical_type": None if t is None else str(t),
        "type_scale": None if t is None else t.scale,
        "D_eigenvalues": [float(x) for x in rep.eigen[0] * rep.norm_sq],
        "M": _matrix_to_json(rep.M),
        "D": _matrix_to_json(rep.D),
        "tol": rep.tol,
    }
