"""Command-line interface.

Subcommands: ``check``, ``analyze``, ``flow``, ``catalog`` (list / show /
export / verify) and ``extend`` (solvable / general).  Each command builds
one document: ``--format json`` prints it, and the default text is
rendered from it, so :func:`run` is the only writer to stdout.  Exit status
is 0 on success or pass, 1 on a verification failure, 2 on input errors
and 3 on an internal numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

from numpy.linalg import LinAlgError

from . import catalog as _catalog
from .bracket import _check_tol, check_identities
from .extensions import ExtensionError, build_general_extension, build_solvable_extension
from .fileio import (
    AlgebraFileError,
    algebra_to_dict,
    load_algebra,
    load_extension_spec,
    moment_report_dict,
    report_dict,
    save_algebra,
)
from .flow import descend, perturb_in_orbit
from .moment import DEFAULT_CRITICAL_TOL, MomentReport, criticality_decompose
from .structure import structure_profile, verify_structure_theorem


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibcrit",
        description="Moment-map analysis and critical points for complex Leibniz algebras.",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_CRITICAL_TOL,
                        help="criticality tolerance, also the flow's stopping tolerance"
                             " (default 1e-8)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="identity report for an algebra file")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="moment analysis of an algebra file")
    p.add_argument("file")

    p = sub.add_parser("flow", help="descend F inside the orbit of an algebra file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed of the --perturb move (default 0)")
    p.add_argument("--perturb", type=float, default=0.0, metavar="M",
                   help="first move the start inside its orbit by this magnitude")

    p = sub.add_parser("catalog", help="built-in algebra catalog")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    csub.add_parser("list", help="list catalog names")
    for verb in ("show", "export"):
        q = csub.add_parser(verb)
        q.add_argument("name")
        if verb == "export":
            q.add_argument("file")
        q.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                       help="family parameter, e.g. alpha=2 or beta=0.25")
        q.add_argument("--n", type=int, default=None, help="ambient dimension for families")
    csub.add_parser("verify", help="golden run against the classification table")

    p = sub.add_parser("extend", help="build a higher-dimensional critical point")
    p.add_argument("mode", choices=("solvable", "general"))
    p.add_argument("specfile")
    p.add_argument("-o", "--output", default=None,
                   help="algebra file to write (default: SPECFILE stem + .out.json)")
    return parser


def _parse_params(items: list[str]) -> dict:
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise AlgebraFileError(f"bad --param {item!r}, expected NAME=VALUE")
        try:
            v = complex(value.replace(" ", ""))
            if not cmath.isfinite(v):
                raise ValueError
        except ValueError:
            raise AlgebraFileError(f"bad --param value {value!r}") from None
        out[name] = v if v.imag else v.real
    return out


def _analysis_document(rep: MomentReport, meta: dict) -> dict:
    """The analysis of the product ``rep.mu``, given its criticality certificate ``rep``."""
    idr = check_identities(rep.mu)
    prof = structure_profile(rep.mu)
    doc = {
        "algebra": {"dim": rep.mu.dim, **meta},
        "identities": report_dict(idr),
        "moment": moment_report_dict(rep),
        "structure": report_dict(prof),
        "structure_checks": None,
    }
    if rep.type is not None and idr.is_symmetric_leibniz:
        doc["structure_checks"] = report_dict(verify_structure_theorem(rep.mu, rep))
    return doc


def _identity_lines(idr_doc: dict) -> list[str]:
    return [
        f"left Leibniz:       {_yesno(idr_doc['is_left_leibniz'])}"
        f" (residual {_fmt(idr_doc['left_residual'])})",
        f"right Leibniz:      {_yesno(idr_doc['is_right_leibniz'])}"
        f" (residual {_fmt(idr_doc['right_residual'])})",
        f"symmetric Leibniz:  {_yesno(idr_doc['is_symmetric_leibniz'])}",
        f"Lie:                {_yesno(idr_doc['is_lie'])}"
        f" (anticommutativity {_fmt(idr_doc['anticommutativity_residual'])},"
        f" Jacobi {_fmt(idr_doc['jacobi_residual'])})",
    ]


def _moment_lines(m: dict) -> list[str]:
    lines = [
        f"|mu|^2 = {_fmt(m['norm_sq'])}",
        f"F = {_fmt(m['F'])}",
        f"tr M = {_fmt(m['trace_M'])}",
        f"c = {_fmt(m['c'])}",
        f"critical: {_yesno(m['is_critical'])}"
        f" (tangent residual {_fmt(m['residual_tangent'])},"
        f" decomposition residual {_fmt(m['residual_decomp'])})",
    ]
    if m["critical_type"]:
        lines.append(f"critical type = {m['critical_type']}  (scale {_fmt(m['type_scale'])})")
    return lines + ["D eigenvalues = " + " ".join(_fmt(x) for x in m["D_eigenvalues"])]


def _structure_line(s: dict) -> str:
    derived, lower = (",".join(map(str, s[k])) for k in ("derived_dims", "lower_central_dims"))
    return (f"structure: derived dims {derived}; lower central {lower};"
            f" center dim {s['center_dim']}; solvable {_yesno(s['is_solvable'])};"
            f" nilpotent {_yesno(s['is_nilpotent'])}")


def _verdict_lines(doc: dict) -> list[str]:
    v = doc["structure_checks"]
    if v is None:
        critical = doc["moment"]["is_critical"] and doc["identities"]["is_symmetric_leibniz"]
        reason = "no rational type" if critical else "needs a symmetric Leibniz critical point"
        return [f"structure checks: not applicable ({reason})"]
    lines = [
        "structure checks: "
        f"adjoint-closed {_yesno(v['adjoint_closed'])}; "
        f"l0 reductive {_yesno(v['l0_reductive'])}; "
        f"center normal {_yesno(v['center_normal'])}; "
        f"nilradical {_yesno(v['nilradical_ok'])}"
        + (" [degenerate: abelian nilradical]" if v["degenerate_abelian_nilradical"] else "")
    ]
    if v["restricted_type"]:
        lines.append(f"nilradical type = {v['restricted_type']}"
                     f" (matches {_yesno(v['type_matches'])})")
    return lines


def _analysis_lines(doc: dict) -> list[str]:
    meta = doc["algebra"]
    return [
        f"{meta.get('name', 'algebra')} (dim {meta['dim']})",
        *_identity_lines(doc["identities"]),
        *_moment_lines(doc["moment"]),
        _structure_line(doc["structure"]),
        *_verdict_lines(doc),
    ]


#: What a command hands to :func:`run`: the document that ``--format json``
#: prints, the text lines rendered from that document, and the exit status.
_Output = tuple[dict, list[str], int]


def _cmd_check(args) -> _Output:
    mu, meta = load_algebra(args.file)
    doc = {"algebra": {"dim": mu.dim, **meta}, "identities": report_dict(check_identities(mu))}
    return doc, _identity_lines(doc["identities"]), 0


def _cmd_analyze(args) -> _Output:
    mu, meta = load_algebra(args.file)
    doc = _analysis_document(criticality_decompose(mu, args.tol), meta)
    return doc, _analysis_lines(doc), 0


def _cmd_flow(args) -> _Output:
    mu, meta = load_algebra(args.file)
    if args.perturb:
        mu = perturb_in_orbit(mu, args.perturb, args.seed)
    trace = descend(mu, args.tol)
    flow = {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "message": trace.message,
        "F_initial": trace.steps[0].F,
        "F_final": trace.final_report.F,
        "residual_final": trace.final_report.residual_tangent,
        "cond_g": trace.cond_g,
    }
    doc = {"flow": flow, "final": _analysis_document(trace.final_report, meta)}
    return doc, [
        f"flow: {flow['iterations']} steps, converged {_yesno(flow['converged'])}"
        + (f" ({flow['message']})" if flow["message"] else ""),
        f"F: {_fmt(flow['F_initial'])} -> {_fmt(flow['F_final'])}"
        f" (residual {_fmt(flow['residual_final'])})",
        *_analysis_lines(doc["final"]),
    ], 0


def _catalog_entry(args) -> _catalog.CatalogEntry:
    try:
        return _catalog.get(args.name, _parse_params(args.param) or None, args.n)
    except KeyError as exc:
        raise AlgebraFileError(exc.args[0]) from None


def _show_lines(doc: dict) -> list[str]:
    lines = [f"{doc['label']}: {doc['class']}, dim {doc['dim']}"]
    if doc["expected_type"] is not None:
        lines.append(f"expected type {doc['expected_type']}, value {_fmt(doc['expected_value'])}"
                     f" ({'direct' if doc['critical_in_given_basis'] else 'via flow'})")
    else:
        lines.append("expected: no critical point in this orbit")
    if doc["notes"]:
        lines.append(doc["notes"])
    for e in doc["algebra"]["entries"]:
        z = complex(e["re"], e["im"])
        lines.append(f"  c[{e['i']},{e['j']},{e['k']}] = {z if z.imag else _fmt(z.real)}")
    return lines


def _verify_line(r: dict) -> str:
    ct, et = r["computed_type"] or "-", r["expected_type"] or "-"
    cv = _fmt(r["computed_value"]) if r["computed_value"] is not None else "-"
    ev = _fmt(r["expected_value"]) if r["expected_value"] is not None else "-"
    return (f"{r['label']:16s} {r['strategy']:12s} {ct:16s} {cv:>14s}"
            f"  expected {et:16s} {ev:>14s}  {'pass' if r['passed'] else 'FAIL'}")


def _cmd_catalog(args) -> _Output:
    if args.catalog_command == "list":
        doc = {"names": _catalog.names()}
        return doc, doc["names"], 0
    if args.catalog_command == "show":
        entry = _catalog_entry(args)
        doc = {
            "label": entry.label,
            "class": entry.algebra_class,
            "dim": entry.dim,
            "expected_type": str(entry.expected_type) if entry.expected_type else None,
            "expected_value": entry.expected_value,
            "critical_in_given_basis": entry.critical_in_given_basis,
            "notes": entry.notes,
            "algebra": algebra_to_dict(entry.bracket, entry.label, entry.params),
        }
        return doc, _show_lines(doc), 0
    if args.catalog_command == "export":
        entry = _catalog_entry(args)
        save_algebra(args.file, entry.bracket, entry.label, entry.params)
        return {"output_file": args.file}, [f"wrote {args.file}"], 0
    # verify
    rows = [report_dict(r) for r in _catalog.verify_catalog(args.tol)]
    ok = all(r["passed"] for r in rows)
    lines = [_verify_line(r) for r in rows] + ["all rows pass" if ok else "FAILURES present"]
    return {"rows": rows, "all_passed": ok}, lines, 0 if ok else 1


def _cmd_extend(args) -> _Output:
    spec = load_extension_spec(args.specfile)
    builder = build_solvable_extension if args.mode == "solvable" else build_general_extension
    out, rep = builder(spec, args.tol)
    out_path = args.output
    if out_path is None:
        out_path = os.path.splitext(args.specfile)[0] + ".out.json"
    save_algebra(out_path, out, name=f"{args.mode} extension")
    doc = {
        "certified": True,
        "mode": args.mode,
        "dim": out.dim,
        "type": str(rep.type),
        "F": rep.F,
        "c": rep.c,
        "residual_tangent": rep.residual_tangent,
        "output_file": out_path,
    }
    return doc, [
        f"certified critical point: dim {doc['dim']}, type {doc['type']}, "
        f"F = {_fmt(doc['F'])}, c = {_fmt(doc['c'])}"
        f" (tangent residual {_fmt(doc['residual_tangent'])})",
        f"wrote {doc['output_file']}",
    ], 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": _cmd_check, "analyze": _cmd_analyze, "flow": _cmd_flow,
                "catalog": _cmd_catalog, "extend": _cmd_extend}
    try:
        _check_tol(args.tol)
        doc, lines, code = handlers[args.command](args)
        print(json.dumps(doc, indent=2) if args.format == "json" else "\n".join(lines))
        return code
    except ExtensionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    # LinAlgError is a ValueError, but neither it nor MemoryError is the input's fault
    except (LinAlgError, MemoryError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
