"""Snapshot the output of a fixed set of leibcrit CLI commands.

Usage::

    python3 scripts/cli_snapshot.py OUTDIR
    python3 scripts/cli_snapshot.py --compare A B

Every command runs in process through ``leibcrit.cli.run`` from the
``src`` directory next to this script, with OUTDIR as the working
directory so that every path in the output is relative.  OUTDIR/inputs
holds the algebra and spec files the commands read; OUTDIR/<name>.txt
holds one command's argv, exit code, stdout, stderr and the contents of
any algebra file it wrote.  An uncaught exception is recorded as exit 1
with its type and message, as a fresh process would end.

Two snapshots of different checkouts compare with ``diff -r``: identical
trees mean the CLI output is byte-identical on the whole set.  ``--compare
A B`` lists each file that differs between the snapshot trees A and B (or
is in only one of them).  For each it says whether only numeric fields
differ -- the texts are equal once every number is masked -- and if so gives
the field with the largest relative change |a - b| / max(|a|, |b|) and the
largest absolute change.  It exits 0 when the trees are identical and 1
otherwise, as ``diff`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from leibcrit.bracket import Bracket, gl_act  # noqa: E402
from leibcrit.catalog import get  # noqa: E402
from leibcrit.cli import run  # noqa: E402
from leibcrit.fileio import algebra_to_dict, save_algebra  # noqa: E402

ALGEBRAS = (
    ("S1", None), ("S2", None), ("L1", None), ("L2", None), ("lie2", None),
    ("nonlie2", None), ("so3", None), ("mu_sy", 6), ("mu_he", 7), ("mu_hy", 5),
)

BAD_CORES = {
    "file-not-string": {"file": 3},
    "catalog-not-string": {"catalog": ["S1"]},
    "params-not-object": {"catalog": "S1", "params": 5},
    "param-not-number": {"catalog": "mu_he", "params": {"n": [4]}},
}

#: Inputs read only by the flow and bad-input commands.
EXTRA_ALGEBRAS = {"L5": ("L5", None), "L3-alpha2": ("L3", {"alpha": 2})}

#: Scaled catalog products, by file stem: (name, factor).  S1 at 3e-4 and
#: 1e-10 and L5 at 1e-45 lie inside the certificate's range, S1 at 1e60 and
#: L5 at 1e-60 just outside it, and S1 at 1e160 and 1e-170 so far out that
#: |mu|^2 overflows or underflows.
SCALED = {
    "S1-1e160": ("S1", 1e160), "S1-1e-170": ("S1", 1e-170), "S1-3e-4": ("S1", 3e-4),
    "S1-1e-10": ("S1", 1e-10), "S1-1e60": ("S1", 1e60), "L5-1e-45": ("L5", 1e-45),
    "L5-1e-60": ("L5", 1e-60),
}

#: Non-finite tolerances and perturbation magnitudes.
BAD_NUMBERS = {
    "tol-nan-analyze": ["--tol", "nan", "analyze", "inputs/S1.json"],
    "tol-inf-analyze": ["--tol", "inf", "analyze", "inputs/L5.json"],
    "tol-nan-catalog-verify": ["--tol", "nan", "catalog", "verify"],
    "tol-nan-flow": ["--tol", "nan", "flow", "inputs/L5.json"],
    "perturb-nan": ["flow", "inputs/L5.json", "--perturb", "nan"],
    "tol-nan-extend": ["--tol", "nan", "extend", "solvable", "inputs/spec-solvable.json",
                       "-o", "written.json"],
}

#: Options that no longer exist: the global --tol replaces both subcommand
#: --tol, and every type is reconstructed with denominators up to 100.
REMOVED_FLAGS = {
    "flow-step0": ["flow", "inputs/L5.json", "--step0", "0.1"],
    "flow-max-iter": ["flow", "inputs/L5.json", "--max-iter", "10"],
    "flow-tol": ["flow", "inputs/L5.json", "--tol", "1e-6"],
    "catalog-verify-tol": ["catalog", "verify", "--tol", "1e-6"],
    "max-den": ["--max-den", "100", "analyze", "inputs/S1.json"],
}

#: Critical points without a rational type, a near-critical extension core
#: that only the build tolerance certifies, and moves too large for gl_act.
EDGE_CASES = {
    "analyze-S2-irrational-text": ["--tol", "1e-2", "analyze", "inputs/S2-irrational.json"],
    "analyze-S2-irrational-json": ["--tol", "1e-2", "--format", "json", "analyze",
                                   "inputs/S2-irrational.json"],
    "flow-m0-9": ["flow", "inputs/m0-9.json"],
    "extend-near-critical-core-tol": ["--tol", "1e-3", "extend", "solvable",
                                      "inputs/spec-near-critical-core.json", "-o", "written.json"],
    "perturb-50": ["flow", "inputs/L5.json", "--perturb", "50"],
    "perturb-1e308": ["flow", "inputs/L5.json", "--perturb", "1e308"],
}

#: Help texts, which show the default of --tol.
HELP = {"help": ["--help"], "flow-help": ["flow", "--help"], "extend-help": ["extend", "--help"]}

#: Catalog entries to show, by file stem: each is shown in text and in JSON.
SHOWS = {"S1": ["S1"], "S5-alpha2": ["S5", "--param", "alpha=2"], "mu_he-n5": ["mu_he", "--n", "5"],
         "m0-n9": ["m0", "--n", "9"]}

BAD_SHOWS = {
    "unknown-param": ["S3", "--param", "alpha=0.25"],
    "n-on-fixed-dim": ["S1", "--n", "7"],
    "fractional-n": ["mu_he", "--param", "n=4.7"],
    "complex-n": ["mu_he", "--param", "n=2j"],
    "float-n": ["mu_he", "--param", "n=4"],
    "unknown-name": ["nope"],
    "nan-param": ["S3", "--param", "beta=nan"],
    "large-param": ["L3", "--param", "alpha=1e20"],
    "m0-n2": ["m0", "--n", "2"],
}


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _write_inputs(inputs: Path) -> list[str]:
    """Write the algebra and spec files; returns the algebra file stems."""
    stems = []
    for seed, (name, n) in enumerate(ALGEBRAS):
        entry = get(name, n=n)
        stem = name if n is None else f"{name}{n}"
        save_algebra(inputs / f"{stem}.json", entry.bracket, stem, entry.params)
        rotated = gl_act(_unitary(entry.dim, seed), entry.bracket)
        save_algebra(inputs / f"{stem}-rot.json", rotated, f"{stem} rotated")
        stems += [stem, f"{stem}-rot"]
    for stem, (name, params) in EXTRA_ALGEBRAS.items():
        entry = get(name, params)
        save_algebra(inputs / f"{stem}.json", entry.bracket, stem, entry.params)
    for stem, (name, scale) in SCALED.items():
        save_algebra(inputs / f"{stem}.json", Bracket(3, scale * get(name).bracket.coeffs), stem)
    # S2 moved by I + 1e-4 R: critical at tol 1e-2, type rational only to 6.1e-5
    r = np.random.default_rng(3).standard_normal((3, 3))
    save_algebra(inputs / "S2-irrational.json", gl_act(np.eye(3) + 1e-4 * r, get("S2").bracket),
                 "S2 moved")
    save_algebra(inputs / "m0-9.json", get("m0", n=9).bracket, "m0(9)")
    near = get("S1").bracket.coeffs.copy()
    near[1, 2, 0] += 1e-6  # tangent residual 6.3e-7
    z3 = [[0, 0, 0]] * 3
    specs = {
        "solvable": {"core": {"catalog": "S1"},
                     "left_maps": [[[0, 0, 0], [0, 1, 0], [0, 0, 0]]], "right_maps": [z3]},
        "general": {"core": {"catalog": "S1"}, "left_maps": [z3] * 3, "right_maps": [z3] * 3,
                    "f_bracket": algebra_to_dict(get("so3").bracket),
                    "semisimple": [1, 2, 3], "center": []},
    }
    for label, core in BAD_CORES.items():
        specs[f"bad-{label}"] = {**specs["solvable"], "core": core}
    specs["near-critical-core"] = {**specs["solvable"],
                                   "core": {"algebra": algebra_to_dict(Bracket(3, near))}}
    for label, doc in specs.items():
        (inputs / f"spec-{label}.json").write_text(json.dumps(doc, indent=2) + "\n")
    return stems


def _commands(stems: list[str]) -> dict[str, list[str]]:
    cmds = {}
    for stem in stems:
        for verb in ("check", "analyze"):
            cmds[f"{verb}-{stem}-text"] = [verb, f"inputs/{stem}.json"]
            cmds[f"{verb}-{stem}-json"] = ["--format", "json", verb, f"inputs/{stem}.json"]
    for stem in SCALED:
        for verb in ("check", "analyze", "flow"):
            cmds[f"{verb}-{stem}"] = [verb, f"inputs/{stem}.json"]
    cmds["catalog-list-text"] = ["catalog", "list"]
    cmds["catalog-list-json"] = ["--format", "json", "catalog", "list"]
    for stem, argv in SHOWS.items():
        cmds[f"catalog-show-{stem}-text"] = ["catalog", "show", *argv]
        cmds[f"catalog-show-{stem}-json"] = ["--format", "json", "catalog", "show", *argv]
    cmds["catalog-export-S1"] = ["catalog", "export", "S1", "written.json"]
    cmds["catalog-export-S1-json"] = ["--format", "json", "catalog", "export", "S1", "written.json"]
    cmds["catalog-verify"] = ["catalog", "verify"]
    cmds["catalog-verify-json"] = ["--format", "json", "catalog", "verify"]
    cmds["flow-S2-perturbed"] = ["flow", "inputs/S2.json", "--perturb", "0.3", "--seed", "1"]
    cmds["flow-L5"] = ["flow", "inputs/L5.json"]
    cmds["flow-S2-perturbed-json"] = ["--format", "json", *cmds["flow-S2-perturbed"]]
    cmds["flow-L5-json"] = ["--format", "json", *cmds["flow-L5"]]
    cmds["flow-L3-alpha2-perturbed"] = ["flow", "inputs/L3-alpha2.json",
                                        "--perturb", "0.5", "--seed", "1"]
    for stem in ("so3", "L2"):  # limits critical to about 1e-8, graded by their type
        cmds[f"flow-{stem}-perturbed"] = ["flow", f"inputs/{stem}.json",
                                          "--perturb", "0.3", "--seed", "0"]
    cmds |= BAD_NUMBERS | REMOVED_FLAGS | EDGE_CASES | HELP
    for mode in ("solvable", "general"):
        cmds[f"extend-{mode}"] = ["extend", mode, "inputs/spec-" + mode + ".json",
                                  "-o", "written.json"]
        cmds[f"extend-{mode}-json"] = ["--format", "json", *cmds[f"extend-{mode}"]]
    for label in BAD_CORES:
        cmds[f"extend-bad-{label}"] = ["extend", "solvable", f"inputs/spec-bad-{label}.json",
                                       "-o", "written.json"]
    for label, argv in BAD_SHOWS.items():
        cmds[f"catalog-show-{label}"] = ["catalog", "show", *argv]
    return cmds


def _run_one(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - recorded as a crashing process would show it
            code = 1
            err.write("Traceback (most recent call last):\n")
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return code, out.getvalue(), err.getvalue()


#: A number as the CLI prints one: sign, digits, point, exponent.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_change(a: str, b: str) -> tuple[int, float, str, float] | None:
    """(differing numbers, largest relative change, its "x -> y", largest
    absolute change) over the numbers of a and b when the texts are equal
    once every number is masked; None when other text differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    count, rel, where, absolute = 0, 0.0, "", 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x == y:
            continue
        count += 1
        fx, fy = float(x), float(y)
        change = 0.0 if fx == fy else abs(fx - fy) / max(abs(fx), abs(fy))
        absolute = max(absolute, abs(fx - fy))
        if change >= rel:
            rel, where = change, f"{x} -> {y}"
    return count, rel, where, absolute


def compare(a: Path, b: Path) -> int:
    """Print each file that differs between the snapshot trees a and b."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    differing = 0
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            print(f"{name}: only in {a if fa.is_file() else b}")
        else:
            ta, tb = fa.read_text(), fb.read_text()
            if ta == tb:
                continue
            change = numeric_change(ta, tb)
            if change is None:
                print(f"{name}: text differs")
            else:
                count, rel, where, absolute = change
                print(f"{name}: {count} numeric fields only; largest relative change"
                      f" {rel:.3g} ({where}), largest absolute change {absolute:.3g}")
        differing += 1
    print(f"{differing} of {len(names)} files differ")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print("usage: cli_snapshot.py OUTDIR | --compare A B", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    (outdir / "inputs").mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    stems = _write_inputs(Path("inputs"))
    written = Path("written.json")
    for name, cmd in _commands(stems).items():
        code, out, err = _run_one(cmd)
        text = f"argv: {' '.join(cmd)}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"
        if written.exists():
            text += f"--- wrote {written}\n{written.read_text()}"
            written.unlink()
        Path(f"{name}.txt").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
