"""The benchmark's workloads: inputs made from the seed, operations, oracles.

An operation is one call sequence a user makes: one certificate (the
``leibcrit analyze`` pipeline or an extension build), one descent, or one
``leibcrit`` process.  Each :class:`Op` has a ``run`` that does only the
library work, timed, and a ``check`` that judges its output afterwards with
:mod:`oracle`, untimed.  A pass runs every operation of a workload once,
in an order shuffled by the seed.

``known_defect`` names starts that a known library defect breaks (the
descent drifts out of its orbit, ROADMAP item 1).  They stay in the
workload.  Each has a frozen signature of how it fails today, checked by
``defect_check``: an answer that matches it counts as a failed operation
of the known defect, the right answer counts as correct, and any other
outcome (an exception, no convergence, another limit) is an unexpected
failure that makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "from leibcrit.cli import main; main()"
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    n: int
    run: Callable[..., dict]
    check: Callable[[dict], str | None]  # failure reason, or None when correct
    known_defect: str = ""
    defect_check: Callable[[dict], str | None] | None = None  # None when it fails as frozen
    twin: str | None = None  # catalog-basis twin whose answers must match


@dataclass
class Workload:
    name: str
    ops: list[Op]
    min_passes: int  # the tail percentile is fixed for this many passes
    in_process: bool = True


def _lc():
    import leibcrit

    return leibcrit


def m0(n: int):
    """The filiform Lie algebra [e1, ei] = e(i+1)."""
    lc = _lc()
    return lc.Bracket.from_entries(n, {(1, i, i + 1): 1 for i in range(2, n)}, antisymmetrize=True)


def _class_of(idr) -> str:
    if idr.is_lie:
        return "lie"
    if idr.is_symmetric_leibniz:
        return "symmetric"
    return "left" if idr.is_left_leibniz else "right" if idr.is_right_leibniz else "none"


def _expect(result: dict, want: dict) -> str | None:
    """Compare verdict, type and F of a result with the expectation."""
    bad = [f"{key} {result.get(key)!r}, expected {want[key]!r}"
           for key in ("critical", "class", "type", "structure_ok", "converged")
           if key in want and result.get(key) != want[key]]
    if "F" in want and oracle.relerr(result["F"], want["F"]) > want.get("F_rtol", oracle.F_RTOL):
        bad.append(f"F {result['F']!r}, expected {want['F']!r}")
    return "; ".join(bad) or None


# -- certify ---------------------------------------------------------------

def analyze(mu) -> dict:
    """The ``leibcrit analyze`` pipeline, in process."""
    lc = _lc()
    idr = lc.check_identities(mu)
    rep = lc.criticality_decompose(mu)
    t = lc.critical_type(rep.D) if rep.is_critical else None
    lc.structure_profile(mu)
    ok = None
    if rep.is_critical and idr.is_symmetric_leibniz:
        ok = lc.verify_structure_theorem(mu, rep).all_passed
    return {"critical": rep.is_critical, "class": _class_of(idr),
            "type": str(t) if t else None, "F": rep.F, "structure_ok": ok}


def _so3_on(core_dim: int, first: int) -> list[np.ndarray]:
    """so(3) acting by cross products on coordinates first..first+2."""
    maps = []
    for i in range(3):
        cross = np.array([np.cross(np.eye(3)[i], np.eye(3)[j]) for j in range(3)]).T
        m = np.zeros((core_dim, core_dim), dtype=complex)
        m[first:first + 3, first:first + 3] = cross
        maps.append(m)
    return maps


def extension_specs(solvable_core: int, general_core: int) -> list[tuple]:
    """(label, spec, expected type) of the two extension builds.

    The solvable one extends mu_he(m) by L = diag(1,0,1,0,...), R = -L; the
    general one lets so(3) act on the trivial summand of mu_he(m), R = -L.
    Either result has the core type with (0; number of generators) prepended.
    """
    lc = _lc()

    def expected(core, d1):
        t = core.expected_type
        return lc.CriticalType((0,) + t.ks, (d1,) + t.ds)

    core = lc.get("mu_he", n=solvable_core)
    lmap = np.diag([1.0, 0.0, 1.0] + [0.0] * (solvable_core - 3)).astype(complex)
    solvable = lc.ExtensionSpec(core=core.bracket, core_report=None,
                                left_maps=(lmap,), right_maps=(-lmap,))
    gcore = lc.get("mu_he", n=general_core)
    maps = _so3_on(general_core, 3)
    general = lc.ExtensionSpec(core=gcore.bracket, core_report=None, left_maps=tuple(maps),
                               right_maps=tuple(-m for m in maps), f_bracket=lc.get("so3").bracket,
                               semisimple=(0, 1, 2), center=())
    return [(f"solvable(mu_he({solvable_core}))", solvable, expected(core, 1)),
            (f"general(so3, mu_he({general_core}))", general, expected(gcore, 3))]


def certify(seed: int, tiny: bool = False, wrong: bool = False) -> Workload:
    lc = _lc()
    sizes, m0_sizes, big, ext = ((4,), (5,), 5, (4, 6)) if tiny else ((8, 12), (8, 12), 16, (9, 9))
    ops: list[Op] = []

    def add(label, mu, want, twin=None):
        ops.append(Op(label, mu.dim, lambda mu=mu: analyze(mu),
                      lambda r, want=want: _expect(r, want), twin=twin))

    for name in ("mu_hy", "mu_he", "mu_sy"):
        for n in sizes:
            entry = lc.get(name, n=n)
            want = {"critical": True, "class": entry.algebra_class,
                    "type": str(entry.expected_type), "F": entry.expected_value,
                    "structure_ok": True}
            if wrong and not ops:
                want = dict(want, F=want["F"] * (1 + 1e-3))  # self-test: must fail
            label = f"{name}({n})"
            add(label, entry.bracket, want)
            rng = np.random.default_rng([seed, n, len(ops)])
            rotated = oracle.rotate(entry.bracket.coeffs, oracle.random_unitary(n, rng))
            add(f"{label}@U", lc.Bracket(n, rotated), want, twin=label)
    for n in m0_sizes:
        mu = m0(n)
        add(f"m0({n})", mu, {"critical": False, "class": "lie", "type": None,
                             "F": oracle.moment_F(mu.coeffs), "structure_ok": None})
    entry = lc.get("mu_he", n=big)
    add(f"mu_he({big})", entry.bracket,
        {"critical": True, "class": "lie", "type": str(entry.expected_type),
         "F": entry.expected_value, "structure_ok": True})

    def build(spec):
        general = spec.f_bracket is not None
        builder = lc.build_general_extension if general else lc.build_solvable_extension
        out, rep = builder(spec)
        t = lc.critical_type(rep.D)
        return {"type": str(t), "F": rep.F, "critical": rep.is_critical, "coeffs": out.coeffs}

    def check_ext(r, t, n):
        want = {"critical": True, "type": str(t), "F": lc.critical_value_formula(t, n)}
        return _expect(r, want) or _expect({"F": oracle.moment_F(r["coeffs"])}, {"F": want["F"]})

    for label, spec, t in extension_specs(*ext):
        n = spec.core.dim + spec.d1
        ops.append(Op(label, n, lambda spec=spec: build(spec),
                      lambda r, t=t, n=n: check_ext(r, t, n)))
    return Workload("certify", ops, min_passes=1 if tiny else 3)


# -- descend ---------------------------------------------------------------

#: Descent limits of the filiform m0(n), frozen from the unperturbed runs:
#: type and F, which must agree with critical_value_formula.
M0_LIMITS = {
    5: ("(2<9<11<13<15;1,1,1,1,1)", Fraction(24, 5)),
    6: ("(1<9<10<11<12<13;1,1,1,1,1,1)", Fraction(22, 5)),
    7: ("(1<16<17<18<19<20<21;1,1,1,1,1,1,1)", Fraction(148, 35)),
    8: ("(1<26<27<28<29<30<31<32;1,1,1,1,1,1,1,1)", Fraction(29, 7)),
}
DRIFT = "descent leaves the orbit (ROADMAP item 1)"
#: Where each drift-defect start ends today, frozen from its runs: it
#: converges to type (0;n) with F = 4/n, a product that satisfies none of
#: the Leibniz identities.
DRIFT_LIMIT = {"converged": True, "class": "none"}


def _parse_type(s: str):
    lc = _lc()
    ks, ds = s.strip("()").split(";")
    return lc.CriticalType(tuple(int(k) for k in ks.split("<")), tuple(int(d) for d in ds.split(",")))


def descend_starts(tiny: bool = False) -> list[tuple[str, object, str, float, str]]:
    """(label, start, expected type, expected F, known defect) of each descent.

    A start with a known defect is expected to fail as :data:`DRIFT_LIMIT`
    says, at type (0;n) and F = 4/n.
    """
    lc = _lc()
    starts = []

    def entry_start(label, entry, magnitude=0.0, pseed=0, defect=""):
        mu = entry.bracket
        if magnitude:
            mu = lc.perturb_in_orbit(mu, magnitude, pseed)
            label = f"{label}+{magnitude}/seed{pseed}"
        starts.append((label, mu, str(entry.expected_type), entry.expected_value, defect))

    entry_start("L5", lc.get("L5"))
    entry_start("S3(beta=1)", lc.get("S3", {"beta": 1}))
    entry_start("S2", lc.get("S2"), 0.3, 1)
    entry_start("L3(alpha=2)", lc.get("L3", {"alpha": 2}), 0.5, 1, DRIFT)
    entry_start("S7(alpha=2)", lc.get("S7", {"alpha": 2}), 0.5, 1, DRIFT)
    for n in (5,) if tiny else (5, 6, 7, 8):
        t, f = M0_LIMITS[n]
        if abs(lc.critical_value_formula(_parse_type(t), n) - float(f)) > 1e-12:
            raise AssertionError(f"frozen m0({n}) limit disagrees with its type")
        starts.append((f"m0({n})", m0(n), t, float(f), ""))
        starts.append((f"m0({n})+0.5/seed2", lc.perturb_in_orbit(m0(n), 0.5, 2), t, float(f), DRIFT))
    return starts


def run_descent(mu) -> dict:
    lc = _lc()
    tr = lc.descend(mu)
    rep = tr.final_report
    t = None
    if rep.is_critical:
        try:
            t = lc.critical_type(rep.D)
        except lc.IrrationalTypeError:
            pass
    return {"steps": tr.iterations, "converged": tr.converged, "F": rep.F,
            "type": str(t) if t else None, "coeffs": tr.final_bracket.coeffs}


def _check_descent(r: dict, want: dict) -> str | None:
    r = dict(r, **{"class": oracle.identity_class(r["coeffs"])})
    return _expect(r, want) or _expect({"F": oracle.moment_F(r["coeffs"])}, {"F": r["F"]})


def descend(seed: int, tiny: bool = False, wrong: bool = False) -> Workload:
    lc = _lc()
    ops = []
    for label, mu, t, f, defect in descend_starts(tiny):
        if wrong and label == "m0(5)":
            f *= 1 + 1e-3  # self-test: must fail
        want = {"converged": True, "type": t, "F": f, "F_rtol": oracle.FLOW_F_RTOL,
                "class": oracle.identity_class(mu.coeffs)}
        defect_check = None
        if defect:
            drift_t = f"(0;{mu.dim})"
            drift_f = lc.critical_value_formula(_parse_type(drift_t), mu.dim)
            if abs(drift_f - 4 / mu.dim) > 1e-12:
                raise AssertionError(f"frozen drift limit of {label} disagrees with its type")
            if wrong:
                drift_f *= 1 + 1e-3  # self-test: the drift must then read as unexpected
            drift = dict(DRIFT_LIMIT, type=drift_t, F=drift_f, F_rtol=oracle.FLOW_F_RTOL)
            defect_check = lambda r, drift=drift: _check_descent(r, drift)  # noqa: E731
        ops.append(Op(label, mu.dim, lambda mu=mu: run_descent(mu),
                      lambda r, want=want: _check_descent(r, want),
                      known_defect=defect, defect_check=defect_check))
    return Workload("descend", ops, min_passes=1 if tiny else 15)


# -- cli-cold --------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], out: Path, err: Path, cwd: Path) -> tuple[int, float]:
    """Run a child to its end; returns its exit code and peak RSS in MB."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        p = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def write_cli_inputs(seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Algebra and extension-spec files for the CLI commands."""
    lc = _lc()
    from leibcrit.fileio import algebra_to_dict

    workdir.mkdir(parents=True, exist_ok=True)
    big = 4 if tiny else 8
    s2 = lc.get("S2")
    lc.save_algebra(workdir / "s3.json", s2.bracket, s2.label)
    entry = lc.get("mu_sy", n=big)
    rng = np.random.default_rng([seed, big])
    rotated = lc.Bracket(big, oracle.rotate(entry.bracket.coeffs, oracle.random_unitary(big, rng)))
    lc.save_algebra(workdir / "a8.json", rotated, f"mu_sy({big}) rotated")

    def mat(a):
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]

    specs = {}
    for (label, spec, t), fname in zip(extension_specs(4, 6), ("ext_solvable.json", "ext_general.json")):
        doc = {"core": {"catalog": "mu_he", "params": {"n": spec.core.dim}},
               "left_maps": [mat(a) for a in spec.left_maps],
               "right_maps": [mat(a) for a in spec.right_maps]}
        if spec.f_bracket is not None:
            doc.update(f_bracket=algebra_to_dict(spec.f_bracket), semisimple=[1, 2, 3], center=[])
        (workdir / fname).write_text(json.dumps(doc))
        specs[fname] = (spec.core.dim + spec.d1, str(t))
    return {
        "s3": {"class": "symmetric", "type": str(s2.expected_type), "F": s2.expected_value},
        "a8": {"class": "symmetric", "type": str(entry.expected_type), "F": entry.expected_value},
        "specs": specs,
    }


def _check_text(r: dict, *needles: str) -> str | None:
    if r["code"] != 0:
        return f"exit code {r['code']}: {r['stderr'][-300:]}"
    for s in needles:
        if s not in r["stdout"]:
            return f"output lacks {s!r}"
    return None


def _check_analysis_json(r: dict, want: dict) -> str | None:
    bad = _check_text(r)
    if bad:
        return bad
    doc = json.loads(r["stdout"])
    m, idr, sc = doc["moment"], doc["identities"], doc["structure_checks"]
    got = {"critical": m["is_critical"], "type": m["critical_type"], "F": m["F"],
           "class": "lie" if idr["is_lie"] else "symmetric" if idr["is_symmetric_leibniz"] else "other",
           "structure_ok": bool(sc) and all(sc[k] for k in
                                             ("adjoint_closed", "l0_reductive", "center_normal", "nilradical_ok"))}
    return _expect(got, dict(want, critical=True, structure_ok=True))


def cli_cold(seed: int, workdir: Path, tiny: bool = False, wrong: bool = False) -> Workload:
    exp = write_cli_inputs(seed, workdir, tiny)
    if wrong:
        exp["s3"] = dict(exp["s3"], F=exp["s3"]["F"] * (1 + 1e-3))  # self-test: must fail
    (n_solv, t_solv), (n_gen, t_gen) = exp["specs"]["ext_solvable.json"], exp["specs"]["ext_general.json"]
    a8_dim = 4 if tiny else 8
    commands = [
        ("analyze s3", 3, ["analyze", "s3.json"],
         lambda r: _check_text(r, "critical: yes", f"critical type = {exp['s3']['type']}")),
        ("analyze --format json s3", 3, ["--format", "json", "analyze", "s3.json"],
         lambda r: _check_analysis_json(r, exp["s3"])),
        (f"analyze a{a8_dim}", a8_dim, ["analyze", "a8.json"],
         lambda r: _check_text(r, "critical: yes", f"critical type = {exp['a8']['type']}")),
        (f"analyze --format json a{a8_dim}", a8_dim, ["--format", "json", "analyze", "a8.json"],
         lambda r: _check_analysis_json(r, exp["a8"])),
        ("check s3", 3, ["check", "s3.json"],
         lambda r: _check_text(r, "symmetric Leibniz:  yes", "Lie:                no")),
        ("catalog verify", 3, ["catalog", "verify"], lambda r: _check_text(r, "all rows pass")),
        ("flow --perturb s3", 3, ["flow", "s3.json", "--perturb", "0.3", "--seed", "1"],
         lambda r: _check_text(r, "converged yes", f"critical type = {exp['s3']['type']}",
                               "symmetric Leibniz:  yes")),
        ("extend solvable", n_solv, ["extend", "solvable", "ext_solvable.json", "-o", "out_solvable.json"],
         lambda r: _check_text(r, f"certified critical point: dim {n_solv}, type {t_solv}")),
        ("extend general", n_gen, ["extend", "general", "ext_general.json", "-o", "out_general.json"],
         lambda r: _check_text(r, f"certified critical point: dim {n_gen}, type {t_gen}")),
    ]
    ops = []
    for i, (label, n, argv, check) in enumerate(commands):
        def run(tracer=None, argv=argv, i=i):
            out, err = workdir / f"op{i}.out", workdir / f"op{i}.err"
            snap = workdir / f"op{i}.trace.json"
            if tracer is None:
                cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
            else:
                child = str(ROOT / "perfbench" / "cli_child.py")
                cmd = [sys.executable, "-X", "importtime", child, str(snap), *argv]
            code, rss = spawn(cmd, out, err, workdir)
            return {"code": code, "rss_mb": rss, "out": out, "err": err,
                    "snap": snap if tracer is not None else None}

        def read_and_check(r, check=check):
            r = dict(r, stdout=r["out"].read_text(), stderr=r["err"].read_text())
            return check(r)

        ops.append(Op(label, n, run, read_and_check))
    return Workload("cli-cold", ops, min_passes=1 if tiny else 7, in_process=False)


WORKLOADS = {"certify": certify, "descend": descend, "cli-cold": cli_cold}
