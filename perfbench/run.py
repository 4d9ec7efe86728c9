"""Benchmark of leibcrit: the certify, descend and cli-cold workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One caller runs the workload's operations in a closed loop, in one
process (cli-cold: one ``leibcrit`` child process at a time), with BLAS
left at its default thread count.  A run makes whole passes over the
workload's operations, in an order shuffled by the seed, until
``--seconds`` have passed and at least the workload's minimum number of
passes is done.  Every output is checked (see :mod:`workloads`).

``--trace 0`` prints the end-to-end metrics.  Their times are given at
reference speed: before each operation (and each set-up process) the run
reads the reference clock of :mod:`refkernel`, a fixed numpy kernel timed
in a helper process that never imports leibcrit, because the shared
machine's own speed drifts by more than the bounds.  Operation times are
scaled by the kernel's nominal time over its median reading in the run,
each set-up sample by the reading just before it.  The report prints
the measured wall-clock values and the factor too, and the ``record:``
line holds them as JSON.

``--trace 1`` spends a third of ``--seconds`` untraced, then wraps the
library's public functions (see :mod:`tracer`) and prints the per-layer
metrics, per pass, in wall-clock time.  The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts every operation that raised, exited non-zero or failed
its oracle, the known drift-defect descents included; ``correct`` is false
when any other operation failed, or a drift-defect descent failed in
another way than its frozen signature (see :mod:`workloads`).  The lines
before it are a readable report and the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import refkernel
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile leaves beyond it

SPANS = (
    "bracket.check_identities", "bracket.inf_act", "bracket.gl_act",
    "linalg.derivation_space", "linalg.subspace_product",
    "moment.moment_matrix", "moment.hermitian_derivations",
    "moment.criticality_decompose", "moment.critical_type",
    "structure.structure_profile", "structure.verify_structure_theorem",
    "flow.descend",
    "extensions.build_solvable_extension", "extensions.build_general_extension",
    "catalog.verify_catalog", "fileio.load_algebra", "cli.run",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "descend", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs and one pass (self-test)")
    p.add_argument("--wrong-expectation", action="store_true",
                   help="corrupt one expected answer (self-test of the oracle)")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (one timed set-up sample)")
    return p.parse_args(argv)


# -- running operations ------------------------------------------------------

def run_op(wl, op, tracer=None) -> dict:
    """Run one operation, timed, then judge its output."""
    rec = {"label": op.label, "n": op.n, "known_defect": op.known_defect, "known": False}
    if tracer is not None:
        self0, root0, steps0 = tracer.self_s, tracer.root_self_s, tracer.steps
        mm0 = tracer.edges.get(("flow.descend", "moment.moment_matrix"), 0)
        descents0 = tracer.totals().get("flow.descend", [0])[0]
    result, error = None, None
    t0 = perf_counter()
    try:
        if not wl.in_process:
            result = op.run(tracer)
        elif tracer is None:
            result = op.run()
        else:
            with tracer.span(tracing.ROOT, op.n):
                result = op.run()
    except Exception as exc:  # a library error is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    rec["wall_s"] = perf_counter() - t0
    if error is None:
        try:
            error = op.check(result)
            if error and op.defect_check:
                drift = op.defect_check(result)
                rec["known"] = drift is None
                if drift:
                    error += f"; and not as the known defect: {drift}"
        except Exception as exc:  # malformed output fails the oracle
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    rec["ok"] = error is None
    rec["reason"] = error
    if result is not None:
        for key in ("steps", "converged", "rss_mb", "critical", "type", "F", "class"):
            if key in result:
                rec[key] = result[key]
    if tracer is not None:
        if wl.in_process:
            rec["self_sum_s"], rec["inproc_wall_s"] = tracer.self_s - self0, rec["wall_s"]
            rec["uncovered_s"] = tracer.root_self_s - root0
            if "steps" in rec:
                mm = tracer.edges.get(("flow.descend", "moment.moment_matrix"), 0) - mm0
                descents = tracer.totals().get("flow.descend", [0])[0] - descents0
                rec["trials"] = mm - (tracer.steps - steps0) - descents
        elif result is not None and result["snap"] is not None and result["snap"].exists():
            snap = json.loads(result["snap"].read_text())
            tracer.merge(snap)
            rec["self_sum_s"], rec["inproc_wall_s"] = snap["self_s"], snap["wall_s"]
            rec["uncovered_s"] = snap["root_self_s"]
            rec["imports"] = import_times(result["err"].read_text())
    return rec


def run_pass(wl, rng, tracer=None, clock=None) -> list[dict]:
    """One pass; with a ``clock``, read the reference clock before each operation."""
    order = list(wl.ops)
    rng.shuffle(order)
    recs = {}
    for op in order:
        if clock is not None:
            clock.read()
        recs[op.label] = run_op(wl, op, tracer)
    for op in order:  # unitary invariance: a rotated input answers as its twin
        rec, twin = recs[op.label], recs.get(op.twin)
        if twin is None or not rec["ok"] or not twin["ok"]:
            continue
        same = all(rec.get(k) == twin.get(k) for k in ("critical", "type", "class"))
        if not same or abs(rec["F"] - twin["F"]) > 1e-8 * abs(twin["F"]):
            rec["ok"] = False
            rec["reason"] = f"differs from {op.twin} in the catalog basis"
    return [recs[op.label] for op in order]


def measure(wl, seconds, rng, tracer=None, min_passes=None, clock=None):
    """Whole passes for ``seconds``: the records, the pass count and the
    loop's wall time, without the time spent reading the ``clock``."""
    recs, passes, t0 = [], 0, perf_counter()
    spent0 = clock.spent_s if clock else 0.0
    min_passes = wl.min_passes if min_passes is None else min_passes
    while passes < min_passes or perf_counter() - t0 < seconds:
        recs += run_pass(wl, rng, tracer, clock)
        passes += 1
    elapsed = perf_counter() - t0
    if clock is not None:
        elapsed -= clock.spent_s - spent0
    return recs, passes, elapsed


# -- set-up ------------------------------------------------------------------

def build_workload(args, workdir=None):
    kwargs = {"tiny": args.tiny, "wrong": args.wrong_expectation}
    if args.workload == "cli-cold":
        kwargs["workdir"] = workdir
    wl = workloads.WORKLOADS[args.workload](args.seed, **kwargs)
    warm_up(wl)
    return wl


def warm_up(wl) -> None:
    """First calls into numpy and LAPACK, outside the timed region."""
    if wl.name == "certify":
        workloads.analyze(workloads._lc().get("mu_he", n=4).bracket)
    elif wl.name == "descend":
        workloads.run_descent(workloads._lc().get("L5").bracket)


def setup_samples(args, work: Path, clock) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import, build the inputs and warm up,
    and the reference clock's reading before each of them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    samples, readings = [], []
    for i in range(SETUP_REPEATS):
        readings.append(clock.read())
        t0 = perf_counter()
        code, _ = workloads.spawn(cmd, work / f"setup{i}.out", work / f"setup{i}.err", ROOT)
        samples.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process failed: {(work / f'setup{i}.err').read_text()[-500:]}")
    return samples, readings


# -- import times (python -X importtime) --------------------------------------

def import_times(stderr: str) -> dict[str, float]:
    """leibcrit, numpy and scipy import times in ms from ``-X importtime``."""
    nodes = []  # post-order: (depth, name, self_us, cumulative_us, children)
    stack: list = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        node = (depth, name.strip(), int(self_us), int(cum_us), children)
        stack.append(node)
        nodes.append(node)

    def outermost(prefix, node_list, inside=False):
        total = 0
        for depth, name, self_us, cum_us, children in node_list:
            hit = name == prefix or name.startswith(prefix + ".")
            if hit and not inside:
                total += cum_us
            total += outermost(prefix, children, inside or hit)
        return total

    return {
        "import.total_ms": outermost("leibcrit", stack) / 1e3,
        "import.numpy_ms": outermost("numpy", stack) / 1e3,
        "import.scipy_ms": outermost("scipy", stack) / 1e3,
        "import.leibcrit_self_ms": sum(
            s for _, name, s, _, _ in nodes if name == "leibcrit" or name.startswith("leibcrit.")
        ) / 1e3,
    }


def import_samples(work: Path) -> list[dict[str, float]]:
    out = []
    for i in range(IMPORT_REPEATS):
        err = work / f"import{i}.err"
        workloads.spawn([sys.executable, "-X", "importtime", "-c", "import leibcrit"],
                        work / f"import{i}.out", err, ROOT)
        out.append(import_times(err.read_text()))
    return out


# -- run record ----------------------------------------------------------------

def run_record(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": refkernel.blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in refkernel.THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "leibcrit").rglob("*.py")),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() or "unknown"


# -- metrics -------------------------------------------------------------------

def tail(walls: list[float], wl) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    The percentile is fixed per workload, from its minimum number of passes,
    so that runs with more passes read the same operation kinds.
    """
    q = max(0.5, 1.0 - TAIL_BEYOND / (wl.min_passes * len(wl.ops)))
    ordered = sorted(walls)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1], 100.0 * q, len(ordered) - rank


def end_to_end(wl, recs, elapsed, clock, setups, setup_ref) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, times scaled to the reference clock's nominal speed;
    the same figures in wall-clock time; report lines."""
    walls = [r["wall_s"] for r in recs]
    failed = sum(not r["ok"] for r in recs)
    tail_s, pct, beyond = tail(walls, wl)
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(r.get("rss_mb", 0.0) for r in recs)
    raw = {
        "ops_per_s": len(recs) / elapsed,
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
    }
    ref = clock.readings[len(setup_ref):]
    speed = refkernel.NOMINAL_S / statistics.median(ref)  # below 1 on a slow machine
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / speed, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * speed, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] * speed, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(s * refkernel.NOMINAL_S / r for s, r in zip(setups, setup_ref)), "s"),
    }
    notes = [
        f"times above are at reference speed: run times are scaled by the speed factor "
        f"{speed!r}, the nominal {refkernel.NOMINAL_S * 1e3:.4f} ms of the reference clock over "
        f"the median {statistics.median(ref) * 1e3:.4f} ms of its {len(ref)} readings in the run, "
        f"and each set-up sample by the reading before it (helper on {clock.blas_threads} BLAS thread)",
        "measured wall-clock values: " + ", ".join(f"{k} = {v!r}" for k, v in raw.items()),
        f"latency_tail_ms is p{pct:.2f}: {beyond} of {len(walls)} samples beyond it",
        f"failed_ratio = {failed / len(recs)!r} ratio ({failed} of {len(recs)} operations)",
        "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups) + " s (wall clock)",
    ]
    return metrics, raw, notes


def per_layer(tracer, passes, recs, baseline, base_passes, imports) -> tuple[dict, list[str]]:
    totals = tracer.totals()
    metrics = {}
    for span in SPANS:
        calls, total, self_t = totals.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = (calls / passes, "count")
        metrics[f"{span}.self_ms"] = (self_t * 1e3 / passes, "ms")
        metrics[f"{span}.total_ms"] = (total * 1e3 / passes, "ms")
    for span in ("linalg.derivation_space", "moment.criticality_decompose"):
        peaks = [v for (name, _n), v in tracer.peak_mb.items() if name == span]
        metrics[f"{span}.peak_alloc_mb"] = (max(peaks, default=0.0), "MB")
    descents = totals.get("flow.descend", (0,))[0]
    trials = tracer.edges.get(("flow.descend", "moment.moment_matrix"), 0) - tracer.steps - descents
    metrics["flow.steps"] = (tracer.steps / passes, "count")
    metrics["flow.line_search_trials"] = (trials / passes, "count")
    metrics["flow.accept_ratio"] = (tracer.steps / trials if trials else 0.0, "ratio")
    for key in ("import.total_ms", "import.numpy_ms", "import.scipy_ms", "import.leibcrit_self_ms"):
        metrics[key] = (statistics.median(s[key] for s in imports), "ms")
    traced_wall = sum(r["wall_s"] for r in recs)
    base_wall = sum(r["wall_s"] for r in baseline) / base_passes
    metrics["trace.overhead_ratio"] = (traced_wall / passes / base_wall, "ratio")
    metrics["solve.wall_share"] = (tracer.solve_s / traced_wall, "ratio")
    metrics["trace.uncovered_ms"] = (sum(r.get("uncovered_s", 0.0) for r in recs) * 1e3 / passes, "ms")

    notes = [f"traced wall per pass = {traced_wall * 1e3 / passes!r} ms, untraced {base_wall * 1e3!r} ms",
             f"per-layer figures are per pass, over {passes} traced passes; split by n:"]
    for span in SPANS:
        for (name, n), (calls, total, self_t) in sorted(tracer.agg.items()):
            if name == span:
                notes.append(f"  {span:40s} n={n:<3d} calls={calls / passes:<10g} "
                             f"self_ms={self_t * 1e3 / passes:<12.4f} total_ms={total * 1e3 / passes:.4f}")
    return metrics, notes


# -- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leibcrit" / "__init__.py").is_file():
        print(f"perfbench: no leibcrit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / "perfbench" / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            build_workload(args, work / "inputs")
            return 0
        return benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def benchmark(args, work: Path) -> int:
    if args.trace:
        return traced_benchmark(args, work)
    with refkernel.RefClock() as clock:
        setups, setup_ref = setup_samples(args, work, clock)
        wl, record = set_up(args, work)
        recs, passes, elapsed = measure(wl, args.seconds, np.random.default_rng(args.seed), clock=clock)
    metrics, raw, notes = end_to_end(wl, recs, elapsed, clock, setups, setup_ref)
    record.update(raw_wall_clock=raw, reference_median_s=statistics.median(clock.readings[len(setup_ref):]),
                  reference_setup_median_s=statistics.median(setup_ref),
                  reference_nominal_s=refkernel.NOMINAL_S, reference_blas_threads=clock.blas_threads)
    return report(args, wl, record, recs, passes, metrics, notes)


def set_up(args, work: Path):
    t0 = perf_counter()
    wl = build_workload(args, work / "inputs")
    inproc_setup = perf_counter() - t0
    record = run_record(args.seed)
    record.update(workload=wl.name, operations_per_pass=len(wl.ops), in_process_setup_s=inproc_setup,
                  loop="closed: one caller, one process" + ("" if wl.in_process else ", one child at a time"))
    return wl, record


def traced_benchmark(args, work: Path) -> int:
    wl, record = set_up(args, work)
    rng = np.random.default_rng(args.seed)
    # a third of the time untraced, as the base of the tracing overhead
    baseline, base_passes, _ = measure(wl, args.seconds / 3, rng, min_passes=1)
    tr = tracing.Tracer()
    record["wrapped_functions"] = tr.install()
    try:
        recs, passes, _ = measure(wl, args.seconds * 2 / 3, rng, tr, min_passes=1)
    finally:
        tr.uninstall()
    if wl.in_process:
        imports = import_samples(work)
    else:
        imports = [r["imports"] for r in recs if "imports" in r]
    metrics, notes = per_layer(tr, passes, recs, baseline, base_passes, imports)
    by_label = {r["label"]: r["wall_s"] for r in baseline}
    record["self_time_check"] = [
        {"label": r["label"], "wall_s": r["inproc_wall_s"], "self_sum_s": r["self_sum_s"],
         "uncovered_s": r["uncovered_s"], "overhead_s": r["wall_s"] - by_label[r["label"]]}
        for r in recs if "self_sum_s" in r
    ]
    return report(args, wl, record, baseline + recs, passes, metrics, notes)


def report(args, wl, record, all_recs, passes, metrics, notes) -> int:
    failed = [r for r in all_recs if not r["ok"]]
    unexpected = [r for r in failed if not r["known"]]
    print(f"workload {wl.name}: seed {args.seed}, {passes} passes of {len(wl.ops)} operations, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for line in notes:
        print(line)
    for label in sorted({r["label"] for r in failed}):
        r = min((x for x in failed if x["label"] == label), key=lambda x: x["known"])
        kind = f"known defect: {r['known_defect']}" if r["known"] else "UNEXPECTED"
        print(f"failed: {label} [{kind}] {r['reason']}")
    if wl.name == "descend":
        print("descent record: label, steps, line-search trials, converged, wall ms")
        for r in all_recs[-len(wl.ops):]:
            print(f"  {r['label']:24s} {r.get('steps')!s:>6} {r.get('trials', '-')!s:>7} "
                  f"{r.get('converged')!s:>5} {r['wall_s'] * 1e3:10.3f}")
        record["descents"] = [
            {k: r.get(k) for k in ("label", "steps", "trials", "converged", "wall_s", "ok")}
            for r in all_recs[-len(wl.ops):]
        ]
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(all_recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
