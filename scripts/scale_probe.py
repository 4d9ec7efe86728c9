"""Time and memory of ``criticality_decompose``, of each layer and of descents.

Usage::

    python3 scripts/scale_probe.py [--json PATH]

Runs in process from the ``src`` directory next to this script.  The
first table covers mu_hy, mu_he and mu_sy at n = 8, 12, 16 and 20, in the
catalog basis and rotated by a seeded random unitary: the median and
interquartile range of the wall time of 21 ``criticality_decompose`` calls,
taken in 21 rounds that time each row once in turn, so that a slow phase of
a shared machine falls on every row alike; the peak of memory
``tracemalloc`` traces during one more call; and the iteration count of the
cross-check's one CGLS solve.  These critical families take 0
iterations, so the table ends with two non-critical rows that run the
loop: the perturbed filiform m0(8)+0.5/seed2 and the closure limit of the
descent from L4.  The second table gives the same median, interquartile
range (of 21 rounds over every layer and product) and peak for each layer
-- ``moment_matrix``, ``inf_act`` (of the moment matrix),
``check_identities`` (of a fresh copy of the product per call, copy
included, since a ``Bracket`` keeps its residuals from the first check),
the derivation solve ``derivation_space``, ``criticality_decompose``,
``critical_type`` (of the certificate's D/|mu|^2),
``subspace_product`` (the private ``linalg._subspace_product(unit, I, I)``
on mu/|mu| and the identity, the derived algebra ``structure_profile``
computes first), ``structure_profile`` and
``verify_structure_theorem`` (given the certificate, on a product whose
identities were already checked, as ``analyze`` runs it) and ``analyze``,
the ``leibcrit analyze`` pipeline end to end (identity check, certificate,
its type, ``structure_profile`` and the structure checks) on a fresh copy
of the product per call, so that no call reads a result an earlier one
kept -- on mu_he(n) at
n = 3, 4, 8, 12 and 16, in the catalog basis, where it is stored real, and
rotated by a seeded random unitary, where it is stored complex, and
``derivation_space`` also on the filiform m0(n), real, and its perturbation
m0(n)+0.5/seed2, complex, at n = 12, 16 and 20, with
the minor page faults (the growth of ``getrusage``'s ``ru_minflt``) of
one call in the third of three rounds in which the layer runs on all its
products in turn: the pages a layer maps afresh on every call when calls
at other sizes come between, as they do in the benchmark's workloads.
The third table runs ``descend`` from the thirteen descent
starts of the benchmark, from L4, whose orbit has no critical point, and
from S8, whose limit lies in the orbit's closure: steps, line-search
trials (moment matrices of candidates), projections (factorizations of
the basis of span{I, A Der(mu0) A^-1}), both read from the descent's step
records, wall time of one run and the condition number of the final group
element.  Before the first table and after the last, it prints the best of 5 runs of
``perfbench/refkernel.kernel``, a fixed numpy kernel, in this process: a
table's times divided by it compare across machines and runs whose
speed differs.  With ``--json PATH`` the second and third tables are also
written to PATH, with the numpy version, machine, CPU count, OpenBLAS
thread count and the two kernel readings (``ref_kernel_ms``) they were
measured with.  Too slow for the test suite; ``tests/test_moment.py``,
``tests/test_bracket.py`` and ``tests/test_kernels.py`` guard the traced
peaks at n = 20 alone, and ``tests/test_flow.py`` pins the step counts.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # for refkernel, the benchmark's reference clock

import numpy as np  # noqa: E402
import refkernel  # noqa: E402

from leibcrit import flow  # noqa: E402
from leibcrit.bracket import Bracket, check_identities, gl_act, inf_act  # noqa: E402
from leibcrit.catalog import get  # noqa: E402
from leibcrit.linalg import _subspace_product, _unit_coeffs, derivation_space  # noqa: E402
from leibcrit.moment import (  # noqa: E402
    _moment_tangent,
    _row_space_projection,
    critical_type,
    criticality_decompose,
    moment_matrix,
)
from leibcrit.structure import structure_profile, verify_structure_theorem  # noqa: E402

FAMILIES = ("mu_hy", "mu_he", "mu_sy")
SIZES = (8, 12, 16, 20)
LAYER_SIZES = (3, 4, 8, 12, 16)
DERIVATION_SIZES = (12, 16, 20)


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def ref_kernel_ms() -> float:
    """Best of 5 runs of the benchmark's reference kernel, in ms."""
    return min(refkernel.kernel() for _ in range(5)) * 1e3


#: Timed calls per case: the best of a few moves with one lucky call.
REPEATS = 21


def sampled(calls: list) -> list[tuple[float, float]]:
    """(median, interquartile range) in seconds of each call, over ``REPEATS``
    rounds that time every call once in turn, so that a slow phase of the
    machine falls on all of them alike rather than on a few rows."""
    secs = [[] for _ in calls]
    for _ in range(REPEATS):
        for call, out in zip(calls, secs):
            start = perf_counter()
            call()
            out.append(perf_counter() - start)
    quartiles = [np.percentile(s, [25, 50, 75]) for s in secs]
    return [(float(q2), float(q3 - q1)) for q1, q2, q3 in quartiles]


def traced_peak(call) -> float:
    """Peak in MB of the memory ``tracemalloc`` traces during one call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def mixed_faults(calls: list) -> list[int]:
    """Minor page faults of each call in the third of three rounds over all
    of them in turn."""
    for _ in range(2):
        for call in calls:
            call()
    faults = []
    for call in calls:
        before = minor_faults()
        call()
        faults.append(minor_faults() - before)
    return faults


def cgls_iterations(mu) -> int:
    """Iterations of the certificate's CGLS cross-check on mu."""
    t, scale, _ = _moment_tangent(moment_matrix(mu), mu.coeffs)
    return _row_space_projection(t / scale, mu.coeffs / mu.norm)[1]  # the certificate's CGLS start


def analyze(mu) -> None:
    """What ``leibcrit analyze`` computes for mu, without the output."""
    idr, rep = check_identities(mu), criticality_decompose(mu)
    structure_profile(mu)
    if rep.type is not None and idr.is_symmetric_leibniz:
        verify_structure_theorem(mu, rep)


def layers(mu) -> dict:
    """The per-layer calls, by name, on the product mu."""
    m, rep = moment_matrix(mu), criticality_decompose(mu)
    unit, full = _unit_coeffs(mu), np.eye(mu.dim)
    d = rep.D / rep.norm_sq
    check_identities(mu)  # as analyze does before the structure checks
    return {
        "moment_matrix": lambda: moment_matrix(mu),
        "inf_act": lambda: inf_act(m, mu),
        "check_identities": lambda: check_identities(Bracket(mu.dim, mu.coeffs)),
        "derivation_space": lambda: derivation_space(mu),
        "criticality_decompose": lambda: criticality_decompose(mu),
        "critical_type": lambda: critical_type(d),
        "subspace_product": lambda: _subspace_product(unit, full, full),
        "structure_profile": lambda: structure_profile(mu),
        "verify_structure_theorem": lambda: verify_structure_theorem(mu, rep),
        "analyze": lambda: analyze(Bracket(mu.dim, mu.coeffs)),
    }


def filiform(n: int) -> Bracket:
    """m0(n): the filiform Lie algebra [e1, ei] = e(i+1)."""
    return Bracket.from_entries(n, {(1, i, i + 1): 1 for i in range(2, n)}, antisymmetrize=True)


def descent_starts() -> list[tuple[str, Bracket]]:
    perturb = flow.perturb_in_orbit
    starts = [
        ("L5", get("L5").bracket),
        ("S3(beta=1)", get("S3", {"beta": 1}).bracket),
        ("S2+0.3/seed1", perturb(get("S2").bracket, 0.3, 1)),
        ("L3(alpha=2)+0.5/seed1", perturb(get("L3", {"alpha": 2}).bracket, 0.5, 1)),
        ("S7(alpha=2)+0.5/seed1", perturb(get("S7", {"alpha": 2}).bracket, 0.5, 1)),
    ]
    starts += [(f"m0({n})", filiform(n)) for n in (5, 6, 7, 8)]
    starts += [(f"m0({n})+0.5/seed2", perturb(filiform(n), 0.5, 2)) for n in (5, 6, 7, 8)]
    return starts + [("L4", get("L4").bracket), ("S8", get("S8").bracket)]


def descent_row(mu) -> tuple[int, int, int, float, float]:
    """(steps, line-search trials, projections, seconds, cond(G)) of one descent
    from mu, read from its step records: the basis is factored at the start and
    again at each refactoring step."""
    start = perf_counter()
    tr = flow.descend(mu)
    secs = perf_counter() - start
    trials = sum(s.trials for s in tr.steps)
    return tr.iterations, trials, 1 + sum(s.refactored for s in tr.steps), secs, tr.cond_g


def main(argv: list[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "--json"):
        print("usage: scale_probe.py [--json PATH]", file=sys.stderr)
        return 2
    ref_before = ref_kernel_ms()
    print(f"reference kernel: {ref_before:.3f} ms (best of 5)")
    print()
    print(f"{'algebra':16s} {'n':>3s} {'basis':9s} {'median ms':>9s} {'IQR ms':>8s} {'peak MB':>8s}"
          f" {'CGLS':>5s}")
    rows = []
    for name in FAMILIES:
        for n in SIZES:
            mu = get(name, n=n).bracket
            rows += [(name, "catalog", mu), (name, "rotated", gl_act(_unitary(n, n), mu))]
    rows.append(("m0(8)+0.5/seed2", "perturbed", flow.perturb_in_orbit(filiform(8), 0.5, 2)))
    rows.append(("limit of L4", "limit", flow.descend(get("L4").bracket).final_bracket))
    certify = [lambda mu=mu: criticality_decompose(mu) for _, _, mu in rows]
    for (name, basis, mu), call, (secs, iqr) in zip(rows, certify, sampled(certify)):
        print(f"{name:16s} {mu.dim:3d} {basis:9s} {secs * 1e3:9.2f} {iqr * 1e3:8.3f}"
              f" {traced_peak(call):8.2f} {cgls_iterations(mu):5d}")
    print()
    print(f"{'layer':24s} {'algebra':7s} {'n':>3s} {'basis':9s} {'dtype':10s} {'median ms':>9s}"
          f" {'IQR ms':>8s} {'peak MB':>8s} {'faults':>7s}")
    products = []
    for n in LAYER_SIZES:
        mu = get("mu_he", n=n).bracket
        products += [("mu_he", n, "catalog", mu),
                     ("mu_he", n, "rotated", gl_act(_unitary(n, n), mu))]
    calls = [layers(mu) for *_, mu in products]
    for n in DERIVATION_SIZES:
        m0 = filiform(n)
        for basis, mu in (("catalog", m0), ("perturbed", flow.perturb_in_orbit(m0, 0.5, 2))):
            products.append(("m0", n, basis, mu))
            calls.append({"derivation_space": lambda mu=mu: derivation_space(mu)})
    # each layer's faults in the order of the rows that run it
    faults = {name: iter(mixed_faults([c[name] for c in calls if name in c])) for name in calls[0]}
    times = iter(sampled([call for row in calls for call in row.values()]))
    layer_rows = []
    for (algebra, n, basis, mu), row in zip(products, calls):
        dtype = str(mu.coeffs.dtype)
        for name, call in row.items():
            (secs, iqr), peak, flt = next(times), traced_peak(call), next(faults[name])
            print(f"{name:24s} {algebra:7s} {n:3d} {basis:9s} {dtype:10s} {secs * 1e3:9.3f}"
                  f" {iqr * 1e3:8.4f} {peak:8.2f} {flt:7d}")
            layer_rows.append({"layer": name, "algebra": algebra, "n": n, "basis": basis,
                               "dtype": dtype, "median_ms": round(secs * 1e3, 4),
                               "iqr_ms": round(iqr * 1e3, 4), "calls": REPEATS,
                               "peak_mb": round(peak, 4), "minor_faults": flt})
    print()
    print(f"{'descent':22s} {'steps':>6s} {'trials':>6s} {'proj':>5s} {'ms':>9s} {'cond(G)':>9s}")
    descent_rows = []
    for label, mu in descent_starts():
        steps, trials, projections, secs, cond_g = descent_row(mu)
        print(f"{label:22s} {steps:6d} {trials:6d} {projections:5d} {secs * 1e3:9.2f} {cond_g:9.3g}")
        descent_rows.append({"start": label, "n": mu.dim, "steps": steps, "trials": trials,
                             "projections": projections,
                             "ms": round(secs * 1e3, 3), "cond_g": float(f"{cond_g:.6g}")})
    ref_after = ref_kernel_ms()
    print()
    print(f"reference kernel: {ref_after:.3f} ms (best of 5)")
    if argv:
        doc = {
            "source": "python3 scripts/scale_probe.py --json PATH",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": refkernel.blas_threads(),
            "ref_kernel_ms": {"before": round(ref_before, 4), "after": round(ref_after, 4)},
            "layers": layer_rows,
            "descents": descent_rows,
        }
        Path(argv[1]).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
