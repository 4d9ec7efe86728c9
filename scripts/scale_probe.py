"""Time and memory of ``criticality_decompose``, of each layer and of descents.

Usage::

    python3 scripts/scale_probe.py [--json PATH]

Runs in process from the ``src`` directory next to this script.  The
first table covers mu_hy, mu_he and mu_sy at n = 8, 12, 16 and 20, in the
catalog basis and rotated by a seeded random unitary: the best-of-3 wall
time of one ``criticality_decompose`` call, the peak of memory
``tracemalloc`` traces during a fourth call, and the iteration count of
the cross-check's one CGLS solve.  These critical families take 0
iterations, so the table ends with two non-critical rows that run the
loop: the perturbed filiform m0(8)+0.5/seed2 and the closure limit of the
descent from L4.  The second table gives the same time and peak for each
layer -- ``moment_matrix``, ``inf_act`` (of the moment matrix),
``check_identities``, the derivation solve ``derivation_space``,
``criticality_decompose``, ``critical_type`` (of the certificate's
D/|mu|^2), ``subspace_product(full, full)``, ``structure_profile`` and
``verify_structure_theorem`` (given the certificate) -- on mu_he(n) at
n = 3, 4, 8, 12 and 16, in the catalog basis, where it is stored real, and
rotated by a seeded random unitary, where it is stored complex, with
the minor page faults (the growth of ``getrusage``'s ``ru_minflt``) of
one call in the third of three rounds in which the layer runs on all ten
products in turn: the pages a layer maps afresh on every call when calls
at other sizes come between, as they do in the benchmark's workloads.
The third table runs ``descend`` from the thirteen descent
starts of the benchmark and from L4, whose orbit has no critical point:
steps, line-search trials (moment matrices of candidates), wall time of
one run and the condition number of the final group element.  With ``--json
PATH`` the second and third tables are also written to PATH, with the
numpy version, machine, CPU count and OpenBLAS thread count they were
measured on.  Too slow for the test suite; ``tests/test_moment.py``,
``tests/test_bracket.py`` and ``tests/test_kernels.py`` guard the traced
peaks at n = 20 alone, and ``tests/test_flow.py`` pins the step counts.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from leibcrit import flow  # noqa: E402
from leibcrit.bracket import Bracket, check_identities, gl_act, inf_act  # noqa: E402
from leibcrit.catalog import get  # noqa: E402
from leibcrit.linalg import Subspace, derivation_space, subspace_product  # noqa: E402
from leibcrit.moment import (  # noqa: E402
    _row_space_projection,
    _tangent,
    critical_type,
    criticality_decompose,
    moment_matrix,
)
from leibcrit.structure import structure_profile, verify_structure_theorem  # noqa: E402

FAMILIES = ("mu_hy", "mu_he", "mu_sy")
SIZES = (8, 12, 16, 20)
LAYER_SIZES = (3, 4, 8, 12, 16)


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy bundles, or None when
    none is found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(call) -> tuple[float, float]:
    """(best-of-3 seconds, traced peak in MB of a fourth call) of call()."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 1e6


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


def probe(mu) -> tuple[float, float, int]:
    """(best-of-3 seconds, traced peak in MB, CGLS iterations)."""
    secs, peak = timed(lambda: criticality_decompose(mu))
    m = moment_matrix(mu)
    b = _tangent(m, mu.coeffs) / (np.linalg.norm(m) * mu.norm)  # the certificate's CGLS start
    _, iters = _row_space_projection(b, mu.normalized())
    return secs, peak, iters


def layers(mu) -> dict:
    """The per-layer calls, by name, on the product mu."""
    m, full, rep = moment_matrix(mu), Subspace.full(mu.dim), criticality_decompose(mu)
    d = rep.D / rep.norm_sq
    return {
        "moment_matrix": lambda: moment_matrix(mu),
        "inf_act": lambda: inf_act(m, mu),
        "check_identities": lambda: check_identities(mu),
        "derivation_space": lambda: derivation_space(mu),
        "criticality_decompose": lambda: criticality_decompose(mu),
        "critical_type": lambda: critical_type(d),
        "subspace_product": lambda: subspace_product(mu, full, full),
        "structure_profile": lambda: structure_profile(mu),
        "verify_structure_theorem": lambda: verify_structure_theorem(mu, rep),
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
    return starts + [("L4", get("L4").bracket)]


def descent_row(mu) -> tuple[int, int, float, float]:
    """(steps, line-search trials, seconds, cond(G)) of one descent from mu.

    ``descend`` computes the start's moment matrix and then one per trial,
    which it reuses for the next iterate when the trial is accepted; the
    trials are counted by wrapping the module's ``_moment_matrix``.
    """
    real, calls = flow._moment_matrix, 0

    def counted(x):
        nonlocal calls
        calls += 1
        return real(x)

    flow._moment_matrix = counted
    try:
        start = perf_counter()
        tr = flow.descend(mu)
        secs = perf_counter() - start
    finally:
        flow._moment_matrix = real
    return tr.iterations, calls, secs, tr.cond_g


def main(argv: list[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "--json"):
        print("usage: scale_probe.py [--json PATH]", file=sys.stderr)
        return 2
    print(f"{'algebra':16s} {'n':>3s} {'basis':9s} {'best ms':>9s} {'peak MB':>8s} {'CGLS':>5s}")
    rows = []
    for name in FAMILIES:
        for n in SIZES:
            mu = get(name, n=n).bracket
            rows += [(name, "catalog", mu), (name, "rotated", gl_act(_unitary(n, n), mu))]
    rows.append(("m0(8)+0.5/seed2", "perturbed", flow.perturb_in_orbit(filiform(8), 0.5, 2)))
    rows.append(("limit of L4", "limit", flow.descend(get("L4").bracket).final_bracket))
    for name, basis, mu in rows:
        secs, peak, iters = probe(mu)
        print(f"{name:16s} {mu.dim:3d} {basis:9s} {secs * 1e3:9.2f} {peak:8.2f} {iters:5d}")
    print()
    print(f"{'layer (mu_he)':24s} {'n':>3s} {'basis':8s} {'dtype':10s} {'best ms':>9s} {'peak MB':>8s}"
          f" {'faults':>7s}")
    products = []
    for n in LAYER_SIZES:
        mu = get("mu_he", n=n).bracket
        products += [(n, "catalog", mu), (n, "rotated", gl_act(_unitary(n, n), mu))]
    calls = [layers(mu) for _, _, mu in products]
    faults = {name: mixed_faults([c[name] for c in calls]) for name in calls[0]}
    layer_rows = []
    for i, ((n, basis, mu), row) in enumerate(zip(products, calls)):
        dtype = str(mu.coeffs.dtype)
        for name, call in row.items():
            secs, peak = timed(call)
            flt = faults[name][i]
            print(f"{name:24s} {n:3d} {basis:8s} {dtype:10s} {secs * 1e3:9.3f} {peak:8.2f} {flt:7d}")
            layer_rows.append({"layer": name, "algebra": "mu_he", "n": n, "basis": basis,
                               "dtype": dtype, "best_ms": round(secs * 1e3, 4),
                               "peak_mb": round(peak, 4), "minor_faults": flt})
    print()
    print(f"{'descent':22s} {'steps':>6s} {'trials':>6s} {'ms':>9s} {'cond(G)':>9s}")
    descent_rows = []
    for label, mu in descent_starts():
        steps, trials, secs, cond_g = descent_row(mu)
        print(f"{label:22s} {steps:6d} {trials:6d} {secs * 1e3:9.2f} {cond_g:9.3g}")
        descent_rows.append({"start": label, "n": mu.dim, "steps": steps, "trials": trials,
                             "ms": round(secs * 1e3, 3), "cond_g": float(f"{cond_g:.6g}")})
    if argv:
        doc = {
            "source": "python3 scripts/scale_probe.py --json PATH",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": blas_threads(),
            "layers": layer_rows,
            "descents": descent_rows,
        }
        Path(argv[1]).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
