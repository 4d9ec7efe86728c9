"""Time and memory of ``criticality_decompose`` on the families up to n = 20.

Usage::

    python3 scripts/scale_probe.py

Runs in process from the ``src`` directory next to this script.  For
mu_hy, mu_he and mu_sy at n = 8, 12, 16 and 20, in the catalog basis and
rotated by a seeded random unitary, it prints the best-of-3 wall time of
one ``criticality_decompose`` call, the peak of memory ``tracemalloc``
traces during a fourth call, and the iteration counts of the two CGLS
solves of the cross-check (for M and for I).  Too slow for the test suite;
``tests/test_moment.py`` guards the traced peak at n = 20 alone.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from leibcrit.bracket import gl_act  # noqa: E402
from leibcrit.catalog import get  # noqa: E402
from leibcrit.moment import _row_space_projection, criticality_decompose  # noqa: E402

FAMILIES = ("mu_hy", "mu_he", "mu_sy")
SIZES = (8, 12, 16, 20)


def _unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def probe(mu) -> tuple[float, float, int, int]:
    """(best-of-3 seconds, traced peak in MB, CGLS iterations for M and for I)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        rep = criticality_decompose(mu)
        best = min(best, perf_counter() - start)
    tracemalloc.start()
    try:
        criticality_decompose(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, it_m = _row_space_projection(rep.M, mu)
    _, it_i = _row_space_projection(np.eye(mu.dim, dtype=complex), mu)
    return best, peak / 1e6, it_m, it_i


def main() -> int:
    print(f"{'algebra':10s} {'n':>3s} {'basis':8s} {'best ms':>9s} {'peak MB':>8s}"
          f" {'iter M':>6s} {'iter I':>6s}")
    for name in FAMILIES:
        for n in SIZES:
            mu = get(name, n=n).bracket
            for basis, alg in (("catalog", mu), ("rotated", gl_act(_unitary(n, n), mu))):
                secs, peak, it_m, it_i = probe(alg)
                print(f"{name:10s} {n:3d} {basis:8s} {secs * 1e3:9.2f} {peak:8.2f}"
                      f" {it_m:6d} {it_i:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
