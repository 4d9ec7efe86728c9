"""The benchmark's reference clock: a fixed numpy kernel in a process of its own.

    python3 perfbench/refkernel.py

The shared machine this benchmark runs on changes speed by up to 1.7x for
seconds to minutes at a time.  A fixed kernel slows with it, so the ratio
of an operation's time to the kernel's stays steady when the raw time does
not; the untraced run reports its times at the kernel's nominal speed.

The kernel runs in this helper process, which never imports leibcrit, so
nothing the library does to its own process (BLAS threads, allocator,
imports) moves the reading.  :class:`RefClock` starts the helper with BLAS
on one thread, so that the reading does not depend on whether BLAS worker
threads slept through the last operation.  The helper answers each line on
its standard input with the time of one run of :func:`kernel`, taken after
one untimed run that warms the caches the last operation evicted.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

#: Median reading of the helper on the 2-core machine where the benchmark
#: was defined; untraced times are reported at this speed.
NOMINAL_S = 0.0100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_rng = np.random.default_rng(0)
_TENSOR = _rng.standard_normal((7, 7, 7)) + 1j * _rng.standard_normal((7, 7, 7))
_MATRIX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def kernel() -> float:
    """Time small einsums, like the descent's inner loop, and a LAPACK SVD,
    like the derivation solve."""
    t0 = perf_counter()
    c = _TENSOR
    for _ in range(100):
        m = np.einsum("iju,ijv->uv", c, c.conj()) - np.einsum("ivj,iuj->uv", c, c.conj())
        np.linalg.norm(m)
    np.linalg.svd(_MATRIX)
    return perf_counter() - t0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def serve() -> None:
    print(json.dumps({"blas_threads": blas_threads()}), flush=True)
    for _ in sys.stdin:
        kernel()
        print(repr(kernel()), flush=True)


class RefClock:
    """The helper process, seen from the benchmark.

    ``readings`` holds every kernel time read; ``spent_s`` the wall time the
    benchmark spent waiting for them, which it leaves out of its throughput.
    """

    def __init__(self) -> None:
        env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)
        self.blas_threads = json.loads(self.proc.stdout.readline())["blas_threads"]
        self.readings: list[float] = []
        self.spent_s = 0.0

    def read(self) -> float:
        t0 = perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        value = float(self.proc.stdout.readline())
        self.spent_s += perf_counter() - t0
        self.readings.append(value)
        return value

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> RefClock:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
