"""One traced ``leibcrit`` process, for the traced run of cli-cold.

    python -X importtime perfbench/cli_child.py SNAPSHOT.json CLI-ARGS...

Imports the CLI as the console script does, wraps the library's public
functions (see :mod:`tracer`), runs the command under one operation span
and writes the span aggregates, with the command's in-process wall time,
to SNAPSHOT.json.  Exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

from leibcrit.cli import main

import tracer


def run() -> int:
    snap_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    sys.argv = ["leibcrit", *argv]
    code = 0
    t0 = perf_counter()
    with tr.span():
        try:
            main()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    wall = perf_counter() - t0
    with open(snap_path, "w") as fh:
        json.dump(dict(tr.snapshot(), wall_s=wall), fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
