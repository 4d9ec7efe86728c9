"""Smoke test of ``scripts/scale_probe.py`` and ``scripts/cli_snapshot.py``.

scale_probe imports private names of the library (``_subspace_product``,
``_unit_coeffs``, ``_row_space_projection``, ``_moment_tangent``), so a refactor
that renames one breaks the script while the library's own tests pass; it
reads a descent's trials and projections from ``FlowTrace.steps`` and
wraps nothing.  Both
scripts are loaded in a fresh interpreter, as they put ``src`` (and
scale_probe also ``perfbench``) on ``sys.path`` when imported, and
scale_probe's helpers run on the small products mu_he(4) and L5.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import importlib.util
import json
import sys
from pathlib import Path

mods = {}
for name in ("cli_snapshot", "scale_probe"):
    path = Path(sys.argv[1]) / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    mods[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mods[name])
probe = mods["scale_probe"]

from leibcrit.catalog import get

he4, l5 = get("mu_he", n=4).bracket, get("L5").bracket
for mu in (he4, l5):
    probe.analyze(mu)
layers = probe.layers(he4)  # L5 is not critical, so it has no structure checks
for call in layers.values():
    call()
print(json.dumps({
    "layers": list(layers),
    "cgls": [probe.cgls_iterations(he4), probe.cgls_iterations(l5)],
    "descents": [list(probe.descent_row(mu)[:3]) for mu in (he4, l5)],
}))
"""


def test_scale_probe_and_cli_snapshot_run():
    done = subprocess.run([sys.executable, "-c", PROBE, str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["layers"] == [
        "moment_matrix", "inf_act", "check_identities", "derivation_space",
        "criticality_decompose", "critical_type", "subspace_product", "structure_profile",
        "verify_structure_theorem", "analyze",
    ]
    assert doc["cgls"][0] == 0  # mu_he(4) is critical: the cross-check starts at 0
    assert doc["descents"] == [[0, 0, 1], [7, 9, 1]]  # (steps, trials, projections)
