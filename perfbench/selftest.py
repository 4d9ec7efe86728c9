"""Self-test of the benchmark: each workload once, at a tiny size.

    python3 perfbench/selftest.py

Asserts for every workload that

- the untraced run prints every end-to-end metric of BENCHMARK.json, and
  the traced run every per-layer metric, each with its unit;
- an expectation corrupted on purpose (``--wrong-expectation``) is counted
  as a failed operation and makes the run incorrect; in descend, the
  drift-defect starts fail as their frozen signature says, and read as
  unexpected failures once that signature is corrupted too;
- in the traced run, the self times of the library spans inside each
  operation add up to the operation's wall time, to within the measured
  tracing overhead: the time no library span covers stays that small.

Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
TIMER_SLACK_S = 1e-3


def run(workload: str, *flags: str) -> tuple[dict, list[str]]:
    cmd = [*RUN, "--workload", workload, "--seed", "7", "--seconds", "0", "--tiny", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def check_metrics(result: dict, specs: list[dict], what: str) -> None:
    metrics = result["metrics"]
    names = [s["name"] for s in specs]
    if sorted(metrics) != sorted(names):
        raise AssertionError(f"{what}: metrics {sorted(metrics)} != {sorted(names)}")
    for s in specs:
        m = metrics[s["name"]]
        if m["unit"] != s["unit"] or not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: bad metric {s['name']}: {m}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in bench["workloads"]):
        result, lines = run(wl, "--trace", "0")
        check_metrics(result, bench["end_to_end"], f"{wl} untraced")
        if not result["correct"] or result["attempted"] < 1:
            raise AssertionError(f"{wl}: tiny run not correct: {lines[-8:]}")
        if not any(line.startswith("failed_ratio = ") for line in lines):
            raise AssertionError(f"{wl}: failed_ratio not printed")

        known = {line.split(" [")[0] for line in lines if "[known defect" in line}
        wrong, lines = run(wl, "--trace", "0", "--wrong-expectation")
        if wrong["failed"] <= result["failed"] or wrong["correct"]:
            raise AssertionError(f"{wl}: corrupted expectation not counted as failed: {wrong}")
        ratio = next(l for l in lines if l.startswith("failed_ratio = "))
        if float(ratio.split()[2]) <= 0:
            raise AssertionError(f"{wl}: failed_ratio stayed 0: {ratio}")
        if wl == "descend":
            unexpected = {line.split(" [")[0] for line in lines if "[UNEXPECTED]" in line}
            if not known or not known <= unexpected:
                raise AssertionError(f"descend: drift defects {known}, unexpected {unexpected}")

        traced, lines = run(wl, "--trace", "1")
        check_metrics(traced, bench["per_layer"], f"{wl} traced")
        record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
        checks = record["self_time_check"]
        if not checks:
            raise AssertionError(f"{wl}: no traced operations")
        for c in checks:
            gap = c["wall_s"] - c["self_sum_s"]
            if not -TIMER_SLACK_S <= gap <= max(c["overhead_s"], 0.0) + TIMER_SLACK_S:
                raise AssertionError(f"{wl}: self times of {c['label']} do not add up: {c}")
        print(f"{wl}: ok ({result['attempted']} operations, {len(checks)} traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
