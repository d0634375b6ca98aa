"""Smoke self-test of the benchmark.

Runs every workload ``BENCHMARK.json`` names at the smoke shape (a few
geos and weeks, a few seconds in all), untraced and traced, on a seed
other than the runner's default, and fails unless each run exits 0,
passes every check, and emits exactly the metrics ``BENCHMARK.json``
names, each with its unit.  Then runs ``--workload all`` once.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT

#: Not the runner's default seed, so that the checks hold on a held-out one.
SEED = 7
RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, named in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in (w["name"] for w in spec["workloads"]):
            label = f"{workload} --trace {trace}"
            completed = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False,
            )
            expect(completed.returncode == 0, f"{label}: exit code {completed.returncode}")
            if completed.returncode != 0:
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: correct={result['correct']} failed={result['failed']}")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                   f"{label}: attempted={result['attempted']}")
            emitted = result["metrics"]
            expect(set(emitted) == {m["name"] for m in named},
                   f"{label}: metrics {sorted(set(emitted) ^ {m['name'] for m in named})} "
                   f"missing or unexpected")
            for metric in named:
                got = emitted.get(metric["name"], {})
                expect(got.get("unit") == metric["unit"],
                       f"{label}: {metric['name']} unit {got.get('unit')!r}")
                expect(isinstance(got.get("value"), (int, float)),
                       f"{label}: {metric['name']} value {got.get('value')!r}")

    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", str(SEED),
         "--seconds", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False,
    )
    expect(completed.returncode == 0, "--workload all: a workload failed")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
