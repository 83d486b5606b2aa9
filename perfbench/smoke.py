"""Smoke test of the benchmark at a tiny budget.

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json``: one untraced invocation must
pass its checks and print every end-to-end metric with its unit, and two
traced invocations of the same seed must print every per-layer metric
with its unit and agree exactly on every count.  Exits 1 on the first
mismatch.  Takes about 20 s.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_RATIOS = ("kernel.cache_hit_ratio", "synthesis.novel_ratio")  # ratios of counts


def invoke(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--budget", "2", "--runs", "2"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def expect_metrics(result: dict, spec: list[dict], label: str):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        sys.exit(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit(f"{label}: checks failed: {result}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        expect_metrics(invoke(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = invoke(workload, 1), invoke(workload, 1)
        for result in (first, second):
            expect_metrics(result, bench["per_layer"], f"{workload} traced")
        for name, m in first["metrics"].items():
            exact = m["unit"] == "count" or name in EXACT_RATIOS
            if exact and m["value"] != second["metrics"][name]["value"]:
                sys.exit(f"{workload}: {name} differs between two traced runs: "
                         f"{m['value']} != {second['metrics'][name]['value']}")
        print(f"{workload}: ok")


if __name__ == "__main__":
    main()
