"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that

* ``run.py`` prints, as its last line, the result object the benchmark
  promises: ``correct`` true with no failed operations, and every
  metric named in ``BENCHMARK.json`` with its unit, in both modes;
* the metrics that do not depend on the clock (communication cost,
  load spread, simulated latency, result and operation counts) are
  identical for equal seeds;
* a second seed runs clean.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

#: figures a unit reports that depend only on the inputs, never on time
DETERMINISTIC = (
    "comm_cost", "load_stddev", "sim_latency_mean_ms", "sim_latency_max_ms",
    "latency_ms", "ops", "tuples", "warmup_move_share",
)


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_result(result: dict, spec: list, what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
    assert result["attempted"] >= 1, what
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{what}: metrics {got} != {want}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{what}: {name}"


def deterministic(workload: str, seed: int) -> dict:
    unit = WORKLOADS[workload]("tiny").unit(seed)
    return {k: unit[k] for k in DETERMINISTIC if k in unit}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        check_result(run(workload, 1, 0), spec["end_to_end"], f"{workload} trace 0")
        check_result(run(workload, 1, 1), spec["per_layer"], f"{workload} trace 1")
        check_result(run(workload, 2, 0), spec["end_to_end"], f"{workload} seed 2")
        first, second = deterministic(workload, 1), deterministic(workload, 1)
        assert first == second, f"{workload}: equal seeds differ: {first} {second}"
        print(f"{workload}: ok ({len(first)} deterministic figures equal)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
