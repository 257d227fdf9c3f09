"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``.

``--trace 0`` sets the system up several times, then repeats the
workload's timed unit with the run's seed while another unit still
fits in ``--seconds`` (at least once), and then runs the workload's
correctness check on a separate recorded run.  The times it reports
(``setup_s`` and the time behind ``ops_per_s``) are normalised by the
host's speed as the work runs (see ``laps.py``); every end-to-end
metric is a median over set-ups or units.  ``--trace 1`` runs the
check first, then untraced and traced units in turn, and reports the
per-layer metrics, the share of the traced wall time the spans cover
and the tracing overhead; the spans, the in-program profiler sections
and the registry counters go to ``.perfbench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

def metric_units(kind: str):
    """(name, unit) of every ``kind`` metric, in ``BENCHMARK.json`` order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def end_to_end(units, setups):
    """End-to-end figures of one run: medians over set-ups and units.

    Times are in seconds of the nominal host (see ``laps.py``).
    """
    run_s = statistics.median(u["run_norm_s"] for u in units)
    values = {
        "setup_s": statistics.median(
            [norm for _, norm in setups] + [u["setup_norm_s"] for u in units]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": statistics.median(u["ops"] for u in units) / run_s,
        "comm_cost": statistics.median(u["comm_cost"] for u in units),
        "latency_ms": statistics.median(u["latency_ms"] for u in units),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units("end_to_end")}
    return metrics, run_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "shared", "optimizer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="workload size: full (the benchmark) or tiny")
    args = parser.parse_args(argv)

    from report import print_report
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    if args.trace:
        from traced import traced_run

        # the check also warms the process up, so neither traced nor
        # untraced unit pays first-run costs alone
        attempted, failed = workload.check(args.seed)
        metrics = traced_run(workload, args, HERE.parent / ".perfbench_out",
                             metric_units("per_layer"))
    else:
        setups = [workload.setup(args.seed) for _ in range(workload.setup_repeats)]
        units = []
        started = time.perf_counter()
        while True:
            gc.collect()
            units.append(workload.unit(args.seed))
            elapsed = time.perf_counter() - started
            if elapsed * (len(units) + 1) / len(units) > args.seconds:
                break
        metrics, run_s = end_to_end(units, setups)
        print_report(args.workload, units, metrics, run_s)
        gc.collect()
        attempted, failed = workload.check(args.seed)
        # a timed unit whose final placement breaks the check's invariants
        failed += sum(u.get("violations", 0) for u in units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
