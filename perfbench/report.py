"""Human-readable report printed before the JSON result line.

Besides the bounded end-to-end metrics, each workload prints the
figures that only it produces, with units and sample counts: the
simulated data-plane throughput and latency of ``stream`` and
``shared``, and the phase and per-call times of ``optimizer``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: a share ``q`` of the values lie at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def workload_figures(name: str, units: List[Dict], run_s: float) -> List[tuple]:
    """(name, value, unit, samples) rows specific to one workload.

    ``run_s`` is the run's normalised time of the measured phase.
    """
    n = len(units)

    def med(key: str) -> float:
        return statistics.median(u[key] for u in units)

    if name in ("stream", "shared"):
        return [
            ("tuples_per_s", med("tuples") / run_s, "1/s", n),
            ("comm_cost_total", med("comm_cost_total"), "cost", n),
            ("load_stddev", med("load_stddev"), "load", n),
            ("sim_latency_mean_ms", med("sim_latency_mean_ms"), "ms", n),
            ("sim_latency_max_ms", med("sim_latency_max_ms"), "ms", n),
            ("results", med("ops"), "count", n),
            ("executed_ratio", med("executed_ratio"), "ratio", n),
        ]
    rows = [
        ("distribute_s", med("distribute_s"), "s", n),
        ("converge_s", med("converge_s"), "s", n),
        ("load_stddev", med("load_stddev"), "load", n),
        ("warmup_move_share", med("warmup_move_share"), "ratio", n),
    ]
    for kind in ("insert", "remove", "adapt"):
        samples = [v for u in units for v in u[f"{kind}_ms"]]
        rows.append((f"{kind}_p50_ms", percentile(samples, 0.5), "ms", len(samples)))
        # the highest percentile with at least ten samples beyond it
        if len(samples) >= 1000:
            rows.append((f"{kind}_p99_ms", percentile(samples, 0.99), "ms",
                         len(samples)))
    return rows


def print_report(name: str, units: List[Dict], metrics: Dict, run_s: float) -> None:
    print(f"workload {name}: {len(units)} timed unit(s); measured phase "
          f"{run_s:.3f} s normalised, "
          f"{statistics.median(u['run_s'] for u in units):.3f} s wall (medians)")
    for key, metric in metrics.items():
        print(f"  {key:<22} {metric['value']:>16.6g} {metric['unit']}")
    print("  -- workload figures (value, unit, samples) --")
    for key, value, unit, samples in workload_figures(name, units, run_s):
        print(f"  {key:<22} {value:>16.6g} {unit:<9} n={samples}")
