"""The traced run behind ``--trace 1``.

Three units of the same seed run in turn, all under the program's own
observability layer (an :class:`repro.obs.Observer` for the simulator
workloads, a metrics registry for the optimizer) and the lap clock of
``laps.py``: one untraced, one under the :class:`~tracing.Tracer`
wrappers, and one traced again without the clock's reference kernel.
The tracing overhead is the second unit's normalised time over the
first's, so the host's drift between them does not show as overhead.
The per-layer metrics come from the spans and registry counters of the
third, where no span holds the kernel's time.  The spans, the
in-program profiler sections and counters, and the per-layer metrics
are written to one JSON file per run, so the outside-in numbers can be
checked against the program's own attribution.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict

from repro.obs import Observer
from repro.obs import registry as obs_registry
from repro.obs.registry import MetricsRegistry

from tracing import Tracer
from workloads import SimWorkload

def _unit(workload, seed: int, tracer: Tracer = None, refs: bool = True):
    """One unit under the program's own observability layer.

    Returns (figures, wall seconds, registry, observer or None).  With
    ``tracer`` the unit also runs under the tracing wrappers; with
    ``refs=False`` without the lap clock's reference kernel.
    """
    gc.collect()
    sim = isinstance(workload, SimWorkload)
    observer = Observer(span_sample_every=0) if sim else None
    registry = observer.registry if sim else MetricsRegistry()
    if not sim:
        obs_registry.set_active(registry)
    try:
        with tracer or nullcontext():
            t = time.perf_counter()
            if sim:
                unit = workload.unit(seed, observer, refs=refs)
            else:
                unit = workload.unit(seed, refs=refs)
            wall_s = time.perf_counter() - t
    finally:
        if not sim:
            obs_registry.set_active(None)
    return unit, wall_s, registry, observer


def _norm_s(unit: Dict) -> float:
    """A unit's set-up and measured phase in normalised seconds."""
    return unit["setup_norm_s"] + unit["run_norm_s"]


def traced_run(workload, args, out_dir: Path, per_layer) -> Dict:
    """Per-layer metrics of ``workload``; ``per_layer`` lists (name, unit)."""
    seed = args.seed
    untraced_norm_s = _norm_s(_unit(workload, seed)[0])
    traced_norm_s = _norm_s(_unit(workload, seed, Tracer())[0])
    tracer = Tracer()
    unit, traced_s, registry, observer = _unit(workload, seed, tracer, refs=False)

    values = tracer.layer_metrics(
        traced_s, registry.counters,
        {"events": unit.get("events", 0),
         "executed_ratio": unit.get("executed_ratio", 0.0)},
    )
    # both sides run the program's observability layer and the lap
    # marks, so the ratio is the cost of the tracing wrappers alone
    values["trace.overhead"] = traced_norm_s / untraced_norm_s
    metrics = {name: {"value": values[name], "unit": u} for name, u in per_layer}

    print(f"workload {args.workload}: traced {traced_norm_s:.3f} s, untraced "
          f"{untraced_norm_s:.3f} s normalised; spans unit {traced_s:.3f} s "
          f"wall, {len(tracer.spans)} spans")
    own = tracer.self_by_name()
    print("  outside-in self time by entry point (s):")
    for name in sorted(own, key=own.get, reverse=True):
        print(f"    {name:<34} {own[name]:10.4f}")
    profile = observer.profiler.to_dict(observer.wall_s) if observer else None
    if profile:
        print("  in-program profiler sections (s):")
        for name, secs in sorted(profile["totals_s"].items(),
                                 key=lambda kv: -kv[1]):
            print(f"    {name:<34} {secs:10.4f}")

    out_dir.mkdir(exist_ok=True)
    tracer.write(
        str(out_dir / f"trace-{args.workload}-seed{seed}.json"),
        {
            "workload": args.workload,
            "seed": seed,
            "traced_wall_s": traced_s,
            "traced_norm_s": traced_norm_s,
            "untraced_norm_s": untraced_norm_s,
            "per_layer": values,
            "self_s_by_entry_point": own,
            "observer_profile": profile,
            "observer_counters": registry.to_dict()["counters"],
        },
    )
    return metrics
