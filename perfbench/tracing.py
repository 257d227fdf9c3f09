"""Outside-in tracing: spans around each layer's public entry points.

:class:`Tracer` replaces the entry points listed in :data:`ENTRY_POINTS`
with timing wrappers for the length of a ``with`` block, then puts the
originals back.  No program file changes: the wrappers sit on the class
attributes and module globals the program already calls through.

Every call becomes one span ``(id, name, start, end, parent, request,
self_s)``.  Spans nest by call order, so a span's children are disjoint
sub-intervals of it and its *self* time is its duration minus theirs.  A
*request* is a call a layer receives from outside the traced layers
(from the event loop's handlers or from the benchmark's own loop); the
calls it makes share its request id.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from importlib import import_module
from typing import Callable, Dict, List, Tuple

from repro.core import Cosmos
from repro.engine import Engine
from repro.pubsub import PubSubNetwork
from repro.sim import EventLoop, FaultInjector

#: (layer, owner, attribute names).  Methods are wrapped on the class;
#: the ``core`` functions are wrapped where the coordinator (and, for
#: the diffusion solver, the rebalancer) looks them up.
ENTRY_POINTS = [
    ("engine", Engine, ("push", "push_batch", "push_query", "push_query_batch")),
    ("pubsub", PubSubNetwork,
     ("publish", "publish_batch", "publish_rate", "subscribe", "unsubscribe")),
    ("sim", EventLoop, ("run_until",)),
    ("core", Cosmos,
     ("distribute", "adopt", "insert", "remove", "adapt",
      "add_processor", "remove_processor",
      "refresh_measured_loads", "refresh_statistics")),
    ("faults", FaultInjector,
     ("fire", "recover_processor_crash", "recover_broker_loss")),
    ("core", import_module("repro.core.coordinator"),
     ("coarsen_cached", "map_graph", "refine_mapping", "rebalance",
      "refine_distribution")),
    ("core", import_module("repro.core.rebalance"), ("diffusion_solution",)),
]


def _rows(name: str, args, result) -> Tuple[int, int]:
    """(rows in, results out) of one engine or publish call."""
    if name in ("engine.push", "engine.push_query"):
        return 1, len(result)
    if name == "engine.push_batch":
        return args[1].n, len(result)
    if name == "engine.push_query_batch":
        return args[2].n, sum(map(len, result))
    if name == "pubsub.publish_batch":
        return args[3], len(result)
    return 1, len(result)  # pubsub.publish


_COUNTED = {
    "engine.push", "engine.push_batch", "engine.push_query",
    "engine.push_query_batch", "pubsub.publish", "pubsub.publish_batch",
}


class Tracer:
    """Installs span-recording wrappers; aggregates spans afterwards."""

    def __init__(self) -> None:
        #: finished spans: (id, name, start, end, parent id, request id, self s)
        self.spans: List[Tuple] = []
        #: span id -> (name, rows in, results out) for entry calls of _COUNTED
        self.rows: Dict[int, Tuple[str, int, int]] = {}
        #: (coordinator moves, refinement moves, queries placed) per adapt call
        self.adapt_moves: List[Tuple[int, int, int]] = []
        self._stack: List[list] = []
        self._next = 0
        self._saved: List[Tuple[object, str, Callable]] = []

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "Tracer":
        for layer, owner, names in ENTRY_POINTS:
            for attr in names:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(f"{layer}.{attr}", fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        stack = self._stack
        spans = self.spans
        counted = name in _COUNTED
        is_adapt = name == "core.adapt"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self._next
            self._next += 1
            # a call from the loop's handlers (or from outside) opens a request
            root = parent is None or parent[1] == "sim.run_until"
            frame = [sid, name, 0.0, sid if root else parent[3], 0.0]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[4] += dur
                spans.append((sid, name, start, end,
                              parent[0] if parent else None, frame[3],
                              dur - frame[4]))
            if counted and (parent is None or not parent[1].startswith(layer)):
                self.rows[sid] = (name, *_rows(name, args, result))
            if is_adapt:
                self.adapt_moves.append((
                    result.coordinator_moves, result.refinement_moves,
                    len(args[0].placement),
                ))
            return result

        return traced

    # -- aggregation -----------------------------------------------------
    def self_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[6]
        return dict(out)

    def covered_s(self) -> float:
        """Wall time inside any traced span (root spans are disjoint)."""
        return sum(s[3] - s[2] for s in self.spans if s[4] is None)

    def layer_metrics(
        self, wall_s: float, counters: Dict[str, float], extra: Dict[str, float]
    ) -> Dict[str, float]:
        """The per-layer figures of one traced unit.

        ``counters`` are the in-program registry counters of the same
        run; ``extra`` carries figures the workload itself reports
        (events processed, executed-plan ratio).
        """
        own = self.self_by_name()

        def self_of(*prefixes: str) -> float:
            return sum(v for k, v in own.items() if k.startswith(prefixes))

        def rows_of(prefix: str) -> Tuple[int, int, int]:
            hits = [r for r in self.rows.values() if r[0].startswith(prefix)]
            return (len(hits), sum(r[1] for r in hits), sum(r[2] for r in hits))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def c(key: str) -> float:
            return float(counters.get(key, 0))

        e_calls, e_rows, e_results = rows_of("engine.")
        p_calls, p_rows, _ = rows_of("pubsub.publish")
        subscribes = sum(1 for s in self.spans if s[1] == "pubsub.subscribe")
        plan_lookups = (c("opt.coarse_plan_hits") + c("opt.coarse_plan_partial")
                        + c("opt.coarse_plan_misses"))
        covered = self.covered_s()
        first = self.adapt_moves[0] if self.adapt_moves else (0, 0, 0)
        return {
            "engine.calls": e_calls,
            "engine.rows_in": e_rows,
            "engine.rows_per_call": ratio(e_rows, e_calls),
            "engine.self_s": self_of("engine."),
            "engine.results_out": e_results,
            "pubsub.publish_calls": p_calls,
            "pubsub.publish_rows": p_rows,
            "pubsub.publish_self_s": self_of("pubsub.publish"),
            "pubsub.forwards": c("broker.forwards"),
            "pubsub.match_yield": ratio(c("broker.local_deliveries"),
                                        c("broker.index_probes")),
            "pubsub.subscribe_calls": subscribes,
            "pubsub.subscribe_self_s": self_of("pubsub.subscribe"),
            "sim.events": extra.get("events", 0),
            "sim.loop_self_s": self_of("sim."),
            "sim.rows_per_publish": ratio(p_rows, p_calls),
            "sim.executed_ratio": extra.get("executed_ratio", 0.0),
            "sim.other_s": wall_s - covered,
            "faults.checkpoints": c("recovery.checkpoints"),
            "faults.checkpoint_state_tuples": c("recovery.checkpoint_state_tuples"),
            "faults.recover_s": sum(s[3] - s[2] for s in self.spans
                                    if s[1].startswith("faults.recover")),
            "core.coarsen_s": self_of("core.coarsen"),
            "core.map_s": self_of("core.map_graph"),
            "core.rebalance_s": self_of("core.rebalance"),
            "core.refine_s": self_of("core.refine_"),
            "core.diffuse_s": self_of("core.diffusion"),
            "core.rebalance_moves": sum(m[0] for m in self.adapt_moves),
            "core.warmup_move_share": ratio(first[0] + first[1], first[2]),
            "core.plan_hit_ratio": ratio(c("opt.coarse_plan_hits"), plan_lookups),
            "core.adapt_skips": c("opt.adapt_skips"),
            "core.workspace_rebuilds": c("opt.workspace_rebuilds"),
            "core.graph_rebuilds": c("opt.graph_rebuilds"),
            "core.insert_hops": c("opt.insert_hops"),
            "core.self_s": self_of("core."),
            "trace.coverage": ratio(covered, wall_s),
        }

    def write(self, path: str, header: Dict) -> None:
        """Write ``header`` plus every span, one JSON document."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        doc = dict(header)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent",
                              "request", "self_s"]
        doc["spans"] = [
            [s[0], s[1], round(s[2] - t0, 7), round(s[3] - t0, 7), s[4], s[5],
             round(s[6], 7)]
            for s in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
