"""The benchmark's three workloads: ``stream``, ``shared`` and ``optimizer``.

Each workload is a fixed *universe* -- topology, substream rates and
sources, query population and churn script, initial placement, fault
targets -- built from :data:`UNIVERSE_SEED`, driven by *traffic* drawn
from the run's seed: tuple arrival times and values for the simulator
workloads, the remove/insert churn stream for ``optimizer``.
Random universes of this size differ by up to 3x in the work they hold
(1.0M to 1.8M results on ``shared`` over ten seeds; an 8 s to 21 s first
adaptation round on ``optimizer`` over four), which would swamp any
change a later commit makes; traffic seeds move the work by a few per
cent.

Every workload offers the same steps:

* ``setup(seed)`` builds the system and returns the wall and the
  normalised seconds that took (see ``laps.py``);
* ``unit(seed)`` runs one timed unit of work under a lap clock and
  returns its figures (set-up included, so each unit is one more
  set-up sample);
* ``check(seed)`` runs a smaller, recorded copy of the workload outside
  every timed region and compares the program's outputs with a
  reference, returning ``(attempted, failed)``.

A unit's end-to-end figures share one meaning across workloads:
``ops_per_s`` counts the operations ``check`` counts (delivered results
for the simulator workloads, ``Cosmos`` calls for ``optimizer``) per
normalised second of the measured phase; ``comm_cost`` is the paper's weighted
communication cost (measured on the data plane at the end of the run
and divided by the delivered results, of the final placement for
``optimizer``); ``latency_ms`` is the delay between a result's
production and its user (simulated emission-to-delivery latency; mean
host-to-proxy latency of the final placement for ``optimizer``).

The simulator workloads call :func:`repro.sim.run_scenario`; the
optimizer workload calls :class:`repro.core.Cosmos` directly, as one
closed-loop caller.  Nothing here changes the program: the hooks are
the lap clock's wrappers and :class:`ClusterProbe`, which marks the end
of set-up, keeps the cluster, hands it the traffic generators and adds
the lap-mark events to its event loop.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.scenarios import SyntheticOracle
from repro.core import Cosmos, CosmosConfig
from repro.query.interest import SubstreamSpace, mask_of
from repro.query.workload import QuerySpec
from repro.sim import (
    BrokerLoss,
    ChurnParams,
    CostModel,
    FaultInjector,
    HotSpotShift,
    ProcessorCrash,
    ScenarioParams,
    SimCluster,
    SimWorkloadParams,
    load_stddev,
    oracle_results,
    recovery_invariants,
    run_scenario,
)
from repro.topology.transit_stub import TransitStubParams

from laps import Laps

#: seed of every workload's fixed universe.  Seed 0's optimizer universe
#: spends 21 s in its first adaptation round (seeds 1-3: 8-11 s), which
#: would push one optimizer run past the benchmark's time budget.
UNIVERSE_SEED = 1


def _id_counters():
    """Every module-level ``itertools.count`` of the program, with its
    next value now (as a fresh process has it, before any run)."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, itertools.count):
                    found.append((module, attr, int(repr(value)[6:-1])))
    return found


_ID_COUNTERS = _id_counters()


def fresh_ids() -> None:
    """Restart the program's module-level id counters.

    Subscription, cluster, coarse-vertex and operator ids come from
    module-level counters that carry over from one run to the next in a
    process, and the ids decide some orderings: the same ``stream``
    seed gave a communication cost of 220.1 after nine set-ups and
    201.9 after none or fifteen.  Every set-up, unit and check starts
    here, so its outputs depend on its seed alone.
    """
    for module, attr, start in _ID_COUNTERS:
        setattr(module, attr, itertools.count(start))


class _SetupDone(Exception):
    """Raised by :class:`ClusterProbe` to stop a set-up-only run."""


class ClusterProbe:
    """Context manager around ``SimCluster.start``.

    ``run_scenario`` builds the topology, the query population, the
    optimizer placement and the cluster, then calls ``start`` and runs
    the event loop.  At ``start`` the probe marks the end of set-up on
    ``laps``, keeps the cluster, and hands it the traffic: generators
    drawn from ``traffic_seed`` for tuple arrival times and tuple
    values.  With ``setup_only`` it stops the run there; otherwise it
    schedules a lap mark every ``lap_every`` simulated seconds, events
    that change no state.
    """

    def __init__(self, traffic_seed: int, laps: Laps, lap_every: float = 0.0,
                 setup_only: bool = False):
        self.traffic_seed = traffic_seed
        self.laps = laps
        self.lap_every = lap_every
        self.setup_only = setup_only
        self.cluster: Optional[SimCluster] = None
        #: index in ``laps.marks`` of the end of set-up
        self.start_mark = 0

    def __enter__(self) -> "ClusterProbe":
        self._start = SimCluster.start
        probe = self

        def start(cluster):
            probe.cluster = cluster
            probe.laps.mark(ref=True)
            probe.start_mark = len(probe.laps.marks) - 1
            if probe.setup_only:
                raise _SetupDone
            seeds = np.random.SeedSequence(probe.traffic_seed).spawn(2)
            cluster.arrival_rng, cluster.value_rng = (
                np.random.default_rng(s) for s in seeds
            )
            if probe.lap_every > 0:
                probe._tick(cluster)
            return probe._start(cluster)

        SimCluster.start = start
        return self

    def _tick(self, cluster) -> None:
        loop, every = cluster.loop, self.lap_every

        def tick():
            self.laps.mark()
            if loop.now + every <= cluster.duration:
                loop.schedule_in(every, tick)

        loop.schedule(every, tick)

    def __exit__(self, *exc) -> bool:
        SimCluster.start = self._start
        return exc[0] is _SetupDone


# ---------------------------------------------------------------------------
# simulator workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimSize:
    processors: int
    sources: int
    topology: Tuple[int, int, int, int]
    substreams: int
    queries: int
    rate_range: Tuple[float, float]
    duration: float
    #: the recorded correctness run: its simulated seconds and queries
    check_duration: float
    check_queries: int
    pool: Optional[int] = None


def _latency_ms(trace) -> Tuple[float, float]:
    """Result-weighted mean and overall max of simulated latency, in ms."""
    total = weight = 0.0
    prev = 0
    for s in trace.samples:
        n = s.results_total - prev
        prev = s.results_total
        total += s.mean_latency * n
        weight += n
    worst = max((s.max_latency for s in trace.samples), default=0.0)
    return 1000.0 * total / max(weight, 1.0), 1000.0 * worst


class SimWorkload:
    """A ``run_scenario`` workload: shared code of ``stream`` and ``shared``."""

    SIZES: Dict[str, SimSize] = {}
    setup_repeats = 15
    #: simulated seconds between two lap marks of the event loop, about
    #: 300 marks per unit
    lap_every = 0.2

    def __init__(self, size: str = "full"):
        self.size = self.SIZES[size]

    def scenario(self, duration: float) -> ScenarioParams:
        raise NotImplementedError

    def _kwargs(self, duration: float, queries: int):
        sz = self.size
        td, tn, spt, sn = sz.topology
        return dict(
            seed=UNIVERSE_SEED,
            topology=TransitStubParams(
                transit_domains=td, transit_nodes=tn,
                stubs_per_transit_node=spt, stub_nodes=sn,
            ),
            num_sources=sz.sources,
            num_processors=sz.processors,
            workload=SimWorkloadParams(
                num_substreams=sz.substreams,
                num_queries=queries,
                rate_range=sz.rate_range,
                pool_substreams=sz.pool,
            ),
            scenario=self.scenario(duration),
        )

    def setup(self, seed: int) -> Tuple[float, float]:
        """Wall and normalised seconds of ``run_scenario`` until ``start``."""
        fresh_ids()
        laps = Laps()
        with laps, ClusterProbe(seed, laps, setup_only=True):
            laps.mark()
            run_scenario(**self._kwargs(self.size.duration, self.size.queries))
        laps.mark(ref=True)
        return laps.wall_s(), laps.norm_s()

    def unit(self, seed: int, observer=None, refs: bool = True) -> Dict:
        """One timed unit; ``refs=False`` leaves the reference kernel out."""
        sz = self.size
        fresh_ids()
        laps = Laps(refs)
        with laps, ClusterProbe(seed, laps, self.lap_every) as probe:
            laps.mark()
            report = run_scenario(
                **self._kwargs(sz.duration, sz.queries), observer=observer
            )
            laps.mark(ref=True)
        k = probe.start_mark
        run_s = laps.wall_s(k)
        results = report.trace.total_results()
        data_cost = probe.cluster.network.weighted_data_cost()
        mean_ms, max_ms = _latency_ms(report.trace)
        return {
            "setup_s": laps.wall_s(0, k),
            "setup_norm_s": laps.norm_s(0, k),
            "run_s": run_s,
            "run_norm_s": laps.norm_s(k),
            "ops": results,
            # per delivered result: on the shared plane the result streams
            # cross the network too, so the raw total moves with the result
            # count, which the tuple values decide (16% spread over ten
            # seeds, against 3% per result)
            "comm_cost": data_cost / results,
            "latency_ms": mean_ms,
            # figures the report prints besides the end-to-end metrics
            "comm_cost_total": data_cost,
            "tuples": report.tuples_emitted,
            "events": report.events_processed,
            "load_stddev": report.trace.samples[-1].load_stddev,
            "sim_latency_mean_ms": mean_ms,
            "sim_latency_max_ms": max_ms,
            "executed_ratio": report.executed_queries / max(1, report.user_queries),
        }

    def recorded(self, seed: int):
        sz = self.size
        fresh_ids()
        with ClusterProbe(seed, Laps()):
            return run_scenario(
                **self._kwargs(sz.check_duration, sz.check_queries), record=True
            )


class StreamWorkload(SimWorkload):
    """Unshared batched data plane with churn, a hot spot and two faults."""

    SIZES = {
        "full": SimSize(
            processors=32, sources=10, topology=(3, 3, 2, 5),
            substreams=160, queries=120, rate_range=(3.0, 8.0),
            duration=60.0, check_duration=16.0, check_queries=60,
        ),
        "tiny": SimSize(
            processors=8, sources=4, topology=(2, 3, 2, 4),
            substreams=40, queries=24, rate_range=(2.0, 4.0),
            duration=12.0, check_duration=12.0, check_queries=24,
        ),
    }

    def scenario(self, duration: float) -> ScenarioParams:
        return ScenarioParams(
            duration=duration,
            sample_interval=6.0,
            adapt_interval=12.0,
            initial_placement="skewed",
            churn=ChurnParams(arrival_rate=1.0, mean_lifetime=30.0),
            hotspot=HotSpotShift(
                at=duration / 2.0,
                substreams=max(4, self.size.substreams // 8),
                factor=3.0,
            ),
            faults=(
                ProcessorCrash(at=0.3 * duration),
                BrokerLoss(at=0.7 * duration),
            ),
            recovery="checkpoint",
            checkpoint_interval=6.0,
        )

    def check(self, seed: int) -> Tuple[int, int]:
        """Recovery invariants against the single-engine oracle.

        A query is *affected* by a fault when the crash hit its host, or
        when the wiped broker sat on the overlay path from one of its
        sources to its host while the broker was down.  Unaffected
        queries must match the oracle exactly; affected ones must
        deliver an ordered subsequence, complete again once their own
        window has aged out after the recovery.  Each query is checked
        with its own window and recovery time, so the parity clause is
        live even in this short run.  A query with a violation counts
        all its oracle results as failed.
        """
        touched: Dict[int, float] = {}  # query id -> time it resumed
        down_hosts: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        fire, recover = FaultInjector.fire, FaultInjector.recover_broker_loss

        def note_hosts(inj) -> None:
            for qid, qs in inj.cluster.queries.items():
                if qs.alive:
                    down_hosts[qid] = (qs.host, qs.simq.substreams)

        def traced_fire(inj, fault):
            if isinstance(fault, BrokerLoss):
                note_hosts(inj)
            return fire(inj, fault)

        def traced_recover(inj, node):
            note_hosts(inj)
            tree, space = inj.cluster.network.tree, inj.cluster.space
            for qid, (host, sids) in down_hosts.items():
                if any(node in tree.path(int(space.source_of[s]), host) for s in sids):
                    touched[qid] = max(touched.get(qid, 0.0), inj.cluster.loop.now)
            down_hosts.clear()
            return recover(inj, node)

        FaultInjector.fire = traced_fire
        FaultInjector.recover_broker_loss = traced_recover
        try:
            report = self.recorded(seed)
        finally:
            FaultInjector.fire, FaultInjector.recover_broker_loss = fire, recover
        for e in report.fault_log:
            if e["kind"] == "crash":
                resumed = max(r["resumed_at"] for r in report.fault_log
                              if "resumed_at" in r)
                for qid in e["queries"]:
                    touched[qid] = max(touched.get(qid, 0.0), resumed)
        oracle = oracle_results(report.actions)
        attempted = failed = 0
        for qid, want in oracle.items():
            attempted += len(want)
            hit = qid in touched
            window = max(b.window.seconds for b in report.queries[qid].ast.bindings)
            violations = recovery_invariants(
                {qid: report.results.get(qid, [])}, {qid: want},
                affected={qid} if hit else set(),
                resumed_at=touched[qid] if hit else None,
                window_s=window,
            )
            if violations:
                failed += len(want)
        return attempted, failed


class SharedWorkload(SimWorkload):
    """Shared plane: many overlapping queries folded into few plans."""

    SIZES = {
        "full": SimSize(
            processors=32, sources=10, topology=(3, 3, 2, 5),
            substreams=160, queries=800, rate_range=(2.0, 5.0),
            duration=30.0, check_duration=6.0, check_queries=200, pool=8,
        ),
        "tiny": SimSize(
            processors=8, sources=4, topology=(2, 3, 2, 4),
            substreams=40, queries=60, rate_range=(1.0, 3.0),
            duration=8.0, check_duration=6.0, check_queries=60, pool=4,
        ),
    }

    setup_repeats = 2  # each takes about 3 s; every unit sets up once more
    lap_every = 0.1

    def scenario(self, duration: float) -> ScenarioParams:
        return ScenarioParams(
            duration=duration,
            sample_interval=5.0,
            adapt_interval=10.0,
            initial_placement="cosmos",
            churn=ChurnParams(arrival_rate=1.0, mean_lifetime=30.0),
            use_sharing=True,
        )

    def check(self, seed: int) -> Tuple[int, int]:
        """Every user query's results equal the single-engine oracle's.

        A query's failed count is the number of oracle results it did
        not reproduce position for position, plus any it added.
        """
        report = self.recorded(seed)
        oracle = oracle_results(report.actions)
        attempted = failed = 0
        for qid, want in oracle.items():
            got = report.results.get(qid, [])
            attempted += len(want)
            if got != want:
                same = sum(1 for a, b in zip(got, want) if a == b)
                failed += max(len(want), len(got)) - same
        return attempted, failed


# ---------------------------------------------------------------------------
# optimizer workload
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OptSize:
    queries: int
    processors: int
    sources: int
    substreams: int
    vmax: int
    churn_rounds: int
    pairs_per_round: int
    max_converge_rounds: int = 40


class OptimizerWorkload:
    """Cold distribute, adapt to a fixed point, then remove/insert churn."""

    SIZES = {
        "full": OptSize(
            queries=5000, processors=64, sources=50, substreams=1000,
            vmax=100, churn_rounds=5, pairs_per_round=200,
        ),
        "check": OptSize(
            queries=600, processors=16, sources=10, substreams=200,
            vmax=40, churn_rounds=3, pairs_per_round=20,
        ),
        "tiny": OptSize(
            queries=400, processors=16, sources=10, substreams=200,
            vmax=40, churn_rounds=2, pairs_per_round=20,
        ),
    }
    setup_repeats = 15

    def __init__(self, size: str = "full"):
        self.size = self.SIZES[size]
        self.check_size = self.SIZES["check" if size == "full" else size]

    @staticmethod
    def _query(qid: int, processors, space: SubstreamSpace, rng) -> QuerySpec:
        n = len(space)
        mask = mask_of(rng.sample(range(n), rng.randint(10, min(30, n))))
        return QuerySpec(
            query_id=qid,
            proxy=rng.choice(processors),
            mask=mask,
            group=0,
            load=0.01 * space.rate(mask),
            result_rate=1.0,
            state_size=1.0,
        )

    def _build(self, sz: OptSize, seed: int):
        """The fixed universe and population, plus the seed's churn rng."""
        rng = random.Random(UNIVERSE_SEED)
        sources = list(range(sz.sources))
        processors = list(range(sz.sources, sz.sources + sz.processors))
        oracle = SyntheticOracle(sz.sources + sz.processors, seed=UNIVERSE_SEED)
        space = SubstreamSpace.random(
            sz.substreams, sources=sources, seed=UNIVERSE_SEED
        )
        queries = [self._query(i, processors, space, rng) for i in range(sz.queries)]
        cosmos = Cosmos(
            oracle, processors, space,
            CosmosConfig(k=4, vmax=sz.vmax, seed=UNIVERSE_SEED, incremental=True),
        )
        return random.Random(seed), oracle, processors, space, queries, cosmos

    def setup(self, seed: int) -> Tuple[float, float]:
        """Wall and normalised seconds of building the universe,
        the population and the coordinators."""
        fresh_ids()
        laps = Laps()
        laps.mark()
        self._build(self.size, seed)
        laps.mark(ref=True)
        return laps.wall_s(), laps.norm_s()

    def _drive(self, sz: OptSize, seed: int, after_call=None,
               refs: bool = True) -> Dict:
        """One closed-loop run; ``after_call(cosmos, live)`` follows each call."""
        fresh_ids()
        laps = Laps(refs)
        with laps:
            laps.mark()
            rng, oracle, processors, space, queries, cosmos = self._build(sz, seed)
            laps.mark(ref=True)
            setup_mark = len(laps.marks) - 1
            out = self._loop(sz, rng, processors, space, queries, cosmos, after_call)
            laps.mark(ref=True)
        live = out.pop("live")
        final = list(live.values())
        placement = cosmos.placement
        wec = CostModel.over(None, space, distance=oracle).weighted_cost(
            placement, final
        )
        out.update({
            "setup_s": laps.wall_s(0, setup_mark),
            "setup_norm_s": laps.norm_s(0, setup_mark),
            "run_s": laps.wall_s(setup_mark),
            "run_norm_s": laps.norm_s(setup_mark),
            "comm_cost": wec,
            # results travel from a query's host to its proxy.  The wall time
            # of one remove+insert step spread 0.43 (quartiles over median)
            # over ten seeds on a 2-vCPU virtual machine, too wide to bound
            "latency_ms": sum(oracle(placement[q.query_id], q.proxy) for q in final)
            / len(final),
            "load_stddev": load_stddev(placement, final, processors),
            "violations": _placement_violations(cosmos, live),
        })
        return out

    def _loop(self, sz: OptSize, rng, processors, space, queries, cosmos,
              after_call) -> Dict:
        """Distribute, adapt to a fixed point, then the churn rounds."""
        live = {q.query_id: q for q in queries}
        note = after_call or (lambda cosmos, live: None)
        calls = 0

        def timed(fn, *args):
            nonlocal calls
            calls += 1
            t = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - t

        _, distribute_s = timed(cosmos.distribute, queries)
        note(cosmos, live)

        converge_s = 0.0
        moves: List[Tuple[int, int]] = []
        for _ in range(sz.max_converge_rounds):
            rep, secs = timed(cosmos.adapt)
            converge_s += secs
            note(cosmos, live)
            moves.append((rep.coordinator_moves, rep.refinement_moves))
            if sum(moves[-1]) == 0:
                break

        insert_ms: List[float] = []
        remove_ms: List[float] = []
        adapt_ms: List[float] = []
        order = list(live)  # live ids, for O(1) uniform victim draws
        next_id = sz.queries
        for _ in range(sz.churn_rounds):
            for _ in range(sz.pairs_per_round):
                i = rng.randrange(len(order))
                victim, order[i] = order[i], order[-1]
                order.pop()
                _, secs = timed(cosmos.remove, victim)
                remove_ms.append(1000.0 * secs)
                del live[victim]
                note(cosmos, live)
                q = self._query(next_id, processors, space, rng)
                next_id += 1
                _, secs = timed(cosmos.insert, q)
                insert_ms.append(1000.0 * secs)
                live[q.query_id] = q
                order.append(q.query_id)
                note(cosmos, live)
            _, secs = timed(cosmos.adapt)
            adapt_ms.append(1000.0 * secs)
            note(cosmos, live)
        return {
            "live": live,
            "ops": calls,
            # figures the report prints besides the end-to-end metrics
            "distribute_s": distribute_s,
            "converge_s": converge_s,
            "insert_ms": insert_ms,
            "remove_ms": remove_ms,
            "adapt_ms": adapt_ms,
            "warmup_move_share": sum(moves[0]) / sz.queries,
        }

    def unit(self, seed: int, refs: bool = True) -> Dict:
        """One timed unit; ``refs=False`` leaves the reference kernel out."""
        return self._drive(self.size, seed, refs=refs)

    def check(self, seed: int) -> Tuple[int, int]:
        """After every ``Cosmos`` call: each live query sits on a live
        processor and no removed query remains in the placement."""
        counts = [0, 0]

        def after_call(cosmos, live):
            counts[0] += 1
            if _placement_violations(cosmos, live):
                counts[1] += 1

        self._drive(self.check_size, seed, after_call)
        return counts[0], counts[1]


def _placement_violations(cosmos: Cosmos, live: Dict[int, QuerySpec]) -> int:
    placement = cosmos.placement
    alive = set(cosmos.processors)
    missing = sum(1 for qid in live if placement.get(qid) not in alive)
    stale = sum(1 for qid in placement if qid not in live)
    return missing + stale


WORKLOADS = {
    "stream": StreamWorkload,
    "shared": SharedWorkload,
    "optimizer": OptimizerWorkload,
}
