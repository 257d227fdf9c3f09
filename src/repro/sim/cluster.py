"""The discrete-event cluster simulator: COSMOS end to end.

Runs the whole middleware over simulated time: one
:class:`~repro.engine.executor.Engine` per processor, source tuples
generated per substream at the space's (possibly shifting) rates,
dissemination over the real content-based pub/sub overlay
(:class:`~repro.pubsub.network.PubSubNetwork` on a minimum-latency
spanning tree) with shortest-path transit delays, and the coordinator
hierarchy adapting placements from loads *measured* on the running
engines (Section 3.7/3.8 closed-loop, not the static estimates the
figure experiments use).

Correctness model
-----------------
A tuple emitted at time ``t`` reaches a query hosted at processor ``h``
after the overlay path latency; the engine processes each query's
inputs in timestamp order behind a per-query reordering slack equal to
the query's worst input-path delay (the standard out-of-order handling
of stream engines).  Because every query therefore consumes its inputs
in emission order, the distributed execution is *result-equivalent* to
a single giant engine hosting every query -- the oracle
(:func:`oracle_results`) the churn tests compare against.  Migrations
move the compiled plan object (window state included) between engines,
so adaptation rounds never lose or duplicate results; they only add the
state-handoff delay to the moved query's deliveries.

Determinism: all randomness flows from one ``numpy`` seed through
:class:`numpy.random.SeedSequence` spawns, and all timing through the
heap-based :class:`~repro.sim.events.EventLoop`, so two runs of the same
scenario produce bit-identical traces.

Data planes
-----------
With ``ScenarioParams.use_batches`` (the default) the tuple path runs
columnar: same-substream tuples emitted within one mean source
inter-arrival coalesce into a single
:meth:`~repro.pubsub.network.PubSubNetwork.publish_batch` (one
forwarding probe per hop per batch, link bytes accounted per row), and
released rows reach the engines as
:class:`~repro.engine.tuples.TupleBatch`\\ es through one drain event
per batch instead of one release event per tuple.  Emission events stay
per-tuple (the rng draw order defines the workload), every
control-plane event (churn, migration rounds, hot spots, sampling)
flushes the coalescing buffers first, and per-query deliveries stay in
timestamp order -- so traces, results, link traffic and CPU counters
are bit-identical to ``use_batches=False``, the per-tuple reference
plane (``tests/test_batch_parity.py``).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.cosmos import Cosmos, CosmosConfig
from ..engine.executor import Engine
from ..obs.observer import Observer
from ..engine.plans import QueryPlan
from ..engine.tuples import StreamTuple, TupleBatch
from ..pubsub.messages import Event
from ..pubsub.network import PubSubNetwork
from ..pubsub.subscriptions import Subscription
from ..topology.latency import LatencyOracle, select_roles
from ..topology.overlay import minimum_latency_spanning_tree
from ..topology.transit_stub import TransitStubParams, generate_transit_stub
from ..query.interest import SubstreamSpace
from .events import EventLoop
from .trace import AdaptationMark, SimTrace, TraceSample
from .workload import (
    VALUE_DOMAIN,
    SimQuery,
    SimQueryFactory,
    SimWorkloadParams,
    stream_name,
)

__all__ = [
    "ChurnParams",
    "HotSpotShift",
    "ScenarioParams",
    "SimCluster",
    "SimReport",
    "run_scenario",
    "oracle_results",
]


@dataclass(frozen=True)
class ChurnParams:
    """Query arrival/departure process (both exponential)."""

    arrival_rate: float = 0.5  # queries per second
    mean_lifetime: float = 20.0  # seconds


@dataclass(frozen=True)
class HotSpotShift:
    """A runtime rate perturbation: ``substreams`` random substreams get
    their rates multiplied by ``factor`` at time ``at`` (Figure 10's I/D
    steps, driven from inside the simulation)."""

    at: float = 15.0
    substreams: int = 10
    factor: float = 3.0


@dataclass(frozen=True)
class ScenarioParams:
    """Run-level knobs of a simulation scenario."""

    duration: float = 30.0
    sample_interval: float = 5.0
    #: period of Section 3.7 adaptation rounds (None disables adaptation)
    adapt_interval: Optional[float] = 10.0
    #: "cosmos" = Algorithm 1+2 initial distribution; "skewed" = pile the
    #: initial queries on a few processors (the Figure 7 adopt scenario)
    initial_placement: str = "cosmos"
    churn: Optional[ChurnParams] = None
    hotspot: Optional[HotSpotShift] = None
    #: per-state-tuple serialisation cost added to a migration's handoff
    handoff_ms_per_tuple: float = 0.05
    #: route dissemination through the counting forwarding index (False =
    #: the reference scan path; traces must be identical either way)
    use_index: bool = True
    #: coalesce same-substream tuples emitted within one source
    #: inter-arrival window into a single batch publish + batched engine
    #: deliveries (False = the per-tuple scalar data plane; full-run
    #: traces, results, link traffic and cpu_costs must be identical
    #: either way)
    use_batches: bool = True
    #: shared multi-query execution (Section 2): per-processor groups of
    #: overlapping queries execute ONE merged superset plan, with
    #: ``p^1`` source subscriptions carrying the merged filters for early
    #: dropping and per-member ``p^2`` split subscriptions carving each
    #: user's results out of the group result stream at the proxies.
    #: ``False`` (the default) is the unshared plane, bit-identical to
    #: the pre-sharing simulator; ``True`` must still deliver exactly the
    #: per-user-query results of the single-engine oracle.
    use_sharing: bool = False
    #: scheduled fault/membership events (see :mod:`repro.sim.faults`);
    #: the empty default leaves every existing trace bit-identical
    faults: Tuple[object, ...] = ()
    #: recovery policy name (key of ``RECOVERY_POLICIES``)
    recovery: str = "checkpoint"
    #: period of window-state checkpoints to the hierarchy root (None
    #: disables checkpointing; crashes then restore into empty windows)
    checkpoint_interval: Optional[float] = None
    #: extra processors selected but kept outside the initial membership,
    #: available to :class:`~repro.sim.faults.ProcessorJoin` events
    spare_processors: int = 0
    #: delta-maintained optimizer state across adaptation rounds (False
    #: selects the full-rebuild reference mode; placements are
    #: bit-identical either way)
    opt_incremental: bool = True


@dataclass
class _QueryState:
    """Runtime state of one query inside the cluster.

    On the shared plane (``use_sharing=True``) a query does not own a
    plan or a source subscription -- its group does -- so ``sub``/``plan``
    stay ``None`` and the sharing fields at the bottom point at the
    group and the member's ``p^2`` result subscription instead.
    """

    simq: SimQuery
    host: int
    sub: Optional[Subscription]
    plan: Optional[QueryPlan]
    #: reordering slack: worst input-path delay (seconds)
    slack: float
    #: release time assigned to the latest delivered tuple (monotone)
    last_release: float = 0.0
    #: batch plane: ``last_release`` as of the last control-plane event.
    #: Within a control-free window the scalar release chain collapses to
    #: ``max(ts + slack, release_floor)`` per row (timestamps are merged
    #: in order, so earlier chain links never dominate), which makes the
    #: release of a row independent of *publish* order -- coalesced
    #: batches of different substreams may publish out of timestamp order
    last_release_floor: float = 0.0
    #: earliest time deliveries may resume after a migration handoff
    ready: float = 0.0
    #: scalar-plane pending deliveries: (tuple, release) in FIFO order;
    #: releases are non-decreasing, and keeping them lets a release event
    #: verify the head's time really has come (a force-drain can leave
    #: stale events behind)
    pending: Deque[Tuple[StreamTuple, float]] = field(default_factory=deque)
    #: batch-mode pending deliveries: (timestamp, emit seq, tuple,
    #: release) kept sorted by (timestamp, seq) -- the order the scalar
    #: path delivers in.  Release times are non-decreasing along it.
    pending_rel: List[Tuple[float, int, StreamTuple, float]] = field(
        default_factory=list
    )
    #: latest scheduled (not yet fired) drain event time, for dedup: a
    #: pending drain at T delivers every row with release <= T, so no
    #: extra event is needed for rows releasing at or before T
    drain_at: float = float("-inf")
    alive: bool = True
    detached: bool = False
    cpu_at_sample: int = 0
    cpu_at_adapt: int = 0
    results: List[StreamTuple] = field(default_factory=list)
    #: per-query latency accumulators for the current sample interval;
    #: merged in query-id order at each sample so the scalar and batch
    #: paths sum floats in one canonical order
    lat_sum: float = 0.0
    lat_max: float = 0.0
    #: shared plane: the group this member executes in
    group: Optional[int] = None
    #: shared plane: the member's ``p^2`` split result subscription
    result_sub: Optional[Subscription] = None
    #: shared plane: when the member joined (its carve's lower time bound)
    added_at: float = 0.0

    @property
    def name(self) -> str:
        return self.simq.name

    @property
    def substreams(self) -> Tuple[int, ...]:
        """Input substreams (delivery units expose these uniformly)."""
        return self.simq.substreams


@dataclass
class _GroupState:
    """One shared group: the delivery unit of the shared data plane.

    Carries exactly the release/drain machinery a :class:`_QueryState`
    carries on the unshared plane (the event-loop delivery code treats
    either as its "unit"), plus the merged plan and the subscription
    bookkeeping of the group.  All members of a group read the *same*
    streams (mergeability requires aligned bindings), so one reordering
    slack and one release chain serve the whole group.
    """

    gid: int
    host: int
    #: the merged superset query the plan executes.  Monotone: it only
    #: ever *widens* (member joins widen the plan in place; member
    #: departures must not narrow it, because the join-window state the
    #: survivors still need was built under the wide version).
    executed: Query
    plan: QueryPlan
    result_stream: str
    #: current advertisement of ``result_stream`` (re-issued on migration)
    adv: object
    #: live member query ids, join order
    members: List[int] = field(default_factory=list)
    #: every query id that ever executed here (CPU attribution at report)
    all_members: List[int] = field(default_factory=list)
    #: input substreams, founder binding order
    substreams: Tuple[int, ...] = ()
    streams: Tuple[str, ...] = ()
    #: installed ``p^1`` source subscriptions (merged filters)
    p1_subs: List[Subscription] = field(default_factory=list)
    slack: float = 0.0
    last_release: float = 0.0
    last_release_floor: float = 0.0
    ready: float = 0.0
    pending: Deque[Tuple[StreamTuple, float]] = field(default_factory=deque)
    pending_rel: List[Tuple[float, int, StreamTuple, float]] = field(
        default_factory=list
    )
    drain_at: float = float("-inf")
    alive: bool = True
    detached: bool = False
    #: engine CPU counter snapshots (per-group; shares attributed to members)
    cpu_at_sample: int = 0
    cpu_at_adapt: int = 0

    @property
    def name(self) -> str:
        return self.plan.query.name


@dataclass
class SimReport:
    """Everything a scenario run produced."""

    trace: SimTrace
    queries: Dict[int, SimQuery]
    placement: Dict[int, int]
    tuples_emitted: int
    events_processed: int
    #: per-query result tuple values, only when ``record=True``
    results: Optional[Dict[int, List[Dict]]] = None
    #: ordered action log (tuple / add / remove), only when ``record=True``
    actions: Optional[List[Tuple[str, object]]] = None
    #: final per-link data traffic, only when ``record=True``
    link_bytes: Optional[Dict[Tuple[int, int], float]] = None
    #: final per-query engine CPU counters, only when ``record=True``.
    #: On the shared plane these are per-group totals attributed equally
    #: to every query that ever executed in the group (floats).
    cpu_costs: Optional[Dict[int, float]] = None
    #: user queries submitted over the whole run
    user_queries: int = 0
    #: plans that actually executed: equals ``user_queries`` on the
    #: unshared plane, the number of shared groups with ``use_sharing``
    executed_queries: int = 0
    #: ordered fault/membership/recovery log (empty without faults)
    fault_log: List[Dict] = field(default_factory=list)


class SimCluster:
    """Engines + pub/sub + coordinator tree under one event loop."""

    def __init__(
        self,
        *,
        oracle: LatencyOracle,
        sources: List[int],
        processors: List[int],
        space: SubstreamSpace,
        cosmos: Cosmos,
        params: ScenarioParams,
        factory: SimQueryFactory,
        arrival_rng: np.random.Generator,
        value_rng: np.random.Generator,
        churn_rng: Optional[np.random.Generator] = None,
        fault_rng: Optional[np.random.Generator] = None,
        spares: Optional[List[int]] = None,
        seed: int = 0,
        record: bool = False,
        observer: Optional[Observer] = None,
    ):
        self.oracle = oracle
        self.sources = list(sources)
        self.processors = list(processors)
        self.space = space
        self.cosmos = cosmos
        self.params = params
        self.factory = factory
        self.arrival_rng = arrival_rng
        self.value_rng = value_rng
        self.churn_rng = churn_rng
        self.spares = list(spares or [])
        self.record = record

        self.loop = EventLoop()
        #: optional :class:`repro.obs.Observer`.  Read-only taps: spans,
        #: metrics and profiler sections all consume state the simulation
        #: computes anyway, so ``obs`` never changes a run's behaviour.
        #: Wired before the network exists so even construction-time
        #: broker activity (source advertisements) is metered.
        self.obs = observer
        if observer is not None:
            self.loop.profiler = observer.profiler
        self.trace = SimTrace(seed=seed)
        overlay = minimum_latency_spanning_tree(
            self.sources + self.processors + self.spares, oracle
        )
        self.network = PubSubNetwork(
            overlay, record_deliveries=False, use_index=params.use_index
        )
        self.network.observer = observer
        from ..pubsub.subscriptions import Advertisement

        for sid in range(len(space)):
            self.network.advertise(
                int(space.source_of[sid]), Advertisement(stream=stream_name(sid))
            )
        self.engines: Dict[int, Engine] = {
            p: Engine(node=p, use_batches=params.use_batches)
            for p in self.processors
        }
        self.queries: Dict[int, _QueryState] = {}
        self._by_sub: Dict[int, int] = {}
        #: shared plane state.  Source deliveries resolve through
        #: ``_by_sub`` to a *delivery unit* id -- a query id on the
        #: unshared plane, a group id (``_by_sub`` maps ``p^1`` sub ids)
        #: on the shared one -- and ``_units`` is the matching dict, so
        #: the release/drain machinery is identical on both planes.
        self._sharing = params.use_sharing
        self.groups: Dict[int, _GroupState] = {}
        self._units: Dict[int, object] = self.groups if self._sharing else self.queries
        self._next_gid = 0
        self._host_groups: Dict[int, List[int]] = {}
        #: ``p^2`` result subscription id -> member query id
        self._by_result_sub: Dict[int, int] = {}
        #: group id -> member query ids with an installed ``p^2`` sub
        #: (join order; departed members linger until their carve drains)
        self._res_listeners: Dict[int, List[int]] = {}
        self._pindex = {p: i for i, p in enumerate(self.processors)}
        self._emit_gen: List[int] = [0] * len(space)

        self.duration = params.duration
        self.tuples_emitted = 0
        self.results_total = 0
        self.migrations = 0
        self._interval_results = 0
        self._last_sample_t = 0.0
        self.actions: Optional[List[Tuple[str, object]]] = [] if record else None

        #: batch data plane: per-substream (emit seq, tuple) rows awaiting
        #: the coalesced publish, plus stats on coalescing effectiveness
        self._batching = params.use_batches
        self._src_pending: List[List[Tuple[int, StreamTuple]]] = [
            [] for _ in range(len(space))
        ]
        self._emit_seq = 0
        self.batch_publishes = 0

        #: ordered fault/membership/recovery log (always present; empty
        #: without configured faults)
        self.fault_log: List[Dict] = []
        self.faults = None
        if params.faults or params.checkpoint_interval is not None:
            from .faults import FaultInjector

            self.faults = FaultInjector(self, fault_rng, params)

    # ------------------------------------------------------------------
    # latency helpers
    # ------------------------------------------------------------------
    def _slack(self, simq: SimQuery, host: int) -> float:
        """Reordering slack (s): the query's worst input transit delay."""
        return max(
            self.network.path_latency(int(self.space.source_of[sid]), host)
            for sid in simq.substreams
        ) / 1000.0

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def add_query(self, simq: SimQuery, host: int) -> _QueryState:
        """Install a query on its host engine and subscribe its inputs."""
        if self._sharing:
            return self._shared_add(simq, host)
        # the new subscription changes routing tables: coalesced batches
        # emitted under the old tables must be published first
        self._flush_batches()
        engine = self.engines[host]
        plan = engine.add_query(simq.ast, result_stream=f"out_{simq.name}")
        sub = Subscription.to_streams(simq.streams)
        self.network.subscribe(host, sub)
        qs = _QueryState(
            simq=simq,
            host=host,
            sub=sub,
            plan=plan,
            slack=self._slack(simq, host),
            last_release=self.loop.now,
            last_release_floor=self.loop.now,
        )
        self.queries[simq.query_id] = qs
        self._by_sub[sub.sub_id] = simq.query_id
        if self.actions is not None:
            self.actions.append(("add", simq))
        return qs

    # ------------------------------------------------------------------
    # shared plane: group lifecycle
    # ------------------------------------------------------------------
    def _shared_add(self, simq: SimQuery, host: int) -> _QueryState:
        """Install a query into a shared group on ``host``.

        The query joins the first live group on its host it is mergeable
        with (widening the group's plan *in place*, so existing window
        state survives) or founds a new one.  The member's ``p^2`` split
        subscription carves its results out of the group result stream at
        its proxy; the carve carries a lower time bound at ``now`` so the
        member never receives results derived from inputs that predate it
        (its own freshly-compiled plan would have started with empty
        windows -- the single-engine oracle semantics).
        """
        from ..query.merging import merge_all, merge_queries, mergeable, split_subscription

        self._flush_batches()
        now = self.loop.now
        replaced = 0
        gs: Optional[_GroupState] = None
        for gid in self._host_groups.get(host, ()):
            cand = self.groups[gid]
            if cand.alive and mergeable(cand.executed, simq.ast):
                gs = cand
                break
        if gs is None:
            gs = self._found_group(simq, host)
        else:
            widened = merge_queries(gs.executed, simq.ast, name=gs.name)
            gs.plan.widen_to(widened)
            gs.executed = widened
            gs.members.append(simq.query_id)
            gs.all_members.append(simq.query_id)
            # merged filters may have weakened: replace the p^1 set (old
            # set torn down first) and repair covering holes the
            # teardown opened for other groups on the same streams.  The
            # filters track the *live* members' hull -- tighter than the
            # monotone executed query whenever departures narrowed it
            self._install_p1(
                gs,
                query=merge_all(
                    [self.queries[qid].simq.ast for qid in gs.members[:-1]]
                    + [simq.ast],
                    name=gs.name,
                ),
            )
            # existing members' carves were built against the previous
            # merged query; windows that just grew past a member's own
            # window need a (new) timestamp_lag band, so recompute them.
            # Once the group's hull stabilises the recomputed carve is
            # unchanged and the member keeps its installed subscription.
            for qid in gs.members[:-1]:
                mqs = self.queries[qid]
                carve = split_subscription(
                    gs.executed, mqs.simq.ast, gs.result_stream,
                    emitted_after=mqs.added_at,
                )
                old = mqs.result_sub
                if (
                    old is not None
                    and old.streams == carve.streams
                    and old.projection == carve.projection
                    and old.filter == carve.filter
                ):
                    continue
                self._replace_result_sub(mqs, carve)
                replaced += 1
        qs = _QueryState(
            simq=simq,
            host=host,
            sub=None,
            plan=None,
            slack=gs.slack,
            last_release=now,
            last_release_floor=now,
            group=gs.gid,
            added_at=now,
        )
        self.queries[simq.query_id] = qs
        self._replace_result_sub(
            qs,
            split_subscription(
                gs.executed, simq.ast, gs.result_stream, emitted_after=now
            ),
        )
        # replacing subscriptions tears old ones down one at a time; when
        # that happened, one forced pass over the group's installed p^2
        # set (departed members' capped carves included -- they listen
        # until their drain) closes any covering hole a removal opened
        if replaced:
            for qid in self._res_listeners.get(gs.gid, ()):
                mqs = self.queries[qid]
                self.network.subscribe(
                    mqs.simq.spec.proxy, mqs.result_sub, force=True
                )
        if self.actions is not None:
            self.actions.append(("add", simq))
        return qs

    def _found_group(self, simq: SimQuery, host: int) -> _GroupState:
        """Create a fresh group executing ``simq`` alone."""
        from ..pubsub.subscriptions import Advertisement
        from ..query.ast import Query as QueryAst

        gid = self._next_gid
        self._next_gid += 1
        name = f"shared_g{gid}"
        executed = QueryAst(
            select=simq.ast.select,
            bindings=simq.ast.bindings,
            where=simq.ast.where,
            name=name,
        )
        result_stream = f"shared::{gid}"
        engine = self.engines[host]
        plan = engine.add_query(executed, result_stream=result_stream)
        adv = Advertisement(stream=result_stream)
        self.network.advertise(host, adv)
        gs = _GroupState(
            gid=gid,
            host=host,
            executed=executed,
            plan=plan,
            result_stream=result_stream,
            adv=adv,
            members=[simq.query_id],
            all_members=[simq.query_id],
            substreams=simq.substreams,
            streams=simq.streams,
            slack=self._slack(simq, host),
            last_release=self.loop.now,
            last_release_floor=self.loop.now,
        )
        self.groups[gid] = gs
        self._host_groups.setdefault(host, []).append(gid)
        self._install_p1(gs)
        return gs

    def _install_p1(self, gs: _GroupState, query=None) -> None:
        """(Re)install a group's ``p^1`` set; old subscriptions go first.

        ``query`` defaults to the group's executed query; departures pass
        the survivors' (narrower) hull instead.  Leaving the stale set
        installed would accumulate subscriptions on the processor forever
        and, whenever a re-merge narrows the hull, keep pulling tuples
        nobody needs.  The teardown can open covering holes for other
        groups' subscriptions on the same streams, so they are repaired
        by forced re-propagation.  A re-merge that leaves every filter
        where it was (the common case once a group's hull stabilises) is
        a no-op: nothing is torn down, so nothing needs repair.
        """
        from ..query.merging import source_subscriptions

        fresh = source_subscriptions(query if query is not None else gs.executed)
        if len(fresh) == len(gs.p1_subs) and all(
            old.streams == new.streams
            and old.projection == new.projection
            and old.filter == new.filter
            for old, new in zip(gs.p1_subs, fresh)
        ):
            return
        had_old = bool(gs.p1_subs)
        touched = set(gs.streams)
        for sub in gs.p1_subs:
            self.network.unsubscribe(sub.sub_id)
            self._by_sub.pop(sub.sub_id, None)
        gs.p1_subs = fresh
        for sub in gs.p1_subs:
            self.network.subscribe(gs.host, sub)
            self._by_sub[sub.sub_id] = gs.gid
        if had_old:
            self._refresh_subscriptions(streams=touched)

    def _replace_result_sub(self, qs: _QueryState, sub: Subscription) -> None:
        """Swap a member's ``p^2`` subscription for ``sub`` at its proxy."""
        if qs.result_sub is not None:
            self.network.unsubscribe(qs.result_sub.sub_id)
            self._by_result_sub.pop(qs.result_sub.sub_id, None)
        qs.result_sub = sub
        self._by_result_sub[sub.sub_id] = qs.simq.query_id
        listeners = self._res_listeners.setdefault(qs.group, [])
        if qs.simq.query_id not in listeners:
            listeners.append(qs.simq.query_id)
        self.network.subscribe(qs.simq.spec.proxy, sub)

    def _shared_remove(self, query_id: int) -> None:
        """Member departure on the shared plane.

        The member's carve gets an upper time bound at ``now`` (results
        derived from later inputs belong only to the survivors), its
        group's membership shrinks -- the merged plan itself stays wide:
        narrowing it would rebuild operators and lose the window state
        the survivors still need -- and the ``p^1`` filters narrow to the
        survivors' hull.  The capped subscription is finally torn down
        once every input emitted before the departure has drained.
        """
        from ..query.merging import merge_all, split_subscription

        qs = self.queries[query_id]
        if not qs.alive:
            return
        self._flush_batches()
        now = self.loop.now
        qs.alive = False
        gs = self.groups[qs.group]
        self._annotate_pending(
            gs, "query_remove", query=query_id, group=gs.gid
        )
        if self.actions is not None:
            self.actions.append(("remove", qs.simq))
        self._replace_result_sub(
            qs,
            split_subscription(
                gs.executed, qs.simq.ast, gs.result_stream,
                emitted_after=qs.added_at, emitted_before=now,
            ),
        )
        # the cap tore the member's old subscription down: repair any
        # covering hole that opened for the group's other listeners
        for qid in self._res_listeners.get(gs.gid, ()):
            if qid == query_id:
                continue
            lqs = self.queries[qid]
            self.network.subscribe(
                lqs.simq.spec.proxy, lqs.result_sub, force=True
            )
        gs.members.remove(query_id)
        if gs.members:
            # p^1 filters narrow to the survivors' hull; the plan's own
            # (wider) select keeps running -- tuples the narrowed filters
            # drop cannot contribute to any survivor's carved results
            survivors = merge_all(
                [self.queries[qid].simq.ast for qid in gs.members],
                name=gs.name,
            )
            self._install_p1(gs, query=survivors)
            self.loop.schedule(
                max(now, gs.last_release),
                partial(self._shared_detach_member, query_id),
            )
        else:
            # last member out: the group retires with it
            gs.alive = False
            for sub in gs.p1_subs:
                self.network.unsubscribe(sub.sub_id)
                self._by_sub.pop(sub.sub_id, None)
            gs.p1_subs = []
            self._refresh_subscriptions(streams=set(gs.streams))
            self.loop.schedule(
                max(now, gs.last_release),
                partial(self._shared_detach_group, gs.gid),
            )
            self.loop.schedule(
                max(now, gs.last_release),
                partial(self._shared_detach_member, query_id),
            )

    def _shared_detach_member(self, query_id: int) -> None:
        """Finish a member departure once its group drained.

        Mirrors :meth:`_detach`: inputs emitted before the departure may
        still sit in the group's pending buffers when a migration pause
        pushed their release events to this very instant but behind this
        event in the queue -- deliver them first (later inputs ride along
        early; the departed member's upper time bound keeps them out of
        its carve, and survivors receive identical content either way).
        """
        qs = self.queries[query_id]
        if qs.detached:
            return
        gs = self.groups[qs.group]
        if not gs.detached:
            self._drain_unit_completely(gs)
        qs.detached = True
        if qs.result_sub is not None:
            self.network.unsubscribe(qs.result_sub.sub_id)
            self._by_result_sub.pop(qs.result_sub.sub_id, None)
            qs.result_sub = None
        listeners = self._res_listeners.get(qs.group)
        if listeners and query_id in listeners:
            listeners.remove(query_id)

    def _shared_detach_group(self, gid: int) -> None:
        """Tear a retired group down after its drain: deliver what is in
        flight, remove the merged plan, retire the result stream."""
        gs = self.groups[gid]
        if gs.detached:
            return
        self._drain_unit_completely(gs)
        gs.detached = True
        plan = self.engines[gs.host].remove_query(gs.name)
        if self.obs is not None:
            self.obs.plan_retired(gs.host, gs.name, plan)
        self.network.unadvertise(gs.adv.adv_id)
        host_list = self._host_groups.get(gs.host)
        if host_list and gid in host_list:
            host_list.remove(gid)

    def _drain_unit_completely(self, unit) -> None:
        """Deliver everything pending on a unit, releases regardless."""
        while unit.pending:
            self._deliver_now(unit, unit.pending.popleft()[0])
        if unit.pending_rel:
            rows = [(t, self.loop.now) for _, _, t, _ in unit.pending_rel]
            unit.pending_rel.clear()
            self._deliver_rows(unit, rows)

    def remove_query(self, query_id: int) -> None:
        """Query departure: stop deliveries now, detach after the drain.

        The subscription is torn down immediately (no new tuples), but
        the plan stays on its engine until every already-delivered tuple
        has been processed, so the distributed run emits exactly the
        results a single-engine oracle does for the same action order.
        """
        if self._sharing:
            self._shared_remove(query_id)
            return
        qs = self.queries[query_id]
        if not qs.alive:
            return
        self._flush_batches()
        qs.alive = False
        self._annotate_pending(qs, "query_remove", query=query_id)
        if self.actions is not None:
            self.actions.append(("remove", qs.simq))
        self.network.unsubscribe(qs.sub.sub_id)
        self._by_sub.pop(qs.sub.sub_id, None)
        self._refresh_subscriptions(streams=set(qs.simq.streams))
        self.loop.schedule(
            max(self.loop.now, qs.last_release), partial(self._detach, query_id)
        )

    def _detach(self, query_id: int) -> None:
        qs = self.queries[query_id]
        if qs.detached:
            return
        # deliver anything still in flight first: a migration can push
        # last_release past already-scheduled release events, making them
        # fire (rescheduled) at the same instant as this detach but after
        # it in the queue -- dropping them would diverge from the oracle,
        # which processes every tuple emitted before the departure
        while qs.pending:
            self._deliver_now(qs, qs.pending.popleft()[0])
        if qs.pending_rel:
            # batch mode: rows still pending here were paused past their
            # release (migration handoff) -- the scalar plane's detach
            # loop above delivers exactly those at loop.now as well
            rows = [(t, self.loop.now) for _, _, t, _ in qs.pending_rel]
            qs.pending_rel.clear()
            self._deliver_rows(qs, rows)
        qs.detached = True
        plan = self.engines[qs.host].remove_query(qs.name)
        if self.obs is not None:
            self.obs.plan_retired(qs.host, qs.name, plan)

    def _refresh_subscriptions(self, streams: Optional[set] = None) -> None:
        """Re-propagate live subscriptions (optionally: only those sharing
        a stream with ``streams``).

        Covering-based tables prune a subscription whose propagation an
        identical earlier one made redundant; when that earlier one is
        torn down (migration, departure) the pruned path must be
        re-announced.  Re-subscribing is idempotent, so this simply fills
        the gaps the removal opened.  On the shared plane the live source
        subscriptions are the groups' ``p^1`` sets.
        """
        if self._sharing:
            for gid in sorted(self.groups):
                gs = self.groups[gid]
                if not gs.alive or gs.detached:
                    continue
                if streams is not None and not (streams & set(gs.streams)):
                    continue
                for sub in gs.p1_subs:
                    self.network.subscribe(gs.host, sub, force=True)
            return
        for qs in self.queries.values():
            if not qs.alive or qs.detached:
                continue
            if streams is not None and not (streams & set(qs.simq.streams)):
                continue
            self.network.subscribe(qs.host, qs.sub, force=True)

    def _annotate_pending(self, unit, kind: str, **fields) -> None:
        """Annotate the spans of every tuple still queued on ``unit``.

        Lifecycle events (migration, crash, removal) touch tuples that
        are in flight; their provenance spans record the event so a
        reader can see why a delivery was delayed or lost.
        """
        obs = self.obs
        if obs is None or obs.spans is None:
            return
        spans = obs.spans
        now = self.loop.now
        for tup, _release in unit.pending:
            spans.annotate(tup, kind, now, **fields)
        for _ts, _seq, tup, _release in unit.pending_rel:
            spans.annotate(tup, kind, now, **fields)

    def _migrate(self, query_id: int, new_host: int) -> float:
        """Move a query's plan (state included) to ``new_host``.

        Charges the overlay for the state transfer and pauses the query's
        deliveries for the handoff delay; returns the state size moved.
        """
        qs = self.queries[query_id]
        old = qs.host
        self._annotate_pending(qs, "migrate", query=query_id, src=old,
                               dst=new_host)
        plan = self.engines[old].remove_query(qs.name)
        self.engines[new_host].adopt_plan(plan)
        self.network.unsubscribe(qs.sub.sub_id)
        qs.host = new_host
        self.network.subscribe(new_host, qs.sub)
        qs.slack = self._slack(qs.simq, new_host)
        state_tuples = float(plan.state_size())
        lat_ms = self.network.account_path(old, new_host, max(1.0, state_tuples))
        handoff_s = (
            lat_ms + state_tuples * self.params.handoff_ms_per_tuple
        ) / 1000.0
        qs.ready = self.loop.now + handoff_s
        qs.last_release = max(qs.last_release, qs.ready)
        # a migration is a control-plane event: every already-emitted row
        # has been published (the adapt round flushed), so the scalar
        # release chain restarts from the bumped value
        qs.last_release_floor = qs.last_release
        self.migrations += 1
        return state_tuples

    def _migrate_group(self, gid: int, new_host: int) -> float:
        """Move a whole shared group -- plan, state, subscriptions.

        A merged plan is one unit of window state: its members execute
        together or not at all, so adaptation moves the group wholesale.
        The result stream is re-homed (old advertisement retired, a fresh
        one flooded from the new host) and every member's ``p^2``
        subscription re-propagates toward it with ``force=True``; the
        handoff pauses the *group's* deliveries, exactly like a
        single-query migration pauses one query.
        """
        from ..pubsub.subscriptions import Advertisement

        gs = self.groups[gid]
        old = gs.host
        self._annotate_pending(gs, "migrate", group=gid, src=old,
                               dst=new_host)
        plan = self.engines[old].remove_query(gs.name)
        self.engines[new_host].adopt_plan(plan)
        for sub in gs.p1_subs:
            self.network.unsubscribe(sub.sub_id)
            self._by_sub.pop(sub.sub_id, None)
        gs.host = new_host
        for sub in gs.p1_subs:
            self.network.subscribe(new_host, sub)
            self._by_sub[sub.sub_id] = gid
        self.network.unadvertise(gs.adv.adv_id)
        gs.adv = Advertisement(stream=gs.result_stream)
        self.network.advertise(new_host, gs.adv)
        for qid in gs.members:
            mqs = self.queries[qid]
            mqs.host = new_host
            self.network.subscribe(
                mqs.simq.spec.proxy, mqs.result_sub, force=True
            )
        gs.slack = max(
            self.network.path_latency(int(self.space.source_of[sid]), new_host)
            for sid in gs.substreams
        ) / 1000.0
        state_tuples = float(plan.state_size())
        lat_ms = self.network.account_path(old, new_host, max(1.0, state_tuples))
        handoff_s = (
            lat_ms + state_tuples * self.params.handoff_ms_per_tuple
        ) / 1000.0
        gs.ready = self.loop.now + handoff_s
        gs.last_release = max(gs.last_release, gs.ready)
        gs.last_release_floor = gs.last_release
        self.migrations += 1
        host_list = self._host_groups.get(old)
        if host_list and gid in host_list:
            host_list.remove(gid)
        self._host_groups.setdefault(new_host, []).append(gid)
        return state_tuples

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _emit(self, sid: int, gen: int) -> None:
        """One source tuple of substream ``sid``; reschedules itself.

        ``gen`` is the substream's emission-chain generation: a hot-spot
        shift bumps it and starts a fresh chain at the new rate, which
        both revives substreams whose chain had run past the horizon and
        applies the new rate immediately; the superseded chain sees the
        stale generation and dies here.

        On the batch data plane the tuple is not published here: it joins
        the substream's coalescing buffer, and the buffer's first row
        schedules the batch publish one mean inter-arrival later
        (:meth:`_flush_substream`).  Drawing values/arrivals stays in
        this per-tuple event so the rng consumption order -- and hence
        every generated tuple -- is identical on both planes.
        """
        if gen != self._emit_gen[sid]:
            return
        t = self.loop.now
        tup = StreamTuple(
            stream_name(sid),
            {
                "value": int(self.value_rng.integers(0, VALUE_DOMAIN)),
                "timestamp": t,
            },
        )
        if self.actions is not None:
            self.actions.append(("tuple", tup))
        rate = float(self.space.rates[sid])
        self._emit_seq += 1
        obs = self.obs
        if (
            obs is not None
            and obs.spans is not None
            and obs.spans.wants(self._emit_seq)
        ):
            obs.spans.begin(self._emit_seq, sid, tup, t)
        if self._batching:
            pending = self._src_pending[sid]
            pending.append((self._emit_seq, tup))
            if len(pending) == 1:
                # coalescing window: one mean source inter-arrival (a
                # dead substream's lone row flushes immediately)
                window = 1.0 / rate if rate > 1e-12 else 0.0
                self.loop.schedule(
                    t + window, partial(self._flush_substream, sid)
                )
        else:
            self._publish_rows(sid, [(self._emit_seq, tup)])
        self.tuples_emitted += 1
        if rate > 1e-12:
            nxt = t + float(self.arrival_rng.exponential(1.0 / rate))
            if nxt <= self.duration:
                self.loop.schedule(nxt, partial(self._emit, sid, gen))

    def _publish_rows(
        self, sid: int, rows: List[Tuple[int, StreamTuple]]
    ) -> None:
        """Publish (seq, tuple) rows of one substream; queue deliveries.

        The scalar plane calls this once per tuple (one content-based
        probe each); the batch plane once per coalesced buffer (one probe
        for the whole batch, link traffic still accounted per row).
        Release times follow the scalar formula ``max(ts + slack,
        last_release)``; along a query's timestamp order that equals
        ``max(ts + slack, last_release at publish)`` for every row, so
        computing them batch-at-a-time yields the scalar values.
        """
        if self._sharing:
            self._publish_rows_shared(sid, rows)
            return
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("dissemination")
        source = int(self.space.source_of[sid])
        if spans is not None:
            for seq, tup in rows:
                span = spans.lookup(tup)
                if span is not None:
                    span.hop(
                        "publish", self.loop.now, substream=sid, source=source
                    )
        if self._batching:
            deliveries = self.network.publish_batch(
                source, stream_name(sid), len(rows)
            )
            self.batch_publishes += 1
        else:
            tup0 = rows[0][1]
            event = Event(stream=tup0.stream, attributes=tup0.values, size=1.0)
            deliveries = self.network.publish(source, event)
        for _node, _ev, sub in deliveries:
            query_id = self._by_sub.get(sub.sub_id)
            if query_id is None:
                continue
            qs = self.queries[query_id]
            if not self._batching:
                tup = rows[0][1]
                release = max(tup.timestamp + qs.slack, qs.last_release)
                qs.last_release = release
                qs.pending.append((tup, release))
                if spans is not None:
                    span = spans.lookup(tup)
                    if span is not None:
                        span.hop(
                            "queued", self.loop.now, query=query_id,
                            host=qs.host, release=round(release, 9),
                            overlay_hops=len(
                                self.network.tree.path(source, qs.host)
                            ) - 1,
                        )
                self.loop.schedule(
                    release, partial(self._release_one, query_id)
                )
                continue
            release_last = 0.0
            for seq, tup in rows:
                release = max(tup.timestamp + qs.slack, qs.last_release_floor)
                qs.last_release = max(qs.last_release, release)
                # sorted insert by (timestamp, emission seq): rows of
                # *other* substreams may already sit in pending_rel with
                # later timestamps (their batch flushed earlier)
                bisect.insort(qs.pending_rel, (tup.timestamp, seq, tup, release))
                release_last = release
                if spans is not None:
                    span = spans.lookup(tup)
                    if span is not None:
                        span.hop(
                            "queued", self.loop.now, query=query_id,
                            host=qs.host, release=round(release, 9),
                            overlay_hops=len(
                                self.network.tree.path(source, qs.host)
                            ) - 1,
                        )
            when = max(release_last, self.loop.now)
            if when > qs.drain_at:
                qs.drain_at = when
                self.loop.schedule(when, partial(self._drain_query, query_id))
        if profiler is not None:
            profiler.stop()

    def _publish_rows_shared(self, sid: int, rows: List[Tuple[int, StreamTuple]]) -> None:
        """Publish one substream's rows on the shared plane.

        The groups' ``p^1`` subscriptions carry content filters (the
        merged selection hulls), so every row is routed individually --
        early dropping *is* per-row content matching; an attribute-free
        representative batch event would defeat it.
        :meth:`PubSubNetwork.route` routes and charges each row exactly
        as a per-row publish would, from memoised routing state.  The
        batch plane still wins engine-side: a coalesced buffer's
        surviving rows reach each group through its sorted pending list
        and drain as TupleBatch pushes.
        """
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("dissemination")
        source = int(self.space.source_of[sid])
        if spans is not None:
            for seq, tup in rows:
                span = spans.lookup(tup)
                if span is not None:
                    span.hop(
                        "publish", self.loop.now, substream=sid, source=source
                    )
        per_unit: Dict[int, List[Tuple[int, StreamTuple]]] = {}
        order: List[int] = []
        routed = self.network.route(
            source, stream_name(sid), [tup.values for _seq, tup in rows]
        )
        by_sub = self._by_sub
        for row, deliveries in zip(rows, routed):
            for _node, sub, _attrs in deliveries:
                gid = by_sub.get(sub.sub_id)
                if gid is None:
                    continue
                bucket = per_unit.get(gid)
                if bucket is None:
                    per_unit[gid] = bucket = []
                    order.append(gid)
                bucket.append(row)
        if self._batching:
            self.batch_publishes += 1
        for gid in order:
            gs = self.groups[gid]
            unit_rows = per_unit[gid]
            if not self._batching:
                (seq, tup) = unit_rows[0]
                release = max(tup.timestamp + gs.slack, gs.last_release)
                gs.last_release = release
                gs.pending.append((tup, release))
                if spans is not None:
                    span = spans.lookup(tup)
                    if span is not None:
                        span.hop(
                            "queued", self.loop.now, group=gid, host=gs.host,
                            release=round(release, 9),
                            overlay_hops=len(
                                self.network.tree.path(source, gs.host)
                            ) - 1,
                        )
                self.loop.schedule(release, partial(self._release_one, gid))
                continue
            release_last = 0.0
            for seq, tup in unit_rows:
                release = max(tup.timestamp + gs.slack, gs.last_release_floor)
                gs.last_release = max(gs.last_release, release)
                bisect.insort(gs.pending_rel, (tup.timestamp, seq, tup, release))
                release_last = release
                if spans is not None:
                    span = spans.lookup(tup)
                    if span is not None:
                        span.hop(
                            "queued", self.loop.now, group=gid, host=gs.host,
                            release=round(release, 9),
                            overlay_hops=len(
                                self.network.tree.path(source, gs.host)
                            ) - 1,
                        )
            when = max(release_last, self.loop.now)
            if when > gs.drain_at:
                gs.drain_at = when
                self.loop.schedule(when, partial(self._drain_query, gid))
        if profiler is not None:
            profiler.stop()

    def _flush_substream(self, sid: int) -> None:
        """Publish a substream's coalesced rows as one batch."""
        rows = self._src_pending[sid]
        if not rows:
            return
        self._src_pending[sid] = []
        self._publish_rows(sid, rows)

    def _flush_batches(self) -> None:
        """Publish every coalesced buffer now (batch plane only).

        Called before any control-plane change (subscription add/remove,
        migration round, rate shift, sampling): the buffered rows were
        emitted under the *current* routing tables and host placements,
        and publishing them early is always safe -- matching, releases
        and accounting depend only on state that has not changed since
        their emission.
        """
        if not self._batching:
            return
        for sid in range(len(self._src_pending)):
            if self._src_pending[sid]:
                self._flush_substream(sid)
        for unit_id in sorted(self._units):
            qs = self._units[unit_id]
            if not qs.detached and qs.pending_rel:
                self._drain_ready(qs)

    def _release_one(self, unit_id: int) -> None:
        """Deliver the oldest pending tuple of a unit to its plan.

        Pending tuples form a FIFO per delivery unit (query, or shared
        group), so deliveries happen in emission order even when a
        migration's handoff pause reschedules release events.
        """
        qs = self._units[unit_id]
        if qs.detached or not qs.pending:
            return
        if self.loop.now < qs.ready:
            self.loop.schedule(qs.ready, partial(self._release_one, unit_id))
            return
        tup, release = qs.pending[0]
        if self.loop.now < release:
            # stale event: its own tuple was force-drained earlier (member
            # departure, crash recovery).  The head tuple's own release
            # event is still queued and will deliver it on time.
            return
        qs.pending.popleft()
        self._deliver_now(qs, tup)

    def _drain_query(self, unit_id: int) -> None:
        """Deliver a unit's released batch rows (batch plane)."""
        qs = self._units.get(unit_id)
        if qs is None or qs.detached:
            return
        if self.loop.now >= qs.drain_at:
            qs.drain_at = float("-inf")
        if not qs.pending_rel:
            return
        if self.loop.now < qs.ready:
            if qs.ready > qs.drain_at:
                qs.drain_at = qs.ready
                self.loop.schedule(
                    qs.ready, partial(self._drain_query, unit_id)
                )
            return
        # a two-input query must consume its inputs in timestamp order:
        # rows of its *other* substream emitted before now may still sit
        # in a coalescing buffer (their flush is later) -- publish them
        # first so pending_rel holds every row that can precede the
        # released prefix (flushing early is always safe)
        for sid in qs.substreams:
            if self._src_pending[sid]:
                self._flush_substream(sid)
        self._drain_ready(qs)

    def _drain_ready(self, qs) -> None:
        """Deliver the prefix of ``pending_rel`` whose release has come.

        Each row is accounted at ``max(release, ready)`` -- exactly when
        the scalar path's per-tuple release event would have delivered it
        (its event fires at ``release``, or is pushed to ``ready`` by a
        migration handoff pause).
        """
        now = self.loop.now
        if now < qs.ready:
            return
        pend = qs.pending_rel
        k = 0
        while k < len(pend) and pend[k][3] <= now:
            k += 1
        if not k:
            return
        rows = [(tup, max(release, qs.ready)) for _, _, tup, release in pend[:k]]
        del pend[:k]
        self._deliver_rows(qs, rows)

    def _deliver_rows(
        self, qs, rows: List[Tuple[StreamTuple, float]]
    ) -> None:
        """Deliver (tuple, delivery-time) rows as same-stream batches.

        For join-less plans (no window state, so scalar and batch pushes
        are freely interchangeable), single-row runs skip the columnar
        round trip: ``push_query`` is the same computation
        (bit-identical results and counters) without the batch assembly
        overhead, which matters when low traffic or frequent control
        events shrink batches to one row.  Join plans always go columnar
        -- their ``ColumnWindow`` state must see every row.
        """
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("operator_exec")
        engine = self.engines[qs.host]
        scalar_ok = qs.plan.join is None
        i = 0
        while i < len(rows):
            j = i
            stream = rows[i][0].stream
            while j < len(rows) and rows[j][0].stream == stream:
                j += 1
            tracked = None
            if spans is not None:
                tracked = [
                    span
                    for tup, _ in rows[i:j]
                    for span in (spans.lookup(tup),)
                    if span is not None
                ]
                before = qs.plan.operator_counters() if tracked else None
            if scalar_ok and j - i == 1:
                tup, at = rows[i]
                self._account_results(
                    qs, tup, engine.push_query(qs.name, tup), at
                )
            else:
                batch = TupleBatch.from_tuples(
                    stream, [tup for tup, _ in rows[i:j]]
                )
                per_row = engine.push_query_batch(qs.name, batch)
                for (tup, at), results in zip(rows[i:j], per_row):
                    self._account_results(qs, tup, results, at)
            if tracked:
                after = qs.plan.operator_counters()
                delta = {
                    key: after[key] - before.get(key, 0)
                    for key in after
                    if after[key] != before.get(key, 0)
                }
                for span in tracked:
                    span.annotate(
                        "operators", self.loop.now, rows=j - i,
                        counters=delta,
                    )
            i = j
        if profiler is not None:
            profiler.stop()

    def _deliver_now(self, qs, tup: StreamTuple) -> None:
        """Push one tuple into a query's plan and account its results."""
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        spans = obs.spans if obs is not None else None
        if profiler is not None:
            profiler.start("operator_exec")
        span = spans.lookup(tup) if spans is not None else None
        before = qs.plan.operator_counters() if span is not None else None
        results = self.engines[qs.host].push_query(qs.name, tup)
        if span is not None:
            after = qs.plan.operator_counters()
            delta = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] != before.get(key, 0)
            }
            span.annotate("operators", self.loop.now, rows=1, counters=delta)
        self._account_results(qs, tup, results, self.loop.now)
        if profiler is not None:
            profiler.stop()

    def _account_group_results(
        self,
        gs: _GroupState,
        tup: StreamTuple,
        results: List[StreamTuple],
        at: float,
    ) -> None:
        """Publish a merged plan's results; members carve at their proxies.

        Every result of the merged query is routed on the group's result
        stream through the pub/sub network; each delivery is one
        member's ``p^2`` subscription matching (residual selections,
        window bands, lifetime span), and is accounted against *that*
        member -- latency is the input's age at delivery plus the
        host-to-proxy transit, traffic is charged per overlay link by
        the route itself.
        """
        obs = self.obs
        span = None
        if obs is not None and obs.spans is not None:
            span = obs.spans.lookup(tup)
            if span is not None:
                span.hop(
                    "engine", at, group=gs.gid, host=gs.host,
                    results=len(results),
                )
        if not results:
            return
        routed = self.network.route(
            gs.host, gs.result_stream, [r.values for r in results]
        )
        carved: Optional[Dict[int, int]] = {} if span is not None else None
        transit: Dict[int, float] = {}
        base = at - tup.timestamp
        for r, deliveries in zip(results, routed):
            for node, sub, attrs in deliveries:
                query_id = self._by_result_sub.get(sub.sub_id)
                if query_id is None:
                    continue
                if carved is not None:
                    carved[query_id] = carved.get(query_id, 0) + 1
                qs = self.queries[query_id]
                node_s = transit.get(node)
                if node_s is None:
                    node_s = transit[node] = (
                        self.network.path_latency(gs.host, node) / 1000.0
                    )
                latency = base + node_s
                self._interval_results += 1
                qs.lat_sum += latency
                if latency > qs.lat_max:
                    qs.lat_max = latency
                self.results_total += 1
                if self.record:
                    values = r.values
                    delivered = (
                        dict(values) if attrs is None
                        else {k: v for k, v in values.items() if k in attrs}
                    )
                    qs.results.append(StreamTuple(gs.result_stream, delivered))
        if span is not None:
            for qid in sorted(carved):
                span.hop(
                    "carve", at, group=gs.gid, member=qid, results=carved[qid]
                )

    def _account_results(
        self,
        qs,
        tup: StreamTuple,
        results: List[StreamTuple],
        at: float,
    ) -> None:
        """Account one delivered tuple's results (latency, proxy traffic)."""
        if self._sharing:
            self._account_group_results(qs, tup, results, at)
            return
        obs = self.obs
        span = None
        if obs is not None and obs.spans is not None:
            span = obs.spans.lookup(tup)
            if span is not None:
                span.hop(
                    "engine", at, query=qs.simq.query_id, host=qs.host,
                    results=len(results),
                )
        if not results:
            return
        proxy = qs.simq.spec.proxy
        proxy_ms = 0.0
        if qs.host != proxy:
            proxy_ms = self.network.account_path(qs.host, proxy, float(len(results)))
        latency = (at - tup.timestamp) + proxy_ms / 1000.0
        if span is not None:
            span.hop(
                "sink", at, query=qs.simq.query_id, proxy=proxy,
                results=len(results), latency=round(latency, 9),
            )
        for r in results:
            self._interval_results += 1
            qs.lat_sum += latency
            if latency > qs.lat_max:
                qs.lat_max = latency
            self.results_total += 1
            if self.record:
                qs.results.append(r)

    # ------------------------------------------------------------------
    # dynamics: churn, hot spots, adaptation, sampling
    # ------------------------------------------------------------------
    def _churn_arrival(self, churn: ChurnParams) -> None:
        simq = self.factory.make()
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("coordinator")
        host = self.cosmos.insert(simq.spec)
        if profiler is not None:
            profiler.stop()
        self.add_query(simq, host)
        self.trace.mark(self.loop.now, "query_add", simq.name)
        lifetime = float(self.churn_rng.exponential(churn.mean_lifetime))
        self.loop.schedule(
            self.loop.now + lifetime,
            partial(self._churn_departure, simq.query_id),
        )
        nxt = self.loop.now + float(
            self.churn_rng.exponential(1.0 / churn.arrival_rate)
        )
        if nxt <= self.duration:
            self.loop.schedule(nxt, partial(self._churn_arrival, churn))

    def _churn_departure(self, query_id: int) -> None:
        qs = self.queries.get(query_id)
        if qs is None or not qs.alive:
            return
        self.trace.mark(self.loop.now, "query_remove", qs.name)
        self.cosmos.remove(query_id)
        self.remove_query(query_id)

    def _hotspot(self, substream_ids: List[int], factor: float) -> None:
        self._flush_batches()
        self.space.perturb_rates(substream_ids, factor)
        # restart each affected substream's emission chain at the new rate
        # (also revives chains whose next arrival had run past the horizon)
        for sid in substream_ids:
            self._emit_gen[sid] += 1
            rate = float(self.space.rates[sid])
            if rate > 1e-12:
                nxt = self.loop.now + float(
                    self.arrival_rng.exponential(1.0 / rate)
                )
                if nxt <= self.duration:
                    self.loop.schedule(
                        nxt, partial(self._emit, sid, self._emit_gen[sid])
                    )
        self.trace.mark(
            self.loop.now, "hotspot", f"{len(substream_ids)}x{factor:g}"
        )

    def _measured_loads(self, dt: float, counter: str) -> Dict[int, float]:
        """Per-query loads from engine CPU counters since the last round.

        On the shared plane the engine only meters merged plans, so each
        group's CPU delta is attributed back to its live members in equal
        shares -- the per-query numbers the optimizer's refresh
        (Section 3.8) expects, measured on what actually executed.
        """
        loads: Dict[int, float] = {}
        if self._sharing:
            for gid in sorted(self.groups):
                gs = self.groups[gid]
                cpu = gs.plan.cpu_cost()
                delta = cpu - getattr(gs, counter)
                setattr(gs, counter, cpu)
                members = [
                    qid for qid in gs.members
                    if self.queries[qid].alive and not self.queries[qid].detached
                ]
                if not members:
                    continue
                share = delta / len(members) / dt
                for qid in members:
                    loads[qid] = share
            return loads
        for query_id, qs in self.queries.items():
            if not qs.alive or qs.detached:
                continue
            cpu = qs.plan.cpu_cost()
            loads[query_id] = (cpu - getattr(qs, counter)) / dt
            setattr(qs, counter, cpu)
        return loads

    def _placement_stddev(self, loads: Dict[int, float]) -> float:
        per_host = np.zeros(len(self.processors))
        for query_id, load in loads.items():
            qs = self.queries[query_id]
            if not qs.alive:
                continue
            per_host[self._pindex[qs.host]] += load
        return float(np.std(per_host))

    def _adapt_round(self) -> None:
        """One Section 3.7 round driven by *measured* engine loads."""
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("coordinator")
        # measured loads must include every delivery the scalar plane
        # would have processed by now; migrations change hosts/tables
        self._flush_batches()
        dt = self.params.adapt_interval
        loads = self._measured_loads(dt, "cpu_at_adapt")
        if loads:
            stddev_before = self._placement_stddev(loads)
            cpu0 = self.cosmos.total_time()
            self.cosmos.refresh_measured_loads(loads)
            self.cosmos.adapt()
            moved = 0
            moved_state = 0.0
            moved_streams: set = set()
            if self._sharing:
                # a shared plan moves as one unit: the group follows the
                # majority of its members' new placements (ties to the
                # smallest host id), so the optimizer's per-query wishes
                # steer groups without splitting their window state
                for gid in sorted(self.groups):
                    gs = self.groups[gid]
                    if not gs.alive or not gs.members:
                        continue
                    votes: Dict[int, int] = {}
                    for qid in gs.members:
                        host = self.cosmos.placement.get(qid)
                        if host is not None:
                            votes[host] = votes.get(host, 0) + 1
                    if not votes:
                        continue
                    target = min(
                        votes, key=lambda h: (-votes[h], h)
                    )
                    if target != gs.host:
                        moved_state += self._migrate_group(gid, target)
                        moved += len(gs.members)
                        moved_streams.update(gs.streams)
            else:
                for query_id in loads:
                    qs = self.queries[query_id]
                    new_host = self.cosmos.placement.get(query_id)
                    if new_host is not None and new_host != qs.host:
                        moved_state += self._migrate(query_id, new_host)
                        moved += 1
                        moved_streams.update(qs.simq.streams)
            if moved:
                # only subscriptions overlapping a moved query's streams
                # can have been left with coverage holes
                self._refresh_subscriptions(streams=moved_streams)
            self.trace.adaptations.append(
                AdaptationMark(
                    t=self.loop.now,
                    stddev_before=stddev_before,
                    stddev_after=self._placement_stddev(loads),
                    migrated_queries=moved,
                    moved_state=moved_state,
                    optimizer_cpu_s=self.cosmos.total_time() - cpu0,
                )
            )
        if profiler is not None:
            profiler.stop()
        nxt = self.loop.now + dt
        if nxt <= self.duration:
            self.loop.schedule(nxt, self._adapt_round)

    def _sample(self, closing: bool = False) -> None:
        obs = self.obs
        profiler = obs.profiler if obs is not None else None
        if profiler is not None:
            profiler.start("sampling")
        # the sample must observe every delivery the scalar plane has
        # processed by this instant
        self._flush_batches()
        # actual elapsed interval: equals sample_interval for periodic
        # samples, but the closing sample covers only the drain tail
        dt = max(self.loop.now - self._last_sample_t, 1e-9)
        self._last_sample_t = self.loop.now
        loads = self._measured_loads(dt, "cpu_at_sample")
        n = self._interval_results
        # merge per-query latency accumulators in query-id order: one
        # canonical float summation order on both data planes
        lat_sum = 0.0
        lat_max = 0.0
        for query_id in sorted(self.queries):
            qs = self.queries[query_id]
            lat_sum += qs.lat_sum
            if qs.lat_max > lat_max:
                lat_max = qs.lat_max
            qs.lat_sum = 0.0
            qs.lat_max = 0.0
        self.trace.samples.append(
            TraceSample(
                t=self.loop.now if not closing else max(self.loop.now, self.duration),
                throughput=n / dt,
                mean_latency=lat_sum / n if n else 0.0,
                max_latency=lat_max,
                load_stddev=self._placement_stddev(loads),
                alive_queries=sum(1 for q in self.queries.values() if q.alive),
                migrations_total=self.migrations,
                data_bytes=float(sum(self.network.link_bytes.values())),
                control_bytes=float(sum(self.network.control_bytes.values())),
                results_total=self.results_total,
            )
        )
        self._interval_results = 0
        if not closing:
            nxt = self.loop.now + dt
            if nxt <= self.duration:
                self.loop.schedule(nxt, self._sample)
        if profiler is not None:
            profiler.stop()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the initial event population."""
        for sid in range(len(self.space)):
            rate = float(self.space.rates[sid])
            if rate > 1e-12:
                first = float(self.arrival_rng.exponential(1.0 / rate))
                if first <= self.duration:
                    self.loop.schedule(first, partial(self._emit, sid, 0))
        if self.params.sample_interval <= self.duration:
            self.loop.schedule(self.params.sample_interval, self._sample)
        if (
            self.params.adapt_interval is not None
            and self.params.adapt_interval <= self.duration
        ):
            self.loop.schedule(self.params.adapt_interval, self._adapt_round)
        if self.faults is not None:
            self.faults.schedule()

    def run(self) -> None:
        """Run to the horizon, then drain in-flight deliveries."""
        self.loop.run_until(self.duration)
        self.loop.run()  # nothing reschedules past the horizon
        if self._interval_results:
            self._sample(closing=True)  # catch the drain tail


def run_scenario(
    *,
    seed: int = 0,
    topology: Optional[TransitStubParams] = None,
    num_sources: int = 4,
    num_processors: int = 8,
    workload: SimWorkloadParams = SimWorkloadParams(),
    scenario: ScenarioParams = ScenarioParams(),
    cosmos_config: Optional[CosmosConfig] = None,
    record: bool = False,
    observer: Optional[Observer] = None,
) -> SimReport:
    """Build a cluster and run one scenario end to end.

    Everything -- topology, role selection, substream space, query
    population, tuple arrivals, churn -- derives from ``seed`` via
    :class:`numpy.random.SeedSequence` spawns, so equal seeds give
    bit-identical :class:`SimReport` traces.  With ``record=True`` the
    report additionally carries the ordered action log and every
    query's result tuples, which :func:`oracle_results` can replay on a
    single engine for correctness checks.

    ``observer`` attaches the observability layer
    (:class:`~repro.obs.observer.Observer`): provenance spans, the
    metrics registry and the subsystem profiler.  Observation is
    strictly read-only -- it draws no random numbers, schedules no
    events and feeds no wall-clock values back into the simulation, so
    the report is bit-identical with or without it.
    """
    if observer is not None:
        observer.begin(seed)
    profiler = observer.profiler if observer is not None else None
    if profiler is not None:
        profiler.start("setup")
    # the 9th spawn feeds fault-target resolution; SeedSequence spawning
    # is prefix-stable, so the first 8 streams -- and with them every
    # fault-free trace -- are bit-identical to the spawn(8) era
    spawned = np.random.SeedSequence(seed).spawn(9)
    rngs = [np.random.default_rng(s) for s in spawned]
    (topo_rng, roles_rng, space_rng, factory_rng,
     arrival_rng, value_rng, churn_rng, hotspot_rng, fault_rng) = rngs

    topo = generate_transit_stub(
        topology
        or TransitStubParams(
            transit_domains=2, transit_nodes=3,
            stubs_per_transit_node=2, stub_nodes=4,
        ),
        rng=topo_rng,
    )
    oracle = LatencyOracle(topo)
    sources, processors = select_roles(
        topo,
        num_sources,
        num_processors + scenario.spare_processors,
        rng=roles_rng,
    )
    # spares sit in the overlay from the start (brokers and all) but stay
    # outside the engine/coordinator membership until a ProcessorJoin
    spares = processors[num_processors:]
    processors = processors[:num_processors]
    space = SubstreamSpace.random(
        workload.num_substreams,
        sources,
        rate_range=workload.rate_range,
        rng=space_rng,
    )
    factory = SimQueryFactory(space, processors, workload, factory_rng)
    initial = factory.make_batch(workload.num_queries)
    specs = [q.spec for q in initial]

    cosmos = Cosmos(
        oracle,
        processors,
        space,
        cosmos_config
        or CosmosConfig(
            k=4, vmax=60, seed=seed, incremental=scenario.opt_incremental
        ),
    )
    if scenario.initial_placement == "skewed":
        hosts = processors[: max(1, len(processors) // 8)]
        cosmos.adopt(
            specs,
            {q.query_id: hosts[i % len(hosts)] for i, q in enumerate(specs)},
        )
    elif scenario.initial_placement == "cosmos":
        cosmos.distribute(specs)
    else:
        raise ValueError(
            f"unknown initial placement {scenario.initial_placement!r}"
        )

    cluster = SimCluster(
        oracle=oracle,
        sources=sources,
        processors=processors,
        space=space,
        cosmos=cosmos,
        params=scenario,
        factory=factory,
        arrival_rng=arrival_rng,
        value_rng=value_rng,
        churn_rng=churn_rng,
        fault_rng=fault_rng,
        spares=spares,
        seed=seed,
        record=record,
        observer=observer,
    )
    for simq in initial:
        cluster.add_query(simq, cosmos.placement[simq.query_id])
    if scenario.churn is not None:
        first = float(churn_rng.exponential(1.0 / scenario.churn.arrival_rate))
        if first <= scenario.duration:
            cluster.loop.schedule(
                first, partial(cluster._churn_arrival, scenario.churn)
            )
    if scenario.hotspot is not None and scenario.hotspot.at <= scenario.duration:
        count = min(scenario.hotspot.substreams, len(space))
        chosen = [
            int(s)
            for s in hotspot_rng.choice(len(space), size=count, replace=False)
        ]
        cluster.loop.schedule(
            scenario.hotspot.at,
            partial(cluster._hotspot, chosen, scenario.hotspot.factor),
        )
    if profiler is not None:
        profiler.stop()
    cluster.start()
    cluster.run()
    if observer is not None:
        observer.finish(cluster)

    results = None
    link_bytes = None
    cpu_costs = None
    if record:
        results = {
            query_id: [dict(t.values) for t in qs.results]
            for query_id, qs in cluster.queries.items()
        }
        link_bytes = dict(cluster.network.link_bytes)
        if scenario.use_sharing:
            # the engine meters merged plans; attribute each group's
            # total equally over every query that ever executed in it
            cpu_costs = {}
            for gid in sorted(cluster.groups):
                gs = cluster.groups[gid]
                share = gs.plan.cpu_cost() / max(1, len(gs.all_members))
                for qid in gs.all_members:
                    cpu_costs[qid] = cpu_costs.get(qid, 0.0) + share
        else:
            cpu_costs = {
                query_id: qs.plan.cpu_cost()
                for query_id, qs in cluster.queries.items()
            }
    return SimReport(
        trace=cluster.trace,
        queries={qid: qs.simq for qid, qs in cluster.queries.items()},
        placement=dict(cosmos.placement),
        tuples_emitted=cluster.tuples_emitted,
        events_processed=cluster.loop.processed,
        results=results,
        actions=cluster.actions,
        link_bytes=link_bytes,
        cpu_costs=cpu_costs,
        user_queries=len(cluster.queries),
        executed_queries=(
            len(cluster.groups) if scenario.use_sharing else len(cluster.queries)
        ),
        fault_log=cluster.fault_log,
    )


def oracle_results(
    actions: List[Tuple[str, object]]
) -> Dict[int, List[Dict]]:
    """Replay a recorded action log on ONE engine hosting every query.

    The ground truth for distributed execution: since the cluster
    delivers each query's inputs in emission order (see the module
    docstring), pushing the same tuples in the same global order through
    a single engine must produce exactly the same result tuples per
    query, churn included.
    """
    engine = Engine()
    out: Dict[int, List[Dict]] = {}

    def _sink(bucket: List[Dict], t: StreamTuple) -> None:
        bucket.append(dict(t.values))

    for kind, payload in actions:
        if kind == "tuple":
            engine.push(payload)
        elif kind == "add":
            simq: SimQuery = payload
            engine.add_query(simq.ast, result_stream=f"out_{simq.name}")
            bucket: List[Dict] = []
            out[simq.query_id] = bucket
            engine.on_result(simq.name, partial(_sink, bucket))
        elif kind == "remove":
            engine.remove_query(payload.name)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown action kind {kind!r}")
    return out
