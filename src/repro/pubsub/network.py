"""The broker overlay network: routing, delivery and traffic accounting.

:class:`PubSubNetwork` ties :class:`~repro.pubsub.broker.Broker` instances
to an acyclic overlay (:class:`~repro.topology.overlay.OverlayTree`) and
implements the three Siena protocols the paper relies on:

* **advertise** -- flood an advertisement so every broker knows which
  neighbour leads back to each source (Figure 2(a));
* **subscribe** -- reverse-path propagate a subscription toward the
  advertisers of intersecting advertisements, stopping where a covering
  subscription has already been forwarded (Figure 2(b), including the
  merge-at-``n1`` behaviour via covering);
* **publish** -- content-based forwarding: each event crosses each overlay
  link at most once, is projected down to the attributes still needed
  downstream, and is delivered to every matching local subscriber
  (Figure 2(d)).

:meth:`PubSubNetwork.route` is the same forwarding, memoised: it
compiles the broker tables of one stream into a per-source routing
program and caches each distinct per-row outcome until the next control
change, so high-rate content-filtered streams skip the hop walk while
delivering and charging exactly what :meth:`PubSubNetwork.publish`
would.

Every forwarded byte is accounted per link, so experiments can report the
*measured* weighted communication cost (sum of per-link rate x latency)
next to the optimizer's WEC estimate.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

from ..topology.overlay import OverlayTree
from .broker import Broker
from .messages import Event
from .routing import LOCAL
from .subscriptions import Advertisement, Subscription

__all__ = ["PubSubNetwork"]


def _edge(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


#: one local delivery of a routed row: ``(node, subscription, attrs)``,
#: where ``attrs`` names the row attributes the subscriber receives
#: (``None`` = all of them)
Delivery = Tuple[int, Subscription, Optional[FrozenSet[str]]]


class _Route:
    """The compiled routing program of one (source, stream) pair.

    ``hops`` maps every broker an event of the stream could reach from
    the source to its LOCAL entries and its forwarding interfaces, each
    entry reduced to a slot in ``matchers`` (one compiled filter per
    distinct filter object) plus its projection.  ``outcomes`` caches
    the walk per distinct match vector.
    """

    __slots__ = ("source", "matchers", "attrs", "hops", "projects", "outcomes")

    def __init__(self, source: int):
        self.source = source
        self.matchers: List[Any] = []
        #: constrained attributes per matcher slot
        self.attrs: List[FrozenSet[str]] = []
        self.hops: Dict[int, tuple] = {}
        #: whether some forwarding entry projects (then the outcome also
        #: depends on which attributes a row carries)
        self.projects = False
        self.outcomes: Dict[tuple, "_Outcome"] = {}


class _Outcome:
    """What routing one row does: its deliveries and its link charges."""

    __slots__ = (
        "deliveries", "nodes", "charges", "integral", "probes", "rows"
    )

    def __init__(self, deliveries, charges, probes):
        self.deliveries: Tuple[Delivery, ...] = tuple(deliveries)
        self.nodes = tuple(node for node, _sub, _attrs in deliveries)
        #: ((normalised link, bytes), ...) in hop-walk order
        self.charges: Tuple[Tuple[Tuple[int, int], float], ...] = tuple(
            charges
        )
        self.integral = all(size.is_integer() for _e, size in charges)
        #: brokers the walk visited (one table probe each in publish)
        self.probes = probes
        #: rows of the current :meth:`PubSubNetwork.route` call
        self.rows = 0


class PubSubNetwork:
    """A content-based pub/sub service over an overlay tree."""

    def __init__(
        self,
        tree: OverlayTree,
        record_deliveries: bool = True,
        use_index: bool = True,
    ):
        if not tree.is_tree():
            raise ValueError("pub/sub overlay must be an acyclic connected tree")
        self.tree = tree
        self.use_index = use_index
        self.brokers: Dict[int, Broker] = {
            n: Broker(
                node=n, record_deliveries=record_deliveries, use_index=use_index
            )
            for n in tree.nodes
        }
        #: cumulative data bytes forwarded per link
        self.link_bytes: Dict[Tuple[int, int], float] = {}
        #: cumulative control bytes (advertisement/subscription propagation)
        self.control_bytes: Dict[Tuple[int, int], float] = {}
        self._subscriber_node: Dict[int, int] = {}
        #: adv_id -> (source node, advertisement): which broker each
        #: advertisement was flooded from, so a departing broker's
        #: advertisements can be retired with it
        self._advertiser: Dict[int, Tuple[int, Advertisement]] = {}
        #: partitioned overlay links (normalised pairs): events do not
        #: cross them and no bytes are charged while they are down
        self.down_links: Set[Tuple[int, int]] = set()
        #: (u, v) -> (edge list, latency ms) memo for :meth:`account_path`
        self._path_cache: Dict[Tuple[int, int], Tuple[list, float]] = {}
        #: normalised pair -> latency ms memo for :meth:`path_latency`
        self._latency_ms: Dict[Tuple[int, int], float] = {}
        #: control-plane version: bumped by every change to routing
        #: state (subscribe / unsubscribe / advertise / unadvertise,
        #: broker resets, link partitions), so routing-derived state can
        #: be memoised and invalidated exactly when tables may have changed
        self.version = 0
        #: stream -> {source: compiled :class:`_Route`}.  Routes read
        #: subscription tables and down links only, so a control change
        #: drops the routes of exactly the streams it can have touched
        self._routes: Dict[str, Dict[int, _Route]] = {}
        #: sub_id -> every stream it was subscribed for (whose routes its
        #: unsubscribe drops)
        self._sub_streams: Dict[int, FrozenSet[str]] = {}
        #: optional :class:`repro.obs.Observer`; when set, its metrics
        #: registry receives broker-level counters (probes, forwards,
        #: suppressions, repairs).  Reads only -- never affects routing.
        self.observer = None

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def advertise(self, source: int, adv: Advertisement, size: float = 1.0) -> None:
        """Flood ``adv`` from ``source`` over the whole tree."""
        self.version += 1
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.inc("broker.advertisements")
        self._advertiser[adv.adv_id] = (source, adv)
        self._broker(source).table.add_advertisement(adv, LOCAL)
        queue = deque([(source, None)])
        while queue:
            node, came_from = queue.popleft()
            for nbr in self.tree.neighbors(node):
                if nbr == came_from:
                    continue
                self._account(self.control_bytes, node, nbr, size)
                self._broker(nbr).table.add_advertisement(adv, node)
                queue.append((nbr, node))

    def subscribe(
        self, node: int, sub: Subscription, size: float = 1.0,
        force: bool = False,
    ) -> None:
        """Install ``sub`` for a subscriber attached at ``node``.

        Propagation follows advertisement pointers toward intersecting
        sources and stops early when coverage makes forwarding redundant.

        ``force=True`` re-propagates all the way to the advertisers even
        through brokers that already know the subscription.  The early
        stops assume the Siena invariant "a recorded subscription has
        been forwarded upstream", which :meth:`unsubscribe` (a tree-wide
        delete, not a protocol walk) breaks: tearing down a subscription
        that covered an identical one from another subscriber leaves the
        survivor's path with a hole *beyond* the brokers that still have
        its entries.  Long-running systems (the discrete-event simulator's
        migration rounds) repair such holes by re-subscribing with
        ``force=True``; the call is idempotent.
        """
        self.version += 1
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.inc("broker.subscribes")
            if force:
                obs.registry.inc("broker.covering_repairs")
        broker = self._broker(node)
        self._subscriber_node[sub.sub_id] = node
        # a re-declared sub_id replaces its older entries, whose streams
        # may differ: drop the routes of both
        streams = self._sub_streams.get(sub.sub_id, frozenset()) | sub.streams
        self._sub_streams[sub.sub_id] = streams
        self._drop_routes(streams)
        broker.table.add_subscription(sub, LOCAL)
        self._propagate(node, sub, from_iface=LOCAL, size=size, force=force)

    def _propagate(
        self, node: int, sub: Subscription, from_iface, size: float,
        force: bool = False,
    ) -> None:
        broker = self._broker(node)
        targets = broker.table.advertiser_interfaces(sub)
        for iface in targets:
            if iface == from_iface:
                continue
            if not force and broker.table.covered_upstream(sub, toward=iface):
                obs = self.observer
                if obs is not None and obs.registry is not None:
                    obs.registry.inc("broker.covering_suppressions")
                continue
            nbr = iface
            assert isinstance(nbr, int)
            # every attempted forward is a real message (the sender cannot
            # know the remote table already holds the subscription), so it
            # is charged whether or not the table changes
            self._account(self.control_bytes, node, nbr, size)
            changed = self._broker(nbr).table.add_subscription(sub, node)
            if changed or force:
                self._propagate(nbr, sub, from_iface=node, size=size, force=force)

    def unsubscribe(self, sub_id: int) -> None:
        """Remove a subscription everywhere (tree-wide)."""
        self.version += 1
        self._subscriber_node.pop(sub_id, None)
        self._drop_routes(self._sub_streams.pop(sub_id, None))
        for broker in self.brokers.values():
            broker.table.remove_subscription(sub_id)

    def unadvertise(self, adv_id: int) -> None:
        """Retire an advertisement everywhere (tree-wide).

        The teardown counterpart of :meth:`advertise`, used when a result
        stream stops being produced (a shared group retiring) or moves to
        another node (a shared plan migrating -- retire, then re-advertise
        from the new host).  Like :meth:`unsubscribe` it is modelled as a
        tree-wide delete rather than a protocol walk, so no control
        traffic is charged; subscriptions that had propagated toward the
        old advertiser keep their entries and are repaired by the
        caller's ``subscribe(..., force=True)`` pass.
        """
        self.version += 1
        entry = self._advertiser.pop(adv_id, None)
        if entry is not None:
            # a retired stream's routes go with it
            self._drop_routes((entry[1].stream,))
        for broker in self.brokers.values():
            broker.table.remove_advertisement(adv_id)

    # ------------------------------------------------------------------
    # faults & membership
    # ------------------------------------------------------------------
    def remove_broker(self, node: int) -> Tuple[List[int], List[int]]:
        """Tear down everything *attached* at a departing broker.

        Subscriptions installed at ``node`` are unsubscribed tree-wide,
        and advertisements flooded *from* ``node`` are retired through
        :meth:`unadvertise` -- a departed broker was the sole advertiser
        of its own streams, so leaving them in place would keep dangling
        routes pointing at a producer that no longer exists.  The broker
        itself keeps forwarding (the overlay tree is immutable; the node
        stays as a pure router), which is exactly the graceful-departure
        model of the simulator.  Returns the removed (sub_ids, adv_ids).
        """
        subs = [sid for sid, n in self._subscriber_node.items() if n == node]
        advs = [
            adv_id
            for adv_id, (src, _adv) in self._advertiser.items()
            if src == node
        ]
        for sub_id in subs:
            self.unsubscribe(sub_id)
        for adv_id in advs:
            self.unadvertise(adv_id)
        return subs, advs

    def reset_broker(self, node: int) -> None:
        """Wipe one broker's routing state (the broker-loss fault).

        The node forwards nothing until advertisements are re-flooded and
        subscriptions re-propagated across it (the recovery policy's
        ``force=True`` pass); deliveries whose path crosses it silently
        stop in the meantime -- a restarted broker with empty tables.
        """
        self.version += 1
        self._routes.clear()
        self._broker(node).table.clear()

    def reflood_advertisements(self, size: float = 1.0) -> None:
        """Re-flood every live advertisement from its source.

        Broker-loss recovery: flooding is idempotent on brokers that
        still hold the advertisement (their tables dedup by adv_id), and
        repopulates the wiped broker's pointers so subscription
        re-propagation can cross it again.  Control traffic is charged
        per flood, like the original advertise.
        """
        for adv_id in list(self._advertiser):
            source, adv = self._advertiser[adv_id]
            self.advertise(source, adv, size=size)

    def set_link_down(self, u: int, v: int) -> None:
        """Partition one overlay link: events stop crossing it."""
        if v not in self.tree.neighbors(u):
            raise ValueError(f"({u}, {v}) is not an overlay link")
        self.version += 1
        self._routes.clear()
        self.down_links.add(_edge(u, v))

    def set_link_up(self, u: int, v: int) -> None:
        """Heal a partitioned link."""
        self.version += 1
        self._routes.clear()
        self.down_links.discard(_edge(u, v))

    def path_is_up(self, u: int, v: int) -> bool:
        """Whether the overlay path ``u`` -> ``v`` avoids down links."""
        if not self.down_links or u == v:
            return True
        cached = self._path_cache.get((u, v))
        if cached is not None:
            edges = cached[0]
        else:
            path = self.tree.path(u, v)
            edges = list(zip(path, path[1:]))
        return all(_edge(a, b) not in self.down_links for a, b in edges)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def publish(self, source: int, event: Event) -> List[Tuple[int, Event, Subscription]]:
        """Route ``event`` from ``source``; returns local deliveries.

        Each returned triple is ``(node, projected_event, subscription)``.
        Each dissemination hop matches the event against the broker's
        table exactly once (:meth:`RoutingTable.match_event`) -- one index
        probe (or one reference scan) yields the local deliveries, the
        forwarding set *and* the per-link projections.  Neighbour links
        are walked in sorted order so delivery order is identical on the
        indexed and reference paths.
        """
        deliveries: List[Tuple[int, Event, Subscription]] = []
        probes = 0
        forwards = 0
        queue = deque([(source, None, event)])
        while queue:
            node, arrived_via, ev = queue.popleft()
            broker = self._broker(node)
            match = broker.table.match_event(ev, arrived_via)
            probes += 1
            for projected, sub in broker.deliver_matched(ev, match.local):
                deliveries.append((node, projected, sub))
            for nbr in match.forward_order(LOCAL):
                assert isinstance(nbr, int)
                if self.down_links and _edge(node, nbr) in self.down_links:
                    continue  # partitioned: the event is lost, no bytes
                needed = match.needed[nbr]
                forwarded = ev if needed is None else ev.project(needed)
                self._account(self.link_bytes, node, nbr, forwarded.size)
                queue.append((nbr, node, forwarded))
                forwards += 1
        obs = self.observer
        if obs is not None and obs.registry is not None:
            reg = obs.registry
            reg.inc("broker.index_probes", probes)
            reg.inc("broker.forwards", forwards)
            reg.inc("broker.local_deliveries", len(deliveries))
        return deliveries

    def route(
        self, source: int, stream: str, rows: Sequence[Mapping[str, Any]]
    ) -> List[Tuple[Delivery, ...]]:
        """Route unit-size events of ``stream`` from ``source``, one per row.

        Each row is an attribute map.  Returns, per row, its local
        deliveries ``(node, subscription, attrs)`` -- ``attrs`` names the
        attributes the subscriber receives, ``None`` meaning all -- and
        charges :attr:`link_bytes` exactly as calling :meth:`publish`
        once per row would: the same deliveries in the same order, the
        same bytes on the same links (projections shrink them, down
        links and wiped brokers stop them).  The per-broker ``delivered``
        log is :meth:`publish`'s alone.

        The broker tables of ``stream`` are compiled into a routing
        program per (source, stream), kept until a control change that
        can touch it: a subscribe or unsubscribe of a subscription to
        ``stream``, the retirement of its advertisement, a broker reset,
        a link partition or heal (each of which also bumps
        :attr:`version`).  A row costs one
        compiled-filter test per distinct filter in the program, and the
        hop walk runs once per distinct outcome, not once per row.
        """
        by_source = self._routes.get(stream)
        if by_source is None:
            by_source = self._routes[stream] = {}
        route = by_source.get(source)
        if route is None:
            route = by_source[source] = self._compile(source, stream)
        matchers = route.matchers
        outcomes = route.outcomes
        projects = route.projects
        picked: List[_Outcome] = []
        touched: List[_Outcome] = []
        try:
            for values in rows:
                key = tuple([match(values) for match in matchers])
                if projects:
                    key += (frozenset(values),)
                outcome = outcomes.get(key)
                if outcome is None:
                    outcome = outcomes[key] = self._walk(route, key)
                if not outcome.rows:
                    touched.append(outcome)
                outcome.rows += 1
                picked.append(outcome)
            self._charge(picked, touched)
        finally:
            for outcome in touched:
                outcome.rows = 0
        return [outcome.deliveries for outcome in picked]

    def _drop_routes(self, streams: Optional[Iterable[str]]) -> None:
        """Forget the compiled routes of ``streams`` (None: of all)."""
        if streams is None:
            self._routes.clear()
            return
        for stream in streams:
            self._routes.pop(stream, None)

    def _compile(self, source: int, stream: str) -> _Route:
        """Every broker an event of ``stream`` could reach from ``source``.

        Reachability follows the tables: a broker forwards toward a
        neighbour only through entries recorded for that interface, and
        never back where the event came from or over a down link.
        """
        route = _Route(source)
        slots: Dict[int, int] = {}

        def slot(sub: Subscription) -> int:
            filt = sub.filter
            i = slots.get(id(filt))
            if i is None:
                i = slots[id(filt)] = len(route.matchers)
                route.matchers.append(filt.compiled())
                route.attrs.append(filt.attributes())
            return i

        queue = deque([(source, None)])
        while queue:
            node, came_from = queue.popleft()
            local = []
            out: Dict[int, list] = {}
            for iface, sub in self._broker(node).table.iter_entries():
                if iface == came_from or stream not in sub.streams:
                    continue
                if iface == LOCAL:
                    local.append((slot(sub), sub))
                    continue
                out.setdefault(iface, []).append((slot(sub), sub.projection))
                if sub.projection is not None:
                    route.projects = True
            nbrs = []
            for nbr in sorted(out):
                link = _edge(node, nbr)
                if link in self.down_links:
                    continue  # partitioned: the event is lost, no bytes
                nbrs.append((nbr, link, tuple(out[nbr])))
                queue.append((nbr, node))
            route.hops[node] = (tuple(local), tuple(nbrs))
        return route

    def _walk(self, route: _Route, key: tuple) -> _Outcome:
        """The hop walk of :meth:`publish` for one match vector.

        ``key[i]`` says whether filter slot ``i`` matches the row as
        published.  A projected copy matches an entry iff the row does
        and the copy kept every attribute the filter constrains (a
        missing attribute never matches), so the vector plus the row's
        attribute names decide the whole walk.
        """
        req = route.attrs
        deliveries: List[Delivery] = []
        charges: List[Tuple[Tuple[int, int], float]] = []
        probes = 0
        # (node, attributes the event still carries -- None: all, size)
        start = key[-1] if route.projects else None
        queue = deque([(route.source, start, 1.0)])
        while queue:
            node, attrs, size = queue.popleft()
            probes += 1
            local, nbrs = route.hops[node]
            for i, sub in local:
                if key[i] and (attrs is None or req[i] <= attrs):
                    proj = sub.projection
                    if proj is not None and attrs is not None:
                        proj = attrs & proj
                    deliveries.append(
                        (node, sub, attrs if proj is None else proj)
                    )
            for nbr, link, entries in nbrs:
                hit = False
                needed: Optional[Set[str]] = set()
                for i, proj in entries:
                    if key[i] and (attrs is None or req[i] <= attrs):
                        hit = True
                        if proj is None:
                            needed = None
                            break
                        needed |= proj
                if not hit:
                    continue
                fwd_attrs, fwd_size = attrs, size
                if needed is not None:
                    # Event.project: keep what is needed, shrink the size
                    fwd_attrs = attrs & needed
                    if attrs:
                        fwd_size = size * max(1, len(fwd_attrs)) / len(attrs)
                charges.append((link, fwd_size))
                queue.append((nbr, fwd_attrs, fwd_size))
        return _Outcome(deliveries, charges, probes)

    def _charge(self, picked: List[_Outcome], touched: List[_Outcome]) -> None:
        """Charge the routed rows' link bytes, bit for bit as per-row
        publishing would add them.

        ``touched`` holds each distinct outcome once, with ``rows`` its
        row count in ``picked``.
        """
        book = self.link_bytes
        totals: Optional[Dict[Tuple[int, int], float]] = {}
        for outcome in touched:
            if not outcome.integral:
                totals = None
                break
            n = outcome.rows
            for link, size in outcome.charges:
                totals[link] = totals.get(link, 0.0) + size * n
        if totals is not None and all(
            book.get(link, 0.0).is_integer() for link in totals
        ):
            # integral bytes onto integral totals: one addition per link
            # is exact, so it equals the per-row sum
            for link, total in totals.items():
                book[link] = book.get(link, 0.0) + total
        else:
            for outcome in picked:
                for link, size in outcome.charges:
                    book[link] = book.get(link, 0.0) + size
        brokers = self.brokers
        for outcome in touched:
            for node in outcome.nodes:
                brokers[node].delivered_total += outcome.rows
        obs = self.observer
        if obs is not None and obs.registry is not None:
            reg = obs.registry
            probes = forwards = delivered = 0
            for o in touched:
                probes += o.probes * o.rows
                forwards += len(o.charges) * o.rows
                delivered += len(o.nodes) * o.rows
            reg.inc("broker.index_probes", probes)
            reg.inc("broker.forwards", forwards)
            reg.inc("broker.local_deliveries", delivered)

    def publish_batch(
        self, source: int, stream: str, rows: int
    ) -> List[Tuple[int, Event, Subscription]]:
        """Route a coalesced batch of ``rows`` same-stream events at once.

        One representative event of size ``rows`` crosses the overlay, so
        each dissemination hop probes the forwarding index (or reference
        scan) once per *batch* instead of once per tuple, while per-link
        traffic is still accounted per row (``size = rows``).

        The representative carries no per-row attributes, so matching is
        decided by the stream alone: correct whenever the installed
        subscriptions for ``stream`` are attribute-insensitive (true for
        the simulator's per-query stream subscriptions -- content filters
        there live inside the engines, not the network).  Callers mixing
        batch publishing with attribute-filtered subscriptions would
        diverge from per-tuple publishing; the sim parity suite pins the
        supported behaviour.
        """
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.observe("broker.batch_rows", float(rows))
        event = Event(stream=stream, attributes={}, size=float(rows))
        return self.publish(source, event)

    def publish_rate(self, source: int, event: Event, rate: float) -> int:
        """Account traffic for a *stream* of events shaped like ``event``.

        Instead of pushing ``rate`` identical events per unit time, route a
        single representative and multiply the per-link bytes by ``rate``.
        Returns the number of local deliveries of the representative.
        """
        scaled = Event(stream=event.stream, attributes=event.attributes,
                       size=event.size * rate)
        return len(self.publish(source, scaled))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def account_path(self, u: int, v: int, size: float) -> float:
        """Account ``size`` data bytes along the overlay path ``u`` -> ``v``.

        For transfers that do not flow through :meth:`publish` -- result
        streams travelling host -> proxy and migration state handoffs in
        the discrete-event simulator.  Returns the path latency (ms) so the
        caller can derive the transfer delay from the same walk.  Paths
        are memoised (the tree is immutable), so repeated transfers over
        one pair -- every result tuple of a query -- skip the tree walk.
        """
        if u == v:
            return 0.0
        key = (u, v)
        cached = self._path_cache.get(key)
        if cached is None:
            path = self.tree.path(u, v)
            cached = (
                list(zip(path, path[1:])),
                sum(self.tree.links[a][b] for a, b in zip(path, path[1:])),
            )
            self._path_cache[key] = cached
            self._path_cache[(v, u)] = ([(b, a) for a, b in cached[0]], cached[1])
        for a, b in cached[0]:
            self._account(self.link_bytes, a, b, size)
        return cached[1]

    def path_latency(self, u: int, v: int) -> float:
        """Overlay path latency (ms) between two nodes, memoised per pair.

        The first lookup of a pair sums its link latencies in that
        lookup's direction and serves both directions from then on.
        This memo is kept apart from :meth:`account_path`'s: the two are
        asked in different directions for some pairs, and float sums
        taken in opposite orders can differ in the last bit.
        """
        if u == v:
            return 0.0
        key = _edge(u, v)
        lat = self._latency_ms.get(key)
        if lat is None:
            lat = self._latency_ms[key] = self.tree.path_latency(u, v)
        return lat

    def reset_traffic(self) -> None:
        self.link_bytes.clear()
        self.control_bytes.clear()

    def weighted_data_cost(self) -> float:
        """Sum over links of forwarded bytes x link latency (the paper's
        weighted communication cost, measured on the data plane)."""
        total = 0.0
        for (u, v), amount in self.link_bytes.items():
            total += amount * self.tree.links[u][v]
        return total

    def total_data_bytes(self) -> float:
        return sum(self.link_bytes.values())

    def routing_table_sizes(self) -> Dict[int, int]:
        return {n: b.table.size() for n, b in self.brokers.items()}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _broker(self, node: int) -> Broker:
        try:
            return self.brokers[node]
        except KeyError:
            raise KeyError(f"node {node} is not part of the pub/sub overlay") from None

    @staticmethod
    def _account(book: Dict[Tuple[int, int], float], u: int, v: int, size: float) -> None:
        key = _edge(u, v)
        book[key] = book.get(key, 0.0) + size
