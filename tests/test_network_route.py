"""The memoised route equals per-row publishing, under any control history.

:meth:`PubSubNetwork.route` compiles broker tables into a routing program
and caches per-row outcomes; :meth:`PubSubNetwork.publish` walks the
tables hop by hop and stays the reference.  Generated overlay trees,
interval-filter subscriptions with projections and sequences of control
changes (subscribe, unsubscribe, ``force=True`` re-subscribe including
re-declarations, broker resets, advertisement refloods, link partitions
and heals) drive two identical networks; after every change one routes
a batch of rows, the other publishes them one by one, and the
deliveries, the bytes on every link and the broker counters must agree
exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub import (
    Advertisement, Event, Filter, PubSubNetwork, Subscription,
)
from repro.topology import OverlayTree

STREAMS = ("R", "S")
ATTRS = ("a", "b", "c")


@st.composite
def trees(draw):
    n = draw(st.integers(2, 7))
    tree = OverlayTree(nodes=list(range(n)))
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        tree.add_link(parent, child, draw(st.sampled_from([0.5, 1.0, 2.5])))
    return tree


@st.composite
def filters(draw):
    constraints = []
    attrs = draw(st.lists(st.sampled_from(ATTRS[:2]), max_size=2, unique=True))
    for attr in attrs:
        lo = draw(st.integers(0, 8))
        hi = draw(st.integers(lo, 10))
        constraints.append((attr, ">=", lo))
        constraints.append((attr, "<=", hi))
    return Filter.of(*constraints)


projections = st.one_of(
    st.none(), st.frozensets(st.sampled_from(ATTRS), max_size=3)
)

rows = st.lists(
    st.dictionaries(st.sampled_from(ATTRS), st.integers(0, 10), max_size=3),
    min_size=1,
    max_size=6,
)


@st.composite
def scripts(draw, n_nodes):
    node = st.integers(0, n_nodes - 1)
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("sub"), node, st.sampled_from(STREAMS),
                      filters(), projections),
            st.tuples(st.just("redeclare"), st.integers(0, 20),
                      st.sampled_from(STREAMS), filters(), projections),
            st.tuples(st.just("force"), st.integers(0, 20)),
            st.tuples(st.just("unsub"), st.integers(0, 20)),
            st.tuples(st.just("reset"), node),
            st.tuples(st.just("reflood")),
            st.tuples(st.just("down"), st.integers(1, n_nodes - 1)),
            st.tuples(st.just("up"), st.integers(1, n_nodes - 1)),
            st.tuples(st.just("rows"), node, st.sampled_from(STREAMS), rows),
        ),
        min_size=1,
        max_size=14,
    ))


def materialise(script):
    """Turn a drawn script into concrete actions on shared subscription
    objects, so both networks see identical subscriptions and ids."""
    live, actions = [], []
    for op in script:
        kind = op[0]
        if kind == "sub":
            _, node, stream, filt, proj = op
            sub = Subscription(
                streams=frozenset([stream]), projection=proj, filter=filt
            )
            live.append((node, sub))
            actions.append(("subscribe", node, sub, False))
        elif kind == "redeclare" and live:
            _, i, stream, filt, proj = op
            node, old = live[i % len(live)]
            sub = Subscription(
                streams=frozenset([stream]), projection=proj, filter=filt,
                sub_id=old.sub_id,
            )
            live[i % len(live)] = (node, sub)
            actions.append(("subscribe", node, sub, True))
        elif kind == "force" and live:
            node, sub = live[op[1] % len(live)]
            actions.append(("subscribe", node, sub, True))
        elif kind == "unsub" and live:
            _node, sub = live.pop(op[1] % len(live))
            actions.append(("unsubscribe", sub.sub_id))
        elif kind in ("reset", "reflood", "down", "up", "rows"):
            actions.append(op)
    return actions


def apply(net, action):
    kind = action[0]
    if kind == "subscribe":
        _, node, sub, force = action
        net.subscribe(node, sub, force=force)
    elif kind == "unsubscribe":
        net.unsubscribe(action[1])
    elif kind == "reset":
        net.reset_broker(action[1])
    elif kind == "reflood":
        net.reflood_advertisements()
    elif kind in ("down", "up"):
        child = action[1]
        parent = min(v for v in net.tree.neighbors(child) if v < child)
        if kind == "down":
            net.set_link_down(parent, child)
        else:
            net.set_link_up(parent, child)


def route_view(net, source, stream, values):
    """Per-row deliveries of the memoised route, as comparable tuples."""
    return [
        [
            (
                node,
                sub.sub_id,
                sorted(k for k in row if attrs is None or k in attrs),
            )
            for node, sub, attrs in deliveries
        ]
        for row, deliveries in zip(values, net.route(source, stream, values))
    ]


def publish_view(net, source, stream, values):
    """Per-row deliveries of the hop walk, one publish per row."""
    return [
        [
            (node, sub.sub_id, sorted(ev.attributes))
            for node, ev, sub in net.publish(source, Event(stream, dict(row)))
        ]
        for row in values
    ]


@settings(max_examples=200, deadline=None)
@given(tree=trees(), use_index=st.booleans(), data=st.data())
def test_route_equals_per_row_publish(tree, use_index, data):
    memo = PubSubNetwork(tree, use_index=use_index)
    walk = PubSubNetwork(tree, use_index=use_index)
    sources = {
        stream: data.draw(st.integers(0, len(tree.nodes) - 1))
        for stream in STREAMS
    }
    for net in (memo, walk):
        for stream, source in sources.items():
            net.advertise(source, Advertisement(stream=stream))
    actions = materialise(data.draw(scripts(len(tree.nodes))))
    for i, action in enumerate(actions):
        apply(memo, action)
        apply(walk, action)
        if action[0] == "rows":
            _, source, stream, values = action
        else:
            # route a stream from its advertiser after every change, so a
            # stale memo would show
            stream = STREAMS[i % 2]
            source = sources[stream]
            values = [{"a": 3, "b": 5, "c": 1}, {"a": 9}, {"b": 0, "c": 7}]
        assert route_view(memo, source, stream, values) == publish_view(
            walk, source, stream, values
        )
        assert memo.link_bytes == walk.link_bytes
        assert [b.delivered_total for b in memo.brokers.values()] == [
            b.delivered_total for b in walk.brokers.values()
        ]


def test_projection_shrinks_charged_bytes():
    """A projecting entry forwards a smaller copy; route charges it too."""
    tree = OverlayTree(nodes=[0, 1, 2])
    tree.add_link(0, 1, 1.0)
    tree.add_link(1, 2, 1.0)
    sub = Subscription.to_streams(["R"], projection=["a"])
    nets = [PubSubNetwork(tree) for _ in range(2)]
    for net in nets:
        net.advertise(0, Advertisement(stream="R"))
        net.subscribe(2, sub)
    values = [{"a": 1, "b": 2, "c": 3}] * 3
    memo, walk = nets
    assert route_view(memo, 0, "R", values) == publish_view(
        walk, 0, "R", values
    )
    # each row crosses each link as a third of its size
    assert memo.link_bytes == walk.link_bytes
    assert memo.link_bytes[(0, 1)] < 3.0


def test_memo_survives_unrelated_streams_and_drops_touched_ones():
    tree = OverlayTree(nodes=[0, 1])
    tree.add_link(0, 1, 1.0)
    net = PubSubNetwork(tree)
    net.advertise(0, Advertisement(stream="R"))
    net.advertise(0, Advertisement(stream="S"))
    net.subscribe(1, Subscription.to_streams(["R"]))
    net.route(0, "R", [{}])
    kept = net._routes["R"][0]
    net.subscribe(1, Subscription.to_streams(["S"]))
    assert net._routes["R"][0] is kept
    late = Subscription.to_streams(["R"])
    net.subscribe(0, late)
    assert "R" not in net._routes
    assert [[n for n, _, _ in d] for d in net.route(0, "R", [{}])] == [[0, 1]]
    net.set_link_down(0, 1)
    assert [[n for n, _, _ in d] for d in net.route(0, "R", [{}])] == [[0]]
