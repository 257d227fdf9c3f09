"""Golden move sequences for Algorithm 3's flow realisation (``rebalance``).

Each case runs ``rebalance`` on a seeded graph and compares a digest of
the final assignment and of every :class:`RebalanceStats` field against
a value recorded from the per-move rescan implementation the current
loop replaced.  The digests pin the exact move sequence, including the
tie-break chain (benefit window -> dirty -> load density ->
``stable_vertex_key``): the tie-heavy cases give many vertices equal
weights and equal benefits so that the later links of the chain decide.
"""

import hashlib
import random

import pytest

from repro.core.graphs import (
    NetVertex,
    NetworkGraph,
    NVertex,
    QueryGraph,
    QVertex,
    build_query_graph,
    qvertex_from_query,
)
from repro.core.rebalance import RebalanceStats, rebalance
from repro.query.interest import SubstreamSpace, mask_of
from repro.query.workload import QuerySpec


def _space():
    return SubstreamSpace.random(300, sources=[0, 100], seed=11)


def _ng(n_targets, spacing=10):
    return NetworkGraph(
        [
            NetVertex(vid=f"P{i}", site=i * spacing, capability=1.0 + (i % 3),
                      covers=frozenset([i * spacing]))
            for i in range(n_targets)
        ],
        lambda a, b: abs(a - b),
    )


def _queries(space, n, seed, proxies, equal=False):
    rng = random.Random(seed)
    shared_ids = rng.sample(range(len(space)), 8)
    out = []
    for i in range(n):
        ids = shared_ids if equal else rng.sample(
            range(len(space)), rng.randint(5, 15)
        )
        mask = mask_of(ids)
        out.append(QuerySpec(
            query_id=i,
            proxy=proxies[0] if equal else rng.choice(proxies),
            mask=mask,
            group=0,
            load=1.0 if equal else 0.01 * space.rate(mask),
            result_rate=1.0,
            state_size=2.0 if equal else rng.uniform(1, 10),
        ))
    return out


def _piled(qg, ng, target="P0"):
    """Everything on one target: a start that forces many flows."""
    assignment = dict(qg.pinned_mapping(ng))
    for vid in qg.qverts:
        assignment[vid] = target
    return assignment


def _scattered(qg, ng, seed, skew):
    """Random start biased towards the first ``skew`` targets."""
    rng = random.Random(seed)
    ids = ng.ids()
    assignment = dict(qg.pinned_mapping(ng))
    for vid in sorted(qg.qverts, key=str):
        assignment[vid] = ids[rng.randrange(skew)]
    return assignment


def _star(n, state_sizes=None):
    """q-vertices joined only to one source n-vertex.

    Every vertex has weight 1 and the same single edge, so every
    candidate of a flow has exactly the same benefit at every step; the
    dirty set, load density and ``stable_vertex_key`` pick the moves.
    """
    ng = _ng(4)
    qg = QueryGraph()
    qg.add_nvertex(NVertex(vid=("n", 0), node=0, clu="P0"))
    for i in range(n):
        qg.add_qvertex(QVertex(
            vid=("q", i), weight=1.0, mask=1, source_rates={0: 1.0},
            proxy_rates={}, members=(i,),
            state_size=1.0 if state_sizes is None else state_sizes[i % len(state_sizes)],
        ))
        qg.add_edge(("q", i), ("n", 0), 1.0)
    return qg, ng


def _built(n, seed, n_targets, equal=False):
    space = _space()
    ng = _ng(n_targets)
    proxies = [i * 10 for i in range(n_targets)]
    qs = _queries(space, n, seed, proxies, equal=equal)
    qg = build_query_graph([qvertex_from_query(q, space) for q in qs], space, ng)
    return qg, ng


def _digest(assignment, stats):
    parts = [
        repr(sorted((repr(k), repr(v)) for k, v in assignment.items())),
        repr(stats.moved_vertices),
        repr(stats.moved_weight),
        repr(stats.moved_state),
        repr(stats.flows_requested),
        repr(stats.flows_satisfied),
        repr(sorted(repr(v) for v in stats.dirty)),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _run(qg, ng, assignment, rng_seed=1, stats=None, **kw):
    stats = rebalance(qg, ng, assignment, rng=random.Random(rng_seed),
                      stats=stats, **kw)
    return _digest(assignment, stats)


def case_piled_small():
    qg, ng = _built(40, seed=3, n_targets=4)
    return _run(qg, ng, _piled(qg, ng))


def case_piled_large():
    qg, ng = _built(260, seed=7, n_targets=8)
    return _run(qg, ng, _piled(qg, ng), rng_seed=5)


def case_scattered():
    qg, ng = _built(150, seed=13, n_targets=6)
    return _run(qg, ng, _scattered(qg, ng, seed=2, skew=2), rng_seed=9)


def case_wide_window():
    qg, ng = _built(120, seed=21, n_targets=5)
    return _run(qg, ng, _piled(qg, ng, "P3"), benefit_window=0.5)


def case_zero_window_tight_alpha():
    qg, ng = _built(120, seed=22, n_targets=5)
    return _run(qg, ng, _scattered(qg, ng, seed=4, skew=3),
                benefit_window=0.0, alpha=0.02)


def case_prepopulated_dirty():
    # a stats object carried in from an earlier phase: its dirty set
    # steers the pool and its counters accumulate
    qg, ng = _built(100, seed=31, n_targets=4)
    assignment = _piled(qg, ng)
    ids = sorted(qg.qverts, key=str)
    stats = RebalanceStats(moved_vertices=3, moved_weight=0.5, moved_state=2.0,
                           dirty=set(ids[::3]))
    return _run(qg, ng, assignment, stats=stats)


def case_two_rounds_shared_stats():
    qg, ng = _built(90, seed=37, n_targets=4)
    assignment = _piled(qg, ng, "P1")
    stats = rebalance(qg, ng, assignment, rng=random.Random(3))
    for vid in sorted(qg.qverts, key=str)[:45]:
        assignment[vid] = "P2"
    return _run(qg, ng, assignment, rng_seed=4, stats=stats)


def case_equal_queries():
    # identical masks, proxies, loads and state: exact benefit ties
    qg, ng = _built(60, seed=41, n_targets=4, equal=True)
    return _run(qg, ng, _piled(qg, ng))


def case_star_ties():
    qg, ng = _star(48)
    return _run(qg, ng, _piled(qg, ng))


def case_star_density_ties():
    qg, ng = _star(48, state_sizes=[1.0, 2.0, 0.5, 2.0])
    return _run(qg, ng, _piled(qg, ng, "P2"), rng_seed=7)


def case_star_ties_dirty():
    qg, ng = _star(40, state_sizes=[1.0, 4.0])
    assignment = _piled(qg, ng)
    stats = RebalanceStats(dirty={("q", i) for i in range(0, 40, 5)})
    return _run(qg, ng, assignment, stats=stats)


def case_balanced_noop():
    qg, ng = _built(64, seed=43, n_targets=4)
    assignment = dict(qg.pinned_mapping(ng))
    for i, vid in enumerate(sorted(qg.qverts, key=str)):
        assignment[vid] = f"P{i % 4}"
    return _run(qg, ng, assignment)


GOLDEN = {
    "piled_small": "e29fc26c65f43200",
    "piled_large": "c23ec9a17be09897",
    "scattered": "68dc048f44baed57",
    "wide_window": "f2acd9f9f227682e",
    "zero_window_tight_alpha": "1b59e09db5317773",
    "prepopulated_dirty": "3a1557aa5cf514ac",
    "two_rounds_shared_stats": "e2f82d854ef9d489",
    "equal_queries": "92303b85e54b79f2",
    "star_ties": "dd33de7403cbaa77",
    "star_density_ties": "4a15d7b870ac185b",
    "star_ties_dirty": "c8ee6c6f654f5680",
    "balanced_noop": "a5750d5ccc6886b1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rebalance_golden(name):
    assert globals()[f"case_{name}"]() == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(f'    "{name}": "{globals()[f"case_{name}"]()}",')
