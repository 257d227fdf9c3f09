"""Shared multi-query execution in the discrete-event simulator (ISSUE 5).

The contract under test: with ``use_sharing=True`` every user query gets
*exactly* the results the single-engine oracle produces for the same
action order -- under churn, hot spots, and adaptation migrations -- while
far fewer merged plans execute; and with the flag off nothing changes.
"""

import hashlib
import json

import pytest

from repro.sim import (
    BrokerLoss,
    ChurnParams,
    HotSpotShift,
    LinkPartition,
    ProcessorCrash,
    ProcessorJoin,
    ProcessorLeave,
    ScenarioParams,
    SimWorkloadParams,
    oracle_results,
    run_scenario,
)
from repro.sim.workload import stream_name
import repro.sim.cluster as cluster_mod


def sharing_scenario(**overrides) -> ScenarioParams:
    base = dict(
        duration=18.0,
        sample_interval=4.0,
        adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=10.0),
        hotspot=HotSpotShift(at=9.0, substreams=8, factor=3.0),
        use_sharing=True,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def overlap_workload(pool: int = 6) -> SimWorkloadParams:
    return SimWorkloadParams(
        num_substreams=40, num_queries=24, pool_substreams=pool
    )


def trace_json(report) -> str:
    return json.dumps(report.trace.to_dict(), sort_keys=True)


class TestSharedOracleParity:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_results_match_single_engine_oracle(self, seed):
        """Churn + hot spot + adaptation: per-query results are exact."""
        report = run_scenario(
            seed=seed,
            workload=overlap_workload(),
            scenario=sharing_scenario(),
            record=True,
        )
        assert report.executed_queries < report.user_queries, (
            "scenario produced no sharing -- the parity check would be vacuous"
        )
        oracle = oracle_results(report.actions)
        assert set(report.results) == set(oracle)
        total = 0
        for query_id, got in report.results.items():
            assert got == oracle[query_id], f"query {query_id} diverged"
            total += len(got)
        assert total > 0, "scenario emitted no results to compare"

    def test_parity_survives_group_migrations(self):
        """A skewed start forces adaptation to migrate shared plans."""
        report = run_scenario(
            seed=3,
            workload=overlap_workload(pool=4),
            scenario=sharing_scenario(churn=None, hotspot=None),
            record=True,
        )
        assert any(
            a.migrated_queries > 0 for a in report.trace.adaptations
        ), "no shared group migrated; the migration path went untested"
        oracle = oracle_results(report.actions)
        for query_id, got in report.results.items():
            assert got == oracle[query_id], f"query {query_id} diverged"

    def test_shared_matches_unshared_per_query(self):
        """The shared run delivers exactly the unshared run's results."""
        kwargs = dict(seed=5, workload=overlap_workload(), record=True)
        shared = run_scenario(scenario=sharing_scenario(), **kwargs)
        unshared = run_scenario(
            scenario=sharing_scenario(use_sharing=False), **kwargs
        )
        assert shared.results == unshared.results
        assert shared.executed_queries < unshared.executed_queries


class TestSharedPlaneParity:
    def test_scalar_and_batch_planes_identical(self):
        """Sharing composes with the PR 4 batch plane bit-identically."""
        kwargs = dict(seed=7, workload=overlap_workload(), record=True)
        batch = run_scenario(scenario=sharing_scenario(use_batches=True), **kwargs)
        scalar = run_scenario(scenario=sharing_scenario(use_batches=False), **kwargs)
        assert trace_json(batch) == trace_json(scalar)
        assert batch.results == scalar.results
        assert batch.link_bytes == scalar.link_bytes
        assert batch.cpu_costs == scalar.cpu_costs

    def test_shared_runs_are_deterministic(self):
        a = run_scenario(seed=9, workload=overlap_workload(), scenario=sharing_scenario())
        b = run_scenario(seed=9, workload=overlap_workload(), scenario=sharing_scenario())
        assert trace_json(a) == trace_json(b)


#: digests of (trace, per-query results, link_bytes, cpu_costs) of shared
#: runs, recorded when fault scenarios still routed the shared plane hop
#: by hop through ``PubSubNetwork.publish`` and fault-free ones through a
#: simulator-private route memo.  Both now run ``PubSubNetwork.route``.
FROZEN_SHARED_DIGESTS = {
    "fault_free": "960f84a9dc09a157",
    "crash": "d4d817e35986265c",
    "crash_scalar": "d4d817e35986265c",
    "broker_loss": "0cd7a898785ab140",
    "partition": "8bd749879ced219a",
    "join_leave": "809aae180c2bf018",
}

DIGEST_CASES = {
    "fault_free": (7, dict(
        hotspot=HotSpotShift(at=9.0, substreams=8, factor=3.0),
        checkpoint_interval=None,
    )),
    "crash": (3, dict(faults=(ProcessorCrash(at=6.0),))),
    "crash_scalar": (3, dict(
        faults=(ProcessorCrash(at=6.0),), use_batches=False,
    )),
    # node 18 carries the most shared-plane traffic of this universe, and
    # the late detection keeps it wiped while rows cross it
    "broker_loss": (2, dict(
        faults=(BrokerLoss(at=7.0, node=18, detect_delay=1.5),),
    )),
    "partition": (4, dict(faults=(LinkPartition(at=6.0, duration=3.0),))),
    "join_leave": (6, dict(
        faults=(ProcessorJoin(at=5.0), ProcessorLeave(at=11.0)),
        spare_processors=1,
    )),
}


def shared_digest(seed, **overrides) -> str:
    scenario = dict(
        duration=20.0, sample_interval=4.0, adapt_interval=8.0,
        initial_placement="skewed",
        churn=ChurnParams(arrival_rate=0.4, mean_lifetime=10.0),
        use_sharing=True, recovery="checkpoint", checkpoint_interval=3.0,
    )
    scenario.update(overrides)
    report = run_scenario(
        seed=seed,
        workload=SimWorkloadParams(
            num_substreams=40, num_queries=32, pool_substreams=6,
            window_range=(2, 4),
        ),
        scenario=ScenarioParams(**scenario),
        record=True,
    )
    blob = json.dumps(
        {
            "trace": report.trace.to_dict(),
            "results": {str(k): v for k, v in report.results.items()},
            "link_bytes": sorted(
                (list(k), v) for k, v in report.link_bytes.items()
            ),
            "cpu_costs": {str(k): v for k, v in report.cpu_costs.items()},
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestFrozenSharedDigests:
    """Every fault kind runs the same shared-plane route as fault-free
    runs, and every run reproduces its frozen digest bit for bit."""

    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_digest(self, case):
        seed, overrides = DIGEST_CASES[case]
        assert shared_digest(seed, **overrides) == FROZEN_SHARED_DIGESTS[case]


class TestSubscriptionHygiene:
    def test_tables_hold_only_live_p1_sets(self, monkeypatch):
        """Churn re-merges and retirements leave no ``p^1`` entry of a
        retired or replaced set in any broker table."""
        clusters, installed = [], set()
        start = cluster_mod.SimCluster.start

        def recording_start(cluster):
            clusters.append(cluster)
            sources = {stream_name(sid) for sid in range(len(cluster.space))}
            subscribe = cluster.network.subscribe

            def recording_subscribe(node, sub, *args, **kwargs):
                if sub.streams & sources:
                    installed.add(sub.sub_id)
                return subscribe(node, sub, *args, **kwargs)

            cluster.network.subscribe = recording_subscribe
            return start(cluster)

        monkeypatch.setattr(cluster_mod.SimCluster, "start", recording_start)
        run_scenario(
            seed=7, workload=overlap_workload(), scenario=sharing_scenario()
        )
        (cluster,) = clusters
        sources = {stream_name(sid) for sid in range(len(cluster.space))}
        live = {
            sub.sub_id for gs in cluster.groups.values() for sub in gs.p1_subs
        }
        assert any(not gs.alive for gs in cluster.groups.values())
        assert installed - live, "no p^1 set was ever replaced or retired"
        p1_entries = [
            sub.sub_id
            for broker in cluster.network.brokers.values()
            for _iface, sub in broker.table.iter_entries()
            if sub.streams & sources
        ]
        assert p1_entries, "no p^1 entry left to check"
        assert set(p1_entries) <= live, "stale p^1 entry in a routing table"


class TestUnsharedDefaultUnchanged:
    def test_flag_defaults_off(self):
        assert ScenarioParams().use_sharing is False

    def test_default_equals_explicit_off(self):
        kwargs = dict(seed=4, workload=overlap_workload())
        default = run_scenario(scenario=sharing_scenario(use_sharing=False), **kwargs)
        explicit = run_scenario(
            scenario=sharing_scenario(use_sharing=False), **kwargs
        )
        assert trace_json(default) == trace_json(explicit)
        assert default.executed_queries == default.user_queries


class TestLoadAttribution:
    def test_group_cpu_attributed_to_members(self):
        """Engine-measured group cost flows back to member query loads."""
        report = run_scenario(
            seed=2,
            workload=overlap_workload(pool=4),
            scenario=sharing_scenario(churn=None, hotspot=None),
            record=True,
        )
        assert report.cpu_costs, "no attributed CPU costs recorded"
        assert sum(report.cpu_costs.values()) > 0
        # every user query that produced results carries attributed cost
        for query_id, rows in report.results.items():
            if rows:
                assert report.cpu_costs.get(query_id, 0) > 0


class TestOverlapKnob:
    def test_pool_restricts_interests(self):
        wl = overlap_workload(pool=3)
        report = run_scenario(
            seed=1, workload=wl,
            scenario=sharing_scenario(churn=None, hotspot=None, adapt_interval=None),
        )
        substreams = set()
        for simq in report.queries.values():
            substreams.update(simq.substreams)
        assert len(substreams) <= 3

    def test_default_pool_is_whole_space(self):
        a = SimWorkloadParams(num_substreams=30, num_queries=10)
        b = SimWorkloadParams(num_substreams=30, num_queries=10, pool_substreams=30)
        from repro.query.interest import SubstreamSpace
        from repro.sim.workload import SimQueryFactory
        import numpy as np

        space = SubstreamSpace.random(30, [0], rng=np.random.default_rng(1))
        qa = SimQueryFactory(space, [10], a, np.random.default_rng(3)).make_batch(8)
        qb = SimQueryFactory(space, [10], b, np.random.default_rng(3)).make_batch(8)
        assert [q.text for q in qa] == [q.text for q in qb]

    def test_rejects_bad_pool(self):
        import numpy as np

        from repro.query.interest import SubstreamSpace
        from repro.sim.workload import SimQueryFactory

        space = SubstreamSpace.random(10, [0], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            SimQueryFactory(
                space, [1], SimWorkloadParams(pool_substreams=0),
                np.random.default_rng(0),
            )
