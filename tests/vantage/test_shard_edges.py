"""Shard-planning edge cases: degenerate partitions and wrong-shard
results (ISSUE 10 satellite).

``plan_shards`` reuses the paper's destination round-robin
(``split_among_workers``); these tests pin the corners the happy-path
determinism suite never exercises — more shards than vantages,
empty shares, and the supervisor-facing validation hook that refuses
to merge a result belonging to another shard.
"""

import pytest

from repro.errors import CampaignError
from repro.measurement.destinations import split_among_workers
from repro.runtime import shard_specs, validate_shard
from repro.service import MonitorConfig
from repro.service.orchestrator import MonitorShardTask, run_monitor_shard
from repro.topology import InternetConfig
from repro.vantage import FleetConfig, plan_shards, run_fleet, run_fleet_sharded
from repro.vantage.sharding import FleetShardTask, run_shard

TINY = InternetConfig(
    seed=9, n_tier1=2, n_transit=2, n_stub=3, dests_per_stub=1,
    n_loop_stub_diamonds=1, n_cycle_stub_diamonds=0, n_nat_dests=0,
    n_zero_ttl_dests=0, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=2)

FLEET = FleetConfig(rounds=1, workers=2, seed=5)

MONITOR = MonitorConfig(duration=60.0, periods=(30.0,), max_rounds=1,
                        fleet=FLEET)


def fleet_task(vantage_ids):
    return FleetShardTask(internet=TINY, fleet=FLEET,
                          vantage_ids=vantage_ids)


def monitor_task(vantage_ids):
    return MonitorShardTask(internet=TINY, monitor=MONITOR,
                            vantage_ids=vantage_ids)


#: (task factory, work function) per kind of sharded run; the
#: validator is shared, so both kinds must pass the same checks.
SHARD_KINDS = {
    "fleet": (fleet_task, run_shard),
    "monitor": (monitor_task, run_monitor_shard),
}


class TestSplitAmongWorkers:
    def test_round_robin_partition(self):
        assert split_among_workers([10, 11, 12, 13, 14], 2) == \
            [[10, 12, 14], [11, 13]]

    def test_more_workers_than_items_leaves_empty_shares(self):
        assert split_among_workers([1, 2], 4) == [[1], [2], [], []]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            split_among_workers([1], 0)


class TestPlanShards:
    def test_empty_shards_are_dropped(self):
        # 5 shards over 2 vantages: only the two non-empty shares
        # survive — no shard task ever carries zero vantages.
        assert plan_shards(2, 5) == [[0], [1]]

    def test_zero_shards_rejected(self):
        with pytest.raises(CampaignError, match="at least one shard"):
            plan_shards(2, 0)

    def test_specs_never_wrap_empty_shards(self):
        tasks = [FleetShardTask(internet=TINY, fleet=FLEET,
                                vantage_ids=ids)
                 for ids in plan_shards(2, 8)]
        specs = shard_specs(tasks)
        assert [s.key for s in specs] == ["shard-v0", "shard-v1"]
        assert all(s.vantage_ids for s in specs)


class TestOversharding:
    def test_more_shards_than_vantages_matches_single(self):
        single = run_fleet(TINY, FLEET)
        oversharded = run_fleet_sharded(TINY, FLEET, shards=8)
        assert oversharded.signature() == single.signature()


@pytest.mark.parametrize("kind", sorted(SHARD_KINDS))
class TestWrongShardResults:
    def test_foreign_result_rejected(self, kind):
        make_task, work = SHARD_KINDS[kind]
        mine = make_task([0])
        theirs = make_task([1])
        stray = work(theirs)
        with pytest.raises(CampaignError, match="wrong-shard"):
            validate_shard(mine, stray)

    def test_own_result_accepted(self, kind):
        make_task, work = SHARD_KINDS[kind]
        task = make_task([0, 1])
        validate_shard(task, work(task))
