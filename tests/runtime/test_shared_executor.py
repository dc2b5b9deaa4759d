"""One shard executor for fleet and monitor runs.

Every sharded run goes through :func:`repro.runtime.run_supervised`,
with or without ``runtime=``: a shard that raises once is retried and
the merged result still carries the single-process signature, and the
CLI reports a degraded result even when no runtime flag was given.  The
journal identity is shared too, so its digests are pinned here against
values recorded before fleet and monitor shared one identity function
— journals written then must still resume.
"""

import pytest

from repro.cli import main
from repro.runtime import shard_run_identity
from repro.service import MonitorConfig, run_monitor, run_monitor_sharded
from repro.service import orchestrator
from repro.service.orchestrator import MonitorShardTask
from repro.topology import InternetConfig
from repro.vantage import (
    FleetConfig,
    plan_shards,
    run_fleet,
    run_fleet_sharded,
    sharding,
)
from repro.vantage.sharding import FleetShardTask, mda_lite_strategy_builder

TINY = InternetConfig(
    seed=9, n_tier1=2, n_transit=2, n_stub=3, dests_per_stub=1,
    n_loop_stub_diamonds=1, n_cycle_stub_diamonds=0, n_nat_dests=0,
    n_zero_ttl_dests=0, response_loss_rate=0.0, p_per_packet=0.0,
    n_vantages=3)

FLEET = FleetConfig(rounds=1, workers=2, seed=5)

MONITOR = MonitorConfig(duration=100.0, fleet=FLEET)

#: kind -> (module holding the work function, its name, reference
#: run, sharded run).
KINDS = {
    "fleet": (sharding, "run_shard",
              lambda: run_fleet(TINY, FLEET, max_destinations=4),
              lambda: run_fleet_sharded(TINY, FLEET, shards=2,
                                        max_destinations=4)),
    "monitor": (orchestrator, "run_monitor_shard",
                lambda: run_monitor(TINY, MONITOR, max_destinations=4),
                lambda: run_monitor_sharded(TINY, MONITOR, shards=2,
                                            max_destinations=4)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_unflagged_sharded_run_survives_a_crash(kind, monkeypatch):
    module, name, reference, sharded = KINDS[kind]
    expected = reference().signature()
    honest = getattr(module, name)
    crashes = []

    def crash_once(task):
        if not crashes:
            crashes.append(task.vantage_ids)
            raise RuntimeError("worker blew up")
        return honest(task)

    monkeypatch.setattr(module, name, crash_once)
    result = sharded()
    assert crashes == [[0, 2]]
    assert result.signature() == expected
    incidents = result.degradation.incidents
    assert [(i.shard, i.kind, i.resolution) for i in incidents] == [
        ("shard-v0-2", "crash", "retried")]
    assert not result.degradation.degraded


def test_unflagged_cli_run_reports_its_degradation(monkeypatch, capsys):
    """No runtime flag given, yet the excluded vantage is reported."""
    honest = sharding.run_shard

    def vantage_1_always_crashes(task):
        if 1 in task.vantage_ids:
            raise RuntimeError("worker blew up")
        return honest(task)

    monkeypatch.setattr(sharding, "run_shard", vantage_1_always_crashes)
    assert main(["campaign", "--vantages", "2", "--rounds", "1",
                 "--dests", "4", "--seed", "11", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "sharded K=2 (inline)" in out
    assert "# runtime: DEGRADED result — vantages [1] excluded" in out


class TestJournalIdentityPin:
    """Digests computed by the separate fleet and monitor identity
    functions that this shared one replaced."""

    def test_fleet_identity_unchanged(self):
        tasks = [FleetShardTask(
            internet=TINY, fleet=FLEET, vantage_ids=ids,
            max_destinations=6,
            strategy_builder=mda_lite_strategy_builder, metrics=True)
            for ids in plan_shards(3, 2)]
        assert shard_run_identity(tasks) == (
            "ea06a8bb580b446d6d2eb3d637826ef3"
            "770669daf8e7a1fc1bd277436235fe73")

    def test_monitor_identity_unchanged(self):
        tasks = [MonitorShardTask(
            internet=TINY, monitor=MONITOR, vantage_ids=ids,
            destination_seed=3, trace_capacity=16)
            for ids in plan_shards(3, 2)]
        assert shard_run_identity(tasks) == (
            "69e5713f13af1f23996eebe84d98b242"
            "757f4e22d41f4733a443d8e69ba8c50d")

    def test_kinds_never_share_an_identity(self):
        fleet = [FleetShardTask(internet=TINY, fleet=FLEET,
                                vantage_ids=[0, 1, 2])]
        monitor = [MonitorShardTask(internet=TINY, monitor=MONITOR,
                                    vantage_ids=[0, 1, 2])]
        assert shard_run_identity(fleet) != shard_run_identity(monitor)
