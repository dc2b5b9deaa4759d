"""Sharded fleet execution: vantages partitioned across replicas.

A fleet campaign's vantage timelines are mutually independent (see
:mod:`repro.vantage.campaign`), so the fleet partitions cleanly: give
each shard a *seeded topology replica* (regenerated from the same
:class:`repro.topology.internet.InternetConfig`, hence identical down
to every fault seed and dynamics calendar), let it run only its
vantages' lanes, and merge the partial :class:`FleetResult`s in
canonical vantage order.  On topologies without order-sensitive
randomness (no per-packet balancers, no loss) the merged result is
byte-identical to the single-process run — same routes, same
timestamps, same strategy forensics — which :meth:`FleetResult.signature`
makes checkable in one comparison.

Shards run on one executor, :func:`repro.runtime.run_supervised` (the
same one the monitor uses): ``processes=False`` (default) runs them in
this process, ``processes=True`` gives each attempt its own worker
process.  Either way, worker crashes, hangs, and lost results are
retried under seeded backoff, an exhausted shard's vantages are
reassigned to fresh single-vantage workers, and whatever still fails
is *excluded* — the merged result carries a
:class:`repro.runtime.DegradationReport` instead of the run dying.
Because shard results are pure functions of their
:class:`FleetShardTask`, any recovery schedule merges to the same
bytes as the unfaulted run.  Everything crossing a process boundary
(the configs, the optional ``strategy_builder``, the results) must
pickle, so ``strategy_builder`` has to be a module-level callable —
:func:`mda_strategy_builder` is the stock one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

from repro.errors import CampaignError
from repro.measurement.destinations import split_among_workers
from repro.runtime.shards import build_replica, run_supervised
from repro.topology.internet import InternetConfig
from repro.vantage.campaign import FleetCampaign, FleetConfig, FleetResult


def mda_strategy_builder(campaign: FleetCampaign) -> Callable:
    """The stock picklable ``strategy_builder``: an MDA census."""
    return campaign.mda_strategy_factory()


def mda_lite_strategy_builder(campaign: FleetCampaign) -> Callable:
    """Picklable ``strategy_builder`` for an MDA-Lite census."""
    return campaign.mda_lite_strategy_factory()


@dataclass
class FleetShardTask:
    """Everything one shard needs to rebuild its world and run.

    Picklable by construction: configs are plain dataclasses,
    ``vantage_ids`` plain ints, and ``strategy_builder`` (when set) a
    module-level callable invoked *inside* the shard as
    ``strategy_builder(campaign) -> strategy_factory``.
    """

    internet: InternetConfig
    fleet: FleetConfig
    vantage_ids: list[int]
    #: Pingable pre-screen truncation (None keeps all).
    max_destinations: Optional[int] = None
    #: Seed of the destination shuffle; defaults to the fleet seed.
    destination_seed: Optional[int] = None
    strategy_builder: Optional[Callable] = None
    #: Install a :class:`repro.obs.MetricsRegistry` on the shard's
    #: replica network before the campaign is built, so every layer
    #: binds instrumented children.  The shard's snapshot rides back on
    #: its partial :class:`FleetResult` and merges client-disjointly.
    metrics: bool = False
    #: Ring capacity for a :class:`repro.obs.ProbeTracer` on the
    #: replica network; 0 (default) disables tracing.
    trace_capacity: int = 0
    #: Names the run in its journal identity.
    kind: ClassVar[str] = "fleet"

    @property
    def fleet_config(self) -> FleetConfig:
        """The fleet config the shard's campaign runs under."""
        return self.fleet


def materialize_shard(task: FleetShardTask) -> FleetCampaign:
    """Build a shard's campaign on a fresh seeded topology replica."""
    topology, destinations = build_replica(task)
    campaign = FleetCampaign(
        topology.network, topology.sources, destinations,
        config=task.fleet, vantage_ids=task.vantage_ids)
    if task.strategy_builder is not None:
        campaign.strategy_factory = task.strategy_builder(campaign)
    return campaign


def run_shard(task: FleetShardTask) -> FleetResult:
    """Run one shard to completion (the supervised work function)."""
    return materialize_shard(task).run()


def plan_shards(n_vantages: int, shards: int) -> list[list[int]]:
    """Partition vantage ids across shards, round-robin.

    The same ``split_among_workers`` rule the campaign layer uses for
    destinations — and like there, a shard may come up empty when
    there are more shards than vantages (it is simply dropped).
    """
    if shards < 1:
        raise CampaignError(f"need at least one shard: {shards}")
    return [share for share
            in split_among_workers(list(range(n_vantages)), shards)
            if share]


def run_fleet(
    internet: InternetConfig,
    fleet: FleetConfig | None = None,
    max_destinations: Optional[int] = None,
    destination_seed: Optional[int] = None,
    strategy_builder: Optional[Callable] = None,
    metrics: bool = False,
    trace_capacity: int = 0,
) -> FleetResult:
    """Single-process reference execution: all vantages, one scheduler."""
    fleet = fleet or FleetConfig()
    task = FleetShardTask(
        internet=internet, fleet=fleet,
        vantage_ids=list(range(internet.n_vantages)),
        max_destinations=max_destinations,
        destination_seed=destination_seed,
        strategy_builder=strategy_builder,
        metrics=metrics, trace_capacity=trace_capacity)
    return run_shard(task)


def run_fleet_sharded(
    internet: InternetConfig,
    fleet: FleetConfig | None = None,
    shards: int = 2,
    processes: bool = False,
    max_destinations: Optional[int] = None,
    destination_seed: Optional[int] = None,
    strategy_builder: Optional[Callable] = None,
    metrics: bool = False,
    trace_capacity: int = 0,
    runtime=None,
    journal_path=None,
) -> FleetResult:
    """Partition the fleet's vantages over ``shards`` replicas and merge.

    Shards run under the supervisor (:func:`repro.runtime
    .run_supervised`); ``runtime`` (a :class:`repro.runtime
    .RuntimeOptions`, default ``RuntimeOptions()``) tunes it and
    ``journal_path`` makes the run resumable.
    """
    fleet = fleet or FleetConfig()
    tasks = [
        FleetShardTask(
            internet=internet, fleet=fleet, vantage_ids=vantage_ids,
            max_destinations=max_destinations,
            destination_seed=destination_seed,
            strategy_builder=strategy_builder,
            metrics=metrics, trace_capacity=trace_capacity)
        for vantage_ids in plan_shards(internet.n_vantages, shards)
    ]
    return run_supervised(tasks, run_shard, FleetResult.merge,
                          processes=processes, runtime=runtime,
                          journal_path=journal_path)
