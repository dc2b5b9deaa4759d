"""Shard plumbing shared by every sharded entry point.

A sharded run — a fleet campaign (:mod:`repro.vantage.sharding`) or a
monitor (:mod:`repro.service.orchestrator`) — is a list of picklable
shard *tasks* plus a module-level work function and a merge.  Each
task owns some vantages and rebuilds its own seeded topology replica;
its result is a pure function of the task.  Everything between the
tasks and the merge is the same for both kinds of run and lives here
once: the replica set-up, the supervisor specs, wrong-shard
validation, per-vantage reassignment, the journal identity, and the
supervised execution itself.

The code never asks which kind of run it serves.  It relies on a small
common surface instead:

- a task is a dataclass with ``internet``, ``vantage_ids``,
  ``max_destinations``, ``destination_seed``, ``metrics`` and
  ``trace_capacity`` fields, a ``fleet_config`` property (the
  :class:`repro.vantage.campaign.FleetConfig` it runs under) and a
  ``kind`` class attribute naming the run in its journal identity;
- a result exposes its per-vantage outcomes as ``vantages`` and its
  :class:`repro.obs.MetricsSnapshot` as a settable ``metrics``, plus a
  ``degradation`` slot for the supervisor's report.
"""

from __future__ import annotations

from dataclasses import asdict, fields, is_dataclass, replace
from typing import Callable, Sequence

from repro.errors import CampaignError
from repro.measurement.destinations import select_pingable_destinations
from repro.runtime.journal import RunJournal, run_identity
from repro.runtime.supervisor import (
    RuntimeOptions,
    ShardSpec,
    ShardSupervisor,
)
from repro.topology.internet import generate_internet


def build_replica(task):
    """A task's seeded topology replica and its pingable destinations.

    Returns ``(topology, destinations)``.  Observability is installed
    *after* the pingable pre-screen: the pre-screen probes from
    ``topology.source`` replay in every shard replica, so counting them
    would break the merged-snapshot == single-process guarantee.
    Metrics and spans cover the campaign proper.
    """
    topology = generate_internet(task.internet)
    seed = (task.destination_seed if task.destination_seed is not None
            else task.fleet_config.seed)
    destinations = select_pingable_destinations(
        topology.network, topology.source,
        topology.destination_addresses,
        count=task.max_destinations, seed=seed)
    if task.metrics:
        from repro.obs.registry import MetricsRegistry

        topology.network.metrics = MetricsRegistry()
    if task.trace_capacity > 0:
        from repro.obs.tracing import ProbeTracer

        topology.network.tracer = ProbeTracer(capacity=task.trace_capacity)
    return topology, destinations


def shard_specs(tasks: Sequence) -> list[ShardSpec]:
    """Wrap shard tasks as supervisor :class:`ShardSpec`s.

    Keys name the shard by its vantages (``shard-v0-1``), so the same
    plan always produces the same keys — the property journal resume
    and seeded chaos plans both rely on.
    """
    return [
        ShardSpec(
            key="shard-v" + "-".join(str(v) for v in task.vantage_ids),
            task=task, vantage_ids=list(task.vantage_ids))
        for task in tasks
    ]


def validate_shard(task, result) -> None:
    """Reject a result that does not belong to ``task``'s vantages."""
    got = sorted(v.index for v in result.vantages)
    want = sorted(task.vantage_ids)
    if got != want:
        raise CampaignError(
            f"shard result covers vantages {got}, task owns {want}: "
            "refusing to merge a wrong-shard result")


def split_spec(spec: ShardSpec) -> list[ShardSpec]:
    """Reassign an exhausted shard: one fresh task per vantage.

    Shard results are pure functions of their tasks, so regrouping a
    shard's vantages into singleton tasks changes nothing about the
    merged bytes — only which worker computes them.
    """
    return [
        ShardSpec(
            key=f"{spec.key}/v{vantage_id}",
            task=replace(spec.task, vantage_ids=[vantage_id]),
            vantage_ids=[vantage_id])
        for vantage_id in spec.vantage_ids
    ]


def shard_run_identity(tasks: Sequence) -> str:
    """The journal-binding digest of a sharded run.

    Covers everything that determines the run's bytes: the run's kind,
    the shard plan, and every other task field (configs as plain
    dicts, a strategy builder by its name).  A resume against a
    journal written under any other description is refused.
    """
    first = tasks[0]
    description = {
        "kind": first.kind,
        "plan": [list(task.vantage_ids) for task in tasks],
    }
    for spec_field in fields(first):
        if spec_field.name == "vantage_ids":
            continue
        value = getattr(first, spec_field.name)
        if is_dataclass(value):
            value = asdict(value)
        elif callable(value):
            value = getattr(value, "__name__", None)
        description[spec_field.name] = value
    return run_identity(description)


def run_supervised(
    tasks: Sequence,
    work: Callable,
    merge: Callable,
    processes: bool = False,
    runtime=None,
    journal_path=None,
):
    """Run shard tasks under the :class:`ShardSupervisor` and merge.

    ``work`` is the module-level shard function (``work(task) ->
    partial result``) and ``merge`` recombines the partials.  The
    merged result carries the run's
    :class:`repro.runtime.DegradationReport` (when there is anything
    to report) on ``degradation`` and — when shard metrics are enabled
    — the supervisor's ``repro_runtime_*`` series merged into
    ``metrics``.
    """
    if not tasks:
        raise CampaignError("no shard tasks to supervise")
    journal = None
    if journal_path is not None:
        journal = RunJournal(journal_path, shard_run_identity(tasks))
    coordinator = None
    if tasks[0].metrics:
        from repro.obs.registry import MetricsRegistry

        coordinator = MetricsRegistry()
    supervised = ShardSupervisor(
        shard_specs(tasks), work,
        processes=processes, options=runtime or RuntimeOptions(),
        validate=validate_shard, split=split_spec,
        journal=journal, registry=coordinator).execute()
    merged = merge(supervised.results)
    merged.degradation = supervised.report
    if coordinator is not None:
        from repro.obs.registry import MetricsSnapshot

        snapshots = [s for s in (merged.metrics, coordinator.snapshot())
                     if s is not None]
        merged.metrics = MetricsSnapshot.merge(snapshots)
    return merged
