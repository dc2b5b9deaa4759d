"""The benchmark's three workloads: inputs, timed work and output checks.

Every workload is built from one seed and hands the program only what
a user would: a generated :class:`InternetConfig`, a destination list
and run configs.  The configs live here, not in ``benchmarks/``, so an
edit to a pytest bench cannot silently change what this benchmark
measures.

Each workload measures one fixed internet (:data:`TOPOLOGY_SEED`); the
run's seed drives everything measured on it: the destination shuffle,
lane assignment, flow identifiers and fault streams.  Drawing the
topology from the run seed too moved probes per trace by 9 % and
simulated time per trace by 42 % (quartile spread over twelve seeds),
more than any regression bound could absorb.

One *iteration* of a workload is a fresh set-up (timed as set-up) plus
the timed work.  ``run.measure`` repeats iterations for the run's time
budget and reports medians over them.

The output digests of the full-size workloads at the default and the
held-out seed are recorded in :data:`EXPECTED_SIGNATURES`, so a change
that alters what the program computes fails a check even where every
iteration of one process agrees with the others.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from repro.core import (
    AnomalyCause,
    compute_cycle_statistics,
    compute_diamond_statistics,
    compute_loop_statistics,
)
from repro.faults import diurnal_rate_limit_phases, make_fault_profile
from repro.measurement.campaign import Campaign, CampaignConfig
from repro.measurement.destinations import select_pingable_destinations
from repro.measurement.storage import route_to_dict
from repro.runtime import RuntimeOptions
from repro.service import MonitorConfig, run_monitor
from repro.topology.internet import InternetConfig, generate_internet
from repro.vantage import (
    FleetConfig,
    mda_lite_strategy_builder,
    run_fleet,
    run_fleet_sharded,
)
from repro.vantage.sharding import plan_shards
from repro.warehouse import Warehouse, ingest_monitor
from repro.warehouse import queries as warehouse_queries

#: Seed of every workload's internet (the repo's default bench seed).
TOPOLOGY_SEED = 42

#: Host seconds of set-up builds per untraced iteration (at least one
#: build).  ``setup_s`` is the median over every build of a run: a
#: 12 ms set-up gets about 40 samples per iteration, a 75 ms one seven.
SETUP_BUDGET_S = 0.5

#: Sizes no smaller instance changes.
CENSUS_WORKERS = 32
CENSUS_DESTS_PER_STUB = 4
FLEET_ROUNDS = 1
FLEET_WORKERS = 8
FLEET_SHARDS = 2

#: The seven canned warehouse analyses, in sweep order.  Looked up by
#: name at call time so the traced run's wrappers see every call.
QUERY_NAMES = ("per_as_artifact_rates", "per_cause_onset_rates",
               "tool_artifact_deltas", "anomaly_prevalence",
               "inconsistency_mining", "vantage_disagreements",
               "route_change_history")


@dataclass
class Iteration:
    """What one set-up plus timed work produced."""

    #: Host seconds of each set-up build.
    setup_samples: list[float]
    #: Host seconds of the timed work.
    work_s: float
    traces: int
    target_rounds: int
    probes: int
    #: Simulated seconds summed over every trace.
    sim_trace_s: float
    #: Simulated seconds from the first trace start to the last end.
    sim_makespan_s: float
    #: Digest of the output; must repeat across iterations of one seed.
    signature: str
    #: Output-check name -> passed.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Operations attempted and failed besides the output checks
    #: (traces, shard attempts, query calls).
    operations: int = 0
    operations_failed: int = 0
    #: Phases of the timed work (``monitor_archive`` only).
    monitor_s: float = 0.0
    ingest_s: float = 0.0
    rows: int = 0
    query_ms: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.work_s


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _makespan(results) -> float:
    """Simulated seconds from the first round start to the last end."""
    rounds = [r for result in results for r in result.rounds]
    return (max(r.finished_at for r in rounds)
            - min(r.started_at for r in rounds))


def _sim_trace_s(results) -> float:
    return sum(r.trace_duration for result in results for r in result.routes
               ) + sum(s.result.duration for result in results
                       for s in result.strategy_results)


def timed_setup(ctx: dict, build, *args, discard=None):
    """Build the set-up until ``ctx["setup_budget_s"]`` is spent.

    Returns every build time and the last build; ``discard`` releases
    each earlier one, untimed.
    """
    times, state = [], None
    while not times or sum(times) < ctx["setup_budget_s"]:
        if state is not None and discard is not None:
            discard(state)
        gc.collect()
        started = time.perf_counter()
        state = build(*args)
        times.append(time.perf_counter() - started)
    return times, state


def start_clock() -> float:
    """Collect garbage left by earlier phases, then start timing."""
    gc.collect()
    return time.perf_counter()


def engine_internet(n_stub: int = 22, dests_per_stub: int = 4,
                    **extra) -> InternetConfig:
    """The engine-bench internet: deterministic, no loss, no faults."""
    return InternetConfig(
        seed=TOPOLOGY_SEED, n_tier1=6, n_transit=10, n_stub=n_stub,
        dests_per_stub=dests_per_stub,
        n_loop_stub_diamonds=4, n_cycle_stub_diamonds=1,
        n_nat_dests=2, n_zero_ttl_dests=2,
        response_loss_rate=0.0, p_per_packet=0.0, **extra)


@dataclass(unsafe_hash=True)
class Census:
    """Sec. 3 paired classic + Paris campaign, then the Sec. 4 tables.

    A closed loop of :data:`CENSUS_WORKERS` lanes on the pipelined engine
    from one vantage: each lane starts its next trace when the last completes.
    """

    name = "census"
    rounds: int = 4
    n_stub: int = 22

    def prepare(self, ctx: dict) -> dict:
        return ctx

    def setup(self, seed: int):
        topology = generate_internet(engine_internet(
            self.n_stub, CENSUS_DESTS_PER_STUB))
        destinations = select_pingable_destinations(
            topology.network, topology.source,
            topology.destination_addresses, seed=seed)
        return topology, destinations

    def iterate(self, ctx: dict) -> Iteration:
        seed = ctx["seed"]
        setup, (topology, destinations) = timed_setup(ctx, self.setup, seed)

        started = start_clock()
        result = Campaign(
            topology.network, topology.source, destinations,
            CampaignConfig(rounds=self.rounds, workers=CENSUS_WORKERS,
                           seed=seed, engine="pipelined")).run()
        loops = compute_loop_statistics(result.routes, destinations)
        compute_cycle_statistics(result.routes, destinations)
        diamonds = compute_diamond_statistics(result.routes, destinations)
        work_s = time.perf_counter() - started

        expected = 2 * self.rounds * len(destinations)
        return Iteration(
            setup_samples=setup, work_s=work_s,
            traces=len(result.routes),
            target_rounds=len(result.paris_routes()),
            probes=result.probes_sent,
            sim_trace_s=_sim_trace_s([result]),
            sim_makespan_s=_makespan([result]),
            signature=_digest([route_to_dict(r) for r in result.routes]),
            checks={
                "per_flow_loops":
                    loops.causes.counts.get(AnomalyCause.PER_FLOW_LB, 0) > 0,
                "paris_fewer_diamonds":
                    diamonds.diamonds_paris < diamonds.diamonds_classic,
            },
            operations=expected,
            operations_failed=max(0, expected - len(result.routes)),
        )


@dataclass(unsafe_hash=True)
class FleetMda:
    """Four vantages, MDA-Lite census, adversarial faults, K=2 supervised.

    Closed loop of :data:`FLEET_WORKERS` lanes per vantage, the shards in
    supervised worker processes; the coordinator only waits.

    Each shard worker generates the internet and pre-screens its
    destinations itself, inside the timed work.  ``setup_s`` times that
    same per-shard set-up once in the coordinator, as a stand-in: the
    coordinator itself only plans shards, which takes microseconds.
    """

    name = "fleet_mda"
    vantages: int = 4
    n_stub: int = 22
    dests_per_stub: int = 4

    def internet(self, seed: int) -> InternetConfig:
        return engine_internet(
            self.n_stub, self.dests_per_stub,
            n_vantages=self.vantages,
            fault_profile=make_fault_profile("adversarial", seed=seed))

    def fleet(self, seed: int) -> FleetConfig:
        return FleetConfig(rounds=FLEET_ROUNDS, workers=FLEET_WORKERS,
                           seed=seed)

    def prepare(self, ctx: dict) -> dict:
        # The reference: one inline, single-scheduler run of the same
        # inputs, computed once per seed outside the timed iterations.
        seed = ctx["seed"]
        reference = run_fleet(self.internet(seed), self.fleet(seed),
                              strategy_builder=mda_lite_strategy_builder,
                              metrics=True)
        return dict(ctx, inline_signature=reference.signature(),
                    inline_traces=_fleet_traces(reference))

    def setup(self, internet: InternetConfig, seed: int):
        # What each shard worker does before its campaign.
        topology = generate_internet(internet)
        return select_pingable_destinations(
            topology.network, topology.source,
            topology.destination_addresses, seed=seed)

    def iterate(self, ctx: dict) -> Iteration:
        seed = ctx["seed"]
        internet = self.internet(seed)
        setup, __ = timed_setup(ctx, self.setup, internet, seed)

        started = start_clock()
        result = run_fleet_sharded(
            internet, self.fleet(seed), shards=FLEET_SHARDS,
            processes=True, strategy_builder=mda_lite_strategy_builder,
            metrics=True, runtime=RuntimeOptions())
        work_s = time.perf_counter() - started

        runs = [v.result for v in result.vantages]
        traces = _fleet_traces(result)
        expected = ctx["inline_traces"]
        shards = len(plan_shards(internet.n_vantages, FLEET_SHARDS))
        attempts = _series_total(result.metrics,
                                 "repro_runtime_shard_attempts_total")
        retries = _series_total(result.metrics, "repro_runtime_retries_total")
        return Iteration(
            setup_samples=setup, work_s=work_s,
            traces=traces,
            target_rounds=sum(len(r.paris_routes()) for r in runs),
            probes=sum(r.probes_sent for r in runs),
            sim_trace_s=_sim_trace_s(runs),
            sim_makespan_s=_makespan(runs),
            signature=result.signature(),
            checks={
                "matches_inline":
                    result.signature() == ctx["inline_signature"],
                "not_degraded": result.degradation is None,
                "zero_retries": retries == 0,
            },
            operations=expected + shards,
            operations_failed=(max(0, expected - traces)
                               + max(0, int(attempts) - shards)),
        )


def _fleet_traces(result) -> int:
    return sum(len(v.result.routes) + len(v.result.strategy_results)
               for v in result.vantages)


def _series_total(snapshot, family: str) -> float:
    """Sum of every series of one counter family (0 when absent)."""
    if snapshot is None or family not in snapshot.families:
        return 0.0
    return float(sum(snapshot.families[family]["series"].values()))


@dataclass(unsafe_hash=True)
class MonitorArchive:
    """A bounded monitor run, then ingest and repeated query sweeps.

    The monitor is an open loop in simulated time: each target is
    re-probed on its fixed period whatever the previous round cost.
    Rounds are due in simulated time, so the generator cannot fall
    behind on the host.
    """

    name = "monitor_archive"
    vantages: int = 4
    targets: int = 16
    duration: float = 480.0
    max_rounds: int = 12
    #: Sweeps of the seven canned queries per iteration; 15 sweeps give
    #: 105 latency samples, so p90 has ten samples beyond it.
    sweeps: int = 15

    def internet(self, seed: int) -> InternetConfig:
        return InternetConfig(
            seed=TOPOLOGY_SEED, n_tier1=3, n_transit=4, n_stub=8,
            dests_per_stub=2,
            n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1,
            n_nat_dests=1, n_zero_ttl_dests=1,
            response_loss_rate=0.0, p_per_packet=0.0,
            n_vantages=self.vantages, dynamics_horizon=self.duration,
            route_changes_per_hour=90.0, forwarding_loops_per_hour=30.0,
            event_duration=45.0,
            fault_phases=diurnal_rate_limit_phases(
                period=self.duration / 6, cycles=3, seed=seed))

    def monitor(self, seed: int) -> MonitorConfig:
        return MonitorConfig(duration=self.duration, periods=(30.0, 40.0),
                             max_rounds=self.max_rounds,
                             fleet=FleetConfig(workers=2, seed=seed))

    def prepare(self, ctx: dict) -> dict:
        return ctx

    def setup(self, internet: InternetConfig, path: str):
        return generate_internet(internet).asmap, Warehouse(path)

    @staticmethod
    def discard(state) -> None:
        warehouse = state[1]
        warehouse.close()
        os.remove(warehouse.path)

    def iterate(self, ctx: dict) -> Iteration:
        seed = ctx["seed"]
        internet = self.internet(seed)
        path = os.path.join(ctx["workdir"],
                            f"warehouse-{os.getpid()}-{seed}.sqlite")
        setup, state = timed_setup(ctx, self.setup, internet, path,
                                   discard=self.discard)
        asmap, warehouse = state
        try:
            # The timed work is the whole iteration: monitor, ingest and
            # every query sweep, so both warehouse paths count.
            started = start_clock()
            result = run_monitor(internet, self.monitor(seed),
                                 max_destinations=self.targets)
            ingest_started = time.perf_counter()
            receipt = ingest_monitor(warehouse, result, asmap=asmap)
            queries_started = time.perf_counter()

            # A query call fails when it yields no rows.
            latencies, empty_calls = [], 0
            for __ in range(self.sweeps):
                for name in QUERY_NAMES:
                    query = getattr(warehouse_queries, name)
                    called = time.perf_counter()
                    rows = sum(1 for __ in query(warehouse))
                    latencies.append(
                        1000.0 * (time.perf_counter() - called))
                    empty_calls += rows == 0
            finished = time.perf_counter()
            stored = sum(count for table, count
                         in warehouse.row_counts().items() if table != "runs")
            digest = warehouse.content_digest()
        finally:
            self.discard(state)

        runs = [v.result for v in result.fleet.vantages]
        return Iteration(
            setup_samples=setup, work_s=finished - started,
            traces=sum(len(r.routes) for r in runs),
            target_rounds=result.health["target_rounds"],
            probes=sum(r.probes_sent for r in runs),
            sim_trace_s=_sim_trace_s(runs),
            sim_makespan_s=result.health["sim_duration"],
            signature=digest,
            checks={"stored_rows_match_receipt": stored == receipt.rows},
            operations=len(latencies),
            operations_failed=empty_calls,
            monitor_s=ingest_started - started,
            ingest_s=queries_started - ingest_started,
            rows=receipt.rows, query_ms=latencies,
        )


WORKLOADS = {w.name: w for w in (Census, FleetMda, MonitorArchive)}

#: Output digest of each full-size workload at the default and the
#: held-out seed (``run.DEFAULT_SEED``, ``run.HELD_OUT_SEED``).
EXPECTED_SIGNATURES = {
    (Census(), 42):
        "97607696531b6abff4b10e3861a425568eb7cf5e19ed1b6bcea85f214010ed97",
    (Census(), 20061025):
        "7b1f9744c9459443d2d2a17cb0808091319ffe639d4694cc5f332c010f58925d",
    (FleetMda(), 42):
        "5caaae04f96555e13200d4591435982c9ae78eccf8c26be77d2330d1ba8aff89",
    (FleetMda(), 20061025):
        "57c33240f069c4e009e9316d550cbab247cce80e43033fb759642c9d22d3c18e",
    (MonitorArchive(), 42):
        "773dbf5b2a07ab3761cf594286857510a1c26731b7a37b358007f6ce5b35b256",
    (MonitorArchive(), 20061025):
        "84ca643dbffc9568204bca186e42754ad202d5624048618edaeee405f8806cdc",
}


def expected_signature(workload, seed: int):
    """The recorded digest of ``workload`` at ``seed``, or None."""
    return EXPECTED_SIGNATURES.get((workload, seed))
