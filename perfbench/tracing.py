"""Per-layer spans and counts for the traced run.

The program is not edited: :class:`Recorder` wraps public functions of
each layer (module functions and class methods) for the duration of one
traced iteration and restores them afterwards.  A span records its
name, start, end, parent span and process; all spans of one run share a
run id.  Counts are taken at the same wrappers.

Layer self time is a span's duration minus the part its children in the
same process cover.  Shard workers are forked while the wrappers are
installed, so they inherit them; each worker appends its spans and
counts to ``<out_dir>/<run id>.<pid>.jsonl`` whenever its outermost
span closes, and :meth:`Recorder.collect` folds those files back in.
"""

from __future__ import annotations

import collections
import functools
import glob
import gzip
import json
import os
import pickle
import sys
import time

from repro.core import report as core_report
from repro.engine.asyncsocket import AsyncProbeSocket
from repro.engine.scheduler import ProbeScheduler
from repro.faults.plane import DeliveryFaultPlane
from repro.measurement import destinations as measurement_destinations
from repro.measurement.campaign import Campaign
from repro.net.packet import Packet
from repro.obs.registry import MetricsRegistry
from repro.probing.strategy import ProbeStrategy
from repro.runtime.supervisor import ShardSupervisor
from repro.service import alerts as service_alerts
from repro.service import orchestrator as service_orchestrator
from repro.service.detect import OnsetDetector
from repro.sim.network import Network
from repro.topology import internet as topology_internet
from repro.tracer.probes import ProbeBuilder
from repro.vantage.campaign import FleetCampaign, FleetResult
from repro.vantage.demux import ReplyDemux, VantageSocket
from repro.warehouse import ingest as warehouse_ingest
from repro.warehouse import queries as warehouse_queries
from repro.warehouse.store import Warehouse
from workloads import QUERY_NAMES


def _concrete_overrides(base: type, names: tuple[str, ...]):
    """``(cls, name)`` for every subclass that defines ``name`` itself."""
    seen, todo = set(), [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    for cls in sorted(seen, key=lambda c: (c.__module__, c.__qualname__)):
        for name in names:
            member = cls.__dict__.get(name)
            if member is not None and not getattr(
                    member, "__isabstractmethod__", False):
                yield cls, name


class Recorder:
    """Spans and counts of one traced run, across forked workers."""

    def __init__(self, run_id: str, out_dir: str) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.worker = False
        self.active = False
        #: ``(span id, parent id, pid, name, start, end)`` tuples.
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        #: Parent of this process's top-level spans (a worker's spans
        #: hang under the coordinator span it was forked from).
        self.root = None
        self.counts: collections.Counter = collections.Counter()
        self._networks: dict[int, list] = {}
        self.demux_routed = 0
        self._next = 0
        self._patches: list[tuple] = []

    # -- span bookkeeping -----------------------------------------------
    def _open(self) -> tuple:
        self._next += 1
        sid = self.pid * 10_000_000 + self._next
        parent = self.stack[-1] if self.stack else self.root
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end) -> None:
        self.stack.pop()
        self.spans.append((sid, parent, self.pid, name, start, end))

    def _flush_if_outermost(self) -> None:
        if self.worker and not self.stack:
            self._flush_worker()

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.root = self.stack[-1] if self.stack else self.root
        self.pid = os.getpid()
        self.worker = True
        self.spans, self.stack = [], []
        self.counts = collections.Counter()
        self._networks = {}
        self._next = 0

    def _read_lookups(self) -> None:
        """Fold new LPM resolutions of every seen network into counts."""
        for entry in self._networks.values():
            network, last = entry
            now = network.route_lookups()
            self.counts["sim.lpm_lookups"] += now - last
            entry[1] = now

    def _flush_worker(self) -> None:
        self._read_lookups()
        path = os.path.join(self.out_dir, f"{self.run_id}.{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({
                "spans": self.spans, "counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = collections.Counter()

    def collect(self) -> None:
        """Merge every worker file of this run into this process."""
        self._read_lookups()
        for path in sorted(glob.glob(
                os.path.join(self.out_dir, f"{self.run_id}.*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    part = json.loads(line)
                    self.spans.extend(tuple(s) for s in part["spans"])
                    self.counts.update(part["counts"])
            os.remove(path)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip) under this run id."""
        run = json.dumps(self.run_id)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for sid, parent, pid, name, start, end in self.spans:
                handle.write(
                    f'{{"run":{run},"id":{sid},'
                    f'"parent":{json.dumps(parent)},"pid":{pid},'
                    f'"name":"{name}","start":{start!r},"end":{end!r}}}\n')

    # -- wrappers ---------------------------------------------------------
    def _traced(self, name, fn, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(rec, args)
            sid, parent = rec._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec._close(sid, parent, name, start, time.perf_counter())
                rec._flush_if_outermost()
                raise
            rec._close(sid, parent, name, start, time.perf_counter())
            if after is not None:
                after(rec, args, result)
            rec._flush_if_outermost()
            return result

        return traced

    def _traced_iter(self, name, fn):
        """Span over a generator's whole drain, not just its creation."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = rec._open()
            start = time.perf_counter()
            try:
                yield from fn(*args, **kwargs)
            finally:
                rec._close(sid, parent, name, start, time.perf_counter())
                rec._flush_if_outermost()

        return traced

    def _patch_method(self, cls, attr, name, before=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._traced(name, raw.__func__,
                                               before, after))
        else:
            wrapped = self._traced(name, raw, before, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, module, attr, name, wrapper=None,
                        before=None, after=None):
        """Replace a module function everywhere it was imported."""
        original = getattr(module, attr)
        wrapped = (wrapper(name, original) if wrapper is not None
                   else self._traced(name, original, before, after))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        count = _count
        patch = self._patch_method
        func = self._patch_function

        func(topology_internet, "generate_internet",
             "topology.generate_internet", after=_seen_network)
        func(measurement_destinations, "select_pingable_destinations",
             "measurement.select_pingable_destinations")
        patch(Campaign, "run", "measurement.run")
        for stat in ("compute_loop_statistics", "compute_cycle_statistics",
                     "compute_diamond_statistics"):
            func(core_report, stat, f"core.{stat}")

        patch(Packet, "make", "net.make")
        patch(Packet, "build", "net.build", before=_count_build)
        patch(Packet, "parse", "net.parse", before=count("net.packets_parsed"))

        patch(Network, "submit_cohorts", "sim.submit_cohorts",
              before=_count_submit)
        patch(Network, "inject", "sim.inject", before=count("sim.injects"))
        patch(DeliveryFaultPlane, "apply", "faults.apply",
              before=count("faults.applies"))

        patch(AsyncProbeSocket, "send_nowait", "engine.send_nowait",
              before=count("engine.sends"))
        for cls in (AsyncProbeSocket, VantageSocket):
            patch(cls, "poll", "engine.poll", after=_count_poll)
        patch(ProbeScheduler, "run", "engine.run")

        hooks = {"next_probes": count("probing.steps"),
                 "on_reply": count("probing.replies"),
                 "on_timeout": count("probing.timeouts")}
        for cls, attr in _concrete_overrides(ProbeStrategy, tuple(hooks)):
            patch(cls, attr, f"probing.{attr}", before=hooks[attr])
        hooks = {"build": count("tracer.builds"),
                 "matches": count("tracer.matches")}
        for cls, attr in _concrete_overrides(ProbeBuilder, tuple(hooks)):
            patch(cls, attr, f"tracer.{attr}", before=hooks[attr])

        patch(FleetCampaign, "run", "vantage.run")
        patch(FleetResult, "merge", "vantage.merge")
        patch(ReplyDemux, "drain", "vantage.drain",
              before=_demux_before, after=_demux_after)

        patch(ShardSupervisor, "execute", "runtime.execute",
              before=_count_tasks, after=_count_supervised)
        patch(ShardSupervisor, "_poll", "runtime.wait")

        patch(MetricsRegistry, "snapshot", "obs.snapshot",
              after=_count_series)

        func(service_orchestrator, "run_monitor", "service.run_monitor")
        patch(OnsetDetector, "feed", "service.feed",
              before=count("service.feeds"))
        func(service_alerts, "build_alert_log", "service.build_alert_log")

        func(warehouse_ingest, "ingest_monitor", "warehouse.ingest_monitor",
             after=_count_rows)
        patch(Warehouse, "content_digest", "warehouse.content_digest")
        for query in QUERY_NAMES:
            func(warehouse_queries, query, f"warehouse.{query}",
                 wrapper=self._traced_iter)

        os.register_at_fork(after_in_child=self._after_fork)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# -- count hooks (``before(rec, args)`` / ``after(rec, args, result)``) --
def _count(key):
    def hook(rec, args):
        rec.counts[key] += 1
    return hook


def _count_build(rec, args):
    # Packet.build memoises its wire form: count real serializations.
    if "_wire" not in args[0].__dict__:
        rec.counts["net.packets_built"] += 1


def _count_submit(rec, args):
    rec.counts["sim.submits"] += 1
    rec.counts["sim.probes_submitted"] += sum(
        len(packets) for __, packets in args[1])


def _count_poll(rec, args, result):
    rec.counts["engine.polls"] += 1
    if not result:
        rec.counts["engine.empty_polls"] += 1


def _demux_routed(demux) -> int:
    return demux.discarded + sum(len(q) for q in demux._inboxes.values())


def _demux_before(rec, args):
    rec.demux_routed = _demux_routed(args[0])


def _demux_after(rec, args, result):
    # drain() only appends to inboxes: the growth is what it routed.
    rec.counts["vantage.demux_deliveries"] += (
        _demux_routed(args[0]) - rec.demux_routed)


def _seen_network(rec, args, topology):
    network = topology.network
    rec._networks.setdefault(id(network),
                             [network, network.route_lookups()])


def _count_tasks(rec, args):
    rec.counts["runtime.task_bytes"] += sum(
        len(pickle.dumps(spec.task)) for spec in args[0].specs)


def _count_supervised(rec, args, supervised):
    rec.counts["runtime.attempts"] += supervised.stats["attempts"]
    rec.counts["runtime.retries"] += supervised.stats["retries"]
    rec.counts["runtime.result_bytes"] += sum(
        len(pickle.dumps(result)) for result in supervised.results)


def _count_series(rec, args, snapshot):
    rec.counts["obs.series"] += sum(
        len(family["series"]) for family in snapshot.families.values())


def _count_rows(rec, args, receipt):
    rec.counts["warehouse.rows"] += receipt.rows


def self_times(spans) -> dict[str, float]:
    """Span name -> summed self time (duration minus same-process
    children)."""
    covered: dict[int, float] = collections.defaultdict(float)
    pid_of = {s[0]: s[2] for s in spans}
    for sid, parent, pid, name, start, end in spans:
        if parent is not None and pid_of.get(parent) == pid:
            covered[parent] += end - start
    totals: dict[str, float] = collections.defaultdict(float)
    for sid, parent, pid, name, start, end in spans:
        totals[name] += (end - start) - covered[sid]
    return dict(totals)


def inclusive_times(spans) -> dict[str, float]:
    """Span name -> summed duration."""
    totals: dict[str, float] = collections.defaultdict(float)
    for sid, parent, pid, name, start, end in spans:
        totals[name] += end - start
    return dict(totals)
