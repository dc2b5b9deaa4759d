"""The monitor run's product, and the merge that defines determinism.

A :class:`MonitorResult` layers the service artifacts over the fleet
result: the merged rolling windows (canonical dict form), the labeled
onset stream, and — once finalized — the alert log and health
snapshot.  Sharded execution produces one *partial* result per shard
(``alerts is None``); :meth:`MonitorResult.merge` recombines them,
then runs the alert pipeline and health snapshot over the merged
stream.  The single-process path calls ``merge([the_one_part])`` too,
so both modes finalize through literally the same code — half of why
:meth:`signature` comes out byte-identical.

The signature covers the fleet result, windows, onsets, and alert log;
metrics and the health snapshot stay outside it, matching the fleet
convention that observability never enters the artifacts it observes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import CampaignError
from repro.service.alerts import AlertLog, build_alert_log
from repro.service.config import MonitorConfig
from repro.service.detect import Onset
from repro.service.health import health_snapshot, publish_alert_metrics
from repro.vantage.campaign import FleetResult


@dataclass
class MonitorResult:
    """Everything one monitor run produced."""

    config: MonitorConfig
    fleet: FleetResult
    #: Canonical window dicts, sorted by (vantage, destination, tool).
    windows: list = field(default_factory=list)
    #: Labeled onsets, sorted by (vantage, at, destination, tool,
    #: family, signature).
    onsets: list = field(default_factory=list)
    #: None on a partial (per-shard) result; set by :meth:`merge`.
    alerts: Optional[AlertLog] = None
    #: Operational snapshot (outside the signature, like metrics).
    health: Optional[dict] = None
    #: :class:`repro.runtime.degradation.DegradationReport` stamped by a
    #: supervised execution; outside the signature like ``health``.
    degradation: object = None

    # The fleet-shaped accessors the shared shard executor
    # (:mod:`repro.runtime.shards`) reads on every kind of result.
    @property
    def vantages(self) -> list:
        """The per-vantage outcomes, as on :class:`FleetResult`."""
        return self.fleet.vantages

    @property
    def metrics(self):
        """The run's metrics snapshot (held by the fleet result)."""
        return self.fleet.metrics

    @metrics.setter
    def metrics(self, snapshot) -> None:
        self.fleet.metrics = snapshot

    @classmethod
    def merge(cls, parts: Iterable["MonitorResult"]) -> "MonitorResult":
        """Recombine per-shard partials and finalize the pipeline."""
        parts = list(parts)
        if not parts:
            raise CampaignError("nothing to merge")
        merged = cls(
            config=parts[0].config,
            fleet=FleetResult.merge([p.fleet for p in parts]),
        )
        for part in parts:
            merged.windows.extend(part.windows)
            merged.onsets.extend(part.onsets)
        merged.windows.sort(key=lambda w: (
            w["vantage"], w["destination"], w["tool"]))
        merged.onsets.sort(key=lambda o: (
            o.vantage, o.at, o.destination, o.tool, o.family, o.signature))
        merged.alerts = build_alert_log(merged.onsets, merged.config)
        merged.health = health_snapshot(merged)
        publish_alert_metrics(merged)
        reports = [p.degradation for p in parts
                   if p.degradation is not None]
        if reports:
            from repro.runtime.degradation import merge_reports

            merged.degradation = merge_reports(reports)
        return merged

    # -- canonical serialization ----------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-ready form (the signature's payload)."""
        return {
            "fleet": self.fleet.to_dict(),
            "windows": self.windows,
            "onsets": [o.to_dict() for o in self.onsets],
            "alerts": self.alerts.to_dict() if self.alerts else None,
        }

    def signature(self) -> str:
        """SHA-256 over the canonical serialization.

        The monitor determinism contract in one comparison: a sharded
        run's merged signature equals the single-process run's.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
