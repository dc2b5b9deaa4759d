"""Fault-tolerant execution runtime for sharded campaigns.

The fleet and monitor layers split work into shards whose results are
pure functions of their tasks; this package supervises those shards so
worker crashes, hangs, and lost results degrade gracefully instead of
aborting the run — while preserving the byte-identical merge the
purity contract promises.

- :mod:`repro.runtime.supervisor` — :class:`ShardSupervisor`: retries
  under backoff, per-attempt deadlines, reassignment, exclusion.
- :mod:`repro.runtime.shards` — the one shard executor both sharded
  entry points run through: replica set-up, specs, validation,
  reassignment splitting, journal identity, :func:`run_supervised`.
- :mod:`repro.runtime.backoff` — seeded decorrelated-jitter schedules.
- :mod:`repro.runtime.journal` — crash-safe checkpoint/resume.
- :mod:`repro.runtime.degradation` — the partial-coverage report.
- :mod:`repro.runtime.chaos` — deterministic fault injection used to
  *prove* all of the above.
"""

from repro.runtime.backoff import BackoffPolicy
from repro.runtime.chaos import (
    CHAOS_KINDS,
    ChaosCrash,
    ChaosDirective,
    ChaosPlan,
    ResultLost,
    RunAborted,
    ShardHang,
)
from repro.runtime.degradation import (
    DegradationReport,
    ShardExclusion,
    ShardIncident,
    merge_reports,
)
from repro.runtime.journal import JournalError, RunJournal, run_identity
from repro.runtime.shards import (
    build_replica,
    run_supervised,
    shard_run_identity,
    shard_specs,
    split_spec,
    validate_shard,
)
from repro.runtime.supervisor import (
    RuntimeOptions,
    ShardSpec,
    ShardSupervisor,
    SupervisedRun,
)

__all__ = [
    "BackoffPolicy",
    "CHAOS_KINDS",
    "ChaosCrash",
    "ChaosDirective",
    "ChaosPlan",
    "DegradationReport",
    "JournalError",
    "ResultLost",
    "RunAborted",
    "RunJournal",
    "RuntimeOptions",
    "ShardExclusion",
    "ShardHang",
    "ShardIncident",
    "ShardSpec",
    "ShardSupervisor",
    "SupervisedRun",
    "build_replica",
    "merge_reports",
    "run_identity",
    "run_supervised",
    "shard_run_identity",
    "shard_specs",
    "split_spec",
    "validate_shard",
]
