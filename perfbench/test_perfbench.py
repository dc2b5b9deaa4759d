"""Smoke tests of the benchmark itself, at tiny workload sizes.

Each workload must print every metric ``BENCHMARK.json`` names, with
its unit, in both modes; and a corrupted output must count as a failed
operation, never as a pass.
"""

import json
import os
import statistics
from dataclasses import replace

import pytest

import run

run.load_program()

import workloads  # noqa: E402
from workloads import Census, FleetMda, MonitorArchive  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

TINY = {
    "census": Census(rounds=2, n_stub=8),
    "fleet_mda": FleetMda(vantages=2, n_stub=8, dests_per_stub=1),
    "monitor_archive": MonitorArchive(vantages=2, targets=4, duration=120.0,
                                      max_rounds=3, sweeps=2),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_run(request, tmp_path_factory):
    """One traced tiny run per workload: both metric sets come out."""
    out_dir = tmp_path_factory.mktemp(request.param)
    return run.measure(TINY[request.param], seed=3, seconds=0, trace=True,
                       out_dir=str(out_dir)), out_dir


def test_workloads_match_the_spec():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("group", ["end_to_end", "per_layer"])
def test_every_metric_printed_with_its_unit(traced_run, group):
    result, __ = traced_run
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {metric: unit for metric, (__, unit)
               in result[group].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[group]}


def test_end_to_end_metrics_are_never_zero(traced_run):
    result, __ = traced_run
    assert all(value > 0 for value, __ in result["end_to_end"].values())


def test_traced_run_shows_predicted_idle_layers(traced_run):
    result, out_dir = traced_run
    name = result["workload"]
    rows = run.idle_report(name, result["per_layer"])
    assert [layer for layer, __, zero in rows if not zero] == []
    assert result["per_layer"]["net.self_s"][0] > 0
    assert (out_dir / f"spans-{name}-3.jsonl.gz").exists()


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_counts_as_failure(name, tmp_path, monkeypatch):
    workload = TINY[name]
    honest = workload.iterate
    calls = []

    def corrupted(ctx):
        it = honest(ctx)
        calls.append(it)
        if len(calls) > 1:
            # Flip one bit of the output digest after the first run.
            flipped = "%x" % (int(it.signature[0], 16) ^ 1)
            it = replace(it, signature=flipped + it.signature[1:])
        return it

    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    monkeypatch.setattr(workload, "iterate", corrupted, raising=False)
    result = run.measure(workload, seed=3, seconds=0, out_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == 1


def test_fleet_inline_mismatch_is_a_failure(tmp_path, monkeypatch):
    workload = TINY["fleet_mda"]
    honest = workload.prepare

    def wrong_reference(ctx):
        ctx = honest(ctx)
        return dict(ctx, inline_signature="0" * 64)

    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    monkeypatch.setattr(workload, "prepare", wrong_reference, raising=False)
    result = run.measure(workload, seed=3, seconds=0, out_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == 2


def test_signatures_recorded_at_default_and_held_out_seed():
    recorded = sorted((w.name, seed)
                      for w, seed in workloads.EXPECTED_SIGNATURES)
    assert recorded == sorted(
        (name, seed) for name in TINY
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED))


@pytest.mark.parametrize("name", sorted(TINY))
def test_recorded_signature_mismatch_is_a_failure(name, tmp_path,
                                                  monkeypatch):
    workload = TINY[name]
    monkeypatch.setitem(workloads.EXPECTED_SIGNATURES, (workload, 3),
                        "0" * 64)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    result = run.measure(workload, seed=3, seconds=0, out_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == 2


def test_host_times_are_rescaled_by_the_reference(tmp_path, monkeypatch):
    # A host twice as slow as the reference speed doubles throughput and
    # halves set-up time once rescaled.
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REFERENCE_S)
    result = run.measure(TINY["census"], seed=3, seconds=0,
                         out_dir=str(tmp_path))
    its = result["iterations"]
    assert result["slowdown"] == [2.0] * len(its)
    metrics = {name: value for name, (value, __)
               in result["end_to_end"].items()}
    assert metrics["traces_per_s"] == pytest.approx(
        2 * statistics.median(it.traces / it.work_s for it in its))
    assert metrics["setup_s"] == pytest.approx(statistics.median(
        s for it in its for s in it.setup_samples) / 2)


def test_exits_without_result_when_program_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        run.load_program()
    assert exit_info.value.code not in (0, None)
