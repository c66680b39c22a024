"""BENCH_*.json trajectory: schema validation, merge semantics, files."""

from __future__ import annotations

import copy
import json

import pytest

from repro.scenarios.errors import BenchSchemaError, ScenarioError
from repro.scenarios.load import summarize
from repro.scenarios.report import (
    BENCH_SCHEMA_VERSION,
    SERVER_COUNTERS,
    bench_filename,
    bench_path,
    describe_saturation,
    diff_server_counters,
    load_bench,
    make_run_entry,
    merge_bench,
    new_bench,
    update_bench_file,
    validate_bench,
    write_bench,
)
from repro.scenarios.schema import ScenarioSpec, SLOSpec, TrafficSpec, scenario_from_dict


def _load_report():
    traffic = TrafficSpec(mode="closed", n_requests=4, rows_per_request=1)
    return summarize(
        traffic,
        SLOSpec(),
        latencies_s=[0.001, 0.002, 0.003, 0.004],
        statuses=[200, 200, 200, 429],
        duration_s=0.5,
    )


def _entry(timestamp="2026-08-07T00:00:00+00:00", **kwargs):
    return make_run_entry(
        ScenarioSpec(name="probe"), _load_report(), timestamp=timestamp, **kwargs
    )


def _valid_doc():
    return merge_bench(new_bench("probe"), _entry())


# ----------------------------------------------------------------------
# entries + merge
# ----------------------------------------------------------------------
def test_make_run_entry_shape():
    entry = _entry(preset="fast", server_metrics={"serve.requests": 4.0})
    assert entry["preset"] == "fast"
    assert entry["offline"] is None
    assert entry["saturation"] is None
    assert entry["server_metrics"] == {"serve.requests": 4.0}
    assert entry["repro_version"]
    # the embedded config is a valid scenario document
    assert scenario_from_dict(entry["config"]).name == "probe"


def test_merge_bench_orders_runs_by_timestamp():
    doc = new_bench("probe")
    doc = merge_bench(doc, _entry(timestamp="2026-08-07T02:00:00+00:00"))
    doc = merge_bench(doc, _entry(timestamp="2026-08-07T01:00:00+00:00"))
    stamps = [run["timestamp"] for run in doc["runs"]]
    assert stamps == sorted(stamps)
    assert len(doc["runs"]) == 2
    validate_bench(doc)


def test_merge_bench_does_not_mutate_input():
    doc = new_bench("probe")
    merged = merge_bench(doc, _entry())
    assert doc["runs"] == []
    assert len(merged["runs"]) == 1


# ----------------------------------------------------------------------
# validation errors name the offending key
# ----------------------------------------------------------------------
def _corrupt(mutate):
    doc = copy.deepcopy(_valid_doc())
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate, expected_key",
    [
        (lambda d: d.pop("bench_schema_version"), "bench_schema_version"),
        (lambda d: d.update(bench_schema_version=BENCH_SCHEMA_VERSION + 1), "bench_schema_version"),
        (lambda d: d.update(bench_schema_version=True), "bench_schema_version"),
        (lambda d: d.update(scenario=""), "scenario"),
        (lambda d: d.update(runs={}), "runs"),
        (lambda d: d["runs"][0].pop("timestamp"), "runs[0].timestamp"),
        (lambda d: d["runs"][0].update(preset=3), "runs[0].preset"),
        (lambda d: d["runs"][0].update(config=[]), "runs[0].config"),
        (lambda d: d["runs"][0]["load"].pop("throughput_rps"), "runs[0].load.throughput_rps"),
        (lambda d: d["runs"][0]["load"].update(mode="burst"), "runs[0].load.mode"),
        (lambda d: d["runs"][0]["load"]["latency_ms"].pop("p95"), "runs[0].load.latency_ms.p95"),
        (lambda d: d["runs"][0]["load"]["status_counts"].update(ok=1), "runs[0].load.status_counts.ok"),
        (lambda d: d["runs"][0].update(server_metrics="x"), "runs[0].server_metrics"),
    ],
    ids=[
        "missing-version",
        "future-version",
        "bool-version",
        "empty-scenario",
        "runs-not-a-list",
        "run-missing-timestamp",
        "non-string-preset",
        "config-not-object",
        "load-missing-throughput",
        "load-bad-mode",
        "latency-missing-p95",
        "status-count-key-not-numeric",
        "server-metrics-not-object",
    ],
)
def test_validate_bench_names_offending_key(mutate, expected_key):
    with pytest.raises(BenchSchemaError) as excinfo:
        validate_bench(_corrupt(mutate))
    assert excinfo.value.key == expected_key
    assert isinstance(excinfo.value, ScenarioError)  # one error family


def test_validate_bench_rejects_non_mapping():
    with pytest.raises(BenchSchemaError):
        validate_bench([1, 2, 3])


#: The ``sweep`` section a run entry carried while the simulated worker
#: sweep existed (trimmed ``BENCH_serve_scale.json`` shape).
PARENT_SWEEP = {
    "engine": "simulated",
    "workers": [1, 2],
    "params": {"dispatch_ms": 0.005, "service_ms": 0.7},
    "runs": {
        "1": _load_report().to_dict(),
        "2": _load_report().to_dict(),
    },
    "speedup": {"1": 1.0, "2": 2.0},
}


def test_validate_bench_accepts_the_real_thing(tmp_path):
    validate_bench(_valid_doc())  # must not raise
    # A trajectory written before the sweep was deleted still loads,
    # its unknown section carried through untouched.
    legacy = _valid_doc()
    legacy["runs"][0]["sweep"] = PARENT_SWEEP
    path = tmp_path / "BENCH_probe.json"
    path.write_text(json.dumps(legacy), encoding="utf-8")
    assert load_bench(path) == legacy


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def test_bench_filename_and_path(tmp_path):
    assert bench_filename("pima_r") == "BENCH_pima_r.json"
    assert bench_path(tmp_path, "pima_r") == tmp_path / "BENCH_pima_r.json"


def test_write_and_load_round_trip(tmp_path):
    doc = _valid_doc()
    path = write_bench(tmp_path / "BENCH_probe.json", doc)
    assert load_bench(path) == doc
    # atomic write leaves no temp droppings behind
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_probe.json"]


def test_write_bench_refuses_invalid_documents(tmp_path):
    target = tmp_path / "BENCH_probe.json"
    with pytest.raises(BenchSchemaError):
        write_bench(target, {"bench_schema_version": 1, "scenario": "probe"})
    assert not target.exists()


def test_load_bench_failures(tmp_path):
    with pytest.raises(BenchSchemaError, match="not found"):
        load_bench(tmp_path / "BENCH_missing.json")
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(BenchSchemaError, match="JSON"):
        load_bench(bad)


def test_update_bench_file_accumulates_runs(tmp_path):
    path = bench_path(tmp_path, "probe")
    update_bench_file(path, "probe", _entry(timestamp="2026-08-07T00:00:00+00:00"))
    doc = update_bench_file(path, "probe", _entry(timestamp="2026-08-07T01:00:00+00:00"))
    assert len(doc["runs"]) == 2
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk == doc


def test_update_bench_file_refuses_scenario_mismatch(tmp_path):
    path = bench_path(tmp_path, "probe")
    update_bench_file(path, "probe", _entry())
    with pytest.raises(BenchSchemaError, match="refusing"):
        update_bench_file(path, "other", _entry())
    # the file is untouched by the refused append
    assert len(load_bench(path)["runs"]) == 1


# ----------------------------------------------------------------------
# server counter snapshots
# ----------------------------------------------------------------------
def test_diff_server_counters_covers_every_serve_series():
    before = {name: 10.0 for name in SERVER_COUNTERS}
    after = {name: 12.5 for name in SERVER_COUNTERS}
    diff = diff_server_counters(before, after)
    assert set(diff) == set(SERVER_COUNTERS)
    assert all(v == 2.5 for v in diff.values())


def test_describe_saturation_names_the_knee():
    block = {
        "saturation_rps": 50.0,
        "saturated": True,
        "steps": [{"offered_rps": 50.0}, {"offered_rps": 100.0}],
    }
    assert describe_saturation(block) == "knee at 50 rps (SLO missed at 100 rps)"
