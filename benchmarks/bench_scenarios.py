"""K6 — scenario library end-to-end: train → serve → load → BENCH file.

Drives the committed ``scenarios/`` library through
:func:`repro.scenarios.run_scenario` and gates the result:

* the run completes end-to-end (fit, persist, boot on an ephemeral
  port, seeded load) with a zero error rate;
* the produced ``BENCH_<name>.json`` validates against the bench
  schema and carries the server-side ``serve.*`` counter deltas.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -q -s

``REPRO_BENCH_SCALE=fast`` switches every scenario to its fast preset
(the CI scenarios job uses this); the default ``bench``/``paper`` scales
run the full-size documents.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.scenarios import discover_scenarios, load_bench, load_scenario, run_scenario

FAST = os.environ.get("REPRO_BENCH_SCALE", "bench") == "fast"
PRESET = "fast" if FAST else None
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
# The CI smoke runs one scenario; bench/paper scales sweep the library.
SCENARIOS = ["pima_r"] if FAST else ["pima_r", "ehr_stream", "images_binarized"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_end_to_end(name, tmp_path):
    spec = load_scenario(discover_scenarios(SCENARIO_DIR)[name])
    entry = run_scenario(spec, preset=PRESET, out_dir=tmp_path)
    load = entry["load"]
    print(
        f"\n[{name}{' fast' if FAST else ''}] {load['mode']}-loop "
        f"{load['n_requests']} req x {load['rows_per_request']} rows: "
        f"{load['throughput_rps']:.1f} req/s, "
        f"p50={load['latency_ms']['p50']:.2f}ms "
        f"p99={load['latency_ms']['p99']:.2f}ms "
        f"errors={load['error_rate']:.4f}"
    )
    assert load["error_rate"] == 0.0, load["status_counts"]
    assert not load["slo_violations"], load["slo_violations"]

    doc = load_bench(tmp_path / f"BENCH_{name}.json")  # schema-validates
    assert doc["scenario"] == name
    metrics = doc["runs"][-1]["server_metrics"]
    assert metrics["serve.requests"] >= load["n_requests"]
    assert metrics["serve.rows"] >= load["n_requests"] * load["rows_per_request"]
    assert metrics["serve.rejected"] == 0
    assert metrics["serve.errors"] == 0

