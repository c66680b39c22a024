"""repro.scenarios — declarative workload scenarios + synthetic load harness.

A scenario file (``scenarios/*.json`` / ``*.toml``) declares dataset,
encoder, model, traffic shape, and SLO; this package resolves it into an
offline experiment, a persisted model artifact, a live server, and a
seeded load run whose report accumulates in a schema-versioned
``BENCH_<scenario>.json`` trajectory.  See DESIGN.md §10.
"""

from repro.scenarios.errors import BenchSchemaError, ScenarioError
from repro.scenarios.load import (
    FakeTransport,
    HttpTransport,
    LoadReport,
    arrival_schedule,
    evaluate_slo,
    find_saturation,
    run_load,
    summarize,
)
from repro.scenarios.report import (
    BENCH_SCHEMA_VERSION,
    bench_path,
    load_bench,
    make_run_entry,
    merge_bench,
    new_bench,
    update_bench_file,
    validate_bench,
    write_bench,
)
from repro.scenarios.resolve import (
    boot_server,
    build_artifact,
    build_dataset,
    build_pipeline,
    run_offline,
)
from repro.scenarios.rollout import run_rollout
from repro.scenarios.runner import run_scenario
from repro.scenarios.schema import (
    SCENARIO_SCHEMA_VERSION,
    DatasetSpec,
    EncoderSpec,
    ModelSpec,
    RolloutSpec,
    ScenarioSpec,
    ServeSpec,
    SLOSpec,
    TrafficSpec,
    apply_preset,
    discover_scenarios,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SCENARIO_SCHEMA_VERSION",
    "BenchSchemaError",
    "DatasetSpec",
    "EncoderSpec",
    "FakeTransport",
    "HttpTransport",
    "LoadReport",
    "ModelSpec",
    "RolloutSpec",
    "SLOSpec",
    "ScenarioError",
    "ScenarioSpec",
    "ServeSpec",
    "TrafficSpec",
    "apply_preset",
    "arrival_schedule",
    "bench_path",
    "boot_server",
    "build_artifact",
    "build_dataset",
    "build_pipeline",
    "discover_scenarios",
    "evaluate_slo",
    "find_saturation",
    "load_bench",
    "load_scenario",
    "make_run_entry",
    "merge_bench",
    "new_bench",
    "run_load",
    "run_offline",
    "run_rollout",
    "run_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "summarize",
    "update_bench_file",
    "validate_bench",
    "write_bench",
]
