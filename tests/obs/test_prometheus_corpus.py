"""Exposition corpus: every serve.*/lifecycle.*/loadgen.* metric reaches /metrics.

This is the corpus hdlint's HD011 rule checks declarations against: a
metric declared in ``repro.serve.metrics`` / ``repro.lifecycle.metrics``
/ ``repro.scenarios.metrics`` whose exported ``repro_*`` name is missing
from the literals below fails lint, and a renamed/typo'd exposition name
fails these assertions — so the two can only drift together, loudly.
"""

import pytest

from repro.lifecycle.metrics import (
    record_ab_candidate,
    record_candidate_error,
    record_drift,
    record_follow_ups,
    record_reload,
    record_reload_error,
    record_shadow,
    record_shadow_dropped,
    set_generation,
)
from repro.obs.export import to_prometheus
from repro.obs.metrics import REGISTRY
from repro.scenarios.load import LoadReport
from repro.scenarios.metrics import record_load_request, record_load_run
from repro.serve.metrics import (
    record_error,
    record_flush,
    record_rejected,
    record_request,
    record_worker_restart,
    set_model_loaded,
)

#: Exported sample names (prefix match): counters expose ``_total``,
#: histograms ``_bucket``/``_sum``/``_count``, gauges the bare name.
SERVE_SERIES = [
    "repro_serve_requests_total",
    "repro_serve_rows_total",
    "repro_serve_batches_total",
    "repro_serve_rejected_total",
    "repro_serve_errors_total",
    "repro_serve_batch_size_bucket",
    "repro_serve_queue_depth_bucket",
    "repro_serve_request_seconds_bucket",
    "repro_serve_flush_seconds_bucket",
    "repro_serve_model_loaded",
    "repro_serve_worker_restarts_total",
]

LIFECYCLE_SERIES = [
    "repro_lifecycle_reloads_total",
    "repro_lifecycle_reload_errors_total",
    "repro_lifecycle_generation",
    "repro_lifecycle_swap_seconds_bucket",
    "repro_lifecycle_shadow_rows_total",
    "repro_lifecycle_shadow_disagreements_total",
    "repro_lifecycle_shadow_dropped_total",
    "repro_lifecycle_shadow_agreement",
    "repro_lifecycle_candidate_seconds_bucket",
    "repro_lifecycle_candidate_errors_total",
    "repro_lifecycle_ab_candidate_requests_total",
    "repro_lifecycle_drift_rows_total",
    "repro_lifecycle_drift_distance",
    "repro_lifecycle_drift_alert",
    "repro_lifecycle_follow_ups_total",
]

LOADGEN_SERIES = [
    "repro_loadgen_requests_total",
    "repro_loadgen_errors_total",
    "repro_loadgen_runs_total",
    "repro_loadgen_latency_seconds_bucket",
    "repro_loadgen_last_throughput",
]


def _report() -> LoadReport:
    return LoadReport(
        mode="closed",
        n_requests=4,
        rows_per_request=2,
        concurrency=1,
        offered_rps=None,
        duration_s=0.1,
        throughput_rps=40.0,
        row_throughput_rps=80.0,
        latency_ms={"p50": 1.0},
        status_counts={"200": 3, "500": 1},
        error_rate=0.25,
    )


@pytest.fixture()
def exposition() -> str:
    REGISTRY.reset()
    record_request(0.003)
    record_rejected()
    record_error()
    record_flush(rows=8, seconds=0.002, queue_depth=3)
    set_model_loaded(True)
    record_worker_restart()
    record_reload(0.05)
    record_reload_error()
    set_generation(1)
    record_shadow(rows=4, disagreements=1, seconds=0.002, agreement=0.75)
    record_shadow_dropped()
    record_candidate_error()
    record_ab_candidate(0.001)
    record_drift(rows=4, distance=0.1, alert=False)
    record_follow_ups(2)
    record_load_request(0.004, 200)
    record_load_request(0.009, 500)
    record_load_run(_report())
    try:
        yield to_prometheus()
    finally:
        REGISTRY.reset()


@pytest.mark.parametrize("series", SERVE_SERIES)
def test_serve_series_exported(exposition, series):
    assert series in exposition, f"{series} missing from /metrics exposition"


@pytest.mark.parametrize("series", LIFECYCLE_SERIES)
def test_lifecycle_series_exported(exposition, series):
    assert series in exposition, f"{series} missing from /metrics exposition"


@pytest.mark.parametrize("series", LOADGEN_SERIES)
def test_loadgen_series_exported(exposition, series):
    assert series in exposition, f"{series} missing from /metrics exposition"
