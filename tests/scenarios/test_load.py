"""Load generator: seeded plans, the threaded engine, SLO logic.

No socket is opened here: :class:`FakeTransport` stands in for a server
when a test needs exact status counts, and a lock around a short sleep
stands in for a one-at-a-time FIFO server when it needs real queueing
on the wall clock.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from repro.scenarios.errors import ScenarioError
from repro.scenarios.load import (
    FakeTransport,
    arrival_schedule,
    evaluate_slo,
    find_saturation,
    request_row_indices,
    run_load,
    summarize,
)
from repro.scenarios.report import describe_saturation
from repro.scenarios.schema import SLOSpec, TrafficSpec


def _traffic(**overrides) -> TrafficSpec:
    base = dict(
        mode="open",
        n_requests=200,
        rate_rps=100.0,
        concurrency=4,
        rows_per_request=1,
        seed=42,
        timeout_s=10.0,
    )
    base.update(overrides)
    return TrafficSpec(**base)


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return float(metric.value) if metric is not None else 0.0


# ----------------------------------------------------------------------
# arrival schedule + row plan
# ----------------------------------------------------------------------
def test_arrival_schedule_is_bit_identical():
    traffic = _traffic()
    first = arrival_schedule(traffic)
    second = arrival_schedule(traffic)
    assert np.array_equal(first, second)
    assert first.shape == (traffic.n_requests,)
    assert np.all(np.diff(first) >= 0)


def test_arrival_schedule_depends_on_seed_and_rate():
    base = arrival_schedule(_traffic(seed=1))
    assert not np.array_equal(base, arrival_schedule(_traffic(seed=2)))
    slower = arrival_schedule(_traffic(seed=1, rate_rps=10.0))
    assert slower[-1] > base[-1]  # lower rate stretches the schedule


def test_arrival_schedule_mean_gap_tracks_rate():
    traffic = _traffic(n_requests=5000, rate_rps=250.0)
    gaps = np.diff(np.concatenate([[0.0], arrival_schedule(traffic)]))
    assert np.mean(gaps) == pytest.approx(1.0 / 250.0, rel=0.1)


def test_request_row_indices_plan():
    traffic = _traffic(n_requests=10, rows_per_request=3)
    plan = request_row_indices(traffic, 7)
    assert plan.shape == (10, 3)
    assert plan.min() >= 0 and plan.max() < 7
    # 30 draws over 7 rows wraps around: every row gets used
    assert set(np.unique(plan)) == set(range(7))
    assert np.array_equal(plan, request_row_indices(traffic, 7))


def test_request_row_indices_needs_rows():
    with pytest.raises(ScenarioError):
        request_row_indices(_traffic(), 0)


# ----------------------------------------------------------------------
# the threaded engine
# ----------------------------------------------------------------------
class SerialTransport:
    """A one-at-a-time FIFO server: 2 ms per request, so ~500 rps at most.

    Reports the client-side time of each call (lock wait + service),
    like :class:`~repro.scenarios.load.HttpTransport` does.
    """

    SERVICE_S = 0.002

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def send(self, rows):
        started = time.perf_counter()
        with self._lock:
            time.sleep(self.SERVICE_S)
        return 200, time.perf_counter() - started


def test_closed_loop_throughput_is_bounded_by_the_server():
    # Closed loop adapts to the server: four workers against a serial
    # 2 ms server cannot beat its 500 rps, whatever rate_rps says.
    traffic = _traffic(mode="closed", n_requests=100, concurrency=4, rate_rps=5000.0)
    report = run_load(traffic, SerialTransport())
    assert report.offered_rps is None  # offered rate is a meaningless knob here
    assert report.status_counts == {"200": 100}
    assert report.throughput_rps <= 1.0 / SerialTransport.SERVICE_S


def test_error_statuses_are_counted_and_judged():
    traffic = _traffic(mode="closed", n_requests=40, concurrency=2)
    transport = FakeTransport(
        service_s=0.001, status_fn=lambda i: 429 if i % 4 == 0 else 200
    )
    report = run_load(traffic, transport, slo=SLOSpec(max_error_rate=0.0))
    assert report.status_counts == {"200": 30, "429": 10}
    assert report.error_rate == pytest.approx(0.25)
    assert not report.ok
    assert any("error rate" in v for v in report.slo_violations)


def test_run_load_feeds_obs_registry():
    before_req = _counter("loadgen.requests")
    before_err = _counter("loadgen.errors")
    before_runs = _counter("loadgen.runs")
    traffic = _traffic(mode="closed", n_requests=25, concurrency=1)
    transport = FakeTransport(status_fn=lambda i: 500 if i < 5 else 200)
    run_load(traffic, transport)
    assert _counter("loadgen.requests") - before_req == 25
    assert _counter("loadgen.errors") - before_err == 5
    assert _counter("loadgen.runs") - before_runs == 1


# ----------------------------------------------------------------------
# SLO evaluation + summarize
# ----------------------------------------------------------------------
def test_evaluate_slo_reports_each_violated_bound():
    latency = {"p50": 5.0, "p95": 40.0, "p99": 90.0}
    slo = SLOSpec(p50_ms=10.0, p95_ms=20.0, p99_ms=50.0, min_throughput_rps=500.0)
    violations = evaluate_slo(slo, latency, error_rate=0.0, throughput_rps=100.0)
    assert len(violations) == 3  # p95, p99, throughput — p50 is within bounds
    assert any("p95" in v for v in violations)
    assert any("p99" in v for v in violations)
    assert any("throughput" in v for v in violations)


def test_evaluate_slo_empty_when_met():
    slo = SLOSpec(p99_ms=100.0, max_error_rate=0.1)
    assert evaluate_slo(slo, {"p99": 50.0}, error_rate=0.05, throughput_rps=1.0) == []


def test_summarize_folds_raw_outcomes():
    traffic = _traffic(mode="closed", n_requests=4, rows_per_request=2)
    report = summarize(
        traffic,
        SLOSpec(),
        latencies_s=[0.001, 0.002, 0.003, 0.004],
        statuses=[200, 200, 200, 503],
        duration_s=2.0,
    )
    assert report.throughput_rps == pytest.approx(2.0)
    assert report.row_throughput_rps == pytest.approx(4.0)
    assert report.status_counts == {"200": 3, "503": 1}
    assert report.error_rate == pytest.approx(0.25)
    assert report.latency_ms["max"] == pytest.approx(4.0)
    round_tripped = json.loads(json.dumps(report.to_dict()))
    assert round_tripped["status_counts"] == {"200": 3, "503": 1}


# ----------------------------------------------------------------------
# saturation sweep
# ----------------------------------------------------------------------
def test_find_saturation_locates_the_knee():
    # The serial 2 ms server caps out near 500 rps.  Open-loop steps
    # from 125 rps must pass while underloaded and break once the
    # Poisson arrivals oversubscribe it.  Only four requests are ever
    # in flight, so the queue past them builds in the client's dispatch
    # backlog: the knee shows only because latency is measured from
    # each request's scheduled arrival (coordinated omission).
    traffic = _traffic(n_requests=200, seed=11)
    result = find_saturation(
        traffic,
        SerialTransport,
        slo=SLOSpec(p99_ms=50.0),
        start_rps=125.0,
        growth=2.0,
        max_steps=8,
    )
    knee = result["saturation_rps"]
    steps = result["steps"]
    assert knee is not None, steps[0]["slo_violations"]
    assert 125.0 <= knee <= 500.0
    assert steps[0]["offered_rps"] == 125.0
    assert steps[-1]["slo_violations"]  # the sweep stopped on a violation
    assert knee == steps[-2]["offered_rps"]


def test_find_saturation_without_a_violation_is_not_a_knee():
    # Every step meets the SLO, so the sweep never found the knee: the
    # last offered rate is a lower bound, not a saturation point.
    result = find_saturation(
        _traffic(n_requests=20),
        FakeTransport,
        start_rps=50.0,
        growth=2.0,
        max_steps=3,
    )
    assert [step["offered_rps"] for step in result["steps"]] == [50.0, 100.0, 200.0]
    assert not any(step["slo_violations"] for step in result["steps"])
    assert result["saturated"] is False
    assert result["saturation_rps"] == 200.0
    assert describe_saturation(result) == "not saturated within 3 steps (>= 200 rps)"


def test_find_saturation_validates_knobs():
    with pytest.raises(ScenarioError, match="growth"):
        find_saturation(_traffic(), FakeTransport, growth=1.0)
    with pytest.raises(ScenarioError, match="start_rps"):
        find_saturation(_traffic(), FakeTransport, start_rps=0.0)
