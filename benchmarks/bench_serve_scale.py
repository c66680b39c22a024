"""K8 — worker-scaling sweep: pool throughput vs worker count.

The PR 9 acceptance bar: on the ``pima_r`` fast preset, fused-predict
throughput at 4 workers must be **>= 2.5x** the single-worker baseline
with a zero error rate at every pool size, and the sweep must persist
as ``BENCH_serve_scale.json`` (validated against the bench schema, one
``sweep`` section per run entry).

The sweep runs on the deterministic discrete-event engine
(:func:`repro.scenarios.sweep.simulate_pool`): CI boxes pin this suite
to one or two cores, where wall-clock timing of a 4-process pool
measures the kernel scheduler, not the pool.  The engine's *service
time* is real — the wall-clock cost of the artifact's fused predict
path, measured through :class:`~repro.serve.service.InferenceService`
over the mmap-loaded artifact — while the queueing (one serialised
dispatcher in front of N FIFO workers) is simulated, so the scaling
*ratios* are machine-independent and the absolute rps reflects the
machine that ran the bench.  Every persisted report is labelled
``"engine": "simulated"`` so trajectory diffs never confuse the two.

A second test boots real :class:`~repro.serve.pool.ServePool`
instances per sweep step (the HTTP engine) to prove the sweep harness
drives live pools too; it gates only on a zero error rate, not on
scaling, for the same one-core reason.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_scale.py -q -s

``REPRO_BENCH_OUT=<dir>`` persists/merges the trajectory there (the CI
serve-scale job sets it to ``bench-out`` and uploads the file);
otherwise the trajectory lands in the test's tmp dir.  The gate always
runs the fast preset — the acceptance bar is defined on it, and the
scaling ratio is dimension-independent.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.scenarios import (
    apply_preset,
    build_artifact,
    build_dataset,
    check_scaling,
    discover_scenarios,
    load_bench,
    load_scenario,
    make_run_entry,
    measure_service_time,
    sweep_workers,
    update_bench_file,
)
from repro.scenarios.sweep import artifact_pool_factory
from repro.serve import InferenceService, ServeConfig

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
TRAJECTORY = "serve_scale"

WORKERS = (1, 2, 4)
AT_WORKERS = 4
MIN_SPEEDUP = 2.5
# Serialised cost per request: with SO_REUSEPORT only the kernel-side
# accept/steering stays serial — header parse, JSON decode, and the
# model all run in the worker that owns the connection.  5 us keeps the
# Amdahl term honest without drowning the measured service times.
DISPATCH_S = 5e-6


@pytest.fixture(scope="module")
def spec():
    return apply_preset(
        load_scenario(discover_scenarios(SCENARIO_DIR)["pima_r"]), "fast"
    )


@pytest.fixture(scope="module")
def artifact(spec, tmp_path_factory):
    target = tmp_path_factory.mktemp("serve-scale") / "artifact"
    return build_artifact(spec, target, build_dataset(spec))


@pytest.fixture(scope="module")
def dataset(spec):
    return build_dataset(spec)


@pytest.fixture(scope="module")
def service_s(spec, artifact, dataset):
    """Measured per-request service time through the fused-predict path.

    One scenario request (``rows_per_request`` rows) pushed through an
    :class:`InferenceService` over the mmap-loaded artifact with
    ``max_wait_ms=0`` (each call flushes immediately) — the cost a pool
    worker pays per request, i.e. the unit that parallelises across
    workers.  Measured, not assumed, so the persisted sweep's absolute
    rps tracks the machine while the ratios stay deterministic.
    """
    config = ServeConfig(
        mmap=True,
        max_batch=spec.serve.max_batch,
        max_wait_ms=0.0,
        queue_size=spec.serve.queue_size,
        max_rows_per_request=spec.serve.max_rows_per_request,
    )
    request_rows = [
        list(map(float, dataset.X[i % dataset.n_samples]))
        for i in range(spec.traffic.rows_per_request)
    ]
    with InferenceService.from_artifact(artifact, config) as service:
        return measure_service_time(lambda: service.predict(request_rows))


def _out_dir(tmp_path: Path) -> Path:
    configured = os.environ.get("REPRO_BENCH_OUT")
    if configured:
        out = Path(configured)
        out.mkdir(parents=True, exist_ok=True)
        return out
    return tmp_path


def test_worker_scaling_gate(spec, service_s, tmp_path):
    """>= 2.5x at 4 workers, zero errors, trajectory validates."""
    report = sweep_workers(
        spec.traffic,
        workers=WORKERS,
        engine="simulated",
        service_s=service_s,
        dispatch_s=DISPATCH_S,
        slo=spec.slo,
    )
    print(
        f"\n[serve_scale fast] service={service_s * 1e3:.3f}ms/req "
        f"dispatch={DISPATCH_S * 1e6:.0f}us"
    )
    for n in report.workers:
        run = report.runs[n]
        print(
            f"  {n} worker{'s' if n > 1 else ' '}: "
            f"{run.throughput_rps:9.1f} req/s  x{report.speedup[n]:.2f}  "
            f"p50={run.latency_ms['p50']:.2f}ms "
            f"p99={run.latency_ms['p99']:.2f}ms  "
            f"errors={run.error_rate:.4f}"
        )
    violations = check_scaling(report, at_workers=AT_WORKERS, min_speedup=MIN_SPEEDUP)
    assert not violations, violations
    assert report.error_free

    entry = make_run_entry(
        spec, report.runs[report.baseline_workers],
        preset="fast", sweep=report.to_dict(),
    )
    path = _out_dir(tmp_path) / f"BENCH_{TRAJECTORY}.json"
    update_bench_file(path, TRAJECTORY, entry)
    doc = load_bench(path)  # schema-validates the merged trajectory
    sweep = doc["runs"][-1]["sweep"]
    assert sweep["engine"] == "simulated"
    assert sweep["speedup"][str(AT_WORKERS)] >= MIN_SPEEDUP
    print(f"  trajectory: {path} ({len(doc['runs'])} runs)")


def test_http_engine_drives_live_pools(spec, artifact, dataset):
    """The sweep harness also runs real ServePools, error-free.

    Two pool sizes, real forks, real sockets, mmap-shared artifact
    pages.  On a one-core runner the wall-clock ratio is meaningless,
    so the gate here is correctness only: every request answered 2xx at
    every pool size.
    """
    from dataclasses import replace

    traffic = replace(spec.traffic, n_requests=32, concurrency=4)
    config = ServeConfig(
        mmap=True,
        max_batch=spec.serve.max_batch,
        max_wait_ms=spec.serve.max_wait_ms,
        queue_size=spec.serve.queue_size,
        max_rows_per_request=spec.serve.max_rows_per_request,
    )
    report = sweep_workers(
        traffic,
        workers=(1, 2),
        engine="http",
        pool_factory=artifact_pool_factory(artifact, config),
        slo=spec.slo,
        rows=dataset.X,
    )
    for n in report.workers:
        run = report.runs[n]
        print(
            f"\n  [http] {n} worker{'s' if n > 1 else ' '}: "
            f"{run.throughput_rps:.1f} req/s errors={run.error_rate:.4f} "
            f"statuses={run.status_counts}"
        )
    assert report.engine == "http"
    assert report.error_free, {
        n: report.runs[n].status_counts for n in report.workers
    }
