"""K5 — micro-batched serving vs a batch-size-1 predict loop.

The serving acceptance bar (PR 5): at concurrency 32, the micro-batched
:class:`~repro.serve.service.InferenceService` (``max_batch=64``) must
sustain >= 3x the throughput of the same service degenerated to a
batch-size-1 loop (``max_batch=1``) on a 10,000-bit Pima model, and the
``serve.*`` queue-depth / batch-size / latency histograms must be
visible on ``GET /metrics``.

Each comparison wraps the *same* fitted
:class:`~repro.ml.pipeline.HDCFeaturePipeline`, so the only variable is
the scheduler: fused flushes amortise the record encoder's per-call
overhead over dozens of rows, while the baseline pays it per request.

Two Pima models are measured:

* **prototype** (:class:`~repro.core.classifier.PrototypeClassifier`,
  the paper's class-prototype HDC model) — inference cost is dominated
  by record encoding, which amortises ~8x in a fused call, so this is
  the model the >= 3x gate runs on;
* **1-NN** (:class:`~repro.core.classifier.HammingClassifier`) — each
  query must compute 10k-bit Hamming distances against every stored
  training vector, a memory-bound per-row cost that no amount of
  batching removes, so its ceiling is lower; it is gated at a softer
  bar and its numbers are reported for EXPERIMENTS.md.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q

``REPRO_BENCH_SCALE=fast`` shrinks the model and request count for
smoke runs (the CI serving job uses this preset).
"""

import itertools
import json
import os
import threading
import time
import urllib.request

import pytest

from repro.core.classifier import HammingClassifier, PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.data import load_pima_r
from repro.ml.pipeline import HDCFeaturePipeline
from repro.serve import InferenceService, ModelServer, ServeConfig

FAST = os.environ.get("REPRO_BENCH_SCALE") == "fast"
DIM = 2_048 if FAST else 10_000
N_REQUESTS = 192 if FAST else 640
CONCURRENCY = 32
MIN_SPEEDUP = 3.0
# 1-NN pays an irreducible per-query scan over the stored training
# vectors (memory-bound, linear in rows), so batching only amortises the
# encoder; its honest bar is lower.
MIN_SPEEDUP_KNN = 1.5

BATCHED = dict(max_batch=64, max_wait_ms=5.0, queue_size=1024)
SINGLE = dict(max_batch=1, max_wait_ms=0.0, queue_size=1024)


@pytest.fixture(scope="module")
def pima():
    return load_pima_r(seed=2023)


@pytest.fixture(scope="module")
def model(pima):
    """The gated model: class-prototype HDC classifier on Pima."""
    encoder = RecordEncoder(specs=pima.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima.X, pima.y
    )


@pytest.fixture(scope="module")
def knn_model(pima):
    """The paper's 1-NN Hamming classifier on the same encoding."""
    encoder = RecordEncoder(specs=pima.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, HammingClassifier(dim=DIM)).fit(
        pima.X, pima.y
    )


def _drive(service, rows, n_requests, concurrency):
    """Fire single-row predicts from ``concurrency`` threads; return stats."""
    counter = itertools.count()
    errors = []
    latencies = []
    lock = threading.Lock()

    def worker():
        while True:
            i = next(counter)
            if i >= n_requests:
                return
            row = [rows[i % len(rows)]]
            t0 = time.perf_counter()
            try:
                service.predict(row)
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                with lock:
                    errors.append(exc)
                return
            with lock:
                latencies.append(time.perf_counter() - t0)

    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    return elapsed, latencies, errors


def _throughput(model, rows, settings):
    config = ServeConfig(**settings)
    with InferenceService(model, config) as service:
        _drive(service, rows, CONCURRENCY * 2, CONCURRENCY)  # warm-up
        elapsed, latencies, errors = _drive(
            service, rows, N_REQUESTS, CONCURRENCY
        )
    assert not errors, errors[:3]
    assert len(latencies) == N_REQUESTS
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return N_REQUESTS / elapsed, p50, p99


def _compare(model, rows, label):
    single_rps, single_p50, single_p99 = _throughput(model, rows, SINGLE)
    batched_rps, batched_p50, batched_p99 = _throughput(model, rows, BATCHED)
    speedup = batched_rps / single_rps
    print(
        f"\n[{label}] concurrency={CONCURRENCY} dim={DIM} "
        f"requests={N_REQUESTS}\n"
        f"  batch-size-1 : {single_rps:8.1f} req/s  "
        f"p50={single_p50 * 1e3:.1f}ms p99={single_p99 * 1e3:.1f}ms\n"
        f"  micro-batched: {batched_rps:8.1f} req/s  "
        f"p50={batched_p50 * 1e3:.1f}ms p99={batched_p99 * 1e3:.1f}ms\n"
        f"  speedup      : {speedup:.2f}x"
    )
    return speedup


def test_micro_batched_throughput_speedup(model, pima):
    """The acceptance bar: >= 3x over the batch-size-1 loop at c=32."""
    speedup = _compare(model, pima.X.tolist(), "prototype")
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving is only {speedup:.2f}x the batch-size-1 "
        f"loop (required: {MIN_SPEEDUP}x at concurrency {CONCURRENCY})"
    )


def test_knn_pipeline_also_benefits(knn_model, pima):
    """1-NN serving: encoder amortisation still wins, at a lower ceiling.

    Each 1-NN query scans every stored training vector, so the distance
    stage costs the same per row whether rows arrive one at a time or
    fused; only the encoder and scheduler overhead amortise.
    """
    speedup = _compare(knn_model, pima.X.tolist(), "1-NN")
    assert speedup >= MIN_SPEEDUP_KNN, (
        f"micro-batched 1-NN serving is only {speedup:.2f}x the "
        f"batch-size-1 loop (required: {MIN_SPEEDUP_KNN}x at "
        f"concurrency {CONCURRENCY})"
    )


def test_metrics_visible_over_http(model, pima):
    """Queue-depth / batch-size / latency histograms appear on /metrics."""
    config = ServeConfig(port=0, **BATCHED)
    with ModelServer(model, config) as server:
        url = server.url
        rows = pima.X[:4].tolist()
        body = json.dumps({"rows": rows}).encode("utf-8")

        def post():
            req = urllib.request.Request(
                url + "/v1/predict", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as resp:
                assert json.loads(resp.read())["n"] == len(rows)

        threads = [threading.Thread(target=post) for _ in range(CONCURRENCY)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with urllib.request.urlopen(url + "/metrics") as resp:
            metrics = resp.read().decode("utf-8")

    for series in (
        "repro_serve_queue_depth_bucket",
        "repro_serve_batch_size_bucket",
        "repro_serve_request_seconds_bucket",
        "repro_serve_flush_seconds_bucket",
        "repro_serve_requests_total",
        "repro_serve_rows_total",
        "repro_serve_batches_total",
        "repro_serve_model_loaded",
    ):
        assert series in metrics, f"{series} missing from /metrics"
    counts = {
        line.split()[0]: float(line.split()[1])
        for line in metrics.splitlines()
        if line and not line.startswith("#")
    }
    assert counts["repro_serve_request_seconds_count"] >= CONCURRENCY
    assert counts["repro_serve_batch_size_count"] >= 1
    assert counts["repro_serve_queue_depth_count"] >= 1


def test_batching_actually_fuses(model, pima):
    """Under concurrency the mean flush must cover > 1 request."""
    from repro.obs.metrics import REGISTRY

    rows = pima.X.tolist()
    before = _serve_counter_values()
    config = ServeConfig(**BATCHED)
    with InferenceService(model, config) as service:
        _drive(service, rows, N_REQUESTS, CONCURRENCY)
    after = _serve_counter_values()
    d_rows = after["serve.rows"] - before["serve.rows"]
    d_batches = after["serve.batches"] - before["serve.batches"]
    assert d_batches >= 1
    mean_batch = d_rows / d_batches
    print(f"\nmean flushed batch: {mean_batch:.1f} rows over {d_batches:.0f} flushes")
    assert mean_batch > 1.0, (
        f"scheduler never fused requests (mean batch {mean_batch:.2f} rows); "
        f"micro-batching is not happening"
    )
    assert REGISTRY.get("serve.batch_size") is not None


def _serve_counter_values():
    from repro.obs.metrics import REGISTRY

    out = {}
    for name in ("serve.rows", "serve.batches"):
        metric = REGISTRY.get(name)
        out[name] = float(metric.value) if metric is not None else 0.0
    return out
