"""Admission control under deliberate overload: 429s, 503s, serve.* counters.

These tests drive the serving stack past its configured capacity with
the scenario load harness and pin the behaviour the docs promise:

* a full batching queue rejects immediately with HTTP 429 and bumps
  ``serve.rejected`` (no unbounded queueing);
* a dead worker behind a live socket answers 503 for every request and
  leaves ``serve.requests`` untouched;
* admitted requests still complete once capacity frees up.

The trick for determinism: a model whose ``predict`` blocks on an event
wedges the single batcher worker, so with ``max_wait_ms=0`` (every
request is its own batch) and ``queue_size=Q`` exactly ``Q`` subsequent
requests queue and the rest are rejected — no timing games.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.pipeline import HDCFeaturePipeline
from repro.obs.metrics import REGISTRY
from repro.scenarios.load import HttpTransport, run_load
from repro.scenarios.schema import SLOSpec, TrafficSpec
from repro.serve import ModelServer, ServeConfig

DIM = 512
QUEUE_SIZE = 4


class GatedModel:
    """Wraps a fitted pipeline; ``predict`` blocks until the gate opens."""

    def __init__(self, inner):
        self._inner = inner
        self.gate = threading.Event()
        self.first_call = threading.Event()

    def predict(self, X):
        self.first_call.set()
        if not self.gate.wait(timeout=30.0):
            raise RuntimeError("gate never opened")
        return self._inner.predict(X)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return float(metric.value) if metric is not None else 0.0


@pytest.fixture(scope="module")
def pipeline(pima_r):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )


def test_full_queue_rejects_with_429_and_counts_it(pipeline, pima_r):
    model = GatedModel(pipeline)
    config = ServeConfig(
        port=0,
        max_batch=QUEUE_SIZE,
        max_wait_ms=0.0,  # each request flushes alone: 1 wedged + Q queued
        queue_size=QUEUE_SIZE,
        request_timeout_s=20.0,
    )
    rows = np.asarray(pima_r.X[:8], dtype=np.float64)
    with ModelServer(model, config) as server:
        transport = HttpTransport(server.url, timeout_s=20.0)
        before = {
            name: _counter(name)
            for name in ("serve.requests", "serve.rejected", "serve.errors")
        }

        # Wedge the batcher: one request enters predict() and blocks there.
        wedge_result = {}

        def wedge():
            wedge_result["response"] = transport.send(rows[:1])

        wedge_thread = threading.Thread(target=wedge)
        wedge_thread.start()
        assert model.first_call.wait(timeout=10.0), "wedge request never reached the model"

        # Open the gate only after the queue has demonstrably overflowed,
        # so all 2*Q harness requests hit a wedged server.
        def release_after_rejections():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if _counter("serve.rejected") - before["serve.rejected"] >= QUEUE_SIZE:
                    break
                time.sleep(0.005)
            model.gate.set()  # always open it, or a bug hangs the whole test

        releaser = threading.Thread(target=release_after_rejections)
        releaser.start()

        # 2*Q one-shot closed-loop clients: Q fill the queue, Q bounce.
        traffic = TrafficSpec(
            mode="closed",
            n_requests=2 * QUEUE_SIZE,
            concurrency=2 * QUEUE_SIZE,
            seed=1,
            timeout_s=20.0,
        )
        report = run_load(
            traffic,
            transport,
            slo=SLOSpec(max_error_rate=0.0),
            rows=rows,
        )
        releaser.join()
        wedge_thread.join(timeout=20.0)

        assert report.status_counts == {"200": QUEUE_SIZE, "429": QUEUE_SIZE}
        assert report.error_rate == pytest.approx(0.5)
        assert not report.ok  # the 429s blow the zero-error SLO
        assert wedge_result["response"][0] == 200  # the wedged request completed

        assert _counter("serve.rejected") - before["serve.rejected"] == QUEUE_SIZE
        # answered successfully: the wedge request + the Q queued ones
        assert _counter("serve.requests") - before["serve.requests"] == QUEUE_SIZE + 1
        assert _counter("serve.errors") - before["serve.errors"] == 0


def test_dead_worker_behind_live_socket_is_all_503(pipeline, pima_r):
    config = ServeConfig(port=0, request_timeout_s=10.0)
    server = ModelServer(pipeline, config)
    server.start()
    try:
        server.service.stop()  # socket stays up, inference worker is gone
        before_requests = _counter("serve.requests")
        traffic = TrafficSpec(
            mode="closed", n_requests=6, concurrency=3, seed=0, timeout_s=10.0
        )
        report = run_load(
            traffic,
            HttpTransport(server.url, timeout_s=10.0),
            slo=SLOSpec(max_error_rate=0.0),
            rows=np.asarray(pima_r.X[:4], dtype=np.float64),
        )
        assert report.status_counts == {"503": 6}
        assert report.error_rate == 1.0
        assert not report.ok
        assert _counter("serve.requests") - before_requests == 0
    finally:
        server.stop()


def test_pool_dead_worker_degrades_readyz_everywhere(
    pipeline, pima_r, tmp_path, monkeypatch
):
    """A SIGKILLed worker flips every connection's /readyz to 503.

    The single-process version of this invariant is
    ``test_dead_worker_behind_live_socket_is_all_503`` above; the pool
    version is harder because with ``SO_REUSEPORT`` the kernel may route
    a probe to a perfectly healthy worker.  Readiness is therefore
    aggregated (supervisor roster + sibling liveness probes), so the
    surviving worker *also* reports 503 — a load balancer sees the
    degraded pool no matter which worker answers — while ``/v1/predict``
    keeps serving from the survivors.

    Restart supervision would replace the victim within one backoff
    window and erase the degraded state this test pins, so it is
    disabled here; the recover-after-restart side of the story lives in
    ``tests/serve/test_pool_restart.py``.
    """
    import json
    import os
    import signal
    import urllib.error
    import urllib.request

    from repro.persist import save_artifact
    from repro.serve import ServePool
    from repro.serve import pool as pool_module

    monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 0)

    save_artifact(pipeline, tmp_path / "model")
    config = ServeConfig(port=0, workers=2, mmap=True)
    with ServePool(tmp_path / "model", config) as pool:
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        degraded = 0
        while time.monotonic() < deadline and degraded < 3:
            try:
                with urllib.request.urlopen(pool.url + "/readyz", timeout=5) as resp:
                    resp.read()
                    degraded = 0  # still 200 somewhere: not yet aggregated
            except urllib.error.HTTPError as exc:
                body = json.loads(exc.read())
                assert exc.code == 503
                assert body["error"]["code"] == "pool_degraded"
                assert victim in body["error"]["detail"]["dead"]
                degraded += 1
            except (urllib.error.URLError, OSError):
                # The kernel may briefly route a probe to the killed
                # worker's still-registered accept queue: a reset, not a
                # verdict either way.
                pass
            time.sleep(0.1)
        assert degraded >= 3, "pool never reported itself degraded"

        # The surviving worker still serves traffic (degraded, not down).
        report = run_load(
            TrafficSpec(mode="closed", n_requests=6, concurrency=2, seed=0, timeout_s=10.0),
            HttpTransport(pool.url, timeout_s=10.0),
            slo=SLOSpec(max_error_rate=0.0),
            rows=np.asarray(pima_r.X[:4], dtype=np.float64),
        )
        assert report.status_counts == {"200": 6}


def test_capacity_recovers_after_the_burst(pipeline, pima_r):
    """After an overload burst the same server serves clean traffic again."""
    model = GatedModel(pipeline)
    model.gate.set()  # gate open from the start: plain pass-through
    config = ServeConfig(
        port=0, max_batch=QUEUE_SIZE, max_wait_ms=0.0, queue_size=QUEUE_SIZE
    )
    with ModelServer(model, config) as server:
        traffic = TrafficSpec(
            mode="closed", n_requests=32, concurrency=4, seed=7, timeout_s=20.0
        )
        report = run_load(
            traffic,
            HttpTransport(server.url, timeout_s=20.0),
            slo=SLOSpec(max_error_rate=0.0),
            rows=np.asarray(pima_r.X[:16], dtype=np.float64),
        )
        assert report.status_counts == {"200": 32}
        assert report.ok
