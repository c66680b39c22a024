"""serve.* metrics: the service's view into :mod:`repro.obs`.

All serving metrics live in the process-local ``repro.obs.REGISTRY`` so
``GET /metrics`` renders them with the existing Prometheus exporter —
no second registry, no new exposition code.  Names (after the exporter's
``repro_`` prefix and counter ``_total`` suffix):

========================  =========  =====================================
``serve.requests``        counter    requests answered successfully
``serve.rows``            counter    rows predicted across all flushes
``serve.batches``         counter    fused model calls (flushes)
``serve.rejected``        counter    admission-control rejections (429)
``serve.errors``          counter    requests failed after admission
``serve.batch_size``      histogram  rows per flush (power-of-2 buckets)
``serve.queue_depth``     histogram  queue depth sampled at each flush
``serve.request_seconds`` histogram  submit→response latency per request
``serve.flush_seconds``   histogram  model-call duration per flush
``serve.model_loaded``    gauge      1 while a model is serving
``serve.worker_restarts`` counter    dead pool workers replaced by the
                                     supervisor
========================  =========  =====================================

The registry's metric *objects* are not internally locked (`add` /
`observe` are plain read-modify-write), which is fine for the chunked
single-writer hot paths but not for a threaded HTTP server.  Every
mutation here therefore goes through one module lock; at serving rates
(≤ tens of kHz of metric events) the contention is irrelevant.
"""

from __future__ import annotations

import threading
from typing import Tuple

from repro.obs.metrics import REGISTRY

_LOCK = threading.Lock()

#: Power-of-two row-count buckets covering batch sizes 1..1024.
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _counter(name: str, help: str):
    return REGISTRY.counter(name, help)


def record_request(seconds: float) -> None:
    """One successfully answered request."""
    with _LOCK:
        _counter("serve.requests", "Requests answered by the inference service.").add(1)
        REGISTRY.histogram(
            "serve.request_seconds",
            "Per-request latency from submission to response.",
        ).observe(seconds)


def record_rejected() -> None:
    """One request refused by admission control (full queue)."""
    with _LOCK:
        _counter("serve.rejected", "Requests rejected because the queue was full.").add(1)


def record_error() -> None:
    """One request that failed after being admitted."""
    with _LOCK:
        _counter("serve.errors", "Requests that failed after admission.").add(1)


def record_flush(rows: int, seconds: float, queue_depth: int) -> None:
    """One fused model call covering ``rows`` rows."""
    with _LOCK:
        _counter("serve.batches", "Fused model calls (micro-batch flushes).").add(1)
        _counter("serve.rows", "Rows predicted across all flushes.").add(rows)
        REGISTRY.histogram(
            "serve.batch_size",
            "Rows per fused model call.",
            boundaries=COUNT_BUCKETS,
        ).observe(rows)
        REGISTRY.histogram(
            "serve.queue_depth",
            "Pending requests observed at each flush.",
            boundaries=COUNT_BUCKETS,
        ).observe(queue_depth)
        REGISTRY.histogram(
            "serve.flush_seconds",
            "Duration of each fused model call.",
        ).observe(seconds)


def set_model_loaded(loaded: bool) -> None:
    with _LOCK:
        REGISTRY.gauge(
            "serve.model_loaded", "1 while a model is loaded and serving."
        ).set(1.0 if loaded else 0.0)


def record_worker_restart() -> None:
    """One dead pool worker replaced by the supervisor."""
    with _LOCK:
        _counter(
            "serve.worker_restarts",
            "Dead pool workers replaced by the supervisor.",
        ).add(1)


def worker_restarts_snapshot() -> dict:
    """The restart counter's registry snapshot (supervisor-side).

    The supervisor is not a worker: it has no flush loop, so its restart
    counter is folded into the pool-wide ``/metrics`` view by writing
    this snapshot to a ``metrics-supervisor.json`` scratch file.
    """
    with _LOCK:
        snap = REGISTRY.collect()
    return {
        name: value
        for name, value in snap.items()
        if name == "serve.worker_restarts"
    }


__all__ = [
    "COUNT_BUCKETS",
    "record_error",
    "record_flush",
    "record_rejected",
    "record_request",
    "record_worker_restart",
    "set_model_loaded",
    "worker_restarts_snapshot",
]
