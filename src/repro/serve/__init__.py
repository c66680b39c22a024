"""Micro-batched model serving over HTTP (stdlib only).

Public surface:

* :class:`~repro.serve.config.ServeConfig` — every serving knob, one
  validated frozen dataclass;
  :func:`~repro.serve.config.resolve_serve_config` combines explicit
  pool knobs with ``REPRO_SERVE_*`` environment defaults.
* :class:`~repro.serve.service.InferenceService` — validated requests
  in, micro-batched predictions out (usable without HTTP, e.g. by the
  serving benchmark).
* :class:`~repro.serve.http.ModelServer` — ThreadingHTTPServer front-end
  with ``POST /v1/predict`` (versioned envelope), ``GET /healthz`` /
  ``/readyz`` / ``/metrics``.
* :class:`~repro.serve.pool.ServePool` — pre-fork multi-worker pool
  sharing one ``SO_REUSEPORT`` address and (with ``mmap``) one set of
  physical artifact pages; aggregates metrics and readiness across
  workers.
* :class:`~repro.serve.batcher.MicroBatcher` /
  :class:`~repro.serve.batcher.QueueFullError` — the batching scheduler
  and its admission-control signal.
* ``repro-serve`` CLI (:mod:`repro.serve.cli`) — serve a
  :mod:`repro.persist` artifact directory (``--workers/--mmap``
  select the pool; ``--watch-artifact`` / ``--candidate-artifact`` wire
  in the live lifecycle).

Hot-swap reloads, shadow/A-B candidates and drift detection live in
:mod:`repro.lifecycle` and surface here through ``POST /v1/admin/*``
plus the :class:`~repro.serve.service.ReloadError` /
:class:`~repro.serve.service.PredictFailedError` error codes.

See DESIGN.md §9 for the scheduler's flush rules and error-to-status
mapping, §12 for the pool architecture and the ``/v1`` contract, and
§13 for the model lifecycle.
"""

from repro.serve.batcher import MicroBatcher, QueueFullError
from repro.serve.config import ServeConfig, resolve_serve_config
from repro.serve.http import ModelServer
from repro.serve.pool import ServePool
from repro.serve.service import (
    InferenceService,
    NotReadyError,
    PayloadTooLargeError,
    PredictFailedError,
    ReloadError,
    ServeError,
    ValidationError,
)

__all__ = [
    "InferenceService",
    "MicroBatcher",
    "ModelServer",
    "NotReadyError",
    "PayloadTooLargeError",
    "PredictFailedError",
    "QueueFullError",
    "ReloadError",
    "ServeConfig",
    "ServeError",
    "ServePool",
    "ValidationError",
    "resolve_serve_config",
]
