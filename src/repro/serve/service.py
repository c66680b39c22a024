"""Inference service: validated requests in, micro-batched predictions out.

:class:`InferenceService` owns the :class:`~repro.lifecycle.ModelLifecycle`
(which model is primary, which is candidate) and the
:class:`~repro.serve.batcher.MicroBatcher`; the HTTP layer
(:mod:`repro.serve.http`) is a thin translation of its exceptions to
status codes:

===============================  ====
:class:`ValidationError`          400
:class:`ReloadError`              400
:class:`PayloadTooLargeError`     413
:class:`~repro.serve.batcher.QueueFullError`  429
:class:`NotReadyError`            503
:class:`PredictFailedError`       500
anything else                     500
===============================  ====

The served model is anything with ``predict(rows) -> labels`` — in
practice a :class:`~repro.ml.pipeline.HDCFeaturePipeline` loaded from a
:mod:`repro.persist` artifact, so one flush runs one fused
record-encoding pass and one batched classifier call.

Hot-swap safety (PR 10, DESIGN.md §13): every flush reads the primary
:class:`~repro.lifecycle.ModelHandle` exactly once, reloads build the
replacement model entirely outside the lifecycle lock, and the swap
itself is one reference assignment — so requests in flight complete on
the model that started them, the very next flush serves the new one,
and no request is ever dropped or 5xx'd by a reload.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.lifecycle import (
    DriftMonitor,
    FollowUpTrainer,
    ModelHandle,
    ModelLifecycle,
    ShadowRunner,
)
from repro.lifecycle.metrics import (
    record_ab_candidate,
    record_candidate_error,
    record_reload_error,
)
from repro.serve.batcher import MicroBatcher, QueueFullError
from repro.serve.config import ServeConfig
from repro.serve.metrics import record_error, record_request, set_model_loaded


class ServeError(RuntimeError):
    """Base class for request-level serving failures.

    Every subclass carries a stable machine-readable ``code`` — the
    ``error.code`` field of the ``/v1`` structured error schema (see
    DESIGN.md §12); ``str(exc)`` is the human-readable message.
    """

    code = "internal"


class ValidationError(ServeError):
    """Malformed request payload (bad JSON shape, non-numeric rows...)."""

    code = "invalid_request"


class PayloadTooLargeError(ServeError):
    """Request exceeds ``max_rows_per_request``."""

    code = "payload_too_large"


class NotReadyError(ServeError):
    """Service not started or no model loaded."""

    code = "not_ready"


class PredictFailedError(ServeError):
    """The model raised while predicting a flushed batch.

    Distinguished from the generic ``internal`` code so clients (and the
    swap-under-load scenario) can tell a model bug from a server bug.
    """

    code = "predict_failed"


class ReloadError(ServeError):
    """A lifecycle operation (reload / mount / promote) failed to apply.

    The previous primary keeps serving — a failed reload never takes
    traffic down.
    """

    code = "reload_failed"


class InferenceService:
    """Micro-batched prediction front-end over a live model lifecycle."""

    def __init__(
        self,
        model: Any,
        config: Optional[ServeConfig] = None,
        *,
        artifact_sha: Optional[str] = None,
        artifact_path: Optional[str] = None,
    ) -> None:
        if not hasattr(model, "predict"):
            raise TypeError(
                f"model must expose predict(rows); got {type(model).__name__}"
            )
        self.config = config or ServeConfig()
        self._lifecycle = ModelLifecycle(
            ModelHandle(
                model=model,
                artifact_sha=artifact_sha,
                path=str(artifact_path) if artifact_path is not None else None,
            )
        )
        # Drift detection and the follow-up trainer both need the fitted
        # record encoder; models without one (raw sklearn estimators)
        # serve fine with both features disabled.  Created once here —
        # reloads re-arm the monitor via set_reference, never rebuild it.
        encoder = getattr(model, "encoder_", None)
        dim = getattr(encoder, "dim", None)
        self._drift = (
            DriftMonitor(
                int(dim),
                threshold=self.config.drift_threshold,
                window=self.config.drift_window,
            )
            if dim is not None and int(dim) >= 2
            else None
        )
        self._trainer = (
            FollowUpTrainer(encoder)
            if encoder is not None and getattr(encoder, "_fitted", False)
            else None
        )
        self._bind_model(model)
        self._batcher = MicroBatcher(
            self._predict_batch,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            queue_size=self.config.queue_size,
        )

    @classmethod
    def from_artifact(
        cls,
        path: Any,
        config: Optional[ServeConfig] = None,
        *,
        verify: bool = True,
    ) -> "InferenceService":
        """Load a :mod:`repro.persist` artifact and wrap it for serving.

        ``config.mmap`` selects the shared read-only load path; pool
        workers pass ``verify=False`` after the supervisor has already
        run :func:`repro.persist.verify_artifact` once.  When the
        artifact carries a ``train_centroid`` extra (PR 10) the drift
        monitor is armed against it.
        """
        from repro.persist import artifact_sha, load_artifact

        config = config or ServeConfig()
        model = load_artifact(path, mmap=config.mmap, verify=verify)
        service = cls(
            model,
            config,
            artifact_sha=artifact_sha(path),
            artifact_path=str(path),
        )
        service._arm_drift(model, str(path))
        return service

    # -- lifecycle plumbing --------------------------------------------
    @property
    def model(self) -> Any:
        """The current primary model (snapshot; may change on hot-swap)."""
        return self._lifecycle.primary().model

    @property
    def artifact_sha(self) -> Optional[str]:
        return self._lifecycle.primary().artifact_sha

    @property
    def generation(self) -> int:
        return self._lifecycle.primary().generation

    def _bind_model(self, model: Any) -> None:
        """Attach serving-side hooks to a model about to become primary."""
        if self._drift is not None and hasattr(model, "feature_hook"):
            # The pipeline hands every encoded batch to the drift
            # accumulator — drift costs nothing HDC has not already paid.
            model.feature_hook = self._drift.observe

    def _arm_drift(self, model: Any, path: Optional[str]) -> None:
        """Point the drift monitor at ``path``'s persisted training centroid."""
        if self._drift is None or path is None:
            return
        encoder = getattr(model, "encoder_", None)
        if encoder is None:
            return
        from repro.persist import artifact_extras

        try:
            extras = artifact_extras(path, verify=False)
        except Exception:
            extras = {}
        self._drift.set_reference(
            extras.get("train_centroid"), dim=int(encoder.dim)
        )

    def model_info(self) -> dict:
        """The ``model`` block of every ``/v1`` response envelope."""
        from repro.persist import SCHEMA_VERSION

        return self._lifecycle.primary().info(SCHEMA_VERSION)

    def _publish(self, publish: bool) -> None:
        """Fan the desired lifecycle state out to pool siblings.

        ``pool_publish`` is installed by the pool worker bootstrap; on a
        single-process server it is absent and this is a no-op.  Appliers
        of a deploy record call the admin ops with ``publish=False`` so a
        propagated change is not re-published in a loop.
        """
        hook = getattr(self, "pool_publish", None)
        if not publish or hook is None:
            return
        primary = self._lifecycle.primary()
        state = self._lifecycle.candidate()
        candidate = None
        if state is not None:
            candidate = {
                "artifact": state.handle.path,
                "artifact_sha": state.handle.artifact_sha,
                "mode": state.mode,
                "fraction": state.fraction,
            }
        hook(
            artifact=primary.path,
            artifact_sha=primary.artifact_sha,
            candidate=candidate,
        )

    # -- lifecycle -----------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._batcher.running

    def start(self) -> "InferenceService":
        self._batcher.start()
        set_model_loaded(True)
        return self

    def stop(self) -> None:
        self._batcher.stop()
        state = self._lifecycle.candidate()
        if state is not None and state.shadow is not None:
            state.shadow.stop()
        set_model_loaded(False)

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- admin: hot-swap / candidate / feedback ------------------------
    def reload_artifact(
        self,
        path: Optional[str] = None,
        *,
        verify: bool = True,
        publish: bool = True,
    ) -> Dict[str, Any]:
        """Atomically hot-swap the primary from an artifact directory.

        Loading and verification run on the calling thread while the old
        model keeps serving; only the final reference swap touches the
        lifecycle lock.  Defaults to re-reading the artifact the primary
        was loaded from (the ``--watch-artifact`` path).
        """
        from repro.persist import ArtifactError, artifact_sha, load_artifact

        target = path if path is not None else self._lifecycle.primary().path
        if target is None:
            raise ReloadError(
                "the primary was not loaded from an artifact; pass an "
                "artifact path to reload from"
            )
        started = time.perf_counter()
        try:
            model = load_artifact(target, mmap=self.config.mmap, verify=verify)
            sha = artifact_sha(target)
        except (ArtifactError, OSError) as exc:
            record_reload_error()
            raise ReloadError(
                f"could not reload artifact at {target}: {exc}"
            ) from exc
        self._bind_model(model)
        handle = self._lifecycle.swap(
            model,
            artifact_sha=sha,
            path=str(target),
            seconds=time.perf_counter() - started,
        )
        self._arm_drift(model, str(target))
        self._publish(publish)
        return {
            "model": self.model_info(),
            "generation": handle.generation,
            "artifact": str(target),
        }

    def mount_candidate(
        self,
        path: str,
        *,
        mode: Optional[str] = None,
        fraction: Optional[float] = None,
        verify: bool = True,
        publish: bool = True,
    ) -> Dict[str, Any]:
        """Mount an artifact as the candidate (shadow or A/B traffic)."""
        from repro.persist import ArtifactError, artifact_sha, load_artifact

        mode = mode if mode is not None else self.config.candidate_mode
        fraction = (
            self.config.ab_fraction if fraction is None else float(fraction)
        )
        try:
            model = load_artifact(path, mmap=self.config.mmap, verify=verify)
            sha = artifact_sha(path)
        except (ArtifactError, OSError) as exc:
            raise ReloadError(
                f"could not load candidate artifact at {path}: {exc}"
            ) from exc
        shadow = ShadowRunner(model).start() if mode == "shadow" else None
        try:
            self._lifecycle.mount_candidate(
                model,
                artifact_sha=sha,
                path=str(path),
                mode=mode,
                fraction=fraction,
                shadow=shadow,
            )
        except ValueError as exc:
            if shadow is not None:
                shadow.stop()
            raise ReloadError(str(exc)) from exc
        self._publish(publish)
        return {"candidate": self._lifecycle.describe()["candidate"]}

    def unmount_candidate(self, *, publish: bool = True) -> Dict[str, Any]:
        removed = self._lifecycle.unmount_candidate()
        self._publish(publish)
        return {"unmounted": removed}

    def promote_candidate(self, *, publish: bool = True) -> Dict[str, Any]:
        """The mounted candidate becomes the primary (next generation)."""
        state = self._lifecycle.candidate()
        if state is None:
            raise ReloadError("no candidate is mounted")
        self._bind_model(state.handle.model)
        try:
            handle = self._lifecycle.promote_candidate()
        except RuntimeError as exc:
            raise ReloadError(str(exc)) from exc
        self._arm_drift(handle.model, handle.path)
        self._publish(publish)
        return {"model": self.model_info(), "generation": handle.generation}

    def feedback(self, rows: Any, labels: Any) -> Dict[str, Any]:
        """Absorb labelled follow-up rows into the continual trainer."""
        if self._trainer is None:
            raise ValidationError(
                "the served model has no fitted record encoder; follow-up "
                "feedback is not supported"
            )
        arr = self._validate(rows)
        try:
            total = self._trainer.add(arr, labels)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        return {
            "rows": int(arr.shape[0]),
            "total": total,
            "ready": self._trainer.ready,
        }

    def build_follow_up_candidate(
        self, path: str, *, mount: bool = False
    ) -> Dict[str, Any]:
        """Snapshot the follow-up trainer as a candidate artifact."""
        if self._trainer is None:
            raise ValidationError(
                "the served model has no fitted record encoder; follow-up "
                "feedback is not supported"
            )
        try:
            out = self._trainer.build_candidate(path)
        except RuntimeError as exc:
            raise ReloadError(str(exc)) from exc
        result: Dict[str, Any] = {"artifact": str(out)}
        if mount:
            result.update(self.mount_candidate(str(out)))
        return result

    def lifecycle_status(self) -> Dict[str, Any]:
        """The ``GET /v1/admin/lifecycle`` body: routing, drift, follow-ups."""
        status = self._lifecycle.describe()
        status["generation"] = status["primary"]["generation"]
        status["drift"] = (
            self._drift.status() if self._drift is not None else None
        )
        status["follow_up"] = (
            self._trainer.describe() if self._trainer is not None else None
        )
        state = self._lifecycle.candidate()
        if state is not None and state.shadow is not None:
            status["disagreements"] = state.shadow.disagreements()
        return status

    # -- request path --------------------------------------------------
    def _validate(self, rows: Sequence[Sequence[float]]) -> np.ndarray:
        if not isinstance(rows, (list, tuple)) or len(rows) == 0:
            raise ValidationError("rows must be a non-empty list of feature rows")
        if len(rows) > self.config.max_rows_per_request:
            raise PayloadTooLargeError(
                f"request carries {len(rows)} rows; the per-request limit is "
                f"{self.config.max_rows_per_request}"
            )
        try:
            arr = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"rows are not a numeric matrix: {exc}") from exc
        if arr.ndim != 2:
            raise ValidationError(
                f"rows must form a 2-d matrix, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("rows contain NaN or infinite values")
        expected = getattr(self.model, "n_features_in_", None)
        if expected is not None and arr.shape[1] != expected:
            raise ValidationError(
                f"rows have {arr.shape[1]} features; the model expects {expected}"
            )
        return arr

    def _predict_batch(self, stacked: np.ndarray) -> np.ndarray:
        # One handle read per flush: requests collected into this batch
        # all run on the same model even if a swap lands mid-flush.
        handle = self._lifecycle.primary()
        out = np.asarray(handle.model.predict(stacked))
        self._lifecycle.mirror(stacked, out)
        return out

    def _submit(self, arr: np.ndarray):
        try:
            return self._batcher.submit(arr)
        except QueueFullError:
            raise  # admission control — 429, not 503
        except RuntimeError as exc:
            # The batcher refuses submissions while stopped (server
            # shutting down / not yet started): a structured 503, never
            # a bare 500.
            raise NotReadyError(str(exc)) from exc

    def _predict_candidate(
        self, handle: ModelHandle, arr: np.ndarray
    ) -> Optional[np.ndarray]:
        """A/B-routed predict; None falls the request back to the primary."""
        started = time.perf_counter()
        try:
            out = np.asarray(handle.model.predict(arr))
        except Exception:
            record_candidate_error()
            return None
        record_ab_candidate(time.perf_counter() - started)
        return out

    def predict_with_info(self, rows: Sequence[Sequence[float]]) -> tuple:
        """Validate, route (A/B), predict; returns ``(labels, model_block)``.

        The model block is read from the handle that actually served the
        request, so post-swap responses report the new ``artifact_sha``
        and A/B-routed responses report the candidate's.
        """
        started = time.perf_counter()
        arr = self._validate(rows)
        if not self.ready:
            raise NotReadyError("service is not running; no model is being served")
        ab_handle = self._lifecycle.take_ab_slot()
        if ab_handle is not None:
            out = self._predict_candidate(ab_handle, arr)
            if out is not None:
                from repro.persist import SCHEMA_VERSION

                record_request(time.perf_counter() - started)
                return out.tolist(), ab_handle.info(SCHEMA_VERSION)
        pending = self._submit(arr)
        if not pending.event.wait(timeout=self.config.request_timeout_s):
            record_error()
            raise ServeError(
                f"request timed out after {self.config.request_timeout_s}s "
                f"waiting for a batch slot"
            )
        if pending.error is not None:
            record_error()
            raise PredictFailedError(
                f"batched predict failed: {pending.error}"
            ) from pending.error
        record_request(time.perf_counter() - started)
        assert pending.result is not None
        return np.asarray(pending.result).tolist(), self.model_info()

    def predict(self, rows: Sequence[Sequence[float]]) -> List[Any]:
        """Validate, enqueue, wait for the fused flush, return labels.

        Raises the exception hierarchy above; the returned labels are
        plain Python scalars (JSON-ready).
        """
        labels, _ = self.predict_with_info(rows)
        return labels

    def describe(self) -> dict:
        """Model/runtime summary served by ``GET /readyz`` and the CLI."""
        from repro.kernels import active_backend

        model = self.model
        info = {
            "model": type(model).__name__,
            "ready": self.ready,
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "queue_size": self.config.queue_size,
            "kernel_backend": active_backend(),
            "workers": self.config.workers,
            "artifact_sha": self.artifact_sha,
            "generation": self.generation,
            "lifecycle": self._lifecycle.describe(),
        }
        if self._drift is not None:
            info["drift"] = self._drift.status()
        n_features = getattr(model, "n_features_in_", None)
        if n_features is not None:
            info["n_features"] = int(n_features)
        classes = getattr(model, "classes_", None)
        if classes is not None:
            info["classes"] = np.asarray(classes).tolist()
        return info


__all__ = [
    "InferenceService",
    "NotReadyError",
    "PayloadTooLargeError",
    "PredictFailedError",
    "ReloadError",
    "ServeError",
    "ValidationError",
]
