"""HTTP front-end: a stdlib ThreadingHTTPServer around the service.

Endpoints:

* ``POST /v1/predict`` — the versioned API (PR 9).  Body
  ``{"rows": [[...], ...], "request_id": "..."}`` (``request_id``
  optional); responds ``{"predictions": [...], "n": k, "model":
  {"kind", "schema_version", "artifact_sha"}, "request_id": ...}``.
* ``GET /healthz`` — process liveness (always 200 while the server runs).
* ``GET /readyz`` — 200 with the model summary once the service is
  started, 503 before/after.  Under a pool
  (:mod:`repro.serve.pool`) readiness is aggregated across workers:
  any dead worker turns every worker's ``/readyz`` 503.
* ``GET /metrics`` — Prometheus text exposition via
  :func:`repro.obs.export.to_prometheus`, including the ``serve.*``
  counters/histograms (queue depth, batch size, request latency) and the
  ``lifecycle.*`` series (reloads, shadow agreement, drift).

Admin endpoints (PR 10, the live model lifecycle):

* ``POST /v1/admin/reload`` — hot-swap the primary from an artifact
  directory (body ``{"artifact": "path"}``; empty body re-reads the
  artifact the primary was loaded from).
* ``POST /v1/admin/candidate`` — mount (``{"artifact", "mode",
  "fraction"}``), ``{"action": "unmount"}`` or ``{"action": "promote"}``
  the shadow/A-B candidate.
* ``POST /v1/admin/feedback`` — labelled follow-up rows (``{"rows",
  "labels"}``) for the continual trainer, or ``{"build": "path"}`` to
  snapshot it as a candidate artifact.
* ``GET /v1/admin/lifecycle`` — routing/drift/follow-up status.

Errors are structured (PR 9): every non-2xx body is
``{"error": {"code", "message", "detail"}}`` with a stable
machine-readable ``code`` (see the table in DESIGN.md §12).

No web framework, no dependencies: :class:`ModelServer` is deployable
anywhere the package itself runs.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.obs.export import to_prometheus
from repro.serve.batcher import QueueFullError
from repro.serve.config import ServeConfig
from repro.serve.metrics import record_error
from repro.serve.service import (
    InferenceService,
    NotReadyError,
    PayloadTooLargeError,
    ReloadError,
    ServeError,
    ValidationError,
)

_MAX_BODY_BYTES = 8 * 1024 * 1024  # hard cap before JSON parsing


def _kernel_info_lines() -> str:
    """Info-style gauge advertising the active kernel backend."""
    from repro.kernels import active_backend

    return (
        "# HELP repro_kernel_backend_info Active compute kernel backend.\n"
        "# TYPE repro_kernel_backend_info gauge\n"
        f'repro_kernel_backend_info{{backend="{active_backend()}"}} 1\n'
    )


#: Listen backlog of every serving socket.  ``socketserver``'s default
#: of 5 resets connections in a burst of concurrent connects.
LISTEN_BACKLOG = 128


class _HTTPServer(ThreadingHTTPServer):
    """The threaded server every :class:`ModelServer` runs on."""

    request_queue_size = LISTEN_BACKLOG
    daemon_threads = True


class _ReusePortHTTPServer(_HTTPServer):
    """Threaded server that binds with ``SO_REUSEPORT`` set.

    Every pool worker binds its own socket to the same address; the
    kernel then load-balances incoming connections across them.
    """

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        _HTTPServer.server_bind(self)


class _InheritedSocketHTTPServer(_HTTPServer):
    """Threaded server accepting on a pre-bound, listening socket.

    The ``SO_REUSEPORT`` fallback: the pool supervisor binds + listens
    once before forking and every worker accepts on the inherited fd.
    """

    def __init__(self, listen_socket: socket.socket, handler_class) -> None:
        _HTTPServer.__init__(
            self,
            listen_socket.getsockname()[:2],
            handler_class,
            bind_and_activate=False,
        )
        self.socket.close()
        self.socket = listen_socket
        self.server_address = listen_socket.getsockname()[:2]

    def server_bind(self) -> None:  # pragma: no cover - never called
        raise RuntimeError("inherited socket is already bound")

    def server_close(self) -> None:
        # The supervisor owns the listening socket; closing it here would
        # kill the other workers' accept loops too.
        pass


def _make_handler(service: InferenceService, config: ServeConfig):
    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve"
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every connection: also covers the stdlib's own
        # send_error, which still writes its headers and body apart.
        disable_nagle_algorithm = True

        # -- plumbing --------------------------------------------------
        def log_message(self, fmt: str, *args: Any) -> None:
            if config.log_requests:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def _send(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.request_version == "HTTP/0.9":  # no status line, no headers
                self.wfile.write(body)
                return
            # Status line, headers, blank line and body leave in one write.
            # Written apart, Nagle holds the body until the client's delayed
            # ACK of the headers: ~40 ms on every keep-alive response.
            self._headers_buffer.extend((b"\r\n", body))
            self.flush_headers()

        def _send_json(self, status: int, payload: Any) -> None:
            self._send(
                status,
                json.dumps(payload).encode("utf-8"),
                "application/json; charset=utf-8",
            )

        def _send_error_json(
            self,
            status: int,
            code: str,
            message: str,
            detail: Any = None,
        ) -> None:
            self._send_json(
                status,
                {"error": {"code": code, "message": message, "detail": detail}},
            )

        # -- GET -------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._send(200, b"ok\n", "text/plain; charset=utf-8")
            elif path == "/readyz":
                if not service.ready:
                    self._send_error_json(503, "not_ready", "model is not loaded")
                    return
                pool_check = getattr(service, "pool_ready", None)
                if pool_check is not None:
                    ok, detail = pool_check()
                    if not ok:
                        self._send_error_json(
                            503, "pool_degraded", "worker pool is degraded", detail
                        )
                        return
                self._send_json(200, service.describe())
            elif path == "/metrics":
                collect = getattr(service, "pool_metrics", None)
                body = (
                    to_prometheus() if collect is None else collect()
                ) + _kernel_info_lines()
                self._send(
                    200,
                    body.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/v1/admin/lifecycle":
                self._run_admin(service.lifecycle_status)
            else:
                self._send_error_json(404, "not_found", f"unknown path {path!r}")

        # -- POST ------------------------------------------------------
        def _read_predict_payload(self) -> Optional[dict]:
            """Parse + schema-check the request body; None means an error
            response has already been sent."""
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                self._send_error_json(
                    400, "invalid_request", "invalid Content-Length"
                )
                return None
            if length <= 0:
                self._send_error_json(400, "invalid_request", "empty request body")
                return None
            if length > _MAX_BODY_BYTES:
                self._send_error_json(
                    413, "payload_too_large", "request body too large",
                    {"max_bytes": _MAX_BODY_BYTES},
                )
                return None
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._send_error_json(
                    400, "invalid_request", f"body is not valid JSON: {exc}"
                )
                return None
            if not isinstance(payload, dict) or "rows" not in payload:
                self._send_error_json(
                    400, "invalid_request",
                    'body must be {"rows": [[...], ...]}',
                )
                return None
            request_id = payload.get("request_id")
            if request_id is not None and not isinstance(request_id, str):
                self._send_error_json(
                    400, "invalid_request", "request_id must be a string",
                    {"got": type(request_id).__name__},
                )
                return None
            return payload

        def _predict(self, payload: dict) -> Optional[tuple]:
            """Run the service; returns ``(predictions, model_block)`` or
            None when an error response was already sent."""
            try:
                return service.predict_with_info(payload["rows"])
            except QueueFullError as exc:
                self._send_error_json(429, "queue_full", str(exc))
            except (
                ValidationError,
                PayloadTooLargeError,
                NotReadyError,
            ) as exc:
                status = {
                    "invalid_request": 400,
                    "payload_too_large": 413,
                    "not_ready": 503,
                }[exc.code]
                self._send_error_json(status, exc.code, str(exc))
            except ServeError as exc:
                self._send_error_json(500, exc.code, str(exc))
            except Exception as exc:  # noqa: BLE001 — structured 500, never a dropped socket
                record_error()
                self._send_error_json(
                    500, "internal", f"unexpected server error: {exc}"
                )
            return None

        def _read_json_body(self, *, allow_empty: bool = False):
            """Parse an admin request body; ``(ok, payload_dict)``.

            ``allow_empty`` maps a missing body to ``{}`` (e.g. a reload
            of the currently-served artifact needs no parameters).
            """
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                self._send_error_json(
                    400, "invalid_request", "invalid Content-Length"
                )
                return False, {}
            if length <= 0:
                if allow_empty:
                    return True, {}
                self._send_error_json(400, "invalid_request", "empty request body")
                return False, {}
            if length > _MAX_BODY_BYTES:
                self._send_error_json(
                    413, "payload_too_large", "request body too large",
                    {"max_bytes": _MAX_BODY_BYTES},
                )
                return False, {}
            try:
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._send_error_json(
                    400, "invalid_request", f"body is not valid JSON: {exc}"
                )
                return False, {}
            if not isinstance(payload, dict):
                self._send_error_json(
                    400, "invalid_request", "body must be a JSON object"
                )
                return False, {}
            return True, payload

        def _run_admin(self, fn) -> None:
            """Run an admin operation, translating the error hierarchy."""
            try:
                result = fn()
            except (ReloadError, ValidationError) as exc:
                self._send_error_json(400, exc.code, str(exc))
                return
            except NotReadyError as exc:
                self._send_error_json(503, exc.code, str(exc))
                return
            except ServeError as exc:
                self._send_error_json(500, exc.code, str(exc))
                return
            except Exception as exc:  # noqa: BLE001 — structured 500
                self._send_error_json(
                    500, "internal", f"admin operation failed: {exc}"
                )
                return
            self._send_json(200, result)

        def _handle_admin_candidate(self, payload: dict) -> None:
            action = payload.get("action", "mount")
            if action == "unmount":
                self._run_admin(service.unmount_candidate)
            elif action == "promote":
                self._run_admin(service.promote_candidate)
            elif action == "mount":
                artifact = payload.get("artifact")
                if not isinstance(artifact, str) or not artifact:
                    self._send_error_json(
                        400, "invalid_request",
                        'mounting a candidate needs {"artifact": "path"}',
                    )
                    return
                mode = payload.get("mode")
                if mode is not None and not isinstance(mode, str):
                    self._send_error_json(
                        400, "invalid_request", "mode must be a string"
                    )
                    return
                fraction = payload.get("fraction")
                if fraction is not None and not isinstance(fraction, (int, float)):
                    self._send_error_json(
                        400, "invalid_request", "fraction must be a number"
                    )
                    return
                self._run_admin(
                    lambda: service.mount_candidate(
                        artifact, mode=mode, fraction=fraction
                    )
                )
            else:
                self._send_error_json(
                    400, "invalid_request",
                    f"unknown candidate action {action!r}",
                )

        def _handle_admin_feedback(self, payload: dict) -> None:
            if "rows" in payload:
                if not isinstance(payload.get("labels"), (list, tuple)):
                    self._send_error_json(
                        400, "invalid_request",
                        'feedback needs {"rows": [[...]], "labels": [...]}',
                    )
                    return
                self._run_admin(
                    lambda: service.feedback(payload["rows"], payload["labels"])
                )
            elif "build" in payload:
                build = payload["build"]
                if not isinstance(build, str) or not build:
                    self._send_error_json(
                        400, "invalid_request", "build must be an artifact path"
                    )
                    return
                self._run_admin(
                    lambda: service.build_follow_up_candidate(
                        build, mount=bool(payload.get("mount", False))
                    )
                )
            else:
                self._send_error_json(
                    400, "invalid_request",
                    'feedback body must carry "rows"/"labels" or "build"',
                )

        def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0]
            if path == "/v1/predict":
                payload = self._read_predict_payload()
                if payload is None:
                    return
                result = self._predict(payload)
                if result is None:
                    return
                predictions, model_block = result
                self._send_json(
                    200,
                    {
                        "predictions": predictions,
                        "n": len(predictions),
                        # The handle that actually served the request, so
                        # post-swap responses carry the new artifact_sha.
                        "model": model_block,
                        "request_id": payload.get("request_id"),
                    },
                )
            elif path == "/v1/admin/reload":
                ok, payload = self._read_json_body(allow_empty=True)
                if not ok:
                    return
                artifact = payload.get("artifact")
                if artifact is not None and not isinstance(artifact, str):
                    self._send_error_json(
                        400, "invalid_request", "artifact must be a path string"
                    )
                    return
                self._run_admin(lambda: service.reload_artifact(artifact))
            elif path == "/v1/admin/candidate":
                ok, payload = self._read_json_body()
                if not ok:
                    return
                self._handle_admin_candidate(payload)
            elif path == "/v1/admin/feedback":
                ok, payload = self._read_json_body()
                if not ok:
                    return
                self._handle_admin_feedback(payload)
            else:
                self._send_error_json(404, "not_found", f"unknown path {path!r}")

    return _Handler


class ModelServer:
    """Bind an :class:`InferenceService` to a threaded HTTP server.

    ``model`` may be a fitted estimator/pipeline or an already-built
    :class:`InferenceService`.  :meth:`start` is non-blocking (the accept
    loop runs on a daemon thread); use :meth:`serve_forever` from a CLI.

    Pool hooks (PR 9): ``reuse_port=True`` binds with ``SO_REUSEPORT``
    so several processes can share one address; ``listen_socket=...``
    accepts on a socket the pool supervisor bound before forking (the
    fallback when ``SO_REUSEPORT`` is unavailable).
    """

    def __init__(
        self,
        model: Any,
        config: Optional[ServeConfig] = None,
        *,
        reuse_port: bool = False,
        listen_socket: Optional[socket.socket] = None,
    ) -> None:
        if isinstance(model, InferenceService):
            self.service = model
            self.config = config or model.config
        else:
            self.config = config or ServeConfig()
            self.service = InferenceService(model, self.config)
        self._reuse_port = reuse_port
        self._listen_socket = listen_socket
        # Guards _httpd/_thread: start/stop/address may race (a CLI's
        # signal handler stopping while serve_forever is still starting).
        self._lifecycle = threading.Lock()
        self._httpd: Optional[_HTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def from_artifact(
        cls, path: Any, config: Optional[ServeConfig] = None
    ) -> "ModelServer":
        """Load a :mod:`repro.persist` artifact directory and serve it."""
        return cls(InferenceService.from_artifact(path, config), config)

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)``; resolves ``port=0`` to the real port."""
        with self._lifecycle:
            httpd = self._httpd
        if httpd is None:
            raise RuntimeError("server is not started")
        host, port = httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _build_httpd(self) -> _HTTPServer:
        handler = _make_handler(self.service, self.config)
        if self._listen_socket is not None:
            return _InheritedSocketHTTPServer(self._listen_socket, handler)
        server_cls = _ReusePortHTTPServer if self._reuse_port else _HTTPServer
        return server_cls((self.config.host, self.config.port), handler)

    def start(self) -> Tuple[str, int]:
        with self._lifecycle:
            if self._httpd is None:
                self.service.start()
                self._httpd = self._build_httpd()
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    name="repro-serve-http",
                    daemon=True,
                )
                self._thread.start()
        return self.address

    def stop(self) -> None:
        with self._lifecycle:
            httpd = self._httpd
            thread = self._thread
            self._httpd = None
            self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        self.service.stop()

    def serve_forever(self) -> None:
        """Blocking variant for the CLI; Ctrl-C or SIGTERM stops cleanly.

        SIGTERM is what init systems, containers, and CI runners send —
        and a non-interactive shell backgrounding the CLI with ``&``
        leaves SIGINT ignored, so it is the only reliable stop signal
        there.  The handler just sets an event (no locks: it runs on
        the main thread, possibly mid-critical-section).
        """
        self.start()
        with self._lifecycle:
            thread = self._thread
        assert thread is not None
        shutdown = threading.Event()
        try:
            previous = signal.signal(signal.SIGTERM, lambda *_: shutdown.set())
        except ValueError:  # not the main thread; Ctrl-C still applies
            previous = None
        try:
            while thread.is_alive() and not shutdown.is_set():
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
            self.stop()

    def __enter__(self) -> "ModelServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


__all__ = ["ModelServer"]
