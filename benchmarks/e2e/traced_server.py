"""Run the ``repro.serve`` CLI with in-memory spans around each layer's calls.

    python benchmarks/e2e/traced_server.py --spans OUT.json -- --artifact DIR --port 0

Everything after ``--`` goes unchanged to :func:`repro.serve.cli.main`.
Before calling it, this launcher wraps these public callables with
``time.perf_counter`` spans:

* ``InferenceService.predict_with_info`` / ``.feedback`` / ``.reload_artifact``
* ``HDCFeaturePipeline.predict``
* ``RecordEncoder.transform``
* ``PrototypeClassifier.predict`` and ``HammingClassifier.predict``
* ``DriftMonitor.observe``
* ``repro.persist.load_artifact``
* ``json.loads`` / ``json.dumps`` as called by ``repro.serve.http``

The spans stay in memory. When the server exits (SIGTERM makes the CLI
return), they are written to ``OUT.json`` as
``[name, parent, start, duration, self, rows]`` lists. ``self`` is the
duration minus the time of the child spans on the same thread. ``start``
is ``time.perf_counter()``, which on Linux reads ``CLOCK_MONOTONIC``, so
the benchmark client can select spans by its own clock. No source file of
the package is modified.
"""

from __future__ import annotations

import argparse
import functools
import json
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, List, Optional

_SPANS: List[list] = []
_LOCAL = threading.local()


def _rows_in(args: tuple) -> int:
    """Row count of the first array or list argument (0 when there is none)."""
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape:
            return int(shape[0])
        if isinstance(arg, list):
            return len(arg)
    return 0


def _traced(name: str, fn: Callable, rows_of: Callable[[tuple, Any], int]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        parent: Optional[str] = stack[-1][1] if stack else None
        frame = [0.0, name]  # [time spent in child spans, name]
        stack.append(frame)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            # list.append is atomic under the GIL; handler and batcher
            # threads share the list without a lock.
            _SPANS.append(
                [name, parent, start, duration, duration - frame[0], rows_of(args, result)]
            )

    return wrapper


def _rows_decoded(args: tuple, payload: Any) -> int:
    rows = payload.get("rows") if isinstance(payload, dict) else None
    return len(rows) if isinstance(rows, list) else 0


def install() -> None:
    """Wrap the layer callables listed in the module docstring (call once)."""
    import repro.persist
    import repro.persist.artifact
    from repro.core.classifier import HammingClassifier, PrototypeClassifier
    from repro.core.records import RecordEncoder
    from repro.lifecycle.drift import DriftMonitor
    from repro.ml.pipeline import HDCFeaturePipeline
    from repro.serve import http as serve_http
    from repro.serve.service import InferenceService

    by_args = lambda args, result: _rows_in(args)  # noqa: E731
    methods = [
        (InferenceService, "predict_with_info", "service.predict"),
        (InferenceService, "feedback", "lifecycle.feedback"),
        (InferenceService, "reload_artifact", "lifecycle.reload"),
        (HDCFeaturePipeline, "predict", "pipeline.predict"),
        (RecordEncoder, "transform", "encode.transform"),
        (PrototypeClassifier, "predict", "classify.predict"),
        (HammingClassifier, "predict", "classify.predict"),
        (DriftMonitor, "observe", "drift.observe"),
    ]
    for owner, attr, name in methods:
        setattr(owner, attr, _traced(name, getattr(owner, attr), by_args))

    # InferenceService imports load_artifact from repro.persist at call time.
    load = _traced("persist.load", repro.persist.load_artifact, by_args)
    repro.persist.load_artifact = load
    repro.persist.artifact.load_artifact = load

    serve_http.json = types.SimpleNamespace(
        loads=_traced("http.json_decode", json.loads, _rows_decoded),
        dumps=_traced("http.json_encode", json.dumps, by_args),
        JSONDecodeError=json.JSONDecodeError,
    )


def dump(path: str) -> None:
    tmp = Path(path).with_suffix(".tmp")
    tmp.write_text(json.dumps({"clock": "perf_counter", "spans": list(_SPANS)}))
    tmp.replace(path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro.serve with in-memory layer spans (see module docstring)"
    )
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    install()
    from repro.serve.cli import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        dump(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
