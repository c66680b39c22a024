"""Synthetic load generation: seeded arrivals, one threaded engine, reports.

Two arrival disciplines (the classic pair from load-testing literature):

* **open loop** — a Poisson arrival schedule at ``rate_rps`` is drawn up
  front from the traffic seed; requests fire at their scheduled instants
  whether or not earlier ones have completed.  This is the discipline
  that exposes saturation: the offered rate does not back off when the
  server slows down.
* **closed loop** — ``concurrency`` workers each hold one request in
  flight (request → response → next request).  The offered rate adapts
  to the server, which is what real interactive clients do.

All randomness flows from ``TrafficSpec.seed`` through
:mod:`repro.utils.rng` (the discipline hdlint HD001 enforces on every
other stochastic component), so the arrival schedule and the row stream
are bit-identical across runs; only the measured latencies depend on
the server.

:func:`run_load` has one engine: a thread pool (open loop) or
``concurrency`` threads (closed loop) calling ``transport.send`` on the
wall clock.  :class:`HttpTransport` drives a live server's
``POST /v1/predict``; :class:`FakeTransport` is the test double.
Open-loop latency is measured from each request's *scheduled* arrival,
so a dispatch backlog (coordinated omission) counts against the server.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import span
from repro.scenarios.errors import ScenarioError
from repro.scenarios.metrics import record_load_request, record_load_run
from repro.scenarios.schema import SLOSpec, TrafficSpec
from repro.utils.rng import as_generator, derive_seed

LATENCY_PERCENTILES: Tuple[int, ...] = (50, 90, 95, 99)


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
def request_json(
    url: str,
    payload: Optional[Dict[str, Any]],
    *,
    timeout_s: float,
) -> Tuple[int, Dict[str, Any]]:
    """POST ``payload`` as JSON (GET when it is None); ``(status, body)``.

    One short-lived urllib connection per call.  Transport-level
    failures (refused connection, timeout, unparseable body) return
    status ``0``, so they stay distinguishable from server-side 5xx.
    """
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return int(resp.status), json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            body = {}
        return int(exc.code), body
    except (urllib.error.URLError, OSError, TimeoutError, ValueError):
        return 0, {}


class HttpTransport:
    """POST rows to a live ``/v1/predict``; returns (status, seconds).

    Status ``0`` marks a transport-level failure (see :func:`request_json`).
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.url = base_url.rstrip("/") + "/v1/predict"
        self.timeout_s = float(timeout_s)

    def send(self, rows: Sequence[Sequence[float]]) -> Tuple[int, float]:
        payload = {"rows": [list(map(float, r)) for r in rows]}
        started = time.perf_counter()
        status, _ = request_json(self.url, payload, timeout_s=self.timeout_s)
        return status, time.perf_counter() - started


class FakeTransport:
    """Test double: answers instantly with a chosen status and service time.

    ``service_s`` is the latency every call reports; ``status_fn`` lets
    tests inject error codes at chosen request indices.
    """

    def __init__(
        self,
        service_s: float = 0.001,
        status_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        self._service_s = float(service_s)
        self._status_fn = status_fn
        # The engine shares one transport across its threads, so the
        # request counter needs a lock to hand out unique indices.
        self._lock = threading.Lock()
        self._calls = 0

    def send(self, rows: Sequence[Sequence[float]]) -> Tuple[int, float]:
        with self._lock:
            i = self._calls
            self._calls += 1
        status = self._status_fn(i) if self._status_fn is not None else 200
        return int(status), self._service_s


# ----------------------------------------------------------------------
# arrival schedule
# ----------------------------------------------------------------------
def arrival_schedule(traffic: TrafficSpec) -> np.ndarray:
    """Seeded open-loop arrival offsets (seconds from run start).

    Poisson process at ``rate_rps``: exponential inter-arrival gaps drawn
    from a generator derived from ``traffic.seed``, cumulatively summed.
    Bit-identical for identical specs — the reproducibility anchor the
    deterministic harness tests pin.
    """
    traffic.validate()
    rng = as_generator(derive_seed(traffic.seed, "loadgen", "arrivals"))
    gaps = rng.exponential(scale=1.0 / traffic.rate_rps, size=traffic.n_requests)
    return np.cumsum(gaps)


def request_row_indices(
    traffic: TrafficSpec, n_rows_available: int
) -> np.ndarray:
    """Deterministic ``(n_requests, rows_per_request)`` row index plan.

    Each request draws its rows from a seeded permutation of the dataset,
    wrapping around — every run over the same spec replays the identical
    row stream.
    """
    traffic.validate()
    if n_rows_available < 1:
        raise ScenarioError("dataset has no rows to sample requests from")
    rng = as_generator(derive_seed(traffic.seed, "loadgen", "rows"))
    order = rng.permutation(n_rows_available)
    total = traffic.n_requests * traffic.rows_per_request
    flat = order[np.arange(total) % n_rows_available]
    return flat.reshape(traffic.n_requests, traffic.rows_per_request)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Aggregated outcome of one load run (the unit a BENCH file stores)."""

    mode: str
    n_requests: int
    rows_per_request: int
    concurrency: int
    offered_rps: Optional[float]
    duration_s: float
    throughput_rps: float
    row_throughput_rps: float
    latency_ms: Dict[str, float]
    status_counts: Dict[str, int]
    error_rate: float
    slo_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.slo_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "n_requests": self.n_requests,
            "rows_per_request": self.rows_per_request,
            "concurrency": self.concurrency,
            "offered_rps": self.offered_rps,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "row_throughput_rps": self.row_throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "status_counts": dict(self.status_counts),
            "error_rate": self.error_rate,
            "slo_violations": list(self.slo_violations),
        }


def _latency_summary(latencies_s: np.ndarray) -> Dict[str, float]:
    if latencies_s.size == 0:
        return {f"p{p}": 0.0 for p in LATENCY_PERCENTILES} | {"mean": 0.0, "max": 0.0}
    ms = latencies_s * 1000.0
    out = {f"p{p}": float(np.percentile(ms, p)) for p in LATENCY_PERCENTILES}
    out["mean"] = float(np.mean(ms))
    out["max"] = float(np.max(ms))
    return out


def evaluate_slo(
    slo: SLOSpec, latency_ms: Dict[str, float], error_rate: float, throughput_rps: float
) -> List[str]:
    """Human-readable list of violated objectives (empty = SLO met)."""
    violations: List[str] = []
    for pct_key, bound in (
        ("p50", slo.p50_ms),
        ("p95", slo.p95_ms),
        ("p99", slo.p99_ms),
    ):
        if bound is not None and latency_ms.get(pct_key, 0.0) > bound:
            violations.append(
                f"latency {pct_key} {latency_ms[pct_key]:.2f} ms > {bound:.2f} ms"
            )
    if error_rate > slo.max_error_rate:
        violations.append(
            f"error rate {error_rate:.4f} > {slo.max_error_rate:.4f}"
        )
    if slo.min_throughput_rps is not None and throughput_rps < slo.min_throughput_rps:
        violations.append(
            f"throughput {throughput_rps:.2f} rps < {slo.min_throughput_rps:.2f} rps"
        )
    return violations


def summarize(
    traffic: TrafficSpec,
    slo: SLOSpec,
    latencies_s: Sequence[float],
    statuses: Sequence[int],
    duration_s: float,
) -> LoadReport:
    """Fold raw per-request outcomes into a :class:`LoadReport`."""
    lat = np.asarray(latencies_s, dtype=np.float64)
    statuses = [int(s) for s in statuses]
    counts: Dict[str, int] = {}
    for s in statuses:
        key = str(s)
        counts[key] = counts.get(key, 0) + 1
    n = len(statuses)
    n_ok = sum(1 for s in statuses if 200 <= s < 300)
    error_rate = 0.0 if n == 0 else (n - n_ok) / n
    duration = max(float(duration_s), 1e-12)
    throughput = n / duration
    latency_ms = _latency_summary(lat)
    return LoadReport(
        mode=traffic.mode,
        n_requests=n,
        rows_per_request=traffic.rows_per_request,
        concurrency=traffic.concurrency,
        offered_rps=traffic.rate_rps if traffic.mode == "open" else None,
        duration_s=float(duration_s),
        throughput_rps=throughput,
        row_throughput_rps=throughput * traffic.rows_per_request,
        latency_ms=latency_ms,
        status_counts=dict(sorted(counts.items())),
        error_rate=error_rate,
        slo_violations=evaluate_slo(slo, latency_ms, error_rate, throughput),
    )


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def _run_threaded(
    traffic: TrafficSpec,
    transport: Any,
    request_rows: List[np.ndarray],
) -> Tuple[List[float], List[int], float]:
    """Fire every planned request with real concurrency on the wall clock."""
    latencies: List[float] = [0.0] * traffic.n_requests
    statuses: List[int] = [0] * traffic.n_requests

    def fire(i: int, scheduled: Optional[float]) -> None:
        issued = time.perf_counter()
        status, seconds = transport.send(request_rows[i])
        # Open-loop latency is measured from the *scheduled* arrival, so
        # dispatch backlog (coordinated omission) counts against the
        # server, not in its favour.
        base = issued if scheduled is None else min(issued, scheduled)
        latency = (time.perf_counter() - base) if scheduled is not None else seconds
        latencies[i] = max(latency, seconds)
        statuses[i] = status
        record_load_request(latencies[i], status)

    start = time.perf_counter()
    if traffic.mode == "open":
        offsets = arrival_schedule(traffic)
        with ThreadPoolExecutor(max_workers=traffic.concurrency) as pool:
            futures = []
            for i, offset in enumerate(offsets):
                delay = (start + offset) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(fire, i, start + offset))
            for fut in futures:
                fut.result()
    else:
        counter = {"next": 0}
        lock = threading.Lock()

        def worker() -> None:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= traffic.n_requests:
                        return
                    counter["next"] = i + 1
                fire(i, None)

        threads = [
            threading.Thread(target=worker, name=f"repro-loadgen-{w}")
            for w in range(traffic.concurrency)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return latencies, statuses, time.perf_counter() - start


def run_load(
    traffic: TrafficSpec,
    transport: Any,
    *,
    slo: Optional[SLOSpec] = None,
    rows: Optional[np.ndarray] = None,
) -> LoadReport:
    """Run one load experiment and fold the outcome into a report.

    Parameters
    ----------
    traffic:
        Arrival process description (validated here).
    transport:
        ``send(rows) -> (status, seconds)`` — :class:`HttpTransport`
        against a live server, or a stand-in such as :class:`FakeTransport`.
    slo:
        Objectives to judge the run against (default: no bounds).
    rows:
        ``(n, F)`` feature matrix requests sample from; defaults to a
        single zero-feature row (transport stand-ins ignore payloads).
    """
    traffic.validate()
    slo = slo or SLOSpec()
    if rows is None:
        rows = np.zeros((1, 1), dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    plan = request_row_indices(traffic, rows.shape[0])
    request_rows = [rows[plan[i]] for i in range(traffic.n_requests)]
    with span("scenarios.load_run", mode=traffic.mode, n_requests=traffic.n_requests):
        latencies, statuses, duration = _run_threaded(traffic, transport, request_rows)
    report = summarize(traffic, slo, latencies, statuses, duration)
    record_load_run(report)
    return report


# ----------------------------------------------------------------------
# saturation sweep
# ----------------------------------------------------------------------
def find_saturation(
    traffic: TrafficSpec,
    transport_factory: Callable[[], Any],
    *,
    slo: Optional[SLOSpec] = None,
    rows: Optional[np.ndarray] = None,
    start_rps: float = 25.0,
    growth: float = 2.0,
    max_steps: int = 8,
) -> Dict[str, Any]:
    """Step up open-loop offered load until the SLO breaks.

    Runs geometric rate steps (``start_rps * growth**k``); the
    *saturation point* is the highest offered rate whose report met the
    SLO (latency bounds + error budget).  Each step gets a fresh
    transport from ``transport_factory`` so per-step state (connection
    pools, fake-transport call counts) does not leak across rates.

    Returns ``{"saturation_rps": float | None, "saturated": bool,
    "steps": [...]}`` with one report dict per step, in offered-rate
    order.  ``saturated`` is False when every one of the ``max_steps``
    steps met the SLO: ``saturation_rps`` is then only a lower bound on
    the knee, not the knee.
    """
    if growth <= 1.0:
        raise ScenarioError(f"growth must be > 1, got {growth}")
    if start_rps <= 0:
        raise ScenarioError(f"start_rps must be > 0, got {start_rps}")
    slo = slo or SLOSpec()
    steps: List[Dict[str, Any]] = []
    saturation: Optional[float] = None
    saturated = False
    rate = float(start_rps)
    for _ in range(max_steps):
        step_traffic = replace(traffic, mode="open", rate_rps=rate)
        report = run_load(step_traffic, transport_factory(), slo=slo, rows=rows)
        steps.append({"offered_rps": rate} | report.to_dict())
        if not report.ok:
            saturated = True
            break
        saturation = rate
        rate *= growth
    return {"saturation_rps": saturation, "saturated": saturated, "steps": steps}


__all__ = [
    "FakeTransport",
    "HttpTransport",
    "LATENCY_PERCENTILES",
    "LoadReport",
    "arrival_schedule",
    "evaluate_slo",
    "find_saturation",
    "request_json",
    "request_row_indices",
    "run_load",
    "summarize",
]
