"""Live end-to-end benchmark of the served HDC stack.

One workload run builds the paper's model (10,000-bit record encoding, majority
bundling, then class prototypes or Hamming 1-NN), saves it with
``repro.persist.save_artifact``, starts the unmodified ``python -m repro.serve``
CLI on it as a subprocess and drives it over persistent ``http.client``
connections from at most two client threads. Every response is checked
against ``load_artifact(path).predict(rows)``, computed once in this process.

The stack under test: client -> socket -> ``repro.serve.http`` ->
``repro.serve.service`` -> ``repro.serve.batcher`` -> ``repro.ml.pipeline`` ->
``repro.core.records`` (encode) -> ``repro.core.classifier`` /
``repro.core.search`` -> ``repro.kernels``, with ``repro.lifecycle`` (drift,
feedback, hot reload) and ``repro.persist`` beside it.

The benchmark seed drives only the query cohort, the request plan and the
arrival schedule. Model and training-data seeds are fixed, so every seed serves
the same model. ``run.py`` is the command-line front end.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.core.classifier import HammingClassifier, PrototypeClassifier  # noqa: E402
from repro.core.hypervector import n_words, unpack_bits  # noqa: E402
from repro.core.records import RecordEncoder  # noqa: E402
from repro.data.ehr import cohort_to_matrix, simulate_cohort  # noqa: E402
from repro.data.pima import load_pima_r, pima_feature_specs  # noqa: E402
from repro.data.sylhet import generate_sylhet  # noqa: E402
from repro.lifecycle.drift import centroid_from_counts  # noqa: E402
from repro.ml.pipeline import HDCFeaturePipeline  # noqa: E402
from repro.persist import artifact_sha, load_artifact, save_artifact  # noqa: E402
from repro.utils.rng import derive_seed  # noqa: E402

HOST = "127.0.0.1"
DIM = 10_000
ENCODER_SEED = 7
DATA_SEED = 2023
EHR_PATIENTS = 3_000  # x 6 visits = 18,000 stored records, 22.6 MB packed
EHR_VISITS = 6
EHR_QUERY_PATIENTS = 100  # a disjoint cohort simulated from the benchmark seed
FEEDBACK_ROWS = 8
SETUP_REPEATS = 3  # setup_s is the median of this many fit+save+start cycles
PROBE_ROUNDS = 11  # sequential reload+feedback pairs after the window
CLOSED_LOOP_PLAN = {1: 8192, 8: 1024, 512: 48}  # distinct requests per thread
HTTP_TIMEOUT_S = 30.0
JSON_HEADERS = {"Content-Type": "application/json"}

# Handler-thread spans: together with the client's clock they reconcile a
# request's latency (the batcher-thread spans nest inside service.predict).
HANDLER_SPANS = (
    "http.json_decode",
    "service.predict",
    "lifecycle.feedback",
    "lifecycle.reload",
    "http.json_encode",
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one served model."""

    name: str
    why: str
    dataset: str  # pima_r | sylhet | ehr
    model: str  # prototype | hamming
    rows_per_request: int
    connections: int
    open_loop: bool = False
    rate_ops: float = 0.0  # open loop: total operations per second
    feedback_share: float = 0.0  # open loop: share of operations that are feedback
    reload_every_s: float = 0.0  # open loop: reload period on connection 0
    warmup_s: float = 2.0
    slo_ms: float = 100.0  # slo_ok_frac limit, measured from the due time


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "screen_1row",
            why=(
                "closed loop, 2 connections, 1 Pima-R row per request, prototype "
                "model: per-request fixed cost (HTTP, JSON, batcher hand-off, TCP "
                "writes) dominates"
            ),
            dataset="pima_r",
            model="prototype",
            rows_per_request=1,
            connections=2,
        ),
        Workload(
            "batch_sylhet512",
            why=(
                "closed loop, 1 connection, 512 Sylhet rows per request, prototype "
                "model: record encoding, drift and JSON row parsing dominate"
            ),
            dataset="sylhet",
            model="prototype",
            rows_per_request=512,
            connections=1,
            slo_ms=250.0,
        ),
        Workload(
            "knn_ehr18k",
            why=(
                "closed loop, 2 connections, 8 rows per request, Hamming 1-NN over "
                "18,000 EHR records (22.6 MB, above L2): the popcount kernel dominates"
            ),
            dataset="ehr",
            model="hamming",
            rows_per_request=8,
            connections=2,
            warmup_s=3.0,
        ),
        Workload(
            "feedback_mix",
            why=(
                "open loop, Poisson 12 ops/s over 2 connections: 90% 1-row predicts, "
                "10% 8-row feedback, a reload every 2 s; writes beside reads"
            ),
            dataset="pima_r",
            model="prototype",
            rows_per_request=1,
            connections=2,
            open_loop=True,
            rate_ops=12.0,
            feedback_share=0.1,
            reload_every_s=2.0,
        ),
    )
}

#: Unit of every metric a run can report (BENCHMARK.json names a subset).
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "slo_ok_frac": "frac",
    "feedback_p50_ms": "ms",
    "reload_p50_ms": "ms",
    "server_peak_rss_mb": "MB",
    "window.feedback_p50_ms": "ms",
    "window.reload_p50_ms": "ms",
    "failed_frac": "frac",
    "client.gen_lag_p99_ms": "ms",
    "http.unattributed_p50_ms": "ms",
    "http.json_decode_us_per_row": "us",
    "http.json_encode_us_per_req": "us",
    "service.predict_p50_ms": "ms",
    "service.calls": "count",
    "batcher.rows_per_flush": "rows",
    "batcher.flush_ms_mean": "ms",
    "batcher.wait_ms_mean": "ms",
    "batcher.rejected": "count",
    "pipeline.self_us_per_row": "us",
    "encode.us_per_row": "us",
    "encode.us_per_call": "us",
    "classify.us_per_row": "us",
    "kernel.words_per_query": "words",
    "kernel.bytes_per_query": "bytes",
    "kernel.gwords_per_s": "Gwords/s",
    "drift.us_per_row": "us",
    "lifecycle.reload_ms": "ms",
    "lifecycle.feedback_ms": "ms",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "data.build_s": "s",
    "fit_s": "s",
    "trace.overhead_frac": "frac",
    "trace.attributed_frac": "frac",
}


# -- kernel backend ------------------------------------------------------------
def build_kernel(build_root: Path) -> Dict[str, Any]:
    """Build the native kernel once per source version; pin this process to it.

    The cache directory is keyed by a hash of ``native_build.py`` (which holds
    the C source), so a checkout never serves a stale extension. There is no
    numpy fallback: the servers run with ``REPRO_KERNEL=native``.
    """
    source = (SRC / "repro" / "kernels" / "native_build.py").read_bytes()
    kcache = build_root / f"kcache-{hashlib.sha256(source).hexdigest()[:12]}"
    build_s = 0.0
    cached = any(kcache.glob("_repro_kernels_native*.so"))
    if not cached:
        tmp = build_root / f"kcache-tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.kernels.native_build", "--target", str(tmp)],
            env=_child_env(None),
            check=True,
            capture_output=True,
            timeout=600,
        )
        build_s = time.perf_counter() - started
        shutil.rmtree(kcache, ignore_errors=True)
        tmp.replace(kcache)
    # This process computes the oracle and fits the models: same backend,
    # same defaults (no inherited REPRO_* settings) as the servers.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(REPRO_KERNEL="native", REPRO_KERNEL_CACHE=str(kcache))
    from repro.kernels import get_backend

    get_backend("native")  # raises KernelUnavailableError when the build is unusable
    return {"kcache": str(kcache), "build_s": build_s, "cached": cached}


def _child_env(kcache: Optional[Path]) -> Dict[str, str]:
    """Environment of a child process: the source tree, the kernel, no REPRO_*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if kcache is not None:
        env.update(REPRO_KERNEL="native", REPRO_KERNEL_CACHE=str(kcache))
    return env


# -- data and model ------------------------------------------------------------
def training_set(w: Workload) -> Tuple[np.ndarray, np.ndarray, list]:
    """The fixed-seed training data: ``(X, y, feature specs)``."""
    if w.dataset == "pima_r":
        ds = load_pima_r(seed=DATA_SEED)
        return ds.X, ds.y, list(ds.specs)
    if w.dataset == "sylhet":
        ds = generate_sylhet(seed=DATA_SEED)
        return ds.X, ds.y, list(ds.specs)
    X, y, _, _ = cohort_to_matrix(
        simulate_cohort(EHR_PATIENTS, n_visits=EHR_VISITS, seed=DATA_SEED)
    )
    return X, y, pima_feature_specs()


def query_pool(w: Workload, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Query rows and their true labels: a fresh cohort drawn from ``seed``."""
    sub = derive_seed(seed, "e2e-queries", w.dataset)
    if w.dataset == "pima_r":
        ds = load_pima_r(seed=sub)
        return ds.X, ds.y
    if w.dataset == "sylhet":
        ds = generate_sylhet(seed=sub)
        return ds.X, ds.y
    X, y, _, _ = cohort_to_matrix(
        simulate_cohort(EHR_QUERY_PATIENTS, n_visits=EHR_VISITS, seed=sub)
    )
    return X, y


def fit_pipeline(w: Workload, X: np.ndarray, y: np.ndarray, specs: list) -> HDCFeaturePipeline:
    classifier = (
        PrototypeClassifier(dim=DIM)
        if w.model == "prototype"
        else HammingClassifier(dim=DIM, n_neighbors=1)
    )
    encoder = RecordEncoder(specs=specs, dim=DIM, seed=ENCODER_SEED)
    return HDCFeaturePipeline(encoder, classifier).fit(X, y)


def train_centroid(encoder: RecordEncoder, X: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """``repro.lifecycle.training_centroid``, accumulated in row chunks.

    The library version unpacks every training row to int64 at once (1.4 GB
    for the 18,000-record store); the bit counts, and so the centroid, are
    identical.
    """
    counts = np.zeros(DIM, dtype=np.int64)
    for start in range(0, X.shape[0], chunk):
        packed = encoder.transform(X[start : start + chunk])
        counts += unpack_bits(packed, DIM).sum(axis=0, dtype=np.int64)
    return centroid_from_counts(counts, int(X.shape[0]), DIM)


def predict_oracle(model: Any, X: np.ndarray) -> np.ndarray:
    return np.asarray(model.predict(X))


# -- server process ------------------------------------------------------------
class ServerProcess:
    """One ``python -m repro.serve`` subprocess (or the traced launcher)."""

    _ADDRESS = re.compile(r"on http://([0-9.]+):(\d+)")

    def __init__(self, artifact: Path, kcache: str, log: Path, spans: Optional[Path] = None):
        serve_args = ["--artifact", str(artifact), "--host", HOST, "--port", "0"]
        if spans is None:
            argv = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"), "--spans", str(spans),
                    "--", *serve_args]
        self.log = log
        started = time.perf_counter()
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(
                argv, env=_child_env(Path(kcache)), stdout=fh, stderr=subprocess.STDOUT,
                cwd=str(ROOT),
            )
        try:
            self.port = self._wait_for_address(started + 120.0)
            while self.get("/readyz")[0] != 200:
                if time.perf_counter() > started + 120.0:
                    raise RuntimeError(f"server never became ready; see {log}")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _wait_for_address(self, deadline: float) -> int:
        while True:
            match = self._ADDRESS.search(self.log.read_text(errors="replace"))
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log.read_text(errors='replace')[-2000:]}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server printed no address; see {self.log}")
            time.sleep(0.005)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            conn.close()

    def get_json(self, path: str) -> Dict[str, Any]:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def counters(self) -> Dict[str, float]:
        """The unlabelled ``repro_serve_*`` series of ``/metrics``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        out = {}
        for line in body.decode().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].startswith("repro_serve_"):
                out[parts[0]] = float(parts[1])
        return out

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (the CLI's clean-shutdown signal), then wait; the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# -- request plan --------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    kind: str  # predict | feedback | reload
    rows: Tuple[int, ...]  # indices into the query pool
    at: Optional[float] = None  # open loop: due offset from the phase start (s)


def make_plan(w: Workload, seed: int, seconds: float, n_pool: int) -> Dict[str, Any]:
    """Deterministic request plan: per-phase, per-connection operation lists.

    ``warmup`` and ``window`` hold one list per connection. ``probe`` is one
    sequential list of reload/feedback pairs, sent on one connection after
    the window: ``reload_p50_ms`` and ``feedback_p50_ms`` come from it on
    every workload (the mix also sends both inside its window, under load).
    """
    warmup = min(w.warmup_s, seconds)
    rng = np.random.default_rng(derive_seed(seed, "e2e-plan", w.name, "probe"))
    return {
        "warmup": _phase_ops(w, derive_seed(seed, "e2e-plan", w.name, "warmup"), warmup, n_pool),
        "window": _phase_ops(w, derive_seed(seed, "e2e-plan", w.name, "window"), seconds, n_pool),
        "probe": [
            op
            for _ in range(PROBE_ROUNDS)
            for op in (Op("reload", ()), Op("feedback", _draw(rng, n_pool, FEEDBACK_ROWS)))
        ],
    }


def _draw(rng: np.random.Generator, n_pool: int, k: int) -> Tuple[int, ...]:
    return tuple(int(i) for i in rng.integers(0, n_pool, size=k))


def _phase_ops(w: Workload, seed: int, seconds: float, n_pool: int) -> List[List[Op]]:
    rng = np.random.default_rng(seed)
    if not w.open_loop:
        n = CLOSED_LOOP_PLAN[w.rows_per_request]
        return [
            [Op("predict", _draw(rng, n_pool, w.rows_per_request)) for _ in range(n)]
            for _ in range(w.connections)
        ]
    threads = []
    for c in range(w.connections):
        n = int(round(w.rate_ops / w.connections * seconds))
        # Poisson-like arrivals with stratified gaps: the n + 1 exponential
        # inter-arrival gaps sit at the midpoints of n + 1 equal-probability
        # strata, shuffled by the seed. Every seed offers the same load and the
        # same share of back-to-back arrivals (which decide whether a response
        # waits on a delayed TCP ACK); only their order differs.
        gaps = -np.log1p(-(np.arange(n + 1) + 0.5) / (n + 1))
        rng.shuffle(gaps)
        times = seconds * np.cumsum(gaps)[:n] / gaps.sum()
        n_feedback = int(round(w.feedback_share * n))
        is_feedback = np.zeros(n, dtype=bool)
        is_feedback[rng.choice(n, size=n_feedback, replace=False)] = True
        ops = [
            Op("feedback", _draw(rng, n_pool, FEEDBACK_ROWS), float(t))
            if fb
            else Op("predict", _draw(rng, n_pool, w.rows_per_request), float(t))
            for t, fb in zip(times, is_feedback)
        ]
        if c == 0:
            first = min(w.reload_every_s, seconds) / 2  # short test windows still reload
            reloads = np.arange(first, seconds, w.reload_every_s)
            ops.extend(Op("reload", (), float(t)) for t in reloads)
            ops.sort(key=lambda op: op.at)
        threads.append(ops)
    return threads


# -- client --------------------------------------------------------------------
@dataclass
class Exchange:
    """One operation as the client saw it (perf_counter seconds)."""

    op: Op
    body: bytes
    expected: Optional[list]
    due: float = 0.0  # open loop: scheduled time; closed loop: connection free
    ready: float = 0.0  # max(due, connection free): when the generator meant to send
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    data: bytes = b""
    ok: bool = False
    info: Dict[str, Any] = field(default_factory=dict)


_PATHS = {"predict": "/v1/predict", "feedback": "/v1/admin/feedback", "reload": "/v1/admin/reload"}


def prepare(ops: Sequence[Op], X: np.ndarray, y: np.ndarray, expected: np.ndarray) -> List[Exchange]:
    """Serialise every request body before timing starts."""
    out = []
    for op in ops:
        idx = list(op.rows)
        if op.kind == "predict":
            body = json.dumps({"rows": X[idx].tolist()}).encode()
            out.append(Exchange(op, body, expected[idx].tolist()))
        elif op.kind == "feedback":
            body = json.dumps({"rows": X[idx].tolist(), "labels": y[idx].tolist()}).encode()
            out.append(Exchange(op, body, None))
        else:
            out.append(Exchange(op, b"", None))
    return out


def _exchange(conn: http.client.HTTPConnection, ex: Exchange) -> http.client.HTTPConnection:
    try:
        conn.request("POST", _PATHS[ex.op.kind], body=ex.body, headers=JSON_HEADERS)
        resp = conn.getresponse()
        ex.data = resp.read()
        ex.status = resp.status
        return conn
    except (OSError, http.client.HTTPException):
        conn.close()  # transport error: counted as failed; reconnect for the next op
        return http.client.HTTPConnection(conn.host, conn.port, timeout=HTTP_TIMEOUT_S)


def drive(conns: List[http.client.HTTPConnection], threads: List[List[Exchange]],
          seconds: float, cycle: bool) -> Tuple[List[Exchange], float, float]:
    """Run one phase, one thread per list on ``conns[i]``; ``(sent, t0, t_end)``.

    An operation with a due offset (``op.at``) is sent at that time, or as
    soon as its connection is free when it is late; latency counts from the
    due time (open loop). Without one it is due when its connection becomes
    free (closed loop). ``cycle`` repeats each list until ``seconds`` have
    passed; otherwise each list is sent once. A connection replaced after a
    transport error is written back to ``conns``.
    """
    t0 = time.perf_counter() + 0.05
    t_end = t0 + seconds
    sent: List[List[Exchange]] = [[] for _ in threads]
    errors: List[BaseException] = []

    def run(c: int, ops: List[Exchange], out: List[Exchange]) -> None:
        free = t0
        i = 0
        try:
            while (free < t_end) if cycle else (i < len(ops)):
                template = ops[i % len(ops)]
                i += 1
                due = free if template.op.at is None else t0 + template.op.at
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                ex = Exchange(template.op, template.body, template.expected,
                              due=due, ready=max(due, free))
                ex.sent = time.perf_counter()
                conns[c] = _exchange(conns[c], ex)
                ex.done = free = time.perf_counter()
                out.append(ex)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    workers = [
        threading.Thread(target=run, args=(c, ops, out), name=f"e2e-client-{c}")
        for c, (ops, out) in enumerate(zip(threads, sent))
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=seconds + 10 * HTTP_TIMEOUT_S)
    if any(t.is_alive() for t in workers):
        raise RuntimeError("client thread did not finish")
    if errors:
        raise errors[0]
    return [ex for out in sent for ex in out], t0, t_end


def check(exchanges: List[Exchange], sha: str, base: Dict[str, int]) -> None:
    """Mark each exchange ok or failed against the oracle and lifecycle rules.

    Predict: 200, the oracle's labels, the served ``artifact_sha``. Feedback:
    200 and the trainer's ``total`` grows by 8 per call (the totals of one
    phase are exactly ``base + 8, base + 16, ...``). Reload: 200, the same
    ``artifact_sha`` and a generation above the previous one.
    """
    totals: Dict[int, int] = {}
    for ex in exchanges:
        if ex.status != 200:
            continue
        try:
            payload = json.loads(ex.data)
        except ValueError:
            continue
        if ex.op.kind == "predict":
            ex.ok = (
                payload.get("predictions") == ex.expected
                and payload.get("model", {}).get("artifact_sha") == sha
            )
        elif ex.op.kind == "feedback":
            total = payload.get("total")
            ex.info["total"] = total
            ex.ok = payload.get("rows") == len(ex.op.rows) and isinstance(total, int)
            totals[total] = totals.get(total, 0) + 1
        else:
            ex.info["generation"] = payload.get("generation")
            ex.ok = payload.get("model", {}).get("artifact_sha") == sha
    feedback = [ex for ex in exchanges if ex.op.kind == "feedback" and ex.ok]
    expected_totals = {
        base["feedback_rows"] + FEEDBACK_ROWS * (k + 1) for k in range(len(feedback))
    }
    for ex in feedback:
        ex.ok = ex.info["total"] in expected_totals and totals[ex.info["total"]] == 1
    generation = base["generation"]
    for ex in sorted((e for e in exchanges if e.op.kind == "reload"), key=lambda e: e.sent):
        gen = ex.info.get("generation")
        if ex.ok and isinstance(gen, int) and gen > generation:
            generation = gen
        else:
            ex.ok = False


def lifecycle_base(server: ServerProcess) -> Dict[str, int]:
    status = server.get_json("/v1/admin/lifecycle")
    return {
        "generation": int(status["generation"]),
        "feedback_rows": int((status.get("follow_up") or {}).get("rows", 0)),
    }


# -- statistics ----------------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50)


@dataclass
class Phase:
    exchanges: List[Exchange]
    t0: float
    t_end: float


def run_phase(server: ServerProcess, conns: List[http.client.HTTPConnection],
              exchanges: List[List[Exchange]], seconds: float, cycle: bool, sha: str) -> Phase:
    base = lifecycle_base(server)
    done, t0, t_end = drive(conns, exchanges, seconds, cycle)
    check(done, sha, base)
    return Phase(done, t0, t_end)


def _latencies_ms(exchanges: List[Exchange], kind: str) -> List[float]:
    return [(e.done - e.due) * 1e3 for e in exchanges if e.op.kind == kind and e.ok]


def client_stats(window: Phase, probe: Phase, w: Workload) -> Dict[str, Any]:
    """End-to-end metrics of one window and its probe, as the client measured them."""
    predicts = [e for e in window.exchanges if e.op.kind == "predict"]
    latency = _latencies_ms(window.exchanges, "predict")
    if not latency:
        raise RuntimeError(f"{w.name}: no predict succeeded in the window")
    end = max(e.done for e in window.exchanges)
    feedback = _latencies_ms(probe.exchanges, "feedback")
    reload = _latencies_ms(probe.exchanges, "reload")
    metrics = {
        "rows_per_s": sum(len(e.op.rows) for e in predicts if e.ok) / (end - window.t0),
        "latency_p50_ms": median(latency),
        "latency_p90_ms": pct(latency, 90),
        "slo_ok_frac": sum(1 for v in latency if v <= w.slo_ms) / len(predicts),
        "feedback_p50_ms": median(feedback),
        "reload_p50_ms": median(reload),
        "client.gen_lag_p99_ms": pct([(e.sent - e.ready) * 1e3 for e in window.exchanges], 99),
    }
    samples = {"latency": len(latency), "feedback": len(feedback), "reload": len(reload),
               "gen_lag": len(window.exchanges)}
    for kind in ("feedback", "reload"):  # the open-loop mix also sends them in the window
        under_load = _latencies_ms(window.exchanges, kind)
        if under_load:
            metrics[f"window.{kind}_p50_ms"] = median(under_load)
            samples[f"window.{kind}"] = len(under_load)
    return {"metrics": metrics, "latency_mean_ms": float(np.mean(latency)), "samples": samples}


def batcher_stats(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-layer batcher metrics from ``/metrics`` deltas over the window."""
    d = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    batches = d["repro_serve_batches_total"]
    flush_ms = 1e3 * d["repro_serve_flush_seconds_sum"] / d["repro_serve_flush_seconds_count"]
    request_ms = 1e3 * d["repro_serve_request_seconds_sum"] / d["repro_serve_request_seconds_count"]
    return {
        "batcher.rows_per_flush": d["repro_serve_rows_total"] / batches,
        "batcher.flush_ms_mean": flush_ms,
        # submit -> response minus the model call: queue wait, collection
        # window and fan-out.
        "batcher.wait_ms_mean": request_ms - flush_ms,
        "batcher.rejected": d.get("repro_serve_rejected_total", 0.0),
    }


def layer_stats(spans: List[list], window: Phase, store_rows: int,
                client: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics and the reconciliation table from the traced window.

    Request-path layers use the spans that started inside the window; the
    lifecycle layers also take the probe after it.
    """
    in_window = [s for s in spans if window.t0 <= s[2] <= window.t_end]

    def pick(name: str, parent: Any = "any", source: Sequence[list] = in_window) -> List[list]:
        return [s for s in source if s[0] == name and (parent == "any" or s[1] == parent)]

    def per_row_us(rows: List[list], col: int = 3) -> float:
        return 1e6 * sum(s[col] for s in rows) / sum(s[5] for s in rows)

    service = pick("service.predict")
    pipeline = pick("pipeline.predict")
    encode = pick("encode.transform", parent="pipeline.predict")
    drift = pick("drift.observe", parent="pipeline.predict")
    classify = pick("classify.predict", parent="pipeline.predict")
    decode = pick("http.json_decode")
    encode_json = pick("http.json_encode")
    if not service or not pipeline or not classify:
        raise RuntimeError("traced window holds no predict spans; clocks disagree?")
    later = [s for s in spans if s[2] >= window.t0]
    reload = pick("lifecycle.reload", source=later)
    feedback = pick("lifecycle.feedback", source=later)

    words = store_rows * n_words(DIM)
    classify_rows = sum(s[5] for s in classify)
    classify_s = sum(s[3] for s in classify)
    service_p50 = median([s[3] * 1e3 for s in service])

    client_ms = sum((e.done - e.sent) * 1e3 for e in window.exchanges)
    handler_ms = {
        name: sum(s[3] * 1e3 for s in in_window if s[0] == name and s[1] is None)
        for name in HANDLER_SPANS
    }
    n_ops = len(window.exchanges)
    # Over the whole traced run: a window edge can split a parent from its children.
    children = {
        name: sum(s[3] for s in pick(name, parent="pipeline.predict", source=spans))
        for name in ("encode.transform", "drift.observe", "classify.predict")
    }
    all_pipeline = pick("pipeline.predict", source=spans)
    return {
        "metrics": {
            "http.unattributed_p50_ms": client["metrics"]["latency_p50_ms"] - service_p50,
            "http.json_decode_us_per_row": per_row_us(decode),
            "http.json_encode_us_per_req": 1e6 * sum(s[3] for s in encode_json) / len(encode_json),
            "service.predict_p50_ms": service_p50,
            "service.calls": float(len(service)),
            "pipeline.self_us_per_row": per_row_us(pipeline, col=4),
            "encode.us_per_row": per_row_us(encode),
            "encode.us_per_call": 1e6 * sum(s[3] for s in encode) / len(encode),
            "classify.us_per_row": per_row_us(classify),
            # Computed from shapes: one query scans every stored vector's words.
            "kernel.words_per_query": float(words),
            "kernel.bytes_per_query": float(8 * words),
            "kernel.gwords_per_s": classify_rows * words / classify_s / 1e9,
            "drift.us_per_row": per_row_us(drift),
            "lifecycle.reload_ms": median([s[3] * 1e3 for s in reload]),
            "lifecycle.feedback_ms": median([s[3] * 1e3 for s in feedback]),
            "persist.load_s": median([s[3] for s in pick("persist.load", source=spans)]),
            "trace.attributed_frac": sum(handler_ms.values()) / client_ms,
        },
        "reconcile": {
            "client_ms_per_op": client_ms / n_ops,
            "server_ms_per_op": {k: v / n_ops for k, v in handler_ms.items()},
            "unattributed_ms_per_op": (client_ms - sum(handler_ms.values())) / n_ops,
            "pipeline_s": sum(s[3] for s in all_pipeline),
            "pipeline_self_s": sum(s[4] for s in all_pipeline),
            "pipeline_children_s": children,
        },
        "samples": {
            "service.predict": len(service),
            "lifecycle.reload": len(reload),
            "lifecycle.feedback": len(feedback),
        },
    }


# -- one workload run -----------------------------------------------------------
def exercise(server: ServerProcess, w: Workload, plan: Dict[str, Any], seconds: float,
             Xq: np.ndarray, yq: np.ndarray, expected: np.ndarray, sha: str) -> Dict[str, Any]:
    """Warm up, measure one window, then probe reload and feedback.

    The client keeps its connections open across the three phases, as a
    persistent client would; the probe runs on connection 0.
    """
    bodies = {
        phase: [prepare(ops, Xq, yq, expected) for ops in plan[phase]]
        for phase in ("warmup", "window")
    }
    probe_ops = [prepare(plan["probe"], Xq, yq, expected)]
    cycle = not w.open_loop
    conns = [http.client.HTTPConnection(HOST, server.port, timeout=HTTP_TIMEOUT_S)
             for _ in range(w.connections)]
    try:
        warmup = run_phase(server, conns, bodies["warmup"], min(w.warmup_s, seconds), cycle, sha)
        before = server.counters()
        window = run_phase(server, conns, bodies["window"], seconds, cycle, sha)
        after = server.counters()
        probe = run_phase(server, conns, probe_ops, 0.0, False, sha)
    finally:
        for conn in conns:
            conn.close()
    client = client_stats(window, probe, w)
    client["metrics"].update(batcher_stats(before, after))
    everything = warmup.exchanges + window.exchanges + probe.exchanges
    return {
        "window": window,
        "client": client,
        "attempted": len(everything),
        "failed": sum(1 for e in everything if not e.ok),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    kernel: Dict[str, Any],
    oracle: Callable[[Any, np.ndarray], np.ndarray] = predict_oracle,
) -> Dict[str, Any]:
    """Set up, serve and measure one workload; returns its result block.

    ``oracle(model, rows)`` gives the expected labels (tests substitute a wrong
    one to prove that wrong answers are caught).
    """
    w = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    X, y, specs = training_set(w)
    data_build_s = time.perf_counter() - started
    Xq, yq = query_pool(w, seed)
    plan = make_plan(w, seed, seconds, Xq.shape[0])

    setups: List[Dict[str, float]] = []
    server: Optional[ServerProcess] = None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            artifact = workdir / f"artifact-{i}"
            t0 = time.perf_counter()
            pipeline = fit_pipeline(w, X, y, specs)
            centroid = train_centroid(pipeline.encoder_, X)
            t1 = time.perf_counter()
            save_artifact(pipeline, artifact, meta={"workload": name, "dim": DIM},
                          extras={"train_centroid": centroid}, overwrite=True)
            t2 = time.perf_counter()
            server = ServerProcess(artifact, kernel["kcache"], workdir / f"server-{i}.log")
            setups.append({
                "fit_s": t1 - t0,
                "save_s": t2 - t1,
                "start_s": server.start_s,
                "total_s": time.perf_counter() - t0,
            })
        ready = server.get_json("/readyz")
        if ready.get("kernel_backend") != "native":
            raise RuntimeError(f"server runs the {ready.get('kernel_backend')} kernel, not native")
        sha = artifact_sha(artifact)
        model = load_artifact(artifact)
        expected = np.asarray(oracle(model, Xq))
        store_rows = int(
            model.estimator_.prototypes_.shape[0]
            if w.model == "prototype"
            else model.estimator_.X_train_.shape[0]
        )
        del model

        untraced = exercise(server, w, plan, seconds, Xq, yq, expected, sha)
        peak_rss = server.peak_rss_mb()
        server.stop()
        server = None

        metrics = dict(untraced["client"]["metrics"])
        metrics.update({
            "setup_s": median([s["total_s"] for s in setups]),
            "server_peak_rss_mb": peak_rss,
            "persist.save_s": median([s["save_s"] for s in setups]),
            "data.build_s": data_build_s,
            "fit_s": median([s["fit_s"] for s in setups]),
        })
        attempted, failed = untraced["attempted"], untraced["failed"]
        result: Dict[str, Any] = {
            "workload": name,
            "why": w.why,
            "seed": seed,
            "seconds": seconds,
            "warmup_s": min(w.warmup_s, seconds),
            "trace": trace,
            "setup": setups,
            "samples": dict(untraced["client"]["samples"], setup=len(setups)),
        }
        if trace:
            spans_path = workdir / "spans.json"
            server = ServerProcess(artifact, kernel["kcache"], workdir / "server-traced.log",
                                   spans=spans_path)
            traced = exercise(server, w, plan, seconds, Xq, yq, expected, sha)
            code = server.stop()
            server = None
            if code != 0:
                raise RuntimeError(f"traced server exited with {code}")
            spans = json.loads(spans_path.read_text())["spans"]
            layers = layer_stats(spans, traced["window"], store_rows, traced["client"])
            metrics.update(layers["metrics"])
            metrics["trace.overhead_frac"] = (
                traced["client"]["latency_mean_ms"] / untraced["client"]["latency_mean_ms"] - 1.0
            )
            result["reconcile"] = layers["reconcile"]
            result["samples"]["traced"] = dict(traced["client"]["samples"], **layers["samples"])
            attempted += traced["attempted"]
            failed += traced["failed"]
        metrics["failed_frac"] = failed / attempted
        result.update(attempted=attempted, failed=failed, correct=failed == 0)
        result["metrics"] = {k: {"value": float(v), "unit": UNITS[k]} for k, v in sorted(metrics.items())}
        return result
    finally:
        if server is not None:
            server.stop()


# -- run context ---------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_context(seed: int, seconds: float, kernel: Dict[str, Any]) -> Dict[str, Any]:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": "native",
        "kernel_build_s": kernel["build_s"],
        "kernel_cached": kernel["cached"],
        "seed": seed,
        "seconds": seconds,
        "started_unix": time.time(),
    }
