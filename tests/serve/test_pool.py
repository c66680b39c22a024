"""Pre-fork pool integration: forks, shared socket, aggregated metrics.

Each test boots a real :class:`~repro.serve.pool.ServePool` over a
persisted artifact (the workers re-open it via mmap) and talks to it
over HTTP.  Both socket strategies are exercised: ``SO_REUSEPORT``
(kernel-balanced listening sockets) and the inherited-fd fallback
(supervisor binds + listens, workers accept on the shared fd).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.pipeline import HDCFeaturePipeline
from repro.persist import ArtifactError, save_artifact
from repro.serve import ServeConfig, ServePool

DIM = 256
N_WORKERS = 2


@pytest.fixture(scope="module")
def model(pima_r):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )


@pytest.fixture(scope="module")
def artifact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "model"
    save_artifact(model, path)
    return path


def _config(**overrides):
    base = dict(port=0, workers=N_WORKERS, mmap=True)
    base.update(overrides)
    return ServeConfig(**base)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.parametrize("strategy", ["reuseport", "inherit"])
def test_pool_serves_correct_predictions(artifact, model, pima_r, strategy):
    rows = pima_r.X[:4].tolist()
    expected = model.predict(np.asarray(rows)).tolist()
    with ServePool(artifact, _config(), socket_strategy=strategy) as pool:
        assert len(pool.worker_pids()) == N_WORKERS
        for _ in range(6):  # several connections: both workers get traffic
            status, body = _post(pool.url + "/v1/predict", {"rows": rows})
            assert status == 200
            assert body["predictions"] == expected
            assert body["model"]["artifact_sha"] is not None
        status, ready = _get(pool.url + "/readyz")
        assert status == 200
        assert json.loads(ready)["workers"] == N_WORKERS


def test_pool_aggregates_metrics_across_workers(artifact, pima_r):
    """/metrics sums counters over every worker's snapshot, not just the
    worker that happens to answer the scrape."""
    rows = pima_r.X[:2].tolist()
    n_requests = 10
    with ServePool(artifact, _config()) as pool:
        for _ in range(n_requests):
            status, _ = _post(pool.url + "/v1/predict", {"rows": rows})
            assert status == 200
        # Sibling snapshots flush on a 0.5 s cadence; poll one scrape past
        # it so every worker's share has landed in the aggregate.
        deadline = time.monotonic() + 10.0
        totals = {}
        while time.monotonic() < deadline:
            status, metrics = _get(pool.url + "/metrics")
            assert status == 200
            totals = {
                line.split()[0]: float(line.split()[1])
                for line in metrics.splitlines()
                if line and not line.startswith("#")
            }
            if totals.get("repro_serve_requests_total", 0.0) >= n_requests:
                break
            time.sleep(0.1)
    # The aggregate must count every worker's requests; a per-process
    # view would show only the scraped worker's share.
    assert totals["repro_serve_requests_total"] >= n_requests


def test_pool_start_is_one_shot_and_stop_idempotent(artifact):
    pool = ServePool(artifact, _config())
    pool.start()
    with pytest.raises(RuntimeError):
        pool.start()
    pool.stop()
    pool.stop()  # idempotent
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(pool.url + "/healthz", timeout=2)


def test_serve_forever_accepts_an_already_started_pool(artifact, pima_r):
    """The CLI starts the pool (to print the address), then blocks in
    ``serve_forever`` — which must not trip the one-shot guard."""
    import threading

    pool = ServePool(artifact, _config())
    pool.start()
    runner = threading.Thread(target=pool.serve_forever, daemon=True)
    runner.start()
    try:
        status, body = _post(
            pool.url + "/v1/predict", {"rows": pima_r.X[:1].tolist()}
        )
        assert status == 200 and body["n"] == 1
    finally:
        pool.stop()
        runner.join(timeout=10.0)
    assert not runner.is_alive()


def test_pool_rejects_bad_artifact(tmp_path):
    with pytest.raises(ArtifactError):
        ServePool(tmp_path / "nope", _config()).start()


def test_single_worker_pool_works(artifact, pima_r):
    with ServePool(artifact, _config(workers=1)) as pool:
        status, body = _post(
            pool.url + "/v1/predict", {"rows": pima_r.X[:1].tolist()}
        )
        assert status == 200 and body["n"] == 1
