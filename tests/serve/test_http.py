"""End-to-end HTTP tests on an ephemeral port (port=0)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.pipeline import HDCFeaturePipeline
from repro.persist import save_artifact
from repro.serve import ModelServer, ServeConfig

DIM = 1024


@pytest.fixture(scope="module")
def model(pima_r):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )


@pytest.fixture(scope="module")
def server(model):
    config = ServeConfig(port=0, max_rows_per_request=64)
    with ModelServer(model, config) as srv:
        yield srv


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _post(url, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_healthz_and_readyz(server):
    status, body = _get(server.url + "/healthz")
    assert status == 200 and "ok" in body
    status, body = _get(server.url + "/readyz")
    assert status == 200
    info = json.loads(body)
    assert info["ready"] is True
    assert info["model"] == "HDCFeaturePipeline"


def test_predict_single_request(server, model, pima_r):
    rows = pima_r.X[:3].tolist()
    status, body = _post(server.url + "/v1/predict", {"rows": rows})
    assert status == 200
    assert body["n"] == 3
    assert body["predictions"] == model.predict(np.asarray(rows)).tolist()


def test_predict_concurrent_requests(server, model, pima_r):
    rows = pima_r.X[:2].tolist()
    expected = model.predict(np.asarray(rows)).tolist()
    results, errors = [], []
    lock = threading.Lock()

    def worker():
        try:
            status, body = _post(server.url + "/v1/predict", {"rows": rows})
            with lock:
                results.append((status, body["predictions"]))
        except Exception as exc:  # noqa: BLE001 — surfaced by the assert
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(status == 200 and preds == expected for status, preds in results)


def test_bad_json_is_400(server):
    status, body = _post(server.url + "/v1/predict", None, raw=b"{not json")
    assert status == 400
    assert "error" in body


def test_missing_rows_key_is_400(server):
    status, body = _post(server.url + "/v1/predict", {"data": [[1.0]]})
    assert status == 400


def test_wrong_feature_count_is_400(server):
    status, body = _post(server.url + "/v1/predict", {"rows": [[1.0, 2.0]]})
    assert status == 400
    assert body["error"]["code"] == "invalid_request"
    assert "features" in body["error"]["message"]


def test_row_cap_is_413(server, pima_r):
    rows = pima_r.X[:65].tolist()  # cap is 64 in the fixture's config
    status, body = _post(server.url + "/v1/predict", {"rows": rows})
    assert status == 413


def test_unknown_path_is_404(server):
    status, _ = _get(server.url + "/nope")
    assert status == 404


def test_metrics_exposes_serve_series(server, pima_r):
    _post(server.url + "/v1/predict", {"rows": pima_r.X[:2].tolist()})
    status, body = _get(server.url + "/metrics")
    assert status == 200
    assert "repro_serve_requests_total" in body
    assert "repro_serve_batch_size_bucket" in body
    assert "repro_serve_model_loaded 1" in body


def test_unloaded_server_is_503(model):
    server = ModelServer(model, ServeConfig(port=0))
    server.start()
    try:
        server.service.stop()  # simulate a dead worker behind a live socket
        status, _ = _get(server.url + "/readyz")
        assert status == 503
        status, body = _post(
            server.url + "/v1/predict", {"rows": [[0.0] * 8]}
        )
        assert status == 503
    finally:
        server.stop()


def test_from_artifact_end_to_end(tmp_path, model, pima_r):
    save_artifact(model, tmp_path / "model")
    with ModelServer.from_artifact(tmp_path / "model", ServeConfig(port=0)) as srv:
        rows = pima_r.X[:4].tolist()
        status, body = _post(srv.url + "/v1/predict", {"rows": rows})
        assert status == 200
        assert body["predictions"] == model.predict(np.asarray(rows)).tolist()
