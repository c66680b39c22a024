"""The versioned ``/v1/predict`` contract, the one predict route.

Pins the typed response envelope (predictions + model identity + echoed
``request_id``) and the structured ``{"error": {"code", "message",
"detail"}}`` error schema on every non-2xx — including the removed
``/predict`` alias, which is now an unknown path.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.pipeline import HDCFeaturePipeline
from repro.persist import SCHEMA_VERSION, artifact_sha, save_artifact
from repro.serve import ModelServer, ServeConfig

DIM = 1024


@pytest.fixture(scope="module")
def model(pima_r):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )


@pytest.fixture(scope="module")
def artifact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("v1") / "model"
    save_artifact(model, path)
    return path


@pytest.fixture(scope="module")
def server(artifact):
    config = ServeConfig(port=0, max_rows_per_request=64)
    with ModelServer.from_artifact(artifact, config) as srv:
        yield srv


def _post(url, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


# -- the /v1 envelope --------------------------------------------------


def test_v1_envelope(server, model, artifact, pima_r):
    rows = pima_r.X[:3].tolist()
    status, body, _ = _post(
        server.url + "/v1/predict", {"rows": rows, "request_id": "req-42"}
    )
    assert status == 200
    assert body["predictions"] == model.predict(np.asarray(rows)).tolist()
    assert body["n"] == 3
    assert body["request_id"] == "req-42"
    assert body["model"]["kind"] == "HDCFeaturePipeline"
    assert body["model"]["schema_version"] == SCHEMA_VERSION
    assert body["model"]["artifact_sha"] == artifact_sha(artifact)


def test_v1_request_id_is_optional(server, pima_r):
    status, body, _ = _post(
        server.url + "/v1/predict", {"rows": pima_r.X[:1].tolist()}
    )
    assert status == 200
    assert body["request_id"] is None


def test_v1_rejects_non_string_request_id(server, pima_r):
    status, body, _ = _post(
        server.url + "/v1/predict",
        {"rows": pima_r.X[:1].tolist(), "request_id": 7},
    )
    assert status == 400
    assert body["error"]["code"] == "invalid_request"
    assert body["error"]["detail"] == {"got": "int"}


def test_v1_artifact_sha_null_without_artifact(model, pima_r):
    """A server built from an in-memory model has no artifact identity."""
    with ModelServer(model, ServeConfig(port=0)) as srv:
        status, body, _ = _post(
            srv.url + "/v1/predict", {"rows": pima_r.X[:1].tolist()}
        )
    assert status == 200
    assert body["model"]["artifact_sha"] is None


# -- structured errors -------------------------------------------------


def test_error_schema_on_bad_json(server):
    status, body, _ = _post(server.url + "/v1/predict", None, raw=b"{nope")
    assert status == 400
    err = body["error"]
    assert err["code"] == "invalid_request"
    assert "JSON" in err["message"]
    assert "detail" in err


def test_error_schema_on_unknown_path(server, pima_r):
    # /predict was the pre-/v1 alias; it is gone, not redirected.
    for path in ("/v2/predict", "/predict"):
        status, body, _ = _post(server.url + path, {"rows": pima_r.X[:1].tolist()})
        assert status == 404, path
        assert body["error"]["code"] == "not_found", path


def test_error_schema_on_row_cap(server, pima_r):
    rows = pima_r.X[:65].tolist()  # cap is 64 in the fixture's config
    status, body, _ = _post(server.url + "/v1/predict", {"rows": rows})
    assert status == 413
    assert body["error"]["code"] == "payload_too_large"
