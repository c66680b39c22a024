"""Socket-level serving tests: keep-alive latency and the listen backlog.

The other HTTP tests go through urllib, which opens a fresh connection per
request and so never sees a stall between the responses of one persistent
connection.  These tests hold one ``http.client`` connection open, or burst
many connects at once, the way real clients and load generators do.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.pipeline import HDCFeaturePipeline
from repro.serve import ModelServer, ServeConfig
from repro.serve.http import LISTEN_BACKLOG

DIM = 1024
N_SEQUENTIAL = 15
BURST = 64


@pytest.fixture(scope="module")
def model(pima_r):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )


@pytest.fixture(scope="module")
def server(model):
    with ModelServer(model, ServeConfig(port=0)) as srv:
        yield srv


def _one_row_body(pima_r) -> str:
    return json.dumps({"rows": [pima_r.X[0].tolist()]})


@pytest.mark.parametrize("route", ["healthz", "not_found", "predict"])
def test_keepalive_responses_do_not_stall(server, pima_r, route):
    # A response written as headers then body lets Nagle hold the body
    # until the client's delayed ACK: every answer after the first on a
    # persistent connection then takes ~40 ms.  One write per response
    # (and TCP_NODELAY) brings the median to a few ms.
    method, path, body, status = {
        "healthz": ("GET", "/healthz", None, 200),
        "not_found": ("GET", "/no/such/path", None, 404),
        "predict": ("POST", "/v1/predict", _one_row_body(pima_r), 200),
    }[route]
    headers = {"Content-Type": "application/json"} if body else {}
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    elapsed_ms = []
    try:
        for _ in range(N_SEQUENTIAL):
            start = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            elapsed_ms.append((time.perf_counter() - start) * 1e3)
            assert response.status == status, payload
            assert not response.will_close
    finally:
        conn.close()
    assert statistics.median(elapsed_ms) < 20.0, elapsed_ms


def test_http09_request_gets_the_bare_body(server):
    # An HTTP/0.9 answer has no status line and no headers.
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        chunks = []
        while chunk := sock.recv(4096):
            chunks.append(chunk)
    assert b"".join(chunks) == b"ok\n"


@pytest.mark.parametrize("reuse_port", [False, True])
def test_listen_backlog(model, reuse_port):
    with ModelServer(model, ServeConfig(port=0), reuse_port=reuse_port) as srv:
        assert srv._httpd.request_queue_size == LISTEN_BACKLOG == 128
        assert srv._httpd.daemon_threads


def test_connect_burst_is_served(server, pima_r):
    # 64 clients connect at once; a backlog of 5 resets some of them.
    data = _one_row_body(pima_r).encode("utf-8")
    barrier = threading.Barrier(BURST)
    statuses = []
    lock = threading.Lock()

    def client() -> None:
        request = urllib.request.Request(
            server.url + "/v1/predict",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        barrier.wait(timeout=30)
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        except OSError as exc:
            status = repr(exc)
        with lock:
            statuses.append(status)

    threads = [threading.Thread(target=client) for _ in range(BURST)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * BURST
