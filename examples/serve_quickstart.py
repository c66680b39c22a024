#!/usr/bin/env python
"""Serving quickstart: train → save artifact → serve → query over HTTP.

The deployment path added in PR 5:

1. train the paper's HDC pipeline (record encoder + class-prototype
   classifier) on Pima R;
2. persist it as a versioned, pickle-free artifact directory
   (`repro.persist`) and inspect the manifest;
3. boot the micro-batched HTTP service (`repro.serve`) on an ephemeral
   port — the same server `repro-serve --artifact <dir>` runs;
4. POST patient rows to /v1/predict (single and concurrent), then read the
   serve.* metrics off /metrics.

Run:  python examples/serve_quickstart.py
"""

import json
import os
import tempfile
import threading
import urllib.request

from repro.api import (
    HDCFeaturePipeline,
    ModelServer,
    PrototypeClassifier,
    RecordEncoder,
    ServeConfig,
    artifact_info,
    load_pima_r,
    save_artifact,
)

FAST = os.environ.get("REPRO_EXAMPLE_FAST") == "1"
DIM = 2_048 if FAST else 10_000
SEED = 7


def post_predict(url: str, rows) -> dict:
    req = urllib.request.Request(
        url + "/v1/predict",
        data=json.dumps({"rows": rows}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def main() -> None:
    # 1. Train the paper's pipeline on the complete-case Pima cohort.
    ds = load_pima_r(seed=2023)
    encoder = RecordEncoder(specs=ds.specs, dim=DIM, seed=SEED)
    model = HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM))
    model.fit(ds.X, ds.y)
    print(f"Trained {DIM}-bit HDC pipeline on {ds.n_samples} patients "
          f"(train acc {model.score(ds.X, ds.y):.1%})")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Persist: raw .npy payloads + checksummed JSON manifest.
        artifact = os.path.join(tmp, "pima-prototype")
        save_artifact(model, artifact, meta={"dataset": "pima_r", "dim": DIM})
        info = artifact_info(artifact)
        print(f"Saved artifact: kind={info['kind']} schema=v{info['schema_version']} "
              f"({info['n_payloads']} payloads, {info['payload_bytes'] / 1024:.0f} KiB)")

        # 3. Serve it. ModelServer.from_artifact is exactly what the
        #    `repro-serve` CLI wraps; port=0 picks a free port.
        config = ServeConfig(port=0, max_batch=64, max_wait_ms=5.0)
        with ModelServer.from_artifact(artifact, config) as server:
            url = server.url
            print(f"Serving on {url}")

            with urllib.request.urlopen(url + "/readyz", timeout=30) as resp:
                print(f"  /readyz -> {json.loads(resp.read())}")

            # 4a. One request, three patients.
            body = post_predict(url, ds.X[:3].tolist())
            print(f"  /v1/predict (3 rows) -> {body['predictions']}")

            # 4b. 16 concurrent single-row requests; the micro-batcher
            #     fuses them into a handful of batched model calls.
            threads = [
                threading.Thread(
                    target=post_predict, args=(url, [ds.X[i % len(ds.X)].tolist()])
                )
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
                metrics = resp.read().decode("utf-8")
            served = {
                line.split()[0]: line.split()[1]
                for line in metrics.splitlines()
                if line.startswith("repro_serve_")
            }
            print(f"  served {served['repro_serve_requests_total']} requests over "
                  f"{served['repro_serve_batches_total']} fused batches "
                  f"({served['repro_serve_rows_total']} rows)")
    print("Serving quickstart complete.")


if __name__ == "__main__":
    main()
