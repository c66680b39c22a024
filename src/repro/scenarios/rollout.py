"""Swap-under-load rollout drill: hot-swap a live pool mid-traffic.

:func:`run_rollout` is the scenario-level proof of the DESIGN.md §13
lifecycle claims: it boots a multi-worker
:class:`~repro.serve.pool.ServePool`, mounts a re-seeded candidate of
the same scenario pipeline (shadow or A/B per the spec), drives the
scenario's closed-loop traffic at the pool, and fires
``POST /v1/admin/reload`` once a configured fraction of the requests
has completed — while traffic keeps flowing.

The harness records what the lifecycle machinery promises:

* **zero dropped requests** — every request gets an HTTP response;
  transport-level failures would show up as status ``0`` and 5xx as
  themselves in ``status_counts``;
* **swap settle** — each ``/v1/predict`` envelope names the
  ``artifact_sha`` that served it, so the result stream shows exactly
  when each worker crossed from the old generation to the new one
  (bounded by the workers' deploy-poll tick);
* **lifecycle metrics** — the pool-wide ``/metrics`` view after the run
  (``repro_lifecycle_*`` series plus the worker-restart counter).

The block this returns is persisted as the optional ``rollout`` section
of a BENCH run entry (see :mod:`repro.scenarios.report`).
"""

from __future__ import annotations

import dataclasses
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.obs import span
from repro.persist import artifact_sha
from repro.scenarios.errors import ScenarioError
from repro.scenarios.load import request_json
from repro.scenarios.resolve import build_artifact, build_dataset, serve_config
from repro.scenarios.schema import ScenarioSpec
from repro.serve.pool import FLUSH_PERIOD_S, ServePool

#: How long the harness waits for candidate mount / swap convergence.
SETTLE_TIMEOUT_S = 15.0
#: Consecutive confirming responses (per worker) before a state is
#: considered propagated — the kernel balances connections randomly, so
#: one confirmation only proves one worker.
CONFIRMS_PER_WORKER = 3


def _await_sha(
    base_url: str,
    expect_sha: str,
    row: List[float],
    *,
    confirms: int,
    timeout_s: float,
) -> bool:
    """Probe ``/v1/predict`` until ``confirms`` consecutive responses
    carry ``expect_sha`` (i.e. every worker serves the new generation)."""
    deadline = time.monotonic() + timeout_s
    streak = 0
    while time.monotonic() < deadline:
        status, body = request_json(
            f"{base_url}/v1/predict", {"rows": [row]}, timeout_s=timeout_s
        )
        sha = body.get("model", {}).get("artifact_sha") if status == 200 else None
        streak = streak + 1 if sha == expect_sha else 0
        if streak >= confirms:
            return True
        time.sleep(0.02)
    return False


def _await_candidate(base_url: str, *, confirms: int, timeout_s: float) -> bool:
    """Poll the lifecycle endpoint until every worker mounted the candidate."""
    deadline = time.monotonic() + timeout_s
    streak = 0
    while time.monotonic() < deadline:
        status, body = request_json(
            f"{base_url}/v1/admin/lifecycle", None, timeout_s=timeout_s
        )
        mounted = status == 200 and body.get("candidate") is not None
        streak = streak + 1 if mounted else 0
        if streak >= confirms:
            return True
        time.sleep(0.05)
    return False


def _scrape_lifecycle_metrics(base_url: str, *, timeout_s: float) -> Dict[str, float]:
    """Unlabelled ``repro_lifecycle_*`` / worker-restart series from /metrics."""
    req = urllib.request.Request(f"{base_url}/metrics")
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            text = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError):
        return {}
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _, value = line.partition(" ")
        if "{" in name:  # histogram buckets / labelled info series
            continue
        if name.startswith("repro_lifecycle_") or name == "repro_serve_worker_restarts_total":
            try:
                out[name] = float(value)
            except ValueError:
                continue
    return out


# ----------------------------------------------------------------------
# the drill
# ----------------------------------------------------------------------
def _drive_traffic(
    base_url: str,
    rows: Any,
    *,
    n_requests: int,
    concurrency: int,
    swap_after: int,
    swap_artifact: str,
    timeout_s: float,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Closed-loop traffic with a one-shot mid-run hot-swap.

    ``concurrency`` workers each keep one request in flight; the worker
    whose completion crosses ``swap_after`` fires the reload inline (the
    other workers keep hammering the pool during the swap — that is the
    point of the drill).  Results carry the completion sequence number,
    status and the serving ``artifact_sha``.
    """
    lock = threading.Lock()
    results: List[Dict[str, Any]] = []
    swap: Dict[str, Any] = {"fired": False}
    next_index = [0]

    def fire_swap() -> None:
        started = time.monotonic()
        status, body = request_json(
            f"{base_url}/v1/admin/reload",
            {"artifact": swap_artifact},
            timeout_s=timeout_s,
        )
        with lock:
            swap["reload_status"] = status
            swap["reload_s"] = time.monotonic() - started
            swap["generation"] = body.get("generation")

    def worker() -> None:
        while True:
            with lock:
                if next_index[0] >= n_requests:
                    return
                i = next_index[0]
                next_index[0] += 1
            row = [float(v) for v in rows[i % len(rows)]]
            status, body = request_json(
                f"{base_url}/v1/predict", {"rows": [row]}, timeout_s=timeout_s
            )
            sha = body.get("model", {}).get("artifact_sha") if status == 200 else None
            fire = False
            with lock:
                seq = len(results)
                results.append(
                    {"seq": seq, "status": status, "artifact_sha": sha}
                )
                if not swap["fired"] and seq + 1 >= swap_after:
                    swap["fired"] = True
                    swap["fired_after"] = seq + 1
                    fire = True
            if fire:
                fire_swap()

    threads = [
        threading.Thread(target=worker, name=f"repro-rollout-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, swap


def _summarise(
    results: List[Dict[str, Any]],
    swap: Dict[str, Any],
    *,
    old_sha: str,
    new_sha: str,
    converged: bool,
) -> Dict[str, Any]:
    status_counts: Dict[str, int] = {}
    for r in results:
        key = str(r["status"])
        status_counts[key] = status_counts.get(key, 0) + 1
    old_seqs = [r["seq"] for r in results if r["artifact_sha"] == old_sha]
    new_seqs = [r["seq"] for r in results if r["artifact_sha"] == new_sha]
    return {
        "n_requests": len(results),
        "n_errors": sum(1 for r in results if r["status"] != 200),
        "n_dropped": status_counts.get("0", 0),
        "n_5xx": sum(
            n for status, n in status_counts.items() if status.startswith("5")
        ),
        "status_counts": status_counts,
        "swap": {
            "old_sha": old_sha,
            "new_sha": new_sha,
            "fired_after": swap.get("fired_after"),
            "reload_status": swap.get("reload_status"),
            "reload_s": swap.get("reload_s"),
            "generation": swap.get("generation"),
            "old_responses": len(old_seqs),
            "new_responses": len(new_seqs),
            "first_new_seq": min(new_seqs) if new_seqs else None,
            "last_old_seq": max(old_seqs) if old_seqs else None,
            "converged": bool(converged),
        },
    }


def run_rollout(
    spec: ScenarioSpec,
    *,
    artifact_dir: Union[str, Path, None] = None,
) -> Dict[str, Any]:
    """Run the scenario's swap-under-load drill; returns the BENCH block.

    Requires ``spec.rollout.enabled``; the primary artifact is the
    scenario pipeline, the candidate/new-generation artifact is the same
    scenario re-fit with ``rollout.candidate_seed`` (different basis
    hypervectors, hence a different ``artifact_sha`` — distinguishable
    in every response envelope).
    """
    spec = spec.validate()
    rollout = spec.rollout
    if not rollout.enabled:
        raise ScenarioError("rollout drill is not enabled for this scenario", key="rollout.enabled")
    timeout_s = spec.traffic.timeout_s
    confirms = rollout.workers * CONFIRMS_PER_WORKER
    dataset = build_dataset(spec)
    with span(
        "scenarios.rollout",
        scenario=spec.name,
        workers=rollout.workers,
        mode=rollout.mode,
    ):
        with tempfile.TemporaryDirectory(prefix="repro-rollout-") as tmp:
            base = Path(artifact_dir) if artifact_dir is not None else Path(tmp)
            primary = build_artifact(spec, base / "primary", dataset)
            candidate_spec = dataclasses.replace(
                spec,
                encoder=dataclasses.replace(
                    spec.encoder, seed=rollout.candidate_seed
                ),
            )
            candidate = build_artifact(candidate_spec, base / "candidate", dataset)
            old_sha = artifact_sha(primary)
            new_sha = artifact_sha(candidate)
            config = dataclasses.replace(serve_config(spec), workers=rollout.workers)
            pool = ServePool(str(primary), config)
            pool.start()
            try:
                base_url = pool.url
                mount_status, _ = request_json(
                    f"{base_url}/v1/admin/candidate",
                    {
                        "action": "mount",
                        "artifact": str(candidate),
                        "mode": rollout.mode,
                        "fraction": rollout.ab_fraction,
                    },
                    timeout_s=timeout_s,
                )
                candidate_mounted = mount_status == 200 and _await_candidate(
                    base_url, confirms=confirms, timeout_s=SETTLE_TIMEOUT_S
                )
                n_requests = spec.traffic.n_requests
                swap_after = max(1, int(n_requests * rollout.swap_after_fraction))
                started = time.monotonic()
                results, swap = _drive_traffic(
                    base_url,
                    dataset.X,
                    n_requests=n_requests,
                    concurrency=spec.traffic.concurrency,
                    swap_after=swap_after,
                    swap_artifact=str(candidate),
                    timeout_s=timeout_s,
                )
                duration_s = time.monotonic() - started
                # The deploy record reaches the slowest worker within one
                # flush tick; after that every envelope must carry the
                # new generation's sha.
                converged = _await_sha(
                    base_url,
                    new_sha,
                    [float(v) for v in dataset.X[0]],
                    confirms=confirms,
                    timeout_s=max(SETTLE_TIMEOUT_S, 4 * FLUSH_PERIOD_S),
                )
                # Worker registries flush into the merged scrape on the
                # pool's snapshot tick; poll a few ticks so shadow/drift
                # series recorded at the tail of the drive are visible.
                deadline = time.monotonic() + max(
                    SETTLE_TIMEOUT_S, 4 * FLUSH_PERIOD_S
                )
                metrics = _scrape_lifecycle_metrics(base_url, timeout_s=timeout_s)
                while (
                    metrics.get("repro_lifecycle_shadow_rows_total", 0.0) <= 0.0
                    and time.monotonic() < deadline
                ):
                    time.sleep(FLUSH_PERIOD_S / 2)
                    metrics = _scrape_lifecycle_metrics(
                        base_url, timeout_s=timeout_s
                    )
            finally:
                pool.stop()
    block = _summarise(
        results, swap, old_sha=old_sha, new_sha=new_sha, converged=converged
    )
    block.update(
        {
            "workers": rollout.workers,
            "mode": rollout.mode,
            "ab_fraction": rollout.ab_fraction,
            "candidate_mounted": bool(candidate_mounted),
            "duration_s": duration_s,
            "lifecycle_metrics": metrics,
        }
    )
    return block


__all__ = ["CONFIRMS_PER_WORKER", "SETTLE_TIMEOUT_S", "run_rollout"]
