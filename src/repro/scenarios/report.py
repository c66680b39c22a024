"""BENCH_*.json: the repository's persisted performance trajectory.

Every scenario run appends one *run entry* to ``BENCH_<scenario>.json``.
The file is schema-versioned and merged across runs, so committing a
blessed copy turns one-off benchmark numbers into a trackable series —
a regression shows up as a diff, not as folklore about what the numbers
used to be.

Document shape (``BENCH_SCHEMA_VERSION = 1``)::

    {
      "bench_schema_version": 1,
      "scenario": "pima_r",
      "runs": [
        {
          "timestamp": "2026-08-07T12:00:00+00:00",
          "repro_version": "1.0.0",
          "preset": "fast" | null,
          "config": { ...scenario document the run used... },
          "load": { ...LoadReport.to_dict()... },
          "offline": {...} | null,
          "server_metrics": {"serve.requests": ..., ...} | null,
          "saturation": {...} | null,
          "rollout": { ...swap-under-load drill block... } | null
        },
        ...
      ]
    }

Validation raises :class:`~repro.scenarios.errors.BenchSchemaError`
naming the offending key, same contract as the scenario schema.  Keys
not shown above are carried through unchecked, so trajectories written
by older versions (such as runs with a ``sweep`` section) still load.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.scenarios.errors import BenchSchemaError
from repro.scenarios.load import LoadReport
from repro.scenarios.schema import ScenarioSpec, scenario_to_dict

BENCH_SCHEMA_VERSION = 1

#: serve.* counters snapshotted into each run entry (server-side view).
SERVER_COUNTERS = (
    "serve.requests",
    "serve.rows",
    "serve.batches",
    "serve.rejected",
    "serve.errors",
)


def bench_filename(scenario_name: str) -> str:
    return f"BENCH_{scenario_name}.json"


def bench_path(out_dir: Union[str, Path], scenario_name: str) -> Path:
    return Path(out_dir) / bench_filename(scenario_name)


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def snapshot_server_counters() -> Dict[str, float]:
    """Current serve.* counter values from the process-local registry.

    Meaningful when the harness boots the server in-process (the CLI
    path); callers diff two snapshots to attribute counts to one run.
    """
    from repro.obs.metrics import REGISTRY

    out: Dict[str, float] = {}
    for name in SERVER_COUNTERS:
        metric = REGISTRY.get(name)
        out[name] = float(getattr(metric, "value", 0.0)) if metric is not None else 0.0
    return out


def diff_server_counters(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    return {name: float(after.get(name, 0.0)) - float(before.get(name, 0.0)) for name in SERVER_COUNTERS}


def make_run_entry(
    spec: ScenarioSpec,
    load_report: LoadReport,
    *,
    preset: Optional[str] = None,
    offline: Optional[Mapping[str, Any]] = None,
    server_metrics: Optional[Mapping[str, float]] = None,
    saturation: Optional[Mapping[str, Any]] = None,
    rollout: Optional[Mapping[str, Any]] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """One trajectory point: the config that ran and what it measured."""
    from repro import __version__

    return {
        "timestamp": timestamp or _utc_now_iso(),
        "repro_version": __version__,
        "preset": preset,
        "config": scenario_to_dict(spec),
        "load": load_report.to_dict(),
        "offline": dict(offline) if offline is not None else None,
        "server_metrics": dict(server_metrics) if server_metrics is not None else None,
        "saturation": dict(saturation) if saturation is not None else None,
        "rollout": dict(rollout) if rollout is not None else None,
    }


def describe_saturation(block: Mapping[str, Any]) -> str:
    """One line for a :func:`~repro.scenarios.load.find_saturation` result."""
    steps = block["steps"]
    knee = block["saturation_rps"]
    if not block["saturated"]:
        return f"not saturated within {len(steps)} steps (>= {knee:g} rps)"
    missed = f"SLO missed at {steps[-1]['offered_rps']:g} rps"
    return missed if knee is None else f"knee at {knee:g} rps ({missed})"


def new_bench(scenario_name: str) -> Dict[str, Any]:
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "scenario": scenario_name,
        "runs": [],
    }


def merge_bench(doc: Dict[str, Any], entry: Mapping[str, Any]) -> Dict[str, Any]:
    """Append a run entry; runs stay ordered by timestamp (stable)."""
    validate_bench(doc)
    merged = dict(doc)
    runs = list(doc["runs"]) + [dict(entry)]
    runs.sort(key=lambda r: str(r.get("timestamp", "")))
    merged["runs"] = runs
    validate_bench(merged)
    return merged


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise BenchSchemaError(message, key=key)


def _check_number(value: Any, key: str, *, optional: bool = False) -> None:
    if optional and value is None:
        return
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        key,
        f"expected a number, got {type(value).__name__}",
    )


def _validate_load_section(load: Any, prefix: str) -> None:
    _require(isinstance(load, Mapping), prefix, "expected an object")
    for k in ("mode", "n_requests", "duration_s", "throughput_rps", "error_rate"):
        _require(k in load, f"{prefix}.{k}", "required key is missing")
    _require(load["mode"] in ("open", "closed"), f"{prefix}.mode", f"bad mode {load['mode']!r}")
    _check_number(load["n_requests"], f"{prefix}.n_requests")
    _check_number(load["duration_s"], f"{prefix}.duration_s")
    _check_number(load["throughput_rps"], f"{prefix}.throughput_rps")
    _check_number(load["error_rate"], f"{prefix}.error_rate")
    lat = load.get("latency_ms")
    _require(isinstance(lat, Mapping), f"{prefix}.latency_ms", "expected an object")
    for pct in ("p50", "p95", "p99"):
        _require(pct in lat, f"{prefix}.latency_ms.{pct}", "required key is missing")
        _check_number(lat[pct], f"{prefix}.latency_ms.{pct}")
    counts = load.get("status_counts")
    _require(isinstance(counts, Mapping), f"{prefix}.status_counts", "expected an object")
    for status, n in counts.items():
        _require(
            isinstance(status, str) and status.lstrip("-").isdigit(),
            f"{prefix}.status_counts.{status}",
            "status keys must be stringified integers",
        )
        _check_number(n, f"{prefix}.status_counts.{status}")


def validate_bench(doc: Any) -> None:
    """Validate a BENCH document; raises :class:`BenchSchemaError`."""
    _require(isinstance(doc, Mapping), "", "BENCH document must be a JSON object")
    _require("bench_schema_version" in doc, "bench_schema_version", "required key is missing")
    version = doc["bench_schema_version"]
    _require(
        isinstance(version, int) and not isinstance(version, bool),
        "bench_schema_version",
        f"expected an integer, got {type(version).__name__}",
    )
    _require(
        1 <= version <= BENCH_SCHEMA_VERSION,
        "bench_schema_version",
        f"unsupported version {version} (this build reads <= {BENCH_SCHEMA_VERSION})",
    )
    _require(
        isinstance(doc.get("scenario"), str) and doc["scenario"],
        "scenario",
        "expected a non-empty string",
    )
    runs = doc.get("runs")
    _require(isinstance(runs, list), "runs", "expected a list")
    for i, run in enumerate(runs):
        prefix = f"runs[{i}]"
        _require(isinstance(run, Mapping), prefix, "expected an object")
        _require(
            isinstance(run.get("timestamp"), str) and run["timestamp"],
            f"{prefix}.timestamp",
            "expected a non-empty string",
        )
        _require(
            isinstance(run.get("repro_version"), str),
            f"{prefix}.repro_version",
            "expected a string",
        )
        preset = run.get("preset")
        _require(
            preset is None or isinstance(preset, str),
            f"{prefix}.preset",
            "expected a string or null",
        )
        _require(isinstance(run.get("config"), Mapping), f"{prefix}.config", "expected an object")
        _validate_load_section(run.get("load"), f"{prefix}.load")
        for optional_section in ("offline", "server_metrics", "saturation", "rollout"):
            value = run.get(optional_section)
            _require(
                value is None or isinstance(value, Mapping),
                f"{prefix}.{optional_section}",
                "expected an object or null",
            )


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    path = Path(path)
    if not path.is_file():
        raise BenchSchemaError(f"bench file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from exc
    validate_bench(doc)
    return doc


def write_bench(path: Union[str, Path], doc: Mapping[str, Any]) -> Path:
    """Validate and atomically write a BENCH document."""
    validate_bench(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def update_bench_file(
    path: Union[str, Path], scenario_name: str, entry: Mapping[str, Any]
) -> Dict[str, Any]:
    """Merge a run entry into the trajectory file (created if missing)."""
    path = Path(path)
    if path.is_file():
        doc = load_bench(path)
        if doc["scenario"] != scenario_name:
            raise BenchSchemaError(
                f"{path} tracks scenario {doc['scenario']!r}, refusing to append "
                f"a {scenario_name!r} run",
                key="scenario",
            )
    else:
        doc = new_bench(scenario_name)
    doc = merge_bench(doc, entry)
    write_bench(path, doc)
    return doc


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SERVER_COUNTERS",
    "bench_filename",
    "bench_path",
    "describe_saturation",
    "diff_server_counters",
    "load_bench",
    "make_run_entry",
    "merge_bench",
    "new_bench",
    "snapshot_server_counters",
    "update_bench_file",
    "validate_bench",
]
