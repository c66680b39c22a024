"""Checks of the live end-to-end benchmark itself, at ~1 s windows.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Takes about two minutes: it starts real servers and simulates the
18,000-record EHR store once. Not part of the tier-1 suite (``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench

RUN = bench.HERE / "run.py"
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
ALL_METRICS = SPEC["end_to_end"] + SPEC["per_layer"]


def _run(*args: str, cwd: Path = bench.ROOT, env_root: Path = None) -> subprocess.CompletedProcess:
    env = bench._child_env(None)
    if env_root is not None:
        env["CARGO_TARGET_DIR"] = str(env_root)
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def build_root(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_build")


@pytest.fixture(scope="module")
def full_run(build_root, tmp_path_factory):
    """Every workload, traced, at 1 s windows: ``(results.json, stdout)``."""
    out = tmp_path_factory.mktemp("e2e_out")
    proc = _run("--seed", "3", "--seconds", "1", "--trace", "1", "--out", str(out),
                env_root=build_root)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads((out / "results.json").read_text()), proc.stdout


def test_every_metric_is_printed_with_its_unit(full_run):
    results, stdout = full_run
    assert set(results["workloads"]) == set(bench.WORKLOADS)
    lines = stdout.splitlines()
    for name, result in results["workloads"].items():
        assert result["correct"] and result["failed"] == 0
        for entry in ALL_METRICS:
            got = result["metrics"][entry["name"]]
            assert got["unit"] == entry["unit"], (name, entry)
            assert np.isfinite(got["value"])
            assert any(
                line.split()[:2] == [name, entry["name"]] and line.split()[-1] == entry["unit"]
                for line in lines
            ), (name, entry["name"])
        assert result["metrics"]["client.gen_lag_p99_ms"]["value"] < 5.0
    context = results["context"]
    for key in ("commit", "dirty", "cpu_model", "nproc", "python", "numpy",
                "kernel_backend", "kernel_build_s", "seed", "seconds"):
        assert key in context


def test_traced_spans_reconcile(full_run):
    results, _ = full_run
    for name, result in results["workloads"].items():
        rec = result["reconcile"]
        server = sum(rec["server_ms_per_op"].values())
        # Server handler time fits inside the client's clock, and the parts
        # add back up to the client latency.
        assert 0 < server <= rec["client_ms_per_op"] * 1.01, name
        assert server + rec["unattributed_ms_per_op"] == pytest.approx(rec["client_ms_per_op"])
        # A pipeline span is its self time plus its child layers.
        parts = rec["pipeline_self_s"] + sum(rec["pipeline_children_s"].values())
        assert parts == pytest.approx(rec["pipeline_s"], rel=1e-6), name
        frac = result["metrics"]["trace.attributed_frac"]["value"]
        assert 0 < frac <= 1.01, name


def test_contract_output_is_the_last_line(build_root):
    proc = _run("--workload", "screen_1row", "--seed", "4", "--seconds", "1", "--trace", "0",
                env_root=build_root)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_label_counts_as_failed(build_root, tmp_path):
    kernel = bench.build_kernel(build_root)

    def wrong(model, X):
        labels = np.asarray(model.predict(X)).copy()
        labels[::2] = 1 - labels[::2]  # every other pool row expects the wrong class
        return labels

    result = bench.run_workload("screen_1row", 5, 1.0, False, tmp_path, kernel, oracle=wrong)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_same_seed_same_plan():
    for w in bench.WORKLOADS.values():
        plan = bench.make_plan(w, 11, 2.0, 300)
        assert plan == bench.make_plan(w, 11, 2.0, 300)
        assert plan != bench.make_plan(w, 12, 2.0, 300)
        ops = [op for phase in ("warmup", "window") for thread in plan[phase] for op in thread]
        assert ops and all(max(op.rows, default=0) < 300 for op in ops)
    mix = bench.make_plan(bench.WORKLOADS["feedback_mix"], 11, 10.0, 300)["window"]
    kinds = [op.kind for thread in mix for op in thread]
    assert kinds.count("reload") == 5
    assert kinds.count("feedback") == 12 and kinds.count("predict") == 108


def test_chunked_centroid_matches_library():
    from repro.lifecycle import training_centroid

    w = bench.WORKLOADS["screen_1row"]
    X, y, specs = bench.training_set(w)
    pipeline = bench.fit_pipeline(w, X, y, specs)
    ours = bench.train_centroid(pipeline.encoder_, X, chunk=100)
    np.testing.assert_array_equal(ours, training_centroid(pipeline.encoder_, X))


def test_without_source_tree_exits_nonzero(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "screen_1row", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _results(path: Path, values) -> None:
    path.mkdir(parents=True)
    doc = {"workloads": {"screen_1row": {"metrics": {
        "latency_p50_ms": {"value": values[0], "unit": "ms"},
        "rows_per_s": {"value": values[1], "unit": "rows/s"},
    }}}}
    (path / "results.json").write_text(json.dumps(doc))


def test_compare_flags_regressions_and_noise(tmp_path):
    for i, v in enumerate([(10.0, 100.0), (10.1, 101.0), (9.9, 99.0)]):
        _results(tmp_path / "parent" / str(i), v)
    for i, v in enumerate([(13.0, 100.5), (13.1, 60.0), (12.9, 140.0)]):
        _results(tmp_path / "change" / str(i), v)
    proc = _run("compare", str(tmp_path / "parent"), str(tmp_path / "change"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    verdicts = {line.split()[1]: line.rsplit(":", 1)[1].strip()
                for line in proc.stdout.splitlines() if line.startswith("screen_1row")}
    assert verdicts == {"latency_p50_ms": "REGRESSION", "rows_per_s": "unresolved"}
