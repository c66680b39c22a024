"""`repro-scenarios` CLI: list/show/run/validate, exit codes, BENCH files.

The `run` tests execute the real end-to-end path (fit → persist → serve
on an ephemeral port → load) against a deliberately tiny scenario, so
they double as the integration test for :func:`run_scenario`.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios.cli import main
from repro.scenarios.report import load_bench

TINY_SCENARIO = {
    "schema_version": 1,
    "name": "tiny",
    "description": "test-sized images workload",
    "dataset": {
        "source": "images",
        "seed": 3,
        "params": {"n_samples": 40, "side": 5, "flip_prob": 0.02},
    },
    "encoder": {"dim": 256, "seed": 5},
    "model": {"kind": "prototype"},
    "traffic": {
        "mode": "closed",
        "n_requests": 10,
        "rate_rps": 50.0,
        "concurrency": 2,
        "rows_per_request": 1,
        "seed": 0,
        "timeout_s": 15.0,
    },
    "slo": {"p99_ms": 5000.0, "max_error_rate": 0.0},
    "serve": {"max_batch": 16, "max_wait_ms": 1.0, "queue_size": 64},
    "fast": {"traffic": {"n_requests": 6}},
}


@pytest.fixture()
def scenario_dir(tmp_path):
    directory = tmp_path / "scenarios"
    directory.mkdir()
    (directory / "tiny.json").write_text(json.dumps(TINY_SCENARIO), encoding="utf-8")
    return directory


def test_list_names_every_scenario(scenario_dir, capsys):
    assert main(["list", "--dir", str(scenario_dir)]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out
    assert "images" in out
    assert "[fast preset]" in out


def test_list_empty_directory(tmp_path, capsys):
    assert main(["list", "--dir", str(tmp_path)]) == 0
    assert "no scenarios" in capsys.readouterr().out


def test_show_resolves_the_preset(scenario_dir, capsys):
    assert main(["show", "tiny", "--dir", str(scenario_dir), "--preset", "fast"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "tiny"
    assert doc["traffic"]["n_requests"] == 6  # fast override applied
    assert doc["fast"] is None


def test_run_writes_and_merges_the_bench_trajectory(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["run", "tiny", "--dir", str(scenario_dir), "--out", str(out_dir)]
    assert main(argv) == 0
    bench_file = out_dir / "BENCH_tiny.json"
    assert bench_file.exists()
    doc = load_bench(bench_file)  # validates the schema on the way in
    assert doc["scenario"] == "tiny"
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]
    assert run["load"]["n_requests"] == 10
    assert run["load"]["status_counts"] == {"200": 10}
    assert run["server_metrics"]["serve.requests"] >= 10
    stdout = capsys.readouterr().out
    assert "trajectory updated" in stdout

    # a second run merges instead of overwriting
    assert main(argv + ["--preset", "fast"]) == 0
    doc = load_bench(bench_file)
    assert len(doc["runs"]) == 2
    assert {run["preset"] for run in doc["runs"]} == {None, "fast"}


def test_run_check_slo_exit_code(scenario_dir, tmp_path):
    impossible = dict(TINY_SCENARIO, name="strict", fast=None)
    impossible["slo"] = {"min_throughput_rps": 1e9}
    (scenario_dir / "strict.json").write_text(json.dumps(impossible), encoding="utf-8")
    argv = ["run", "strict", "--dir", str(scenario_dir), "--out", str(tmp_path)]
    assert main(argv) == 0  # violations alone only warn
    assert main(argv + ["--check-slo"]) == 1


def test_run_prints_the_saturation_sweep(scenario_dir, tmp_path, capsys):
    impossible = dict(TINY_SCENARIO, name="strict", fast=None)
    impossible["slo"] = {"min_throughput_rps": 1e9}
    (scenario_dir / "strict.json").write_text(json.dumps(impossible), encoding="utf-8")
    argv = ["run", "strict", "--dir", str(scenario_dir), "--out", str(tmp_path)]
    assert main(argv + ["--saturation"]) == 0
    assert "saturation: SLO missed at 12.5 rps" in capsys.readouterr().out
    run = load_bench(tmp_path / "BENCH_strict.json")["runs"][0]
    assert run["saturation"]["saturated"] is True
    assert run["saturation"]["saturation_rps"] is None


def test_run_unknown_scenario_is_exit_2(scenario_dir, capsys):
    assert main(["run", "nope", "--dir", str(scenario_dir)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_name_must_match_file_stem(scenario_dir, capsys):
    renamed = dict(TINY_SCENARIO, name="other")
    (scenario_dir / "alias.json").write_text(json.dumps(renamed), encoding="utf-8")
    assert main(["show", "alias", "--dir", str(scenario_dir)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_validate_scenario_file(scenario_dir, capsys):
    assert main(["validate", str(scenario_dir / "tiny.json")]) == 0
    assert "valid scenario 'tiny'" in capsys.readouterr().out


def test_validate_bench_file(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert (
        main(
            ["run", "tiny", "--dir", str(scenario_dir), "--out", str(out_dir),
             "--preset", "fast"]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["validate", str(out_dir / "BENCH_tiny.json")]) == 0
    assert "valid bench trajectory" in capsys.readouterr().out


def test_validate_broken_scenario_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "encoder": {"dim": "x"}}), encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "encoder.dim" in capsys.readouterr().err
