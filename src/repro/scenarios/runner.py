"""End-to-end scenario execution: train → persist → serve → load → BENCH.

:func:`run_scenario` is the one call behind ``repro-scenarios run``:

1. resolve the spec (optionally through its ``fast`` preset);
2. fit the pipeline and persist it as a :mod:`repro.persist` artifact;
3. boot a :class:`~repro.serve.http.ModelServer` from that artifact on
   an ephemeral port — the served bytes are the saved bytes, so every
   run also exercises the artifact round-trip;
4. drive the scenario's traffic shape at it with the load generator;
5. fold the outcome (client-side report, server-side ``serve.*`` counter
   deltas, optional offline experiment + saturation sweep + swap-under-
   load rollout drill) into a run entry and merge it into
   ``BENCH_<scenario>.json``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs import span
from repro.scenarios.load import HttpTransport, find_saturation, run_load
from repro.scenarios.report import (
    bench_path,
    diff_server_counters,
    make_run_entry,
    snapshot_server_counters,
    update_bench_file,
)
from repro.scenarios.resolve import boot_server, build_artifact, build_dataset, run_offline
from repro.scenarios.rollout import run_rollout
from repro.scenarios.schema import ScenarioSpec, apply_preset


def run_scenario(
    spec: ScenarioSpec,
    *,
    preset: Optional[str] = None,
    out_dir: Union[str, Path, None] = None,
    artifact_dir: Union[str, Path, None] = None,
    offline: bool = False,
    saturation: bool = False,
    rollout: bool = False,
    write_bench: bool = True,
) -> Dict[str, Any]:
    """Run one scenario end-to-end; returns the BENCH run entry.

    Parameters
    ----------
    spec:
        The scenario to run (already loaded/validated).
    preset:
        ``"fast"`` applies the spec's fast overrides (CI/tests).
    out_dir:
        Directory for ``BENCH_<name>.json`` (default: CWD).  The file is
        merged, not overwritten — the trajectory accumulates.
    artifact_dir:
        Where to persist the model artifact; default is a temporary
        directory that lives only for the run.
    offline:
        Also run the scenario as an offline experiment (accuracy block).
    saturation:
        Also sweep open-loop rates to find the saturation point.
    rollout:
        Also run the swap-under-load drill
        (:func:`repro.scenarios.rollout.run_rollout`) — requires the
        spec's ``rollout.enabled``.
    write_bench:
        Set False to get the run entry without touching any file.
    """
    spec = apply_preset(spec.validate(), preset)
    with span("scenarios.run", scenario=spec.name, preset=preset or "full"):
        dataset = build_dataset(spec)
        offline_block = run_offline(spec, dataset) if offline else None

        with tempfile.TemporaryDirectory(prefix="repro-scenario-") as tmp:
            target = Path(artifact_dir) if artifact_dir is not None else Path(tmp) / "artifact"
            artifact = build_artifact(spec, target, dataset)
            server = boot_server(artifact, spec)
            try:
                before = snapshot_server_counters()
                transport = HttpTransport(server.url, timeout_s=spec.traffic.timeout_s)
                load_report = run_load(
                    spec.traffic, transport, slo=spec.slo, rows=dataset.X
                )
                saturation_block = None
                if saturation:
                    saturation_block = find_saturation(
                        spec.traffic,
                        lambda: HttpTransport(server.url, timeout_s=spec.traffic.timeout_s),
                        slo=spec.slo,
                        rows=dataset.X,
                        start_rps=max(spec.traffic.rate_rps / 4.0, 1.0),
                    )
                server_metrics = diff_server_counters(before, snapshot_server_counters())
            finally:
                server.stop()

        # After the single-server run so the pool's forked workers never
        # share its port; own artifacts (primary + candidate generations).
        rollout_block = run_rollout(spec) if rollout else None

    entry = make_run_entry(
        spec,
        load_report,
        preset=preset,
        offline=offline_block,
        server_metrics=server_metrics,
        saturation=saturation_block,
        rollout=rollout_block,
    )
    if write_bench:
        path = bench_path(out_dir if out_dir is not None else Path.cwd(), spec.name)
        update_bench_file(path, spec.name, entry)
    return entry


__all__ = ["run_scenario"]
