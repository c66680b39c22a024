"""Command-line entry point: ``repro-scenarios`` / ``python -m repro.scenarios``.

Subcommands::

    repro-scenarios list   [--dir scenarios/]
    repro-scenarios show   <name> [--dir ...] [--preset fast]
    repro-scenarios run    <name> [--dir ...] [--preset fast] [--out .]
                           [--offline] [--saturation] [--rollout]
                           [--check-slo] [--artifact-dir DIR]
    repro-scenarios validate <path.json|path.toml|BENCH_*.json>

``run`` executes the scenario end-to-end (train → persist → serve on an
ephemeral port → synthetic load) and merges the result into
``BENCH_<name>.json`` under ``--out``.  Exit codes: 0 = success,
1 = SLO violated and ``--check-slo`` was given, 2 = bad arguments /
unknown scenario / invalid file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.scenarios.errors import ScenarioError
from repro.scenarios.report import describe_saturation, load_bench
from repro.scenarios.runner import run_scenario
from repro.scenarios.schema import (
    apply_preset,
    discover_scenarios,
    load_scenario,
    scenario_to_dict,
)

DEFAULT_DIR = "scenarios"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Run declarative workload scenarios and track BENCH_*.json trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dir", default=DEFAULT_DIR, metavar="DIR",
            help=f"scenario directory (default: ./{DEFAULT_DIR})",
        )

    p_list = sub.add_parser("list", help="list scenarios in the scenario directory")
    add_dir(p_list)

    p_show = sub.add_parser("show", help="print one scenario's resolved document")
    p_show.add_argument("name", help="scenario name (file stem)")
    p_show.add_argument("--preset", choices=["fast"], default=None)
    add_dir(p_show)

    p_run = sub.add_parser("run", help="run a scenario end-to-end and update its BENCH file")
    p_run.add_argument("name", help="scenario name (file stem)")
    p_run.add_argument("--preset", choices=["fast"], default=None)
    p_run.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for BENCH_<name>.json (default: current directory)",
    )
    p_run.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="persist the model artifact here (default: temp dir for the run)",
    )
    p_run.add_argument(
        "--offline", action="store_true",
        help="also run the scenario as an offline experiment (accuracy block)",
    )
    p_run.add_argument(
        "--saturation", action="store_true",
        help="also sweep open-loop rates for the saturation point",
    )
    p_run.add_argument(
        "--rollout", action="store_true",
        help="also run the swap-under-load rollout drill (needs rollout.enabled)",
    )
    p_run.add_argument(
        "--check-slo", action="store_true",
        help="exit 1 if the load report violates the scenario's SLO",
    )
    add_dir(p_run)

    p_val = sub.add_parser(
        "validate", help="validate a scenario file or a BENCH_*.json trajectory"
    )
    p_val.add_argument("path", help="path to a .json/.toml scenario or a BENCH_*.json file")
    return parser


def _resolve_scenario(directory: str, name: str):
    paths = discover_scenarios(directory)
    if name not in paths:
        raise ScenarioError(
            f"unknown scenario {name!r}; {directory} has: {', '.join(sorted(paths)) or '(none)'}"
        )
    spec = load_scenario(paths[name])
    if spec.name != name:
        raise ScenarioError(
            f"{paths[name]}: spec name {spec.name!r} does not match file stem {name!r}",
            key="name",
        )
    return spec


def _cmd_list(args: argparse.Namespace) -> int:
    paths = discover_scenarios(args.dir)
    if not paths:
        print(f"(no scenarios in {args.dir})")
        return 0
    for name, path in sorted(paths.items()):
        spec = load_scenario(path)
        fast = " [fast preset]" if spec.fast else ""
        print(f"{name:24s} {spec.dataset.source:8s} {spec.model.kind:10s} "
              f"{spec.traffic.mode}-loop{fast}  {spec.description}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = apply_preset(_resolve_scenario(args.dir, args.name), args.preset)
    print(json.dumps(scenario_to_dict(spec), indent=2))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _resolve_scenario(args.dir, args.name)
    entry = run_scenario(
        spec,
        preset=args.preset,
        out_dir=args.out,
        artifact_dir=args.artifact_dir,
        offline=args.offline,
        saturation=args.saturation,
        rollout=args.rollout,
    )
    load = entry["load"]
    print(
        f"repro-scenarios: {args.name} ({load['mode']}-loop, "
        f"{load['n_requests']} requests x {load['rows_per_request']} rows): "
        f"{load['throughput_rps']:.1f} req/s, "
        f"p50 {load['latency_ms']['p50']:.2f} ms, "
        f"p99 {load['latency_ms']['p99']:.2f} ms, "
        f"error rate {load['error_rate']:.4f}"
    )
    saturation_block = entry.get("saturation")
    if saturation_block:
        print(f"repro-scenarios: saturation: {describe_saturation(saturation_block)}")
    rollout_block = entry.get("rollout")
    if rollout_block:
        swap = rollout_block["swap"]
        print(
            f"repro-scenarios: rollout: {rollout_block['n_requests']} requests "
            f"through {rollout_block['workers']} workers "
            f"({rollout_block['mode']} candidate), "
            f"{rollout_block['n_dropped']} dropped, {rollout_block['n_5xx']} 5xx, "
            f"swap converged={swap['converged']}"
        )
    bench_file = Path(args.out) / f"BENCH_{args.name}.json"
    print(f"repro-scenarios: trajectory updated: {bench_file}")
    if load["slo_violations"]:
        for violation in load["slo_violations"]:
            print(f"repro-scenarios: SLO violation: {violation}", file=sys.stderr)
        if args.check_slo:
            return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.name.startswith("BENCH_"):
        doc = load_bench(path)
        print(
            f"{path}: valid bench trajectory for {doc['scenario']!r} "
            f"({len(doc['runs'])} runs)"
        )
    else:
        spec = load_scenario(path)
        print(f"{path}: valid scenario {spec.name!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "show": _cmd_show,
        "run": _cmd_run,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"repro-scenarios: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
