"""Command line of the live end-to-end benchmark (see README.md here).

One workload, the last stdout line a JSON result (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload screen_1row --seed 1 --seconds 10 --trace 0

Every workload, written to ``DIR/results.json`` with the run context::

    python3 benchmarks/e2e/run.py --seed 1 --out DIR [--seconds S] [--trace 1]

Two sets of runs against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py compare A B

``A`` and ``B`` are ``results.json`` files or directories searched for them.
Kernel builds and scratch files go to ``$CARGO_TARGET_DIR`` or
``.bench_build/`` under the repository root. The exit code
is 1 when a response was wrong (or, for ``compare``, a metric regressed) and
2 when the source tree or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def _load_spec() -> Dict[str, Any]:
    if not SPEC.is_file():
        raise SystemExit(f"error: {SPEC} is missing")
    return json.loads(SPEC.read_text())


def _build_root() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return ROOT / target if not os.path.isabs(target) else Path(target)


def _print_metrics(result: Dict[str, Any]) -> None:
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<16} {name:<30} {m['value']:.6g} {m['unit']}")
    print(
        f"{result['workload']:<16} attempted {result['attempted']} failed {result['failed']} "
        f"correct {str(result['correct']).lower()}"
    )


def measure(argv: List[str]) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print a JSON result last")
    parser.add_argument("--out", help="run every workload; write OUT/results.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured window per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds a traced server run and reports per-layer metrics")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.out is None):
        parser.error("give exactly one of --workload and --out")
    if not (ROOT / "src" / "repro" / "serve" / "cli.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import bench  # imports repro from the source tree

    if args.workload is not None and args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    # SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_root = _build_root()
    build_root.mkdir(parents=True, exist_ok=True)
    kernel = bench.build_kernel(build_root)
    names = [args.workload] if args.workload else list(bench.WORKLOADS)
    workdir = (Path(args.out) if args.out else build_root / "e2e") / f"work-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = bench.run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir / name, kernel
            )
            _print_metrics(results[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = all(r["correct"] for r in results.values())

    if args.out:
        out = Path(args.out) / "results.json"
        doc = {"context": bench.run_context(args.seed, args.seconds, kernel), "workloads": results}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True))
        print(f"wrote {out}")
        return 0 if correct else 1

    result = results[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']} [{entry['unit']}] not measured: {got}")
        metrics[entry["name"]] = got
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- compare ---------------------------------------------------------------------
def _load_runs(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no results.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def _values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["workloads"][workload]["metrics"][metric]["value"]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", type=Path, help="results.json file or directory (before)")
    parser.add_argument("change", type=Path, help="results.json file or directory (after)")
    args = parser.parse_args(argv)
    spec = _load_spec()
    a_runs, b_runs = _load_runs(args.parent), _load_runs(args.change)
    workloads = sorted(set(a_runs[0]["workloads"]) & set(b_runs[0]["workloads"]))
    print(f"parent: {len(a_runs)} runs, change: {len(b_runs)} runs "
          f"(median [q1, q3]; worse = change vs parent median)")
    regressions = 0
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a, b = _values(a_runs, workload, name), _values(b_runs, workload, name)
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            lower = entry["better"] == "lower"
            worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread > bound:
                # Too noisy to call, unless every change run beats every parent run.
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(
                f"{workload:<16} {name:<20} {qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                f" -> {qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {entry['unit']:<7}"
                f" worse {worse:+.1%} spread {spread:.1%} bound {bound:.0%}: {verdict}"
            )
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return measure(argv)


if __name__ == "__main__":
    raise SystemExit(main())
