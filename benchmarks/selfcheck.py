"""Self-check of the benchmark itself.

Run from the repository root:

    python3 benchmarks/selfcheck.py [--seconds 1] [--seed 7] [workload ...]

It checks that

* ``BENCHMARK.json`` names the workloads, end-to-end metrics and
  per-layer metrics (with units) that ``run.py`` defines;
* two invocations of ``run.py`` per workload and trace mode give the
  same result schema and metric names, report correct outputs, and
  repeat every count metric exactly;
* ``run.py`` exits non-zero without printing a result in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SCHEMA = {"correct", "attempted", "failed", "metrics"}


def invoke(root: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_manifest(problems: list) -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in manifest["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"end_to_end {declared} != run.END_TO_END {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if declared != run.per_layer_units():
        problems.append("per_layer names or units differ from run.per_layer_units()")


def check_repeat(workloads, seed: int, seconds: float, problems: list) -> None:
    for name in workloads:
        for trace in (0, 1):
            expected = run.per_layer_units() if trace else run.END_TO_END
            results = []
            for attempt in (1, 2):
                proc, result = invoke(run.ROOT, name, seed, seconds, trace)
                tag = f"{name} trace {trace} run {attempt}"
                if result is None:
                    problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                if set(result) != SCHEMA:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{tag}: outputs failed their checks")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected:
                    problems.append(f"{tag}: metrics {units} != {expected}")
                results.append(result)
                print(f"ok   {tag}", flush=True)
            if len(results) == 2 and trace:
                a, b = (r["metrics"] for r in results)
                for key, unit in expected.items():
                    if unit == "count" and a[key]["value"] != b[key]["value"]:
                        problems.append(f"{name}: count {key} {a[key]['value']} != {b[key]['value']}")


def check_bare_directory(problems: list) -> None:
    """Without src/, run.py must fail before printing a result."""
    bare = run.ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, _ = invoke(bare, next(iter(run.WORKLOADS)), 1, 1, 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("run.py succeeded in a directory without src/")
        else:
            print(f"ok   bare directory exits {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(run.WORKLOADS)}; default all")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(run.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    problems: list = []
    check_manifest(problems)
    check_bare_directory(problems)
    check_repeat(args.workloads or list(run.WORKLOADS), args.seed, args.seconds, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
