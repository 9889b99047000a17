"""End-to-end and per-layer benchmark of the ``hnd`` CLI.

Usage, from the repository root:

    python3 benchmarks/run.py --workload train-deep-l --seed 1 --seconds 30 --trace 0

Each workload generates a block-model dataset from ``--seed`` with
``hnd.synth.generate_sbm`` (in a child process, so generation does not
count toward this process's peak memory), writes it as a dataset file,
and runs one CLI command on that file through ``hnd.cli.main``,
in-process, for ``--seconds`` seconds. Outputs are checked after every
call, outside the timed region. Times are reported at a fixed machine
speed (see ``clock.py``). ``benchmarks/README.md`` records why each
workload exists and which layers it should and should not move.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` first repeats the untraced calls, then traces the same
calls with wrappers around every public ``hnd`` callable (see
``tracer.py``) and reports per-layer calls, self times and counts, plus
the tracing overhead. Both modes print a human-readable report (every
metric that applies to the workload, with units, and the environment),
write it to ``.bench_out/``, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BLAS pools are pinned to one thread (<= nproc) so that runs on a shared
# machine do not contend with themselves; HND_THREADS only fans out
# sweeps, which no workload runs, and is unset so the CLI stays serial.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Training epochs per call: enough for a stable test accuracy, few enough
# that one run measures several calls.
EPOCHS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "train" or "diffuse"
    sbm: tuple                 # generate_sbm(nodes_per_class, edges, edge_size, alpha, feature_dim, sigma)
    argv: tuple                # CLI arguments; the dataset path is appended
    columns: int               # d of the (N, d) pair arrays the operators apply to
    units: int                 # epochs (train) or steps (diffuse) per call
    kernel: str                # clock.KERNELS entry whose working set matches


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-deep-l", "train", (250, 100, 15, 1, 4, 1.0),
            ("train", "--hidden", "16", "--tau", "1", "--horizon", "30", "--variant", "l",
             "--splits", "1", "--epochs", str(EPOCHS)),
            columns=16, units=EPOCHS, kernel="small",
        ),
        Workload(
            "train-nl", "train", (250, 100, 15, 1, 4, 1.0),
            ("train", "--hidden", "16", "--tau", "1", "--horizon", "4", "--variant", "nl",
             "--splits", "1", "--epochs", str(EPOCHS)),
            columns=16, units=EPOCHS, kernel="small",
        ),
        Workload(
            "diffuse-implicit-large", "diffuse", (10_000, 10_000, 10, 2, 4, 1.0),
            ("diffuse", "--scheme", "implicit_euler", "--tau", "10", "--modulation", "softmax",
             "--variant", "nl", "--steps", "2"),
            columns=4, units=2, kernel="large",
        ),
    )
}

# The softmax modulation of `hnd diffuse` is initialised from the CLI's
# default --seed, which the workload leaves unset.
DIFFUSE_PARAM_SEED = 0
MAX_PRINCIPLE_TOL = 1e-9

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics in the result line: every count, and the self times
# of the layers that all workloads exercise. Self times of layers only
# some workloads run are in the printed report, where they read 0 on
# the others.
PER_LAYER_COUNTS = (
    "operators.grad_scaled.calls", "operators.grad_scaled_t.calls",
    "operators.quad_apply.calls", "operators.build.calls", "hypergraph.degrees.calls",
    "modulation.scores_forward.calls", "modulation.scores_backward.calls",
    "modulation.softmax.calls", "model.forward.calls", "model.loss_and_gradients.calls",
    "solvers.integrate.calls", "solvers.step_explicit_euler.calls",
    "solvers.step_implicit_euler.calls", "solvers.implicit.quad_applies",
    "solvers.implicit.fp_iters", "diagnostics.power_iters",
)
PER_LAYER_TIMES = (
    "operators.grad_scaled.self_s", "operators.grad_scaled_t.self_s",
    "operators.quad_apply.self_s", "operators.build.self_s",
    "modulation.scores_forward.self_s", "modulation.softmax.self_s",
    "solvers.integrate.self_s", "hypergraph.parse_dataset.self_s", "cli.self_s",
)
REPORT_ONLY_TIMES = (
    "modulation.scores_backward.self_s", "model.forward.self_s",
    "model.loss_and_gradients.self_s", "train.adam_step.self_s",
    "solvers.step_explicit_euler.self_s", "solvers.step_implicit_euler.self_s",
    "diagnostics.spectral_radius.self_s", "diagnostics.energy_monotonicity.self_s",
    "diagnostics.max_principle.self_s",
)


def per_layer_units() -> dict:
    units = {name: "count" for name in PER_LAYER_COUNTS}
    units.update({name: "s" for name in PER_LAYER_TIMES})
    units["operators.ns_per_pair_col"] = "ns"
    units["trace.overhead_s"] = "s"
    return units


# ------------------------------------------------------------- set-up


def _use_checkout_package():
    """Import ``hnd`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hnd" / "__init__.py").is_file():
        print(f"benchmark: no hnd package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hnd

    if SRC.resolve() not in Path(hnd.__file__).resolve().parents:
        print(f"benchmark: imported hnd from {hnd.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


# Child-process body of generate_dataset: argv is src, sbm as JSON, seed, path.
_GENERATE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hnd.hypergraph import dataset_to_json
from hnd.synth import generate_sbm
nodes, edges, size, alpha, dim, sigma = json.loads(sys.argv[2])
ds = generate_sbm(nodes, edges, size, alpha, dim, sigma, int(sys.argv[3]))
with open(sys.argv[4], "w") as fh:
    fh.write(dataset_to_json(ds))
"""


def generate_dataset(workload: Workload, seed: int, path: Path) -> None:
    """Write the seeded dataset file from a child process, which is
    waited for (and killed on timeout) before this returns."""
    subprocess.run(
        [sys.executable, "-c", _GENERATE, str(SRC), json.dumps(workload.sbm), str(seed), str(path)],
        check=True, timeout=120,
    )


def time_setup(clock: Clock, path: Path, min_blocks: int = 5, min_total_s: float = 2.0,
               max_blocks: int = 20):
    """Repeated file read + parse_dataset + HypergraphOperators.

    Set-ups run in blocks of at least 0.1 s; returns the Timing per
    set-up of every block, and the last dataset and operators built.
    """
    from hnd.hypergraph import parse_dataset
    from hnd.operators import HypergraphOperators

    def once():
        with open(path) as fh:
            ds = parse_dataset(fh.read())
        return ds, HypergraphOperators(ds.hypergraph)

    t0 = time.perf_counter()
    once()
    reps = max(1, math.ceil(0.1 / (time.perf_counter() - t0)))
    blocks = []
    while len(blocks) < min_blocks or (
            sum(b.raw_s for b in blocks) * reps < min_total_s and len(blocks) < max_blocks):
        (ds, ops), timing = clock.measure(once, reps)
        blocks.append(timing)
    return blocks, reps, ds, ops


# ------------------------------------------------------------- checks


class OutputCheck:
    """Checks one workload's outputs after each call; collects failures."""

    def __init__(self, workload: Workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.document = "metrics.json" if workload.kind == "train" else "diagnostics.json"
        self.first_bytes = None
        self.failures: list[str] = []
        self.body = None

    def __call__(self, rc: int) -> bool:
        before = len(self.failures)
        if rc != 0:
            self.failures.append(f"exit code {rc}")
            return False
        data = (self.out_dir / self.document).read_bytes()
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            self.failures.append(f"{self.document} differs from the first call's")
        self.body = json.loads(data)
        if self.workload.kind == "train":
            report = self.body["report"]
            accs = [s["test_accuracy"] for s in report["per_split"]]
            accs.append(report["mean_test_accuracy"])
            if not all(math.isfinite(a) for a in accs):
                self.failures.append(f"non-finite test accuracy {accs}")
        else:
            if not self.body["max_principle_violation"] <= MAX_PRINCIPLE_TOL:
                self.failures.append(
                    f"max principle violated by {self.body['max_principle_violation']}")
            if self.body["energy_monotone"] is not True:
                self.failures.append("energy not monotone")
        return len(self.failures) == before


def residual_check(rc: int, ops, out_dir: Path, steps: int):
    """Recompute ||y - x + tau G^T A(y) G y|| for every implicit step from
    the dumped states; returns (failure or None, residuals)."""
    if rc != 0:
        return f"exit code {rc} on the residual pass", []
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    data = (out_dir / "states.bin").read_bytes()
    if data[:8] != b"HNDTRAJ1":
        return "states.bin has no trajectory header", []
    residuals = implicit_residuals(ops, data, float(diag["config"]["tau"]))
    fp_tol = float(diag["config"]["fp_tol"])
    if len(residuals) != steps or not all(r <= fp_tol for r in residuals):
        return f"implicit residuals {residuals} above fp_tol {fp_tol}", residuals
    return None, residuals


def implicit_residuals(ops, data: bytes, tau: float) -> list:
    import numpy as np
    from hnd.modulation import AttentionParams, normalize_modulation, scores_forward

    n, d, count = struct.unpack_from("<IIQ", data, 8)
    states = np.frombuffer(data, dtype="<f8", offset=24).reshape(count, n, d)
    params = AttentionParams.init(d, DIFFUSE_PARAM_SEED)
    out = []
    for x, y in zip(states[:-1], states[1:]):
        s, _ = scores_forward(params, y, ops)
        a = normalize_modulation(s, ops).values
        out.append(float(np.linalg.norm(y - x + tau * ops.quad_apply(a, y))))
    return out


# ------------------------------------------------------------- running


def call_cli(cli, argv: list) -> int:
    """One in-process CLI call; returns its exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        return -1


@dataclass
class Call:
    timing: Timing             # clock.Timing
    ok: bool
    layers: dict | None = None


def timed_calls(clock: Clock, cli, argv: list, seconds: float, check: OutputCheck,
                tracer=None) -> list:
    """Call until ``seconds`` have passed (at least once)."""
    from tracer import summarize

    calls = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.clear()
        rc, timing = clock.measure(lambda: call_cli(cli, argv))
        layers = summarize(tracer.spans()) if tracer else None
        calls.append(Call(timing, check(rc), layers))
        if time.perf_counter() >= deadline:
            return calls


def quartiles(values) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "p25": q1, "p75": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def environment(workload: Workload, ops) -> dict:
    import numpy
    import scipy

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}"] = _size_bytes(size)
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l2 = caches.get("l2")
    pair_bytes = ops.N * workload.columns * 8
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l2_bytes": l2,
        "l3_bytes": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "threads": {var: os.environ.get(var) for var in ("HND_THREADS", *THREAD_ENV)},
        "workload": {
            "n": ops.n, "m": ops.m, "N": ops.N, "d": workload.columns,
            "pair_array_bytes": pair_bytes,
            "pair_array_over_l2": pair_bytes / l2 if l2 else None,
        },
    }


def _size_bytes(text: str) -> int:
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:].upper(), 1)
    return int(text.rstrip("KMGkmg")) * scale


def _git_rev() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    _use_checkout_package()
    from clock import Clock
    from hnd import cli

    dataset = work / "dataset.json"
    generate_dataset(workload, seed, dataset)
    out_dir = work / "out"
    argv = [*workload.argv, "--dataset", str(dataset), "--out", str(out_dir)]
    check = OutputCheck(workload, out_dir)
    report: dict = {"workload": workload.name, "seed": seed, "trace": int(trace),
                    "kernel": workload.kernel}

    with Clock(workload.kernel) as clock:
        report["ref_s"] = clock.ref_s
        setup_blocks, setup_reps, ds, ops = time_setup(clock, dataset)

        # untimed pass: warms caches and, for diffusion, dumps the states
        # the residual check needs
        if workload.kind == "diffuse":
            check_dir = work / "check"
            rc = call_cli(cli, [*workload.argv, "--dataset", str(dataset),
                                "--out", str(check_dir), "--dump-states"])
            failure, report["implicit_residuals"] = residual_check(
                rc, ops, check_dir, workload.units)
            if failure:
                check.failures.append(failure)
            warm_ok = failure is None
        else:
            warm_ok = check(call_cli(cli, argv))

        if not trace:
            calls = timed_calls(clock, cli, argv, seconds, check)
            metrics, lines = end_to_end(workload, calls, setup_blocks, setup_reps, check)
            report["calls"] = [asdict(c.timing) for c in calls]
            report["setup_blocks"] = [asdict(b) for b in setup_blocks]
        else:
            from tracer import Tracer

            untraced = timed_calls(clock, cli, argv, seconds / 2, check)
            with Tracer() as tracer:
                calls = timed_calls(clock, cli, argv, seconds / 2, check, tracer)
            metrics, lines = per_layer(untraced, calls, check)
            spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.json"
            spans_path.write_text(tracer.spans().to_json())
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["untraced_calls"] = [asdict(c.timing) for c in untraced]
            report["calls"] = [asdict(c.timing) for c in calls]
            calls = untraced + calls

    attempted = 1 + len(calls)
    failed = (not warm_ok) + sum(not c.ok for c in calls)
    lines.append(("failed_ratio", failed / attempted, "fraction", f"{failed} of {attempted} calls"))
    report["environment"] = environment(workload, ops)
    report["failures"] = check.failures
    report["report"] = [{"name": n, "value": v, "unit": u, "note": note}
                        for n, v, u, note in lines]
    units = {**END_TO_END, **per_layer_units()}
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report


def end_to_end(workload: Workload, calls: list, setup_blocks: list, setup_reps: int,
               check: OutputCheck):
    wall = quartiles([c.timing.scaled_s for c in calls])
    raw_wall = quartiles([c.timing.raw_s for c in calls])
    setup = quartiles([b.scaled_s for b in setup_blocks])
    metrics = {
        "wall_s": wall["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rate = "epochs_per_s" if workload.kind == "train" else "steps_per_s"
    lines = [
        ("wall_s", wall["median"], "s", _spread(wall)),
        ("setup_s", setup["median"], "s",
         f"{setup['n']} blocks of {setup_reps} set-ups; " + _spread(setup)),
        (rate, workload.units / wall["median"], "1/s", f"{workload.units} per call"),
        ("raw_wall_s", raw_wall["median"], "s", "unscaled; " + _spread(raw_wall)),
        ("raw_setup_s", statistics.median(b.raw_s for b in setup_blocks), "s", "unscaled"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "whole process, dataset generation excluded"),
    ]
    if workload.kind == "train" and check.body is not None:
        lines.append(("test_accuracy", check.body["report"]["mean_test_accuracy"],
                      "fraction", "deterministic per seed"))
    return metrics, lines


def per_layer(untraced: list, traced: list, check: OutputCheck):
    counts = _counts(traced[0].layers)
    for c in traced:
        if _counts(c.layers) != counts:
            check.failures.append("per-layer counts differ from the first traced call's")
            c.ok = False
    # span times include the kernel runs inside them in proportion to
    # their length, so they take their call's scaled-over-wall factor
    layer = {
        key: statistics.median(c.layers.get(key, 0.0) * c.timing.scaled_s / c.timing.wall_s
                               for c in traced)
        for key in (*PER_LAYER_TIMES, *REPORT_ONLY_TIMES, "operators.ns_per_pair_col")
    }
    layer.update({key: counts.get(key, 0) for key in PER_LAYER_COUNTS})
    layer["trace.overhead_s"] = (statistics.median(c.timing.scaled_s for c in traced)
                                 - statistics.median(c.timing.scaled_s for c in untraced))
    units = per_layer_units()
    lines = [(key, layer[key], units.get(key, "s"), "") for key in
             (*PER_LAYER_COUNTS, *PER_LAYER_TIMES, *REPORT_ONLY_TIMES,
              "operators.ns_per_pair_col", "trace.overhead_s")]
    return {key: layer[key] for key in units}, lines


def _counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if isinstance(v, int)}


def _spread(q: dict) -> str:
    return (f"p25 {q['p25']:.4g}, p75 {q['p75']:.4g}, min {q['min']:.4g}, "
            f"max {q['max']:.4g}, n={q['n']}")


def print_report(report: dict) -> None:
    env = report["environment"]
    w = env["workload"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"  N={w['N']} pairs, d={w['d']}, pair array {w['pair_array_bytes']} B, "
          f"L2 {env['l2_bytes']} B")
    for row in report["report"]:
        note = f"  ({row['note']})" if row["note"] else ""
        print(f"  {row['name']:40s} {row['value']:.6g} {row['unit']}{note}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in THREAD_ENV:
        os.environ[var] = "1"
    os.environ.pop("HND_THREADS", None)

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
