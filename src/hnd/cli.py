"""Command-line harness: validation, generation, diffusion, training,
and solver/noise benchmarking with machine-readable outputs.

Exit codes: 0 success, 2 config or validation error, 3 I/O error,
4 numerical failure. Config precedence is command-line flag over config
file over built-in default; the resolved config is echoed into every
output document. Output bodies contain no timestamps or wall-clock
values; timing goes to a separate ``timing.json`` sidecar so reruns are
byte-identical.

``HND_THREADS`` caps the worker count used to fan out sweep points;
unset means sequential execution.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .diagnostics import energy_monotonicity, max_principle, spectral_radius
from .errors import HndError, NoConvergence, StepUnderflow
from .hypergraph import (
    Dataset,
    dataset_to_json,
    parse_dataset,
    parse_document,
    parse_hypergraph,
)
from .modulation import AttentionParams, softmax_modulation_fn, uniform_modulation
from .operators import DENSE_LIMIT, as_operators, scaled_gradient_matrix
from .rng import make_rng
from .solvers import (
    AdaptiveSpec,
    SolverSpec,
    _weights_fn,
    integrate,
    integrate_adaptive,
    trajectory_to_csv,
    trajectory_states_to_binary,
)
from .synth import generate_sbm
from .train import TrainConfig, depth_sweep, noise_sweep, run_points, train_and_evaluate


def _write_file(path: str, data) -> None:
    """Atomic write: temp file then rename."""
    tmp = path + ".tmp"
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _max_workers() -> int:
    raw = os.environ.get("HND_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _load_config_file(path: str, allowed: set) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return obj


def _resolve(args, schema: dict) -> dict:
    """flag > config file > default, for every key in the schema."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config, set(schema))
    resolved = {}
    for key, default in schema.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _load_dataset(path: str, resolved: dict) -> Dataset:
    with open(path) as fh:
        doc = parse_document(fh.read())
    if isinstance(doc, Dataset):
        return doc
    rng = make_rng(int(resolved.get("seed", 0)))
    feats = rng.standard_normal((doc.n, int(resolved.get("dim", 4))))
    labels = np.zeros(doc.n, dtype=np.int64)
    return Dataset(hypergraph=doc, features=feats, labels=labels, class_count=1)


# ---------------------------------------------------------------- commands

def _cmd_validate(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    hg = parse_hypergraph(text)
    ops = as_operators(hg)
    d = ops.deg.d_v
    print(f"ok: n={hg.n} m={hg.m} N={ops.N}")
    print(f"degree: min={d.min():.6g} max={d.max():.6g} mean={d.mean():.6g}")
    print(f"edge size: min={ops.deg.edge_size.min()} max={ops.deg.edge_size.max()}")
    return 0


_SBM_SCHEMA = {
    "nodes_per_class": 250, "edges": 100, "edge_size": 15, "alpha": 1,
    "feature_dim": 4, "sigma": 1.0, "seed": 0,
}


def _generate_sbm(cfg: dict) -> Dataset:
    return generate_sbm(
        int(cfg["nodes_per_class"]), int(cfg["edges"]), int(cfg["edge_size"]),
        int(cfg["alpha"]), int(cfg["feature_dim"]), float(cfg["sigma"]),
        int(cfg["seed"]),
    )


def _cmd_sbm(args) -> int:
    ds = _generate_sbm(_resolve(args, _SBM_SCHEMA))
    out = _out_dir(args)
    path = os.path.join(out, "dataset.json")
    _write_file(path, dataset_to_json(ds))
    print(f"wrote {path}: n={ds.hypergraph.n} m={ds.hypergraph.m}")
    return 0


_DIFFUSE_SCHEMA = {
    "dataset": None, "scheme": "explicit_euler", "tau": 1.0, "horizon": None,
    "steps": 4, "modulation": "uniform", "variant": "l", "seed": 0, "dim": 4,
    "fp_tol": 1e-10, "fp_max_iter": 100, "tol": 1e-6, "tau_min": 1e-10,
    "dump_states": False,
}


def _modulation(cfg: dict, ops, dim: int):
    """The configured modulation: fixed uniform weights, or the softmax
    as a callable ``x -> weights``."""
    if cfg["modulation"] == "uniform":
        return uniform_modulation(ops).values
    if cfg["modulation"] == "softmax":
        return softmax_modulation_fn(AttentionParams.init(dim, int(cfg["seed"])), ops)
    raise ValueError(f"unknown modulation {cfg['modulation']!r}")


def _cmd_diffuse(args) -> int:
    cfg = _resolve(args, _DIFFUSE_SCHEMA)
    if not cfg["dataset"]:
        raise ValueError("diffuse requires a dataset path")
    ds = _load_dataset(cfg["dataset"], cfg)
    ops = as_operators(ds.hypergraph)
    tau = float(cfg["tau"])
    steps = int(cfg["steps"]) if cfg["horizon"] is None else int(round(float(cfg["horizon"]) / tau))
    policy = "frozen" if cfg["variant"] == "l" else "recompute_each_step"
    spec = SolverSpec(
        scheme=cfg["scheme"], tau=tau, steps=steps, modulation_policy=policy,
        fp_tol=float(cfg["fp_tol"]), fp_max_iter=int(cfg["fp_max_iter"]),
        adaptive=AdaptiveSpec(tol=float(cfg["tol"]), tau_init=tau,
                              tau_min=float(cfg["tau_min"]),
                              tau_max=max(tau, 10.0)),
    )
    x0 = ds.features
    a = _modulation(cfg, ops, x0.shape[1])
    traj = integrate(ops, a, x0, spec)
    a0 = _weights_fn(ops, a)(x0)
    report = energy_monotonicity(ops, traj, a0 if policy == "frozen" else a)
    bounds = max_principle(ops, traj)
    lam, converged = spectral_radius(ops, a0)

    out = _out_dir(args)
    _write_file(os.path.join(out, "trajectory.csv"),
                trajectory_to_csv(traj, report.energies))
    diag = {
        "library_version": __version__,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "energies": report.energies.tolist(),
        "energy_monotone": report.monotone,
        "first_energy_violation": report.first_violation,
        "max_principle_violation": bounds.max_violation,
        "spectral_radius": lam,
        "spectral_radius_converged": converged,
        "rhs_evals": traj.rhs_evals,
        "accepted": traj.accepted,
        "rejected": traj.rejected,
    }
    _write_file(os.path.join(out, "diagnostics.json"), json.dumps(diag, sort_keys=True))
    if cfg["dump_states"]:
        _write_file(os.path.join(out, "states.bin"), trajectory_states_to_binary(traj))
    print(f"wrote trajectory.csv and diagnostics.json to {out}")
    return 0


_TRAIN_SCHEMA = {
    "dataset": None, "lr": 0.01, "weight_decay": 0.0, "dropout": 0.0,
    "hidden": 64, "horizon": 4.0, "tau": 1.0, "variant": "l",
    "scheme": "explicit_euler", "epochs": 200, "seed": 0, "splits": 5,
    "ratios": (0.5, 0.25, 0.25), "agg": "mean", "standardize": True,
    "layers": None, "noise": None, "rates": None,
    "nodes_per_class": 250, "edges": 100, "edge_size": 15, "alpha": 1,
    "feature_dim": 4, "sigma": 1.0,
}


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        lr=float(cfg["lr"]), weight_decay=float(cfg["weight_decay"]),
        input_dropout=float(cfg["dropout"]), hidden_dim=int(cfg["hidden"]),
        horizon=float(cfg["horizon"]), tau=float(cfg["tau"]),
        variant=cfg["variant"], scheme=cfg["scheme"], epochs=int(cfg["epochs"]),
        base_seed=int(cfg["seed"]), split_count=int(cfg["splits"]),
        ratios=tuple(cfg["ratios"]), agg=cfg["agg"],
        standardize=bool(cfg["standardize"]),
    )


def _train_dataset(cfg: dict) -> Dataset:
    if cfg["dataset"]:
        with open(cfg["dataset"]) as fh:
            return parse_dataset(fh.read())
    return _generate_sbm(cfg)


def _report_json(report) -> dict:
    return json.loads(report.to_json())


def _cmd_train(args) -> int:
    cfg = _resolve(args, _TRAIN_SCHEMA)
    ds = _train_dataset(cfg)
    config = _train_config(cfg)
    out = _out_dir(args)
    t0 = time.perf_counter()

    if cfg["layers"] is not None:
        layer_counts = _parse_list(cfg["layers"], int)
        results = depth_sweep(ds, config, layer_counts, max_workers=_max_workers())
        body = {
            "command": "depth_sweep",
            "points": [
                {"layers": r["layers"], "report": _report_json(r["report"])}
                for r in results
            ],
        }
    elif cfg["noise"] is not None:
        rates = _parse_list(cfg["rates"] or "0.1,0.2,0.3,0.4")
        results = noise_sweep(ds, config, cfg["noise"], rates,
                              max_workers=_max_workers())
        body = {
            "command": "noise_sweep",
            "noise": cfg["noise"],
            "points": [
                {"rate": r["rate"], "report": _report_json(r["report"])}
                for r in results
            ],
        }
    else:
        body = {"command": "train", "report": _report_json(train_and_evaluate(ds, config))}
    body.update(library_version=__version__, config={k: cfg[k] for k in sorted(cfg)})

    _write_file(os.path.join(out, "metrics.json"), json.dumps(body, sort_keys=True))
    _write_file(os.path.join(out, "timing.json"),
                json.dumps({"wall_time_s": time.perf_counter() - t0}))
    print(f"wrote metrics.json to {out}")
    return 0


def _cmd_bench_noise(args) -> int:
    args.layers = None
    if args.noise is None:
        args.noise = "structure"
    return _cmd_train(args)


_BENCH_SCHEMA = {
    "taus": "0.4,0.2,0.1,0.05", "tols": "1e-4,1e-6", "horizon": 2.0,
    "seed": 0, "dim": 3,
}


def _bench_case(seed: int, dim: int):
    """Fixed small hypergraph plus seeded features for convergence studies."""
    from .hypergraph import Hypergraph

    edges = (
        (0, 1, 2), (2, 3), (3, 4, 5), (5, 6), (6, 7, 8), (8, 9),
        (0, 4, 9), (1, 5, 7), (2, 6, 9), (0, 3, 8),
    )
    hg = Hypergraph(n=10, edges=edges, weights=tuple(1.0 + 0.1 * i for i in range(len(edges))))
    ops = as_operators(hg)
    x0 = make_rng(seed).standard_normal((hg.n, dim))
    a = uniform_modulation(ops).values
    return ops, a, x0


def _expm_reference(ops, a, x0, horizon):
    from scipy.linalg import expm

    G = scaled_gradient_matrix(ops)
    M = G.T @ (a[:, None] * G)
    return expm(-horizon * M) @ x0


def _cmd_bench_solver(args) -> int:
    cfg = _resolve(args, _BENCH_SCHEMA)
    taus = _parse_list(cfg["taus"])
    tols = _parse_list(cfg["tols"])
    horizon = float(cfg["horizon"])
    ops, a, x0 = _bench_case(int(cfg["seed"]), int(cfg["dim"]))
    ref = _expm_reference(ops, a, x0, horizon)

    t0 = time.perf_counter()
    schemes = ("explicit_euler", "implicit_euler", "rk4", "ab4", "am4")

    def run_row(scheme):
        errors = []
        evals = []
        for tau in taus:
            steps = int(round(horizon / tau))
            spec = SolverSpec(scheme=scheme, tau=tau, steps=steps,
                              modulation_policy="frozen", fp_tol=1e-12)
            traj = integrate(ops, a, x0, spec)
            errors.append(float(np.linalg.norm(traj.states[-1] - ref)))
            evals.append(traj.rhs_evals)
        slope = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
        return {"scheme": scheme, "taus": list(taus), "errors": errors,
                "slope": slope, "rhs_evals": evals}

    rows = run_points(run_row, list(schemes), _max_workers())

    def run_adaptive(tol):
        spec = AdaptiveSpec(tol=tol, tau_init=min(taus), tau_max=horizon)
        traj = integrate_adaptive(ops, a, x0, horizon, spec)
        return {
            "tol": tol,
            "final_error": float(np.linalg.norm(traj.states[-1] - ref)),
            "accepted": traj.accepted,
            "rejected": traj.rejected,
            "rhs_evals": traj.rhs_evals,
        }

    adaptive_rows = run_points(run_adaptive, list(tols), _max_workers())

    body = {
        "library_version": __version__,
        "command": "bench_solver",
        "config": {k: cfg[k] for k in sorted(cfg)},
        "fixed_step": rows,
        "adaptive": adaptive_rows,
    }
    out = _out_dir(args)
    _write_file(os.path.join(out, "bench.json"), json.dumps(body, sort_keys=True))
    _write_file(os.path.join(out, "timing.json"),
                json.dumps({"wall_time_s": time.perf_counter() - t0}))
    print(f"wrote bench.json to {out}")
    return 0


_SPECTRUM_SCHEMA = {
    "dataset": None, "modulation": "uniform", "seed": 0, "dim": 4,
    "iters": 500, "tol": 1e-12,
}


def _cmd_spectrum(args) -> int:
    cfg = _resolve(args, _SPECTRUM_SCHEMA)
    if not cfg["dataset"]:
        raise ValueError("spectrum requires a dataset path")
    ds = _load_dataset(cfg["dataset"], cfg)
    ops = as_operators(ds.hypergraph)
    a = _weights_fn(ops, _modulation(cfg, ops, ds.features.shape[1]))(ds.features)
    lam, converged = spectral_radius(ops, a, iters=int(cfg["iters"]), tol=float(cfg["tol"]))
    body = {
        "library_version": __version__,
        "command": "spectrum",
        "config": {k: cfg[k] for k in sorted(cfg)},
        "spectral_radius": lam,
        "converged": converged,
    }
    if ops.N * ops.n <= DENSE_LIMIT:
        G = scaled_gradient_matrix(ops)
        eigs = np.linalg.eigvalsh(G.T @ (a[:, None] * G))
        body["dense_min_eigenvalue"] = float(eigs[0])
        body["dense_max_eigenvalue"] = float(eigs[-1])
    out = _out_dir(args)
    _write_file(os.path.join(out, "spectrum.json"), json.dumps(body, sort_keys=True))
    print(json.dumps(body, sort_keys=True))
    return 0


def _parse_list(text, cast=float) -> list:
    if isinstance(text, (list, tuple)):
        return [cast(x) for x in text]
    return [cast(tok) for tok in str(text).split(",") if tok.strip()]


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hnd", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse and validate a hypergraph document")
    v.add_argument("path")
    v.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("sbm", help="generate a synthetic two-class dataset")
    s.add_argument("--config")
    s.add_argument("--nodes-per-class", dest="nodes_per_class", type=int)
    s.add_argument("--edges", type=int)
    s.add_argument("--edge-size", dest="edge_size", type=int)
    s.add_argument("--alpha", type=int)
    s.add_argument("--feature-dim", dest="feature_dim", type=int)
    s.add_argument("--sigma", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_sbm)

    d = sub.add_parser("diffuse", help="integrate the diffusion flow and report diagnostics")
    d.add_argument("--config")
    d.add_argument("--dataset")
    d.add_argument("--scheme", choices=["explicit_euler", "implicit_euler", "rk4", "ab4", "am4", "adaptive"])
    d.add_argument("--tau", type=float)
    d.add_argument("--horizon", type=float)
    d.add_argument("--steps", type=int)
    d.add_argument("--modulation", choices=["uniform", "softmax"])
    d.add_argument("--variant", choices=["l", "nl"])
    d.add_argument("--seed", type=int)
    d.add_argument("--dim", type=int)
    d.add_argument("--fp-tol", dest="fp_tol", type=float)
    d.add_argument("--fp-max-iter", dest="fp_max_iter", type=int)
    d.add_argument("--tol", type=float)
    d.add_argument("--tau-min", dest="tau_min", type=float)
    d.add_argument("--dump-states", dest="dump_states", action="store_const", const=True)
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_diffuse)

    def add_train_flags(t):
        t.add_argument("--config")
        t.add_argument("--dataset")
        t.add_argument("--lr", type=float)
        t.add_argument("--weight-decay", dest="weight_decay", type=float)
        t.add_argument("--dropout", type=float)
        t.add_argument("--hidden", type=int)
        t.add_argument("--horizon", type=float)
        t.add_argument("--tau", type=float)
        t.add_argument("--variant", choices=["l", "nl"])
        t.add_argument("--scheme")
        t.add_argument("--epochs", type=int)
        t.add_argument("--seed", type=int)
        t.add_argument("--splits", type=int)
        t.add_argument("--agg", choices=["mean", "max"])
        t.add_argument("--standardize", action="store_const", const=True)
        t.add_argument("--no-standardize", dest="standardize", action="store_const", const=False)
        t.add_argument("--noise", choices=["gaussian", "uniform", "mask", "structure"])
        t.add_argument("--rates")
        t.add_argument("--nodes-per-class", dest="nodes_per_class", type=int)
        t.add_argument("--edges", type=int)
        t.add_argument("--edge-size", dest="edge_size", type=int)
        t.add_argument("--alpha", type=int)
        t.add_argument("--feature-dim", dest="feature_dim", type=int)
        t.add_argument("--sigma", type=float)
        t.add_argument("--out")

    t = sub.add_parser("train", help="train and evaluate over seeded splits")
    add_train_flags(t)
    t.add_argument("--layers", help="comma-separated depth sweep, e.g. 2,4,10")
    t.set_defaults(fn=_cmd_train)

    bn = sub.add_parser("bench-noise", help="accuracy-versus-noise-rate curve")
    add_train_flags(bn)
    bn.set_defaults(fn=_cmd_bench_noise)

    b = sub.add_parser("bench-solver", help="integrator convergence against the matrix exponential")
    b.add_argument("--config")
    b.add_argument("--taus")
    b.add_argument("--tols")
    b.add_argument("--horizon", type=float)
    b.add_argument("--seed", type=int)
    b.add_argument("--dim", type=int)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bench_solver)

    sp = sub.add_parser("spectrum", help="spectral radius of the modulated operator")
    sp.add_argument("--config")
    sp.add_argument("--dataset")
    sp.add_argument("--modulation", choices=["uniform", "softmax"])
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--iters", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_spectrum)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NoConvergence, StepUnderflow) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (HndError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
