"""Command-line harness: validation, generation, diffusion, training,
and solver/noise benchmarking with machine-readable outputs.

Exit codes: 0 success, 2 config or validation error, 3 I/O error,
4 numerical failure: a solve that did not converge, an adaptive step
underflow, or a flow that left the finite range (each command runs
with numpy's overflow, invalid and divide errors raised, so a
diverged flow stops before any output). Config precedence is
command-line flag over config file over built-in default; the resolved
config is echoed into every output document. A config-file value must
have its flag's type (an integer given for a float is stored as a
float; ``null`` stands only where the default is unset), or the
command exits 2 naming the key.
Output bodies contain no timestamps or wall-clock values; timing goes
to a separate ``timing.json`` sidecar so reruns are byte-identical.

``HND_THREADS`` caps the worker count used to fan out sweep points;
unset or empty means sequential execution, and a non-integer or < 1 exits 2.
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
    SCHEMES,
    AdaptiveSpec,
    SolverSpec,
    _weights_fn,
    integrate,
    integrate_adaptive,
    step_count,
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
        workers = int(raw or 1)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HND_THREADS must be an integer >= 1, got {raw!r}")
    return workers


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


def _resolve(args) -> dict:
    """flag > config file > default, for every option of the command,
    each value typed by ``_typed``."""
    file_cfg = {}
    if args.config:
        file_cfg = _load_config_file(args.config, {option[0] for option in args.options})
    resolved = {}
    for option in args.options:
        key, default = option[:2]
        flag = getattr(args, key, None)
        resolved[key] = _typed(option, file_cfg.get(key, default) if flag is None else flag)
    return resolved


def _typed(option, value):
    """The value as its option's type, or a ValueError naming the key. A
    float takes any number but a bool; a list, comma text or an array."""
    key, default, kind, choices = option
    if value is None and default is None:
        return None
    try:
        if not isinstance(kind, list):
            if choices is None or value in choices:
                return _scalar(kind, value)
        elif isinstance(value, str):
            _parse_list(value, kind[0])
            return value
        elif isinstance(value, (list, tuple)):
            return [_scalar(kind[0], item) for item in value]
    except (TypeError, ValueError, OverflowError):
        pass
    expected = list(choices) if choices else (
        f"{kind[0].__name__} list" if isinstance(kind, list) else kind.__name__)
    raise ValueError(f"option {key!r} takes {expected}, not {json.dumps(value)}")


def _scalar(kind, value):
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(value)
    return float(value) if kind is float else value


def _parse_list(text, cast=float) -> list:
    if isinstance(text, (list, tuple)):
        return [cast(x) for x in text]
    return [cast(tok) for tok in str(text).split(",") if tok.strip()]


def _load_dataset(path: str, resolved: dict) -> Dataset:
    with open(path) as fh:
        doc = parse_document(fh.read())
    if isinstance(doc, Dataset):
        return doc
    rng = make_rng(resolved["seed"])
    feats = rng.standard_normal((doc.n, resolved["dim"]))
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


# Each command's options: (key, default, type, choices). The flag is
# --key with dashes; a list type [t] takes comma text or a JSON array.
_SBM_OPTIONS = (  # in generate_sbm's argument order
    ("nodes_per_class", 250, int, None), ("edges", 100, int, None),
    ("edge_size", 15, int, None), ("alpha", 1, int, None),
    ("feature_dim", 4, int, None), ("sigma", 1.0, float, None), ("seed", 0, int, None),
)


def _generate_sbm(cfg: dict) -> Dataset:
    return generate_sbm(*(cfg[option[0]] for option in _SBM_OPTIONS))


def _cmd_sbm(args) -> int:
    ds = _generate_sbm(_resolve(args))
    out = _out_dir(args)
    path = os.path.join(out, "dataset.json")
    _write_file(path, dataset_to_json(ds))
    print(f"wrote {path}: n={ds.hypergraph.n} m={ds.hypergraph.m}")
    return 0


_MODULATIONS = ("uniform", "softmax")
_VARIANTS = ("l", "nl")
_DIFFUSE_OPTIONS = (
    ("dataset", None, str, None), ("scheme", "explicit_euler", str, SCHEMES),
    ("tau", 1.0, float, None), ("horizon", None, float, None), ("steps", 4, int, None),
    ("modulation", "uniform", str, _MODULATIONS), ("variant", "l", str, _VARIANTS),
    ("seed", 0, int, None), ("dim", 4, int, None), ("fp_tol", 1e-10, float, None),
    ("fp_max_iter", 100, int, None), ("tol", 1e-6, float, None),
    ("tau_min", 1e-10, float, None), ("dump_states", False, bool, None),
)


def _modulation(cfg: dict, ops, dim: int):
    """The configured modulation: fixed uniform weights, or the softmax
    as a callable ``x -> weights``."""
    if cfg["modulation"] == "softmax":
        return softmax_modulation_fn(AttentionParams.init(dim, cfg["seed"]), ops)
    return uniform_modulation(ops).values


def _cmd_diffuse(args) -> int:
    cfg = _resolve(args)
    if not cfg["dataset"]:
        raise ValueError("diffuse requires a dataset path")
    ds = _load_dataset(cfg["dataset"], cfg)
    ops = as_operators(ds.hypergraph)
    tau = cfg["tau"]
    steps = cfg["steps"] if cfg["horizon"] is None else step_count(cfg["horizon"], tau)
    policy = "frozen" if cfg["variant"] == "l" else "recompute_each_step"
    spec = SolverSpec(
        scheme=cfg["scheme"], tau=tau, steps=steps, modulation_policy=policy,
        fp_tol=cfg["fp_tol"], fp_max_iter=cfg["fp_max_iter"],
        adaptive=AdaptiveSpec(tol=cfg["tol"], tau_init=tau, tau_min=cfg["tau_min"],
                              tau_max=max(tau, 10.0)),
    )
    x0 = ds.features
    a = _modulation(cfg, ops, x0.shape[1])
    traj = integrate(ops, a, x0, spec)
    # evaluate the modulation only at the states where the run did not record it
    a_fn = _weights_fn(ops, a)
    weights = traj.weights + [a_fn(s) for s in traj.states[len(traj.weights):]]
    report = energy_monotonicity(ops, traj, weights)
    bounds = max_principle(ops, traj)
    lam, converged = spectral_radius(ops, weights[0])

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
        "cg_iters": traj.cg_iters,
        "accepted": traj.accepted,
        "rejected": traj.rejected,
    }
    _write_file(os.path.join(out, "diagnostics.json"), json.dumps(diag, sort_keys=True))
    if cfg["dump_states"]:
        _write_file(os.path.join(out, "states.bin"), trajectory_states_to_binary(traj))
    print(f"wrote trajectory.csv and diagnostics.json to {out}")
    return 0


_TRAIN_OPTIONS = (
    ("dataset", None, str, None), ("lr", 0.01, float, None),
    ("weight_decay", 0.0, float, None), ("dropout", 0.0, float, None),
    ("hidden", 64, int, None), ("horizon", 4.0, float, None), ("tau", 1.0, float, None),
    ("variant", "l", str, _VARIANTS), ("scheme", "explicit_euler", str, SCHEMES),
    ("epochs", 200, int, None), ("seed", 0, int, None), ("splits", 5, int, None),
    ("ratios", (0.5, 0.25, 0.25), [float], None),  # config file only
    ("agg", "mean", str, ("mean", "max")), ("standardize", True, bool, None),
    ("noise", None, str, ("gaussian", "uniform", "mask", "structure")),
    ("rates", None, [float], None),
    *_SBM_OPTIONS[:-1],  # the dataset generated when none is given
    ("layers", None, [int], None),
)
# bench-noise is train without the depth sweep, and sweeps structure noise by default
_BENCH_NOISE_OPTIONS = tuple(
    (key, "structure" if key == "noise" else default, kind, choices)
    for key, default, kind, choices in _TRAIN_OPTIONS if key != "layers"
)


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        lr=cfg["lr"], weight_decay=cfg["weight_decay"], input_dropout=cfg["dropout"],
        hidden_dim=cfg["hidden"], horizon=cfg["horizon"], tau=cfg["tau"],
        variant=cfg["variant"], scheme=cfg["scheme"], epochs=cfg["epochs"],
        base_seed=cfg["seed"], split_count=cfg["splits"],
        ratios=tuple(_parse_list(cfg["ratios"])), agg=cfg["agg"],
        standardize=cfg["standardize"],
    )


def _train_dataset(cfg: dict) -> Dataset:
    if cfg["dataset"]:
        with open(cfg["dataset"]) as fh:
            return parse_dataset(fh.read())
    return _generate_sbm(cfg)


def _report_json(report) -> dict:
    return json.loads(report.to_json())


# (option, other, whether the option needs the other): the depth sweep ignores
# the noise options, and only a noise sweep reads the rates
_SWEEP_RULES = (("layers", "noise", False), ("layers", "rates", False), ("rates", "noise", True))


def _cmd_train(args) -> int:
    cfg = {"layers": None, **_resolve(args)}  # bench-noise echoes "layers": null
    for key, other, needs in _SWEEP_RULES:  # exit 2 rather than echo an ignored option
        if cfg[key] is not None and (cfg[other] is not None) != needs:
            raise ValueError(f"option {key!r} {'needs' if needs else 'excludes'} option "
                             f"{other!r}; train would ignore one of them")
    workers = _max_workers()
    ds = _train_dataset(cfg)
    config = _train_config(cfg)
    t0 = time.perf_counter()

    if cfg["layers"] is not None:
        layer_counts = _parse_list(cfg["layers"], int)
        results = depth_sweep(ds, config, layer_counts, max_workers=workers)
        body = {
            "command": "depth_sweep",
            "points": [
                {"layers": r["layers"], "report": _report_json(r["report"])}
                for r in results
            ],
        }
    elif cfg["noise"] is not None:
        rates = _parse_list(cfg["rates"] or "0.1,0.2,0.3,0.4")
        results = noise_sweep(ds, config, cfg["noise"], rates, max_workers=workers)
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

    out = _out_dir(args)
    _write_file(os.path.join(out, "metrics.json"), json.dumps(body, sort_keys=True))
    _write_file(os.path.join(out, "timing.json"),
                json.dumps({"wall_time_s": time.perf_counter() - t0}))
    print(f"wrote metrics.json to {out}")
    return 0


_BENCH_SOLVER_OPTIONS = (
    ("taus", "0.4,0.2,0.1,0.05", [float], None), ("tols", "1e-4,1e-6", [float], None),
    ("horizon", 2.0, float, None), ("seed", 0, int, None), ("dim", 3, int, None),
)


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
    cfg = _resolve(args)
    taus = _parse_list(cfg["taus"])
    tols = _parse_list(cfg["tols"])
    horizon = cfg["horizon"]
    # a convergence slope needs two distinct step sizes to fit a line through
    if not (len(set(taus)) >= 2 and all(0 < tau < np.inf for tau in taus)):
        raise ValueError("taus must list at least two distinct finite positive step sizes,"
                         f" got {cfg['taus']!r}")
    steps = [step_count(horizon, tau) for tau in taus]
    ops, a, x0 = _bench_case(cfg["seed"], cfg["dim"])
    ref = _expm_reference(ops, a, x0, horizon)

    t0 = time.perf_counter()
    schemes = ("explicit_euler", "implicit_euler", "rk4", "ab4", "am4")

    def run_row(scheme):
        errors = []
        evals = []
        for tau, n_steps in zip(taus, steps):
            spec = SolverSpec(scheme=scheme, tau=tau, steps=n_steps,
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


_SPECTRUM_OPTIONS = (
    ("dataset", None, str, None), ("modulation", "uniform", str, _MODULATIONS),
    ("seed", 0, int, None), ("dim", 4, int, None), ("iters", 500, int, None),
    ("tol", 1e-12, float, None),
)


def _cmd_spectrum(args) -> int:
    cfg = _resolve(args)
    if not cfg["dataset"]:
        raise ValueError("spectrum requires a dataset path")
    ds = _load_dataset(cfg["dataset"], cfg)
    ops = as_operators(ds.hypergraph)
    a = _weights_fn(ops, _modulation(cfg, ops, ds.features.shape[1]))(ds.features)
    lam, converged = spectral_radius(ops, a, iters=cfg["iters"], tol=cfg["tol"])
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


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hnd", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse and validate a hypergraph document")
    v.add_argument("path")
    v.set_defaults(fn=_cmd_validate)

    for name, help_text, fn, options in (
        ("sbm", "generate a synthetic two-class dataset", _cmd_sbm, _SBM_OPTIONS),
        ("diffuse", "integrate the diffusion flow and report diagnostics",
         _cmd_diffuse, _DIFFUSE_OPTIONS),
        ("train", "train and evaluate over seeded splits", _cmd_train, _TRAIN_OPTIONS),
        ("bench-noise", "accuracy-versus-noise-rate curve", _cmd_train, _BENCH_NOISE_OPTIONS),
        ("bench-solver", "integrator convergence against the matrix exponential",
         _cmd_bench_solver, _BENCH_SOLVER_OPTIONS),
        ("spectrum", "spectral radius of the modulated operator",
         _cmd_spectrum, _SPECTRUM_OPTIONS),
    ):
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(fn=fn, options=options)
        s.add_argument("--config")
        for key, default, kind, choices in options:
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                s.add_argument(flag, action="store_const", const=True)
                if default:
                    s.add_argument("--no-" + flag[2:], dest=key, action="store_const", const=False)
            elif key != "ratios":  # ratios is config-only; list flags keep their comma text
                s.add_argument(flag, type=None if isinstance(kind, list) else kind, choices=choices)
        s.add_argument("--out")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    except (NoConvergence, StepUnderflow) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}: the values left the finite"
              " range; explicit steps are stable only for tau * rho(G^T A G) <= 2",
              file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (HndError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
