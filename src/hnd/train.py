"""Semi-supervised training protocol: splits, Adam, sweeps, metrics.

A run trains full-graph on the train mask, scores the parameters after
every epoch's update on the validation mask, selects the epoch with the
best validation accuracy (ties to the earliest), and reports test
accuracy of the selected parameters. Each split's record carries the
per-epoch training losses and validation accuracies. Without input
dropout, the validation scores come from the next epoch's loss pass,
so one split runs a single extra forward pass. Results aggregate over k
seeded splits as mean and sample standard deviation.

Every random choice derives from ``base_seed`` through documented
offsets, so identical configs reproduce identical reports bit for bit.
Wall-clock timings are recorded on the report object but excluded from
its JSON body to keep output files reproducible.
"""

from __future__ import annotations

import contextvars
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .errors import InvalidRatios
from .hypergraph import Dataset
from .model import ModelParams, forward, loss_and_gradients
from .rng import make_rng
from .solvers import SolverSpec, step_count
from .synth import perturb_features, perturb_structure

# seed derivation offsets (documented; arbitrary large primes)
PARAM_SEED_OFFSET = 104729
DROPOUT_SEED_OFFSET = 15485863


@dataclass(frozen=True)
class SplitMasks:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def _ratio_sizes(n: int, ratios) -> list[int]:
    """Floor each share, then hand out the remainder by largest fraction."""
    shares = [r * n for r in ratios]
    sizes = [int(np.floor(s)) for s in shares]
    remainder = n - sum(sizes)
    fracs = sorted(range(len(ratios)), key=lambda i: (-(shares[i] - sizes[i]), i))
    for i in range(remainder):
        sizes[fracs[i % len(sizes)]] += 1
    return sizes


def make_splits(n: int, ratios, base_seed: int, k: int) -> list[SplitMasks]:
    """k deterministic train/val/test partitions; split i uses seed base_seed + i.

    Raises InvalidRatios unless all three sets are non-empty.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidRatios(f"ratios must be three non-negatives summing to 1, got {ratios}")
    if k < 1:
        raise InvalidRatios("need at least one split")
    sizes = _ratio_sizes(n, ratios)
    if min(sizes) == 0:
        raise InvalidRatios(
            f"ratios {ratios} leave an empty train, validation or test set of {n} nodes: "
            f"sizes {sizes}"
        )
    out = []
    for i in range(k):
        perm = make_rng(base_seed + i).permutation(n)
        masks = []
        start = 0
        for size in sizes:
            m = np.zeros(n, dtype=bool)
            m[perm[start:start + size]] = True
            masks.append(m)
            start += size
        out.append(SplitMasks(train=masks[0], val=masks[1], test=masks[2]))
    return out


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        size = params.to_vector().size
        return cls(step=0, m=np.zeros(size), v=np.zeros(size))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float = 0.01, betas=(0.9, 0.999), eps: float = 1e-8,
              weight_decay: float = 0.0) -> tuple[ModelParams, AdamState]:
    """Bias-corrected Adam update on the flattened parameter vector.

    ``weight_decay`` here adds an L2 term to the incoming gradient; pass
    zero when the gradient already contains the penalty (as
    loss_and_gradients does) to avoid double counting.
    """
    p = params.to_vector()
    g = grads.to_vector()
    if weight_decay != 0.0:
        g = g + weight_decay * p
    t = state.step + 1
    b1, b2 = betas
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params.from_vector(p), AdamState(step=t, m=m, v=v)


@dataclass
class TrainConfig:
    """Protocol knobs; defaults follow the desk-scale setup."""

    lr: float = 0.01
    weight_decay: float = 0.0
    input_dropout: float = 0.0
    hidden_dim: int = 64
    horizon: float = 4.0
    tau: float = 1.0
    variant: str = "l"
    scheme: str = "explicit_euler"
    epochs: int = 200
    base_seed: int = 0
    split_count: int = 5
    ratios: tuple = (0.5, 0.25, 0.25)
    agg: str = "mean"
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    standardize: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        step_count(self.horizon, self.tau)  # a ValueError naming tau or horizon
        if self.variant not in ("l", "nl"):
            raise ValueError(f"variant must be 'l' or 'nl', got {self.variant!r}")
        if not 0.0 <= self.input_dropout < 1.0:
            raise ValueError("input_dropout must lie in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay!r}")

    @property
    def steps(self) -> int:
        return step_count(self.horizon, self.tau)

    def solver_spec(self) -> SolverSpec:
        return SolverSpec(scheme=self.scheme, tau=self.tau, steps=self.steps)


@dataclass
class MetricsReport:
    config: dict
    per_split: list
    mean_test_accuracy: float
    std_test_accuracy: float
    wall_times: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "library_version": __version__,
                "config": self.config,
                "per_split": self.per_split,
                "mean_test_accuracy": self.mean_test_accuracy,
                "std_test_accuracy": self.std_test_accuracy,
            },
            sort_keys=True,
        )


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    pred = logits.argmax(axis=1)
    return float((pred[mask] == labels[mask]).mean())


def train_single_split(dataset: Dataset, config: TrainConfig, masks: SplitMasks,
                       split_index: int) -> dict:
    """Train one split; returns the per-split result record.

    Epoch e's updated parameters are scored on the validation mask from
    the logits of epoch e + 1's loss pass, which equal ``forward``'s
    when there is no input dropout; with dropout, and for the last
    epoch, ``forward`` scores them. The selected epoch's logits give the
    test accuracy.
    """
    spec = config.solver_spec()
    params = ModelParams.init(
        dataset.features.shape[1], config.hidden_dim, dataset.class_count,
        seed=config.base_seed + PARAM_SEED_OFFSET + split_index,
    )
    state = AdamState.init(params)
    best = (-1.0, 0, None)  # (val acc, epoch, logits)
    losses, val_accs = [], []

    def score(logits):
        nonlocal best
        val_accs.append(accuracy(logits, dataset.labels, masks.val))
        if val_accs[-1] > best[0]:
            best = (val_accs[-1], len(val_accs) - 1, logits)

    for epoch in range(config.epochs):
        loss, grads, logits = loss_and_gradients(
            params, dataset, masks.train, spec, config.variant,
            weight_decay=config.weight_decay,
            input_dropout=config.input_dropout,
            dropout_seed=config.base_seed + DROPOUT_SEED_OFFSET
            + 1000003 * split_index + epoch,
            agg=config.agg,
        )
        if epoch > 0:
            if config.input_dropout > 0.0:
                logits = forward(params, dataset, spec, config.variant, agg=config.agg)
            score(logits)
        params, state = adam_step(params, grads, state, lr=config.lr,
                                  betas=config.betas, eps=config.eps)
        losses.append(loss)
    score(forward(params, dataset, spec, config.variant, agg=config.agg))
    return {
        "split": split_index,
        "val_accuracy": best[0],
        "best_epoch": best[1],
        "test_accuracy": accuracy(best[2], dataset.labels, masks.test),
        "train_losses": losses,
        "val_accuracies": val_accs,
    }


def standardize_features(dataset: Dataset) -> Dataset:
    """Per-column z-scoring of input features (transductive statistics).

    The encoder and decoder carry no bias terms, so centered inputs are
    what lets a linear decision boundary through the origin match an
    affine one.
    """
    X = dataset.features
    mu = X.mean(axis=0)
    sd = np.maximum(X.std(axis=0), 1e-12)
    return replace(dataset, features=(X - mu) / sd)


def train_and_evaluate(dataset: Dataset, config: TrainConfig) -> MetricsReport:
    """Full protocol: k splits, per-split training, aggregated accuracy."""
    if config.standardize:
        dataset = standardize_features(dataset)
    n = dataset.hypergraph.n
    splits = make_splits(n, config.ratios, config.base_seed, config.split_count)
    per_split = []
    wall = []
    for i, masks in enumerate(splits):
        t0 = time.perf_counter()
        per_split.append(train_single_split(dataset, config, masks, i))
        wall.append(time.perf_counter() - t0)
    accs = np.array([r["test_accuracy"] for r in per_split])
    std = float(accs.std(ddof=1)) if accs.size > 1 else 0.0
    return MetricsReport(
        config=asdict(config),
        per_split=per_split,
        mean_test_accuracy=float(accs.mean()),
        std_test_accuracy=std,
        wall_times=wall,
    )


def run_points(fn, items, max_workers: int) -> list:
    """Evaluate independent sweep points, optionally across worker threads.

    Results keep the submission order, so fan-out does not change output.
    Each point runs in a copy of the caller's context, so a worker keeps
    the caller's ``np.errstate`` (a context variable in numpy 2).
    """
    if max_workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, x) for x in items]
        return [f.result() for f in futures]


def depth_sweep(dataset: Dataset, config: TrainConfig, layer_counts,
                max_workers: int = 1) -> list:
    """train_and_evaluate at each depth L with horizon L * tau, fixed splits."""
    def point(layers):
        cfg = replace(config, horizon=layers * config.tau)
        return {"layers": int(layers), "report": train_and_evaluate(dataset, cfg)}

    return run_points(point, list(layer_counts), max_workers)


def noise_sweep(dataset: Dataset, config: TrainConfig, kind: str, rates,
                noise_seed: int = 1234, max_workers: int = 1) -> list:
    """Accuracy-versus-rate curve for feature or structure perturbations."""
    if kind not in ("structure", "gaussian", "uniform", "mask"):
        raise ValueError(f"unknown noise kind {kind!r}")

    def point(rate):
        rate = float(rate)
        if kind == "structure":
            noisy = replace(dataset, hypergraph=perturb_structure(
                dataset.hypergraph, rate, noise_seed))
        else:
            noisy = replace(dataset, features=perturb_features(
                dataset.features, kind, rate, noise_seed))
        return {"rate": rate, "report": train_and_evaluate(noisy, config)}

    return run_points(point, list(rates), max_workers)
