import json

import numpy as np
import pytest

from hnd.errors import InvalidRatios
from hnd.model import ModelParams, forward, loss_and_gradients
from hnd.synth import generate_sbm
from hnd.train import (
    DROPOUT_SEED_OFFSET,
    PARAM_SEED_OFFSET,
    AdamState,
    TrainConfig,
    accuracy,
    adam_step,
    depth_sweep,
    make_splits,
    noise_sweep,
    standardize_features,
    train_and_evaluate,
    train_single_split,
)


def test_make_splits_sizes():
    masks = make_splits(100, (0.5, 0.25, 0.25), base_seed=0, k=3)
    assert len(masks) == 3
    for m in masks:
        assert m.train.sum() == 50 and m.val.sum() == 25 and m.test.sum() == 25


def test_make_splits_disjoint_covering():
    for m in make_splits(97, (0.5, 0.25, 0.25), base_seed=5, k=4):
        combined = m.train.astype(int) + m.val.astype(int) + m.test.astype(int)
        assert np.array_equal(combined, np.ones(97, dtype=int))


def test_make_splits_floor_then_distribute():
    m = make_splits(7, (0.5, 0.25, 0.25), base_seed=0, k=1)[0]
    # floors (3,1,1); remainder 2 goes to the largest fractional parts
    assert (m.train.sum(), m.val.sum(), m.test.sum()) == (3, 2, 2)


def test_make_splits_deterministic():
    a = make_splits(50, (0.5, 0.25, 0.25), base_seed=9, k=2)
    b = make_splits(50, (0.5, 0.25, 0.25), base_seed=9, k=2)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.train, mb.train)
        assert np.array_equal(ma.val, mb.val)
        assert np.array_equal(ma.test, mb.test)
    c = make_splits(50, (0.5, 0.25, 0.25), base_seed=10, k=1)[0]
    assert not np.array_equal(a[0].train, c.train)


def test_make_splits_invalid_ratios():
    with pytest.raises(InvalidRatios):
        make_splits(10, (0.5, 0.2, 0.2), base_seed=0, k=1)
    with pytest.raises(InvalidRatios):
        make_splits(10, (0.5, -0.25, 0.75), base_seed=0, k=1)
    with pytest.raises(InvalidRatios):
        make_splits(10, (0.5, 0.25, 0.25), base_seed=0, k=0)


@pytest.mark.parametrize(
    "n,ratios",
    [(10, (0.5, 0.5, 0.0)), (10, (0.5, 0.0, 0.5)), (10, (0.0, 0.5, 0.5)), (3, (0.8, 0.1, 0.1))],
)
def test_make_splits_rejects_empty_sets(n, ratios):
    with pytest.raises(InvalidRatios):
        make_splits(n, ratios, base_seed=0, k=1)


def test_adam_zero_gradients_noop():
    params = ModelParams.init(3, 4, 2, seed=1)
    state = AdamState.init(params)
    new, _ = adam_step(params, params.zeros_like(), state, lr=0.05)
    assert np.array_equal(new.to_vector(), params.to_vector())


def test_adam_first_step_is_signed_lr():
    params = ModelParams.init(3, 4, 2, seed=2)
    grads = params.from_vector(np.random.default_rng(0).standard_normal(params.to_vector().size))
    state = AdamState.init(params)
    lr, eps = 0.01, 1e-8
    new, state = adam_step(params, grads, state, lr=lr, eps=eps)
    g = grads.to_vector()
    expected = params.to_vector() - lr * g / (np.abs(g) + eps)
    assert np.allclose(new.to_vector(), expected, atol=1e-12)
    assert state.step == 1


def test_adam_weight_decay_arg():
    params = ModelParams.init(3, 4, 2, seed=3)
    state = AdamState.init(params)
    new, _ = adam_step(params, params.zeros_like(), state, lr=0.01, weight_decay=0.1)
    # decay contributes g = 0.1 * p, so params move opposite their sign
    moved = params.to_vector() - new.to_vector()
    nonzero = np.abs(params.to_vector()) > 1e-12
    assert np.all(np.sign(moved[nonzero]) == np.sign(params.to_vector()[nonzero]))


def test_adam_deterministic():
    params = ModelParams.init(3, 4, 2, seed=4)
    grads = params.from_vector(np.ones(params.to_vector().size))
    s1 = AdamState.init(params)
    s2 = AdamState.init(params)
    p1, s1 = adam_step(params, grads, s1)
    p2, s2 = adam_step(params, grads, s2)
    assert np.array_equal(p1.to_vector(), p2.to_vector())
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)


def small_sbm(alpha=1, seed=17):
    return generate_sbm(40, 40, 5, alpha, 3, 1.0, seed=seed)


def test_train_degenerate_run():
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=1, split_count=1)
    report = train_and_evaluate(ds, cfg)
    assert len(report.per_split) == 1
    acc = report.per_split[0]["test_accuracy"]
    assert 0.0 <= acc <= 1.0
    assert report.std_test_accuracy == 0.0
    assert len(report.wall_times) == 1


def test_train_deterministic():
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=5, split_count=2)
    r1 = train_and_evaluate(ds, cfg)
    r2 = train_and_evaluate(ds, cfg)
    assert r1.to_json() == r2.to_json()


def test_train_loss_decreases_early():
    ds = small_sbm(alpha=1)
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=10, split_count=1)
    report = train_and_evaluate(ds, cfg)
    losses = report.per_split[0]["train_losses"]
    violations = sum(1 for i in range(1, len(losses)) if losses[i] > losses[i - 1])
    assert violations <= 2


def test_report_json_excludes_wall_times():
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=1.0, tau=1.0, epochs=1, split_count=1)
    report = train_and_evaluate(ds, cfg)
    obj = json.loads(report.to_json())
    assert "wall_times" not in json.dumps(obj)
    assert obj["config"]["hidden_dim"] == 8
    assert "library_version" in obj


def test_train_single_split_builds_one_workspace(monkeypatch):
    from hnd import operators

    builds = {"k": 0}
    init = operators.HypergraphOperators.__init__

    def counted(self, hg):
        builds["k"] += 1
        init(self, hg)

    monkeypatch.setattr(operators.HypergraphOperators, "__init__", counted)
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=3, split_count=1)
    train_single_split(ds, cfg, make_splits(ds.hypergraph.n, cfg.ratios, 0, 1)[0], 0)
    assert builds["k"] == 1


def reference_split(ds, cfg, masks, split_index):
    """One split trained with a full forward pass after every epoch's update."""
    spec = cfg.solver_spec()
    params = ModelParams.init(ds.features.shape[1], cfg.hidden_dim, ds.class_count,
                              seed=cfg.base_seed + PARAM_SEED_OFFSET + split_index)
    state = AdamState.init(params)
    best = (-1.0, 0, params.to_vector())
    losses, val_accs = [], []
    for epoch in range(cfg.epochs):
        loss, grads, _ = loss_and_gradients(
            params, ds, masks.train, spec, cfg.variant, weight_decay=cfg.weight_decay,
            input_dropout=cfg.input_dropout,
            dropout_seed=cfg.base_seed + DROPOUT_SEED_OFFSET + 1000003 * split_index + epoch,
            agg=cfg.agg,
        )
        params, state = adam_step(params, grads, state, lr=cfg.lr, betas=cfg.betas, eps=cfg.eps)
        losses.append(loss)
        logits = forward(params, ds, spec, cfg.variant, agg=cfg.agg)
        val_accs.append(accuracy(logits, ds.labels, masks.val))
        if val_accs[-1] > best[0]:
            best = (val_accs[-1], epoch, params.to_vector())
    logits = forward(params.from_vector(best[2]), ds, spec, cfg.variant, agg=cfg.agg)
    return {"split": split_index, "val_accuracy": best[0], "best_epoch": best[1],
            "test_accuracy": accuracy(logits, ds.labels, masks.test),
            "train_losses": losses, "val_accuracies": val_accs}


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("variant,agg", [("l", "mean"), ("nl", "max")])
def test_train_single_split_matches_forward_every_epoch(dropout, variant, agg):
    ds = standardize_features(small_sbm(alpha=2))
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=12, split_count=2,
                      variant=variant, agg=agg, input_dropout=dropout, weight_decay=0.01)
    masks = make_splits(ds.hypergraph.n, cfg.ratios, cfg.base_seed, 2)
    for i, m in enumerate(masks):
        record = train_single_split(ds, cfg, m, i)
        assert record == reference_split(ds, cfg, m, i)
        accs = record["val_accuracies"]
        assert len(accs) == cfg.epochs
        assert record["best_epoch"] == accs.index(max(accs))


@pytest.mark.parametrize("dropout,forwards", [(0.0, 1), (0.3, 6)])
def test_train_single_split_forward_calls(monkeypatch, dropout, forwards):
    from hnd import train

    calls = {"k": 0}

    def counted(*args, **kwargs):
        calls["k"] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(train, "forward", counted)
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=6, split_count=1,
                      input_dropout=dropout)
    train_single_split(ds, cfg, make_splits(ds.hypergraph.n, cfg.ratios, 0, 1)[0], 0)
    assert calls["k"] == forwards


def test_depth_sweep_includes_zero_anchor():
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, tau=1.0, epochs=3, split_count=1)
    points = depth_sweep(ds, cfg, [0, 2])
    assert [p["layers"] for p in points] == [0, 2]
    zero = points[0]["report"]
    assert zero.config["horizon"] == 0.0


def test_noise_sweep_rate_zero_matches_clean():
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=3, split_count=1)
    clean = train_and_evaluate(ds, cfg)
    for kind in ("gaussian", "uniform", "mask"):
        points = noise_sweep(ds, cfg, kind, [0.0])
        assert points[0]["report"].to_json() == clean.to_json()


def test_noise_trend_mask_vs_gaussian_logged():
    # observed trend, reported but not gated: masking tends to hurt less
    # than additive gaussian noise at the same rate
    ds = small_sbm()
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=20, split_count=2)
    masked = noise_sweep(ds, cfg, "mask", [0.3])[0]["report"].mean_test_accuracy
    gauss = noise_sweep(ds, cfg, "gaussian", [0.3])[0]["report"].mean_test_accuracy
    trend = "holds" if masked >= gauss else "violated"
    print(f"\n[logged, non-gating] mask@0.3={masked:.3f} gaussian@0.3={gauss:.3f} "
          f"-> trend {trend}")


def test_noise_sweep_structure_runs():
    ds = generate_sbm(40, 120, 5, 1, 3, 1.0, seed=3)
    cfg = TrainConfig(hidden_dim=8, horizon=2.0, tau=1.0, epochs=2, split_count=1)
    points = noise_sweep(ds, cfg, "structure", [0.1, 0.2])
    assert len(points) == 2
    for p in points:
        assert 0.0 <= p["report"].mean_test_accuracy <= 1.0


def test_standardize_features_centers_columns():
    ds = small_sbm()
    out = standardize_features(ds)
    assert np.abs(out.features.mean(axis=0)).max() <= 1e-12
    assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(variant="x")
    with pytest.raises(ValueError):
        TrainConfig(input_dropout=1.0)


def test_train_config_rejects_degenerate_optimizer_settings():
    nan = float("nan")
    for kwargs, field in (({"lr": nan}, "lr"), ({"lr": 0.0}, "lr"), ({"lr": float("inf")}, "lr"),
                          ({"weight_decay": nan}, "weight_decay"),
                          ({"weight_decay": -1.0}, "weight_decay")):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(**kwargs)
