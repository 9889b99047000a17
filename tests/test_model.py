import numpy as np
import pytest

from hnd.errors import ShapeMismatch, UnsupportedSchemeForTraining
from hnd.hypergraph import Dataset, Hypergraph
from hnd.model import ModelParams, _dropout_mask, forward, loss_and_gradients
from hnd.modulation import (
    normalize_modulation,
    scores_backward,
    scores_forward,
    softmax_backward,
)
from hnd.operators import HypergraphOperators, as_operators
from hnd.rng import make_rng
from hnd.solvers import SolverSpec, integrate, step_explicit_euler

from conftest import random_dataset, random_hypergraph


def small_instance(seed=0, d_in=5, hidden=4, classes=3, steps=2, tau=0.7):
    ds = random_dataset(seed, d_in=d_in, classes=classes, n_max=14, m_max=10, size_max=5)
    params = ModelParams.init(d_in, hidden, classes, seed=seed + 50)
    spec = SolverSpec(scheme="explicit_euler", tau=tau, steps=steps)
    rng = make_rng(seed + 99)
    mask = np.zeros(ds.hypergraph.n, dtype=bool)
    mask[rng.choice(ds.hypergraph.n, ds.hypergraph.n // 2, replace=False)] = True
    return ds, params, spec, mask


def test_forward_zero_steps_is_linear():
    ds, params, _, _ = small_instance()
    spec = SolverSpec(scheme="explicit_euler", tau=1.0, steps=0)
    logits = forward(params, ds, spec, "l")
    assert np.allclose(logits, ds.features @ params.w_in @ params.w_out, atol=1e-14)


def test_forward_one_layer_is_composition():
    ds, params, _, _ = small_instance()
    ops = HypergraphOperators(ds.hypergraph)
    spec = SolverSpec(scheme="explicit_euler", tau=0.5, steps=1)
    logits = forward(params, ds, spec, "l")

    x0 = ds.features @ params.w_in
    s, _ = scores_forward(params.attention, x0, ops)
    a = normalize_modulation(s, ops).values
    manual = step_explicit_euler(ops, a, x0, 0.5) @ params.w_out
    assert np.allclose(logits, manual, atol=1e-13)


def test_forward_variants_agree_at_equilibrium():
    # encoded state in the diffusion null space: policy cannot matter
    hg = random_hypergraph(3)
    ops = HypergraphOperators(hg)
    X_in = ops.sqrt_d.reshape(-1, 1)
    ds = Dataset(hypergraph=hg, features=X_in,
                 labels=np.zeros(hg.n, dtype=np.int64), class_count=1)
    params = ModelParams.init(1, 4, 1, seed=2)
    spec = SolverSpec(scheme="explicit_euler", tau=1.0, steps=6)
    out_l = forward(params, ds, spec, "l")
    out_nl = forward(params, ds, spec, "nl")
    assert np.allclose(out_l, out_nl, atol=1e-12)
    assert np.allclose(out_l, X_in @ params.w_in @ params.w_out, atol=1e-12)


def test_forward_hidden_range_preserved():
    from hnd.diagnostics import max_principle
    from hnd.solvers import integrate

    ds, params, _, _ = small_instance(seed=8, steps=0)
    ops = HypergraphOperators(ds.hypergraph)
    x0 = ds.features @ params.w_in
    s, _ = scores_forward(params.attention, x0, ops)
    a = normalize_modulation(s, ops).values
    traj = integrate(ops, a, x0, SolverSpec(scheme="explicit_euler", tau=1.0,
                                            steps=30, modulation_policy="frozen"))
    assert max_principle(ops, traj).max_violation <= 1e-9


def test_forward_inference_schemes_run():
    ds, params, _, _ = small_instance()
    for scheme in ("implicit_euler", "rk4", "ab4", "am4", "adaptive"):
        spec = SolverSpec(scheme=scheme, tau=0.25, steps=4)
        logits = forward(params, ds, spec, "nl")
        assert logits.shape == (ds.hypergraph.n, 3)
        assert np.isfinite(logits).all()


def test_forward_shape_mismatch():
    ds, params, spec, _ = small_instance()
    bad = Dataset(hypergraph=ds.hypergraph, features=np.zeros((ds.hypergraph.n, 9)),
                  labels=ds.labels, class_count=ds.class_count)
    with pytest.raises(ShapeMismatch):
        forward(params, bad, spec, "l")


@pytest.mark.parametrize("variant", ["l", "nl"])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_loss_and_gradients_shape_mismatch(variant, dropout):
    # 9 feature columns against a 5-row encoder, as in forward's check
    ds, params, spec, mask = small_instance()
    bad = Dataset(hypergraph=ds.hypergraph, features=np.zeros((ds.hypergraph.n, 9)),
                  labels=ds.labels, class_count=ds.class_count)
    with pytest.raises(ShapeMismatch, match="9 columns, encoder expects 5"):
        loss_and_gradients(params, bad, mask, spec, variant, input_dropout=dropout)


def test_loss_uniform_logits_is_log_classcount():
    ds, params, spec, mask = small_instance()
    params.w_out[:] = 0.0  # forces logits == 0 -> uniform softmax
    loss, _, _ = loss_and_gradients(params, ds, mask, spec, "l", weight_decay=0.0)
    assert abs(loss - np.log(3)) <= 1e-12
    wd = 0.01
    loss_wd, _, _ = loss_and_gradients(params, ds, mask, spec, "l", weight_decay=wd)
    pvec = params.to_vector()
    assert abs(loss_wd - (np.log(3) + 0.5 * wd * pvec @ pvec)) <= 1e-12


def test_training_rejects_other_schemes():
    ds, params, _, mask = small_instance()
    with pytest.raises(UnsupportedSchemeForTraining):
        loss_and_gradients(params, ds, mask,
                           SolverSpec(scheme="rk4", tau=0.5, steps=2), "l")


def test_zero_features_zero_attention_gives_zero_encoder_grad():
    ds, params, spec, mask = small_instance()
    ds = Dataset(hypergraph=ds.hypergraph,
                 features=np.zeros_like(ds.features),
                 labels=ds.labels, class_count=ds.class_count)
    params.attention = params.attention.zeros_like()
    _, grads, _ = loss_and_gradients(params, ds, mask, spec, "l")
    assert np.abs(grads.w_in).max() == 0.0


@pytest.mark.parametrize("variant", ["l", "nl"])
@pytest.mark.parametrize("agg", ["mean", "max"])
def test_gradcheck_small(variant, agg):
    ds, params, spec, mask = small_instance(seed=11)
    loss, grads, _ = loss_and_gradients(params, ds, mask, spec, variant,
                                     weight_decay=0.013, agg=agg)
    gvec = grads.to_vector()
    pvec = params.to_vector()
    h = 1e-5
    rng = make_rng(77)
    coords = rng.choice(pvec.size, size=40, replace=False)
    for i in coords:
        pp = pvec.copy(); pp[i] += h
        pm = pvec.copy(); pm[i] -= h
        lp, _, _ = loss_and_gradients(params.from_vector(pp), ds, mask, spec, variant,
                                   weight_decay=0.013, agg=agg)
        lm, _, _ = loss_and_gradients(params.from_vector(pm), ds, mask, spec, variant,
                                   weight_decay=0.013, agg=agg)
        fd = (lp - lm) / (2 * h)
        assert abs(gvec[i] - fd) <= 1e-5 * max(abs(fd), 1e-8)


@pytest.mark.parametrize("variant", ["l", "nl"])
@pytest.mark.parametrize("agg", ["mean", "max"])
@pytest.mark.parametrize("steps", [0, 3])
def test_loss_pass_logits_equal_forward(variant, agg, steps):
    # training scores each epoch from these logits instead of calling forward
    ds, params, _, mask = small_instance(seed=13)
    spec = SolverSpec(scheme="explicit_euler", tau=0.6, steps=steps)
    _, _, logits = loss_and_gradients(params, ds, mask, spec, variant,
                                      weight_decay=0.01, agg=agg)
    assert np.array_equal(logits, forward(params, ds, spec, variant, agg=agg))


def _hidden_space_l_gradients(params, ds, mask, spec, weight_decay, input_dropout,
                              dropout_seed, agg):
    """Reference l gradient vector: the adjoint carried at the hidden width."""
    ops = as_operators(ds.hypergraph)
    X_in = ds.features
    if input_dropout > 0.0:
        X_in = X_in * _dropout_mask(X_in.shape, input_dropout, dropout_seed)
    x = X_in @ params.w_in
    s, cache = scores_forward(params.attention, x, ops, agg)
    a = normalize_modulation(s, ops).values
    gxs = []
    for _ in range(spec.steps):
        gxs.append(ops.grad_scaled(x))
        x = x - spec.tau * ops.grad_scaled_t(gxs[-1], a=a)
    logits = x @ params.w_out
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(ds.hypergraph.n), ds.labels] -= 1.0
    dlogits = np.where(mask[:, None], probs, 0.0) / mask.sum()
    dX = dlogits @ params.w_out.T
    da = np.zeros(ops.N)
    for k in range(spec.steps - 1, -1, -1):
        gd = ops.grad_scaled(dX)
        da -= spec.tau * np.einsum("ij,ij->i", gd, gxs[k])
        dX = dX - spec.tau * ops.grad_scaled_t(gd, a=a)
    g_att, dX_mod = scores_backward(params.attention, ops, cache, softmax_backward(a, ops, da))
    grads = ModelParams(w_in=X_in.T @ (dX + dX_mod), attention=g_att, w_out=x.T @ dlogits)
    return grads.to_vector() + weight_decay * params.to_vector()


@pytest.mark.parametrize("steps", [0, 1, 5])
@pytest.mark.parametrize("agg", ["mean", "max"])
@pytest.mark.parametrize("weight_decay, input_dropout", [(0.0, 0.0), (0.013, 0.3)])
def test_l_class_space_adjoint_matches_hidden_space(steps, agg, weight_decay, input_dropout):
    ds, params, _, mask = small_instance(seed=17, hidden=6, classes=3)
    spec = SolverSpec(scheme="explicit_euler", tau=0.8, steps=steps)
    kwargs = dict(weight_decay=weight_decay, input_dropout=input_dropout,
                  dropout_seed=4, agg=agg)
    _, grads, _ = loss_and_gradients(params, ds, mask, spec, "l", **kwargs)
    ref = _hidden_space_l_gradients(params, ds, mask, spec, **kwargs)
    assert np.abs(grads.to_vector() - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("hidden", [1, 2])
@pytest.mark.parametrize("agg", ["mean", "max"])
def test_l_gradcheck_more_classes_than_hidden(hidden, agg):
    ds, params, spec, mask = small_instance(seed=23, hidden=hidden, classes=3, steps=4)
    _, grads, _ = loss_and_gradients(params, ds, mask, spec, "l", weight_decay=0.01, agg=agg)
    gvec = grads.to_vector()
    pvec = params.to_vector()
    h = 1e-5
    for i in range(pvec.size):
        pp = pvec.copy(); pp[i] += h
        pm = pvec.copy(); pm[i] -= h
        lp, _, _ = loss_and_gradients(params.from_vector(pp), ds, mask, spec, "l",
                                      weight_decay=0.01, agg=agg)
        lm, _, _ = loss_and_gradients(params.from_vector(pm), ds, mask, spec, "l",
                                      weight_decay=0.01, agg=agg)
        fd = (lp - lm) / (2 * h)
        assert abs(gvec[i] - fd) <= 1e-5 * max(abs(fd), 1e-8), i


def _euler_step_widths(monkeypatch, variant, hidden, classes, steps):
    """The widths of the Euler steps one loss pass makes, and its count of the two applies."""
    ds, params, _, mask = small_instance(seed=5, hidden=hidden, classes=classes)
    spec = SolverSpec(scheme="explicit_euler", tau=0.5, steps=steps)
    ops = as_operators(ds.hypergraph)
    seen = {"euler_step": [], "grad_scaled": [], "grad_scaled_t": []}
    for name, log in seen.items():
        def counted(y, *args, _apply=getattr(ops, name), _log=log, **kwargs):
            _log.append(y.shape[1])
            return _apply(y, *args, **kwargs)
        monkeypatch.setattr(ops, name, counted)
    loss_and_gradients(params, ds, mask, spec, variant)
    return seen["euler_step"], len(seen["grad_scaled"]) + len(seen["grad_scaled_t"])


def test_l_adjoint_applies_run_on_class_columns(monkeypatch):
    # the l loss pass makes steps forward and steps adjoint Euler steps, on C columns only
    widths, applies = _euler_step_widths(monkeypatch, "l", hidden=6, classes=3, steps=4)
    assert widths == [3] * (2 * 4) and applies == 0


def test_nl_euler_steps_run_on_the_hidden_width(monkeypatch):
    # nl rescores every state, so its steps forward and steps adjoint stay at the hidden width
    widths, applies = _euler_step_widths(monkeypatch, "nl", hidden=6, classes=3, steps=4)
    assert widths == [6] * (2 * 4) and applies == 0


@pytest.mark.parametrize("hidden", [2, 6])
@pytest.mark.parametrize("agg", ["mean", "max"])
def test_l_forward_class_space_matches_hidden_space(hidden, agg):
    # the fixed-step schemes diffuse x0 w_out; implicit Euler and adaptive diffuse x0
    ds, params, _, _ = small_instance(seed=29, hidden=hidden, classes=3)
    ops = as_operators(ds.hypergraph)
    x0 = ds.features @ params.w_in
    s, _ = scores_forward(params.attention, x0, ops, agg)
    a = normalize_modulation(s, ops).values
    for scheme in ("explicit_euler", "rk4", "ab4", "am4", "implicit_euler", "adaptive"):
        spec = SolverSpec(scheme=scheme, tau=0.4, steps=5)
        ref = integrate(ops, a, x0, spec).states[-1] @ params.w_out
        logits = forward(params, ds, spec, "l", agg=agg)
        if scheme in ("implicit_euler", "adaptive"):
            assert np.array_equal(logits, ref), scheme
        else:
            assert np.abs(logits - ref).max() <= 1e-12 * np.abs(ref).max(), scheme


def test_gradients_deterministic():
    ds, params, spec, mask = small_instance()
    l1, g1, _ = loss_and_gradients(params, ds, mask, spec, "nl", weight_decay=0.01)
    l2, g2, _ = loss_and_gradients(params, ds, mask, spec, "nl", weight_decay=0.01)
    assert l1 == l2
    assert np.array_equal(g1.to_vector(), g2.to_vector())


def test_dropout_active_only_in_training():
    ds, params, spec, mask = small_instance()
    a = forward(params, ds, spec, "l", train_mode=False, input_dropout=0.5, dropout_seed=3)
    b = forward(params, ds, spec, "l")
    assert np.array_equal(a, b)
    c = forward(params, ds, spec, "l", train_mode=True, input_dropout=0.5, dropout_seed=3)
    assert not np.array_equal(a, c)
    d = forward(params, ds, spec, "l", train_mode=True, input_dropout=0.5, dropout_seed=3)
    assert np.array_equal(c, d)


def test_permutation_equivariance():
    ds, params, spec, _ = small_instance(seed=21)
    hg = ds.hypergraph
    rng = make_rng(5)
    perm = rng.permutation(hg.n)  # perm[v] is the new id of node v
    edges_p = tuple(tuple(sorted(int(perm[v]) for v in e)) for e in hg.edges)
    hg_p = Hypergraph(n=hg.n, edges=edges_p, weights=hg.weights)
    feats_p = np.empty_like(ds.features)
    feats_p[perm] = ds.features
    labels_p = np.empty_like(ds.labels)
    labels_p[perm] = ds.labels
    ds_p = Dataset(hypergraph=hg_p, features=feats_p, labels=labels_p,
                   class_count=ds.class_count)
    logits = forward(params, ds, spec, "nl")
    logits_p = forward(params, ds_p, spec, "nl")
    assert np.allclose(logits_p[perm], logits, rtol=1e-10, atol=1e-12)


def test_params_vector_round_trip():
    _, params, _, _ = small_instance(seed=41)
    vec = params.to_vector()
    back = params.from_vector(vec)
    assert np.array_equal(back.to_vector(), vec)
    with pytest.raises(ShapeMismatch):
        params.from_vector(np.zeros(vec.size + 1))
