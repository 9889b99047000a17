import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnd.errors import HndError, ShapeMismatch, UnsupportedSchemeForTraining
from hnd.hypergraph import Dataset, Hypergraph
from hnd.model import (
    CHECKPOINT_MAGIC,
    ModelParams,
    forward,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
)
from hnd.modulation import normalize_modulation, scores_forward
from hnd.operators import HypergraphOperators
from hnd.rng import make_rng
from hnd.solvers import SolverSpec, step_explicit_euler

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


def test_checkpoint_round_trip(tmp_path):
    _, params, _, _ = small_instance(seed=31)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert np.array_equal(loaded.to_vector(), params.to_vector())
    assert loaded.attention.leaky_slope == params.attention.leaky_slope
    # a second save is byte-identical
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    from hnd.errors import MalformedDocument

    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(MalformedDocument):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_and_padded(tmp_path):
    from hnd.errors import MalformedDocument

    _, params, _, _ = small_instance(seed=31)
    good = tmp_path / "model.ckpt"
    save_checkpoint(params, str(good))
    data = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for damaged in (data[:-8], data[:-1], data[:20], data + b"\x00", data + data[-8:]):
        bad.write_bytes(damaged)
        with pytest.raises(MalformedDocument):
            load_checkpoint(str(bad))


def test_params_vector_round_trip():
    _, params, _, _ = small_instance(seed=41)
    vec = params.to_vector()
    back = params.from_vector(vec)
    assert np.array_equal(back.to_vector(), vec)
    with pytest.raises(ShapeMismatch):
        params.from_vector(np.zeros(vec.size + 1))


def test_checkpoint_fuzz_raises_only_hnd_errors(tmp_path):
    path = tmp_path / "fuzz.ckpt"
    header = st.builds(
        lambda dims, slope: CHECKPOINT_MAGIC + struct.pack("<IIII", 1, *dims)
        + struct.pack("<d", slope),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.floats(allow_nan=True),
    )
    documents = st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: CHECKPOINT_MAGIC + b),
        st.tuples(header, st.binary(max_size=400)).map(lambda hb: hb[0] + hb[1]),
    )

    @given(documents)
    @settings(max_examples=300, deadline=None)
    def check(data):
        path.write_bytes(data)
        try:
            load_checkpoint(str(path))
        except HndError:
            pass

    check()
