import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnd.modulation import (
    AttentionParams,
    ModulationWeights,
    _leaky,
    _leaky_grad,
    edge_features,
    normalize_modulation,
    scores_backward,
    scores_forward,
    softmax_backward,
    uniform_modulation,
)
from hnd.operators import HypergraphOperators

from conftest import random_hypergraph


def test_edge_features_identical_rows(h0_ops):
    c = np.array([2.0, -1.0])
    X = np.tile(c, (3, 1))
    for agg in ("mean", "max"):
        E = edge_features(X, h0_ops, agg)
        assert np.allclose(E, np.tile(c, (2, 1)), atol=0)


def test_edge_features_h0_mean(h0_ops):
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    E = edge_features(X, h0_ops, "mean")
    assert np.allclose(E[1], [1.0, 1.0], atol=1e-15)
    assert np.allclose(E[0], [0.5, 0.5], atol=1e-15)


def test_edge_features_max(h0_ops):
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -2.0]])
    E = edge_features(X, h0_ops, "max")
    assert np.allclose(E[1], [2.0, 1.0], atol=0)


def test_edge_features_permutation_invariant():
    # same edge set listed with different member order gives identical rows
    from hnd.hypergraph import Hypergraph

    h1 = Hypergraph(n=3, edges=((0, 1, 2),), weights=(1.0,))
    h2 = Hypergraph(n=3, edges=((2, 1, 0),), weights=(1.0,))
    X = np.array([[1.0], [5.0], [-2.0]])
    for agg in ("mean", "max"):
        assert np.array_equal(edge_features(X, h1, agg), edge_features(X, h2, agg))


def test_scores_zero_params(h0_ops):
    params = AttentionParams.init(2, seed=0).zeros_like()
    X = np.random.default_rng(0).standard_normal((3, 2))
    s = scores_forward(params, X, h0_ops)[0]
    assert np.array_equal(s, np.zeros(5))


def test_scores_identical_pairs():
    from hnd.hypergraph import Hypergraph

    # two disjoint edges with identical member features -> identical scores
    hg = Hypergraph(n=4, edges=((0, 1), (2, 3)), weights=(1.0, 1.0))
    ops = HypergraphOperators(hg)
    X = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0], [3.0, -1.0]])
    params = AttentionParams.init(2, seed=4)
    s = scores_forward(params, X, ops)[0]
    assert np.allclose(s[:2], s[2:], atol=0)


def test_scores_parameter_gradients_match_fd(h0_ops):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 4))
    params = AttentionParams.init(4, seed=9)
    u = rng.standard_normal(h0_ops.N)

    s, cache = scores_forward(params, X, h0_ops)
    grads, _ = scores_backward(params, h0_ops, cache, u)

    tensors = ("projection", "hidden_w", "hidden_b", "out_w", "out_b")
    h = 1e-5
    for name in tensors:
        t = getattr(params, name)
        g = getattr(grads, name)
        for idx in np.ndindex(*t.shape):
            orig = t[idx]
            t[idx] = orig + h
            sp, _ = scores_forward(params, X, h0_ops)
            t[idx] = orig - h
            sm, _ = scores_forward(params, X, h0_ops)
            t[idx] = orig
            fd = float(u @ (sp - sm)) / (2 * h)
            assert abs(g[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), (name, idx)


@pytest.mark.parametrize("agg", ["mean", "max"])
def test_scores_input_gradient_matches_fd(h0_ops, agg):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 4))
    params = AttentionParams.init(4, seed=11)
    u = rng.standard_normal(h0_ops.N)

    _, cache = scores_forward(params, X, h0_ops, agg)
    _, dX = scores_backward(params, h0_ops, cache, u)

    h = 1e-6
    for idx in np.ndindex(*X.shape):
        Xp = X.copy(); Xp[idx] += h
        Xm = X.copy(); Xm[idx] -= h
        fd = float(u @ (scores_forward(params, Xp, h0_ops, agg)[0]
                        - scores_forward(params, Xm, h0_ops, agg)[0])) / (2 * h)
        assert abs(dX[idx] - fd) <= 1e-6 * max(1.0, abs(fd)), idx


def _concatenated_score_map(params, X, ops, agg, ds):
    """The scoring map as one (N, 2d) first layer over Z = [P x_v | P e_e],
    and its vector-Jacobian product, written out pair by pair."""
    leaky = lambda v: np.where(v >= 0, v, params.leaky_slope * v)
    slope = lambda v: np.where(v >= 0, 1.0, params.leaky_slope)
    P = params.projection
    E = edge_features(X, ops, agg)
    Z = np.concatenate([(X @ P.T)[ops.pair_node], (E @ P.T)[ops.pair_edge]], axis=1)
    pre_h = Z @ params.hidden_w.T + params.hidden_b
    H = leaky(pre_h)
    pre_o = H @ params.out_w + params.out_b[0]

    d_pre_o = ds * slope(pre_o)
    d_pre_h = d_pre_o[:, None] * params.out_w * slope(pre_h)
    dZ = d_pre_h @ params.hidden_w
    d = P.shape[0]
    d_proj_n = np.zeros((ops.n, d))
    d_proj_e = np.zeros((ops.m, d))
    np.add.at(d_proj_n, ops.pair_node, dZ[:, :d])
    np.add.at(d_proj_e, ops.pair_edge, dZ[:, d:])
    dE = d_proj_e @ P
    dX = d_proj_n @ P
    for e in range(ops.m):
        members = ops.pair_node[ops.edge_ptr[e]:ops.edge_ptr[e + 1]]
        if agg == "mean":
            dX[members] += dE[e] / len(members)
            continue
        for j in range(d):  # max: the first member attaining it takes the gradient
            first = members[np.flatnonzero(X[members, j] == E[e, j])[0]]
            dX[first, j] += dE[e, j]
    grads = {
        "projection": d_proj_n.T @ X + d_proj_e.T @ E,
        "hidden_w": d_pre_h.T @ Z,
        "hidden_b": d_pre_h.sum(axis=0),
        "out_w": H.T @ d_pre_o,
        "out_b": np.array([d_pre_o.sum()]),
    }
    return leaky(pre_o), grads, dX


@pytest.mark.parametrize("agg", ["mean", "max"])
def test_factored_score_map_matches_concatenated_first_layer(agg):
    from hnd.hypergraph import Hypergraph

    # node 5 lies in one edge; {2, 3} is the smallest edge a Hypergraph admits
    hg = Hypergraph(n=6, edges=((0, 1, 2), (2, 3), (1, 3, 4, 5), (0, 4)),
                    weights=(1.0, 0.5, 2.0, 1.5))
    ops = HypergraphOperators(hg)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, 5))
    params = AttentionParams.init(5, seed=13)
    ds = rng.standard_normal(ops.N)

    s, cache = scores_forward(params, X, ops, agg)
    grads, dX = scores_backward(params, ops, cache, ds)
    s_ref, grads_ref, dX_ref = _concatenated_score_map(params, X, ops, agg, ds)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert close(s, s_ref) and close(dX, dX_ref)
    for name, want in grads_ref.items():
        assert close(getattr(grads, name), want), name
    assert not any(np.shape(item) == (ops.N, 10) for item in cache)


def test_modulation_weights_validation():
    with pytest.raises(Exception):
        ModulationWeights(values=np.array([1.0, -0.5]))
    with pytest.raises(Exception):
        ModulationWeights(values=np.array([[1.0], [2.0]]))


def test_softmax_singleton_node():
    from hnd.hypergraph import Hypergraph

    hg = Hypergraph(n=4, edges=((0, 1), (2, 3)), weights=(1.0, 1.0))
    ops = HypergraphOperators(hg)
    a = normalize_modulation(np.array([3.0, -1.0, 0.5, 2.0]), ops)
    assert np.allclose(a.values, 1.0, atol=0)  # each node has one incident edge


def test_softmax_equal_scores_uniform(h0_ops):
    a = normalize_modulation(np.zeros(5), h0_ops)
    assert np.allclose(a.values, [0.5, 0.5, 0.5, 0.5, 1.0], atol=1e-15)


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_softmax_contract_random(seed):
    hg = random_hypergraph(seed)
    ops = HypergraphOperators(hg)
    s = np.random.default_rng(seed).standard_normal(ops.N) * 5.0
    a = normalize_modulation(s, ops)
    assert (a.values > 0).all()
    assert np.abs(ops.node_sum(a.values) - 1.0).max() <= 1e-12


def test_softmax_shift_invariance(h0_ops):
    rng = np.random.default_rng(5)
    s = rng.standard_normal(5)
    a = normalize_modulation(s, h0_ops)
    shifted = s.copy()
    # shift all scores of node 0's incident pairs (positions 0 and 2)
    shifted[[0, 2]] += 7.3
    b = normalize_modulation(shifted, h0_ops)
    assert np.abs(a.values[[0, 2]] - b.values[[0, 2]]).max() <= 1e-12


def test_softmax_overflow_safe(h0_ops):
    a = normalize_modulation(np.array([1e6, -1e6, 1e6, 0.0, 1e6]), h0_ops)
    assert np.isfinite(a.values).all()
    assert np.abs(h0_ops.node_sum(a.values) - 1.0).max() <= 1e-12


def test_softmax_backward_matches_fd(h0_ops):
    rng = np.random.default_rng(8)
    s = rng.standard_normal(5)
    u = rng.standard_normal(5)
    a = normalize_modulation(s, h0_ops).values
    ds = softmax_backward(a, h0_ops, u)
    h = 1e-6
    for i in range(5):
        sp = s.copy(); sp[i] += h
        sm = s.copy(); sm[i] -= h
        fd = float(u @ (normalize_modulation(sp, h0_ops).values
                        - normalize_modulation(sm, h0_ops).values)) / (2 * h)
        assert abs(ds[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_uniform_modulation_h0(h0_ops):
    a = uniform_modulation(h0_ops)
    assert np.array_equal(a.values, [0.5, 0.5, 0.5, 0.5, 1.0])
    assert np.array_equal(h0_ops.node_sum(a.values), np.ones(3))


def test_uniform_modulation_disjoint_edges():
    from hnd.hypergraph import Hypergraph

    hg = Hypergraph(n=4, edges=((0, 1), (2, 3)), weights=(1.0, 1.0))
    a = uniform_modulation(HypergraphOperators(hg))
    assert np.array_equal(a.values, np.ones(4))


def test_attention_init_deterministic():
    a = AttentionParams.init(6, seed=42)
    b = AttentionParams.init(6, seed=42)
    for name in ("projection", "hidden_w", "hidden_b", "out_w", "out_b"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    bound = 1.0 / np.sqrt(6)
    assert np.abs(a.projection).max() <= bound


@pytest.mark.parametrize("slope", [1e-300, 0.01, 0.2, 1.0])
def test_leaky_relu_matches_the_branching_form_bit_for_bit(slope):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(64), [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                                   5e-324, -5e-324, 1e308, -1e308]])
    assert _leaky(x, slope).tobytes() == np.where(x >= 0, x, slope * x).tobytes()
    assert _leaky_grad(x, slope).tobytes() == np.where(x >= 0, 1.0, slope).tobytes()


@pytest.mark.parametrize("slope", [0.0, -0.01, 1.5, np.nan])
def test_attention_params_refuse_a_slope_outside_zero_one(slope):
    # the branch-free LeakyReLU holds only for 0 < slope <= 1 (at 0 it maps +inf to NaN)
    with pytest.raises(ValueError):
        AttentionParams.init(2, seed=0, leaky_slope=slope)
