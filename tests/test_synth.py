import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnd.errors import EdgeSizeExceedsClass, InvalidAlpha, InvalidRate, ResultingIsolatedNode
from hnd.hypergraph import Hypergraph, hypergraph_to_text, parse_hypergraph
from hnd.synth import generate_sbm, perturb_features, perturb_structure

from conftest import random_hypergraph


def test_sbm_full_scale_shape():
    ds = generate_sbm(2500, 1000, 15, 1, 32, 1.0, seed=11)
    hg = ds.hypergraph
    assert hg.n == 5000 and hg.m == 1000
    assert all(len(e) == 15 for e in hg.edges)
    labels = ds.labels
    for e in hg.edges:
        c1 = sum(labels[v] for v in e)
        assert min(c1, 15 - c1) == 1


def test_sbm_alpha7_composition():
    ds = generate_sbm(100, 60, 15, 7, 4, 1.0, seed=3)
    labels = ds.labels
    for e in ds.hypergraph.edges:
        c1 = int(sum(labels[v] for v in e))
        assert sorted([c1, 15 - c1]) == [7, 8]


@given(st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_sbm_minority_count_exact(seed):
    ds = generate_sbm(30, 30, 5, 2, 3, 1.0, seed=seed)
    labels = ds.labels
    for e in ds.hypergraph.edges:
        c1 = int(sum(labels[v] for v in e))
        assert min(c1, 5 - c1) == 2


def test_sbm_deterministic():
    a = generate_sbm(50, 40, 6, 1, 8, 1.0, seed=99)
    b = generate_sbm(50, 40, 6, 1, 8, 1.0, seed=99)
    assert a.hypergraph == b.hypergraph
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_sbm_feature_means():
    ds = generate_sbm(2000, 1000, 10, 1, 3, 1.0, seed=0)
    f0 = ds.features[ds.labels == 0]
    f1 = ds.features[ds.labels == 1]
    assert np.allclose(f0.mean(axis=0), 0.0, atol=0.1)
    assert np.allclose(f1.mean(axis=0), 1.0, atol=0.1)
    assert abs(f0.std() - 1.0) < 0.05


@pytest.mark.parametrize("alpha", [0, 8])
def test_sbm_invalid_alpha(alpha):
    with pytest.raises(InvalidAlpha):
        generate_sbm(100, 10, 15, alpha, 4, 1.0, seed=0)


def test_sbm_edge_size_exceeds_class():
    with pytest.raises(EdgeSizeExceedsClass):
        generate_sbm(10, 5, 15, 1, 4, 1.0, seed=0)


def test_perturb_features_rate_zero_identity():
    X = np.arange(12.0).reshape(4, 3)
    for kind in ("gaussian", "uniform", "mask"):
        assert np.array_equal(perturb_features(X, kind, 0.0, seed=1), X)


def test_perturb_features_full_mask():
    X = np.ones((5, 4))
    assert np.array_equal(perturb_features(X, "mask", 1.0, seed=1), np.zeros((5, 4)))


def test_perturb_features_gaussian_moments():
    X = np.zeros((500, 400))  # 2e5 entries
    rate = 0.3
    noise = perturb_features(X, "gaussian", rate, seed=7) - X
    assert abs(noise.std() - rate) / rate < 0.05


def test_perturb_features_uniform_bounded():
    X = np.zeros((300, 300))
    rate = 0.5
    noise = perturb_features(X, "uniform", rate, seed=7) - X
    assert np.abs(noise).max() <= rate
    assert abs(noise.std() - rate / np.sqrt(3.0)) / rate < 0.05


def test_perturb_features_invalid():
    X = np.zeros((2, 2))
    with pytest.raises(InvalidRate):
        perturb_features(X, "gaussian", 1.5, seed=0)
    with pytest.raises(InvalidRate):
        perturb_features(X, "salt", 0.1, seed=0)


def test_perturb_features_deterministic():
    X = np.ones((10, 10))
    a = perturb_features(X, "gaussian", 0.2, seed=5)
    b = perturb_features(X, "gaussian", 0.2, seed=5)
    assert np.array_equal(a, b)


def test_perturb_structure_rate_zero_identity():
    hg = random_hypergraph(0)
    assert perturb_structure(hg, 0.0, seed=1) == hg


def test_perturb_structure_counts():
    # the default `hnd sbm` dataset has 90 nodes in a single edge; the dense one has none
    for ds, rate in [(generate_sbm(50, 150, 8, 1, 2, 1.0, seed=5), 0.4),
                     *((generate_sbm(250, 100, 15, 1, 4, 1.0, seed=0), r) for r in (0.1, 0.4, 1.0))]:
        hg = ds.hypergraph
        out = perturb_structure(hg, rate, seed=12)
        k = int(rate * hg.m)
        assert out.n == hg.n and out.m == hg.m
        # the kept edges come first, in their original order, and exactly k are gone
        kept = iter(zip(hg.edges, hg.weights))
        assert all(pair in kept for pair in zip(out.edges[:hg.m - k], out.weights[:hg.m - k]))
        sizes = {len(e) for e in hg.edges}
        assert all(len(e) in sizes for e in out.edges[hg.m - k:])


def test_perturb_structure_outputs_validate():
    ds = generate_sbm(60, 300, 6, 1, 2, 1.0, seed=5)
    for seed in range(100):
        out = perturb_structure(ds.hypergraph, 0.3, seed=seed)
        # survives a full reparse-level validation round trip
        assert parse_hypergraph(hypergraph_to_text(out)) == out


def test_perturb_structure_raises_when_orphans_outnumber_fake_slots():
    # seed 6 removes the 20-node edge, orphaning 20 nodes, and gives the one fake
    # edge a pair's size, so 2 slots
    hg = Hypergraph(n=38, edges=(tuple(range(20)), *((v, v + 1) for v in range(20, 38, 2))),
                    weights=(1.0,) * 10)
    with pytest.raises(ResultingIsolatedNode, match="20 nodes in no edge, more than the 2 "):
        perturb_structure(hg, 0.1, seed=6)


def test_perturb_structure_deterministic():
    ds = generate_sbm(60, 300, 6, 1, 2, 1.0, seed=5)
    a = perturb_structure(ds.hypergraph, 0.25, seed=4)
    b = perturb_structure(ds.hypergraph, 0.25, seed=4)
    assert a == b
