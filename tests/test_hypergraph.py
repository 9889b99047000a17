import json

import numpy as np
import pytest

from hnd.errors import (
    DegenerateEdge,
    IsolatedNode,
    MalformedDocument,
    NodeIdOutOfRange,
    NonPositiveWeight,
)
from hnd.hypergraph import (
    Dataset,
    Hypergraph,
    dataset_to_json,
    degrees,
    hypergraph_to_json,
    hypergraph_to_text,
    pair_index,
    parse_dataset,
    parse_hypergraph,
)

H0_TEXT = "3 2\n1.0 2 0 1\n1.0 3 0 1 2\n"


def test_construct_h0():
    hg = Hypergraph(n=3, edges=((0, 1), (0, 1, 2)), weights=(1.0, 1.0))
    assert hg.n == 3 and hg.m == 2


def test_members_canonicalized_ascending():
    hg = Hypergraph(n=3, edges=((1, 0), (2, 0, 1)), weights=(1.0, 1.0))
    assert hg.edges == ((0, 1), (0, 1, 2))


@pytest.mark.parametrize(
    "edges,weights,err",
    [
        (((0,), (0, 1, 2)), (1.0, 1.0), DegenerateEdge),
        (((0, 0), (0, 1, 2)), (1.0, 1.0), DegenerateEdge),
        (((0, 1), (0, 1, 2)), (0.0, 1.0), NonPositiveWeight),
        (((0, 1), (0, 1, 2)), (-2.0, 1.0), NonPositiveWeight),
        (((0, 1), (0, 1, 3)), (1.0, 1.0), NodeIdOutOfRange),
        (((0, 1),), (1.0,), IsolatedNode),  # node 2 uncovered
        (((0, 1), (0, 1, 2)), (1.0,), MalformedDocument),
    ],
)
def test_validation_errors(edges, weights, err):
    with pytest.raises(err):
        Hypergraph(n=3, edges=edges, weights=weights)


def test_parse_text_h0():
    hg = parse_hypergraph(H0_TEXT)
    assert hg.n == 3 and hg.m == 2
    assert hg.edges == ((0, 1), (0, 1, 2))


def test_parse_singleton_edge_rejected():
    with pytest.raises(DegenerateEdge):
        parse_hypergraph("3 2\n1.0 1 0\n1.0 3 0 1 2\n")


def test_parse_zero_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        parse_hypergraph("3 2\n0.0 2 0 1\n1.0 3 0 1 2\n")


@pytest.mark.parametrize(
    "doc",
    [
        "",
        "3\n",
        "3 2\n1.0 2 0 1\n",                  # promises 2 edges, gives 1
        "3 1\n1.0 3 0 1\n",                  # member count mismatch
        "x y\n",
        "3 1\n1.0 two 0 1\n",
        "{not json",
        '{"edges": [[0, 1]], "weights": [1.0]}',  # missing n
        "[1, 2, 3]",
    ],
)
def test_malformed_documents(doc):
    with pytest.raises(MalformedDocument):
        parse_hypergraph(doc)


def test_parse_json_variant():
    doc = json.dumps({"n": 3, "edges": [[0, 1], [0, 1, 2]], "weights": [1.0, 1.0]})
    hg = parse_hypergraph(doc)
    assert hg.edges == ((0, 1), (0, 1, 2))


def test_text_round_trip():
    hg = parse_hypergraph(H0_TEXT)
    again = parse_hypergraph(hypergraph_to_text(hg))
    assert again == hg


def test_json_round_trip():
    hg = parse_hypergraph(H0_TEXT)
    again = parse_hypergraph(hypergraph_to_json(hg))
    assert again == hg
    # reserialization is byte-stable
    assert hypergraph_to_json(again) == hypergraph_to_json(hg)


def test_dataset_round_trip():
    hg = parse_hypergraph(H0_TEXT)
    ds = Dataset(hypergraph=hg, features=np.eye(3), labels=np.array([0, 1, 0]), class_count=2)
    text = dataset_to_json(ds)
    back = parse_dataset(text)
    assert back.hypergraph == hg
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert dataset_to_json(back) == text


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    features = np.eye(3)
    features[1, 2] = bad
    with pytest.raises(MalformedDocument):
        Dataset(hypergraph=parse_hypergraph(H0_TEXT), features=features,
                labels=np.array([0, 1, 0]), class_count=2)


def test_degrees_equal_edge_loop_reference():
    from conftest import random_hypergraph

    for seed in range(50):
        hg = random_hypergraph(seed)
        ref = np.zeros(hg.n)
        for members, w in zip(hg.edges, hg.weights):
            ref[list(members)] += w
        assert degrees(hg).d_v.tobytes() == ref.tobytes()


def test_degrees_h0_unit_weights(h0):
    deg = degrees(h0)
    assert np.array_equal(deg.d_v, [2.0, 2.0, 1.0])
    assert np.array_equal(deg.edge_size, [2, 3])


def test_degrees_h0_weighted():
    hg = Hypergraph(n=3, edges=((0, 1), (0, 1, 2)), weights=(2.0, 3.0))
    assert np.array_equal(degrees(hg).d_v, [5.0, 5.0, 3.0])


def test_degrees_single_edge():
    hg = Hypergraph(n=2, edges=((0, 1),), weights=(1.0,))
    assert np.array_equal(degrees(hg).d_v, [1.0, 1.0])


def test_pair_index_h0(h0):
    idx = pair_index(h0)
    assert idx.N == 5
    assert idx.pairs == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]


def test_pair_index_single_edge():
    hg = Hypergraph(n=2, edges=((0, 1),), weights=(1.0,))
    assert pair_index(hg).N == 2


def test_pair_index_reversed_edge_order():
    hg = Hypergraph(n=3, edges=((0, 1, 2), (0, 1)), weights=(1.0, 1.0))
    idx = pair_index(hg)
    assert idx.pairs == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]


def test_pair_count_matches_edge_sizes(h0):
    deg = degrees(h0)
    assert deg.edge_size.sum() == pair_index(h0).N
