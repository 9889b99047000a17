import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnd.errors import (
    DegenerateEdge,
    HndError,
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
    parse_document,
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


def _loop_reference_error(n, edges, weights):
    """The first fault, as (type, message), by the per-edge loop that the
    vectorized validation replaced; None for a valid hypergraph."""
    canonical = [tuple(sorted(map(int, e))) for e in edges]
    if n > sum(map(len, canonical)):
        return IsolatedNode, f"{n} nodes cannot all belong to edges with {sum(map(len, canonical))} members"
    for i, ms in enumerate(canonical):
        if len(ms) < 2:
            return DegenerateEdge, f"edge {i} has cardinality {len(ms)} < 2"
        if len(set(ms)) != len(ms):
            return DegenerateEdge, f"edge {i} contains duplicate node ids"
        if ms[0] < 0 or ms[-1] >= n:
            return NodeIdOutOfRange, f"edge {i} references node outside [0, {n})"
    for i, w in enumerate(map(float, weights)):
        if not 0.0 < w < float("inf"):
            return NonPositiveWeight, f"edge {i} has weight {w}"
    missing = sorted(set(range(n)) - {v for ms in canonical for v in ms})
    if missing:
        return IsolatedNode, f"node {missing[0]} belongs to no hyperedge"
    return None


_ids = st.one_of(st.integers(-2, 7), st.sampled_from([2**63, 2**70, -2**64]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6),
       edges=st.lists(st.lists(_ids, max_size=4), min_size=1, max_size=5),
       weights=st.lists(st.sampled_from([1.0, 2.5, 0.0, -1.0, float("nan"), float("inf")]),
                        min_size=5, max_size=5))
def test_validation_reports_the_first_fault_as_the_edge_loop_does(n, edges, weights):
    weights = weights[:len(edges)]
    expected = _loop_reference_error(n, edges, weights)
    if expected is None:
        hg = Hypergraph(n=n, edges=tuple(map(tuple, edges)), weights=tuple(weights))
        assert pair_index(hg).node_id.tolist() == [v for e in hg.edges for v in e]
        return
    with pytest.raises(expected[0]) as err:
        Hypergraph(n=n, edges=tuple(map(tuple, edges)), weights=tuple(weights))
    assert str(err.value) == expected[1]


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


@pytest.mark.parametrize(
    "doc,err",
    [
        ('{"n": Infinity, "edges": [[0, 1]], "weights": [1.0]}', MalformedDocument),
        ('{"n": 2, "edges": [[0, Infinity]], "weights": [1.0]}', MalformedDocument),
        ('{"n": 2, "edges": [[0, 0.7]], "weights": [1.0]}', MalformedDocument),
        ('{"n": 1e15, "edges": [[0, 1]], "weights": [1.0]}', MalformedDocument),
        ('{"n": 1000000000000000, "edges": [[0, 1]], "weights": [1.0]}', IsolatedNode),
        ('{"n": 2, "edges": [[0, 1]], "weights": [1' + "0" * 400 + "]}", MalformedDocument),
        ('{"n": 2, "edges": [[0, 1' + "0" * 5000 + ']], "weights": [1.0]}', MalformedDocument),
        ('{"n": 2, "edges": ' + "[" * 100000, MalformedDocument),
        ("100000000000000000000 1\n1.0 2 0 1\n", IsolatedNode),
    ],
    ids=["n-inf", "node-inf", "node-float", "n-float", "n-huge", "weight-huge",
         "node-digits", "deep-nesting", "text-n-huge"],
)
def test_hostile_documents_fail_typed(doc, err):
    with pytest.raises(err):
        parse_hypergraph(doc)


def test_isolated_node_found_before_node_flags_are_allocated():
    with pytest.raises(IsolatedNode):
        Hypergraph(n=10**15, edges=((0, 1),), weights=(1.0,))


# a valid dataset document; the tests below replace some of its fields
VALID_DATASET = {"n": 3, "edges": [[0, 1], [0, 1, 2]], "weights": [1.0, 1.0],
                 "features": [[1.0], [0.0], [0.0]], "labels": [0, 1, 0], "class_count": 2}


@pytest.mark.parametrize(
    "fields",
    [
        {"labels": [0.7, 1.9, 0]},
        {"labels": [0, 1, 1.5]},
        {"labels": [True, False, True]},
        {"labels": ["0", "1", "0"]},
        {"labels": [0, [1], 0]},
        {"features": [[1.0], [0.0, 2.0], [0.0]]},
        {"features": [[1.0], ["x"], [0.0]]},
        {"features": [[1.0], [10**400], [0.0]]},
        {"class_count": 2.5},
        {"class_count": "2"},
    ],
)
def test_dataset_fields_fail_typed(fields):
    with pytest.raises(MalformedDocument):
        parse_dataset(json.dumps({**VALID_DATASET, **fields}))


# ------------------------------------------------------------ fuzzing

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
field_values = (json_values | st.lists(json_values, min_size=2, max_size=3)
                | st.lists(st.lists(json_values, min_size=1, max_size=3), min_size=2, max_size=3))
mutated = st.dictionaries(st.sampled_from(sorted(VALID_DATASET)), field_values,
                          min_size=1, max_size=2).map(lambda d: json.dumps({**VALID_DATASET, **d}))
text_tokens = (st.integers(-3, 10**20).map(str) | st.floats().map(repr)
               | st.sampled_from(["inf", "nan", "1e999", "x", "#", "{", "-0"]))
text_lines = st.lists(st.lists(text_tokens, max_size=6).map(" ".join), max_size=6).map("\n".join)
documents = st.text() | text_lines | json_values.map(json.dumps) | mutated


@given(documents)
@settings(max_examples=400, deadline=None)
def test_parsers_raise_only_hnd_errors(doc):
    for parse in (parse_hypergraph, parse_dataset):
        try:
            parse(doc)
        except HndError:
            pass



def _outcome(parse, doc):
    """What a parser makes of doc: a comparable value, or its error type."""
    try:
        out = parse(doc)
    except HndError as exc:
        return type(exc)
    if isinstance(out, Dataset):
        return (out.hypergraph, out.features.tobytes(), out.labels.tobytes(), out.class_count)
    return out


@given(documents)
@settings(max_examples=300, deadline=None)
def test_parse_document_agrees_with_the_parser_it_picks(doc):
    # the loader's old rule: a JSON object holding features and labels is
    # a dataset, anything else a hypergraph
    try:
        obj = json.loads(doc)
    except (ValueError, RecursionError):
        obj = None
    is_dataset = (doc.lstrip().startswith("{") and isinstance(obj, dict)
                  and "features" in obj and "labels" in obj)
    expected = _outcome(parse_dataset if is_dataset else parse_hypergraph, doc)
    assert _outcome(parse_document, doc) == expected


def test_parse_document_formats():
    hg = parse_hypergraph(H0_TEXT)
    assert parse_document(H0_TEXT) == hg
    assert parse_document(hypergraph_to_json(hg)) == hg
    ds = parse_document(json.dumps(VALID_DATASET))
    assert isinstance(ds, Dataset) and ds.hypergraph == hg and ds.class_count == 2
    without_labels = {k: v for k, v in VALID_DATASET.items() if k != "labels"}
    assert parse_document(json.dumps(without_labels)) == hg
    with pytest.raises(MalformedDocument):
        parse_document(json.dumps({**VALID_DATASET, "features": [[1.0], ["x"], [0.0]]}))
    with pytest.raises(MalformedDocument):
        parse_document("{\"n\": 3,")

@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, 12))
    nodes = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(nodes, min_size=2, max_size=5, unique=True),
                          min_size=1, max_size=8))
    covered = {v for e in edges for v in e}
    edges += [[v, (v + 1) % n] for v in range(n) if v not in covered]
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Hypergraph(n=n, edges=tuple(map(tuple, edges)), weights=tuple(weights))


@given(hypergraphs(), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_formats_round_trip(hg, d, data):
    assert parse_hypergraph(hypergraph_to_text(hg)) == hg
    assert parse_hypergraph(hypergraph_to_json(hg)) == hg
    features = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=hg.n * d, max_size=hg.n * d))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=hg.n, max_size=hg.n))
    ds = Dataset(hypergraph=hg, features=np.reshape(features, (hg.n, d)),
                 labels=labels, class_count=3)
    back = parse_dataset(dataset_to_json(ds))
    assert back.hypergraph == hg and back.class_count == 3
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
