"""Hypergraph data model, validation, and file ingestion.

A hypergraph is a node count, an ordered list of hyperedges (node-id
sets of size >= 2), and one positive weight per hyperedge. Validation
rejects anything that would break the downstream calculus: degenerate
edges, non-positive weights, out-of-range ids, and isolated nodes
(whose degree-normalization 1/sqrt(d_v) would be undefined).

Two interchangeable document formats are supported:

* text, line oriented: a header line ``n m`` followed by m lines
  ``w_e k v_1 ... v_k`` with k >= 2;
* JSON with fields ``n``, ``edges`` (array of node-id arrays),
  ``weights``, and optionally ``features`` (n x d array) and
  ``labels`` (length-n array) for full datasets.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from itertools import chain
from operator import index

import numpy as np

from .errors import (
    DegenerateEdge,
    IsolatedNode,
    MalformedDocument,
    NodeIdOutOfRange,
    NonPositiveWeight,
    ShapeMismatch,
)


@dataclass(frozen=True)
class Hypergraph:
    """Validated weighted hypergraph.

    ``edges`` preserves input order; members of each edge are stored in
    ascending id order (they are sets, so the order carries no meaning
    but makes every derived quantity reproducible).
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    # set by the JSON reader, whose edges are already tuples of ascending ints
    _sorted: InitVar[bool] = False

    def __post_init__(self, _sorted):
        if self.n < 1:
            raise MalformedDocument(f"node count must be positive, got {self.n}")
        if len(self.edges) != len(self.weights):
            raise MalformedDocument(
                f"{len(self.edges)} edges but {len(self.weights)} weights"
            )
        canonical = self.edges if _sorted else tuple(
            tuple(sorted(map(int, members))) for members in self.edges)
        # every node needs a pair of its own, so check before allocating n flags
        sizes = np.fromiter(map(len, canonical), dtype=np.int64, count=len(canonical))
        pairs = int(sizes.sum())
        if self.n > pairs:
            raise IsolatedNode(f"{self.n} nodes cannot all belong to edges with {pairs} members")
        try:
            members = np.fromiter(chain.from_iterable(canonical), dtype=np.int64, count=pairs)
        except OverflowError:  # an id beyond int64 is out of range; the loop names its edge
            members = None
        if members is None or not _edges_valid(self.n, sizes, members):
            for i, ms in enumerate(canonical):  # the first fault, in edge order
                if len(ms) < 2:
                    raise DegenerateEdge(f"edge {i} has cardinality {len(ms)} < 2")
                if len(set(ms)) != len(ms):
                    raise DegenerateEdge(f"edge {i} contains duplicate node ids")
                if ms[0] < 0 or ms[-1] >= self.n:
                    raise NodeIdOutOfRange(
                        f"edge {i} references node outside [0, {self.n})"
                    )
        weights = tuple(map(float, self.weights))
        w = np.array(weights)
        bad = np.flatnonzero(~((w > 0.0) & (w < math.inf)))
        if bad.size:
            raise NonPositiveWeight(f"edge {bad[0]} has weight {weights[bad[0]]}")
        covered = np.zeros(self.n, dtype=bool)
        covered[members] = True
        if not covered.all():
            missing = int(np.flatnonzero(~covered)[0])
            raise IsolatedNode(f"node {missing} belongs to no hyperedge")
        members.flags.writeable = False
        object.__setattr__(self, "edges", canonical)
        object.__setattr__(self, "weights", weights)
        # not a field, so equality and hashing ignore it, as they do the workspace cache
        object.__setattr__(self, "_members", (members, sizes))

    @property
    def m(self) -> int:
        return len(self.edges)


def _edges_valid(n: int, sizes: np.ndarray, members: np.ndarray) -> bool:
    """Whether every edge has at least two distinct members, all in [0, n).

    ``members`` is the flat member array, sorted within each edge, so a
    repeated id sits next to its twin.
    """
    if sizes.min() < 2 or members.min() < 0 or members.max() >= n:
        return False
    repeat = members[1:] == members[:-1]
    repeat[np.cumsum(sizes)[:-1] - 1] = False  # neighbours in two different edges
    return not repeat.any()


@dataclass(frozen=True)
class PairIndex:
    """Deterministic enumeration of the N hyperedge-node pairs.

    Pairs are ordered by edge input order, then ascending node id within
    each edge; position k holds pair (edge_id[k], node_id[k]).
    """

    edge_id: np.ndarray
    node_id: np.ndarray
    N: int

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.edge_id.tolist(), self.node_id.tolist()))


@dataclass(frozen=True)
class Degrees:
    """Weighted node degrees d_v = sum of incident edge weights, plus |e|."""

    d_v: np.ndarray
    edge_size: np.ndarray


@dataclass
class Dataset:
    """A hypergraph with node features and class labels attached."""

    hypergraph: Hypergraph
    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.hypergraph.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ShapeMismatch(
                f"features must be ({n}, d), got {self.features.shape}"
            )
        if self.features.shape[1] == 0:
            raise MalformedDocument("features have zero columns")
        if not np.isfinite(self.features).all():
            raise MalformedDocument("features contain NaN or infinite values")
        if self.labels.shape != (n,):
            raise ShapeMismatch(f"labels must have length {n}")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.class_count:
            raise MalformedDocument("label outside [0, class_count)")


def pair_index(hg: Hypergraph) -> PairIndex:
    """Enumerate hyperedge-node pairs in the canonical order."""
    members, sizes = hg._members
    edge_id = np.repeat(np.arange(hg.m, dtype=np.int64), sizes)
    return PairIndex(edge_id=edge_id, node_id=members, N=int(members.size))


def degrees(hg: Hypergraph) -> Degrees:
    """Weighted node degrees and edge sizes."""
    members, sizes = hg._members
    # bincount adds each node's weights in edge order, as a loop over edges would
    d = np.bincount(members, weights=np.repeat(hg.weights, sizes), minlength=hg.n)
    return Degrees(d_v=d, edge_size=sizes)


def parse_hypergraph(document: str) -> Hypergraph:
    """Parse a hypergraph from text or JSON document content.

    JSON is detected by a leading ``{``; anything else is parsed as the
    line-oriented text format.
    """
    stripped = document.lstrip()
    if stripped.startswith("{"):
        return _hypergraph_from_json(_load_json_object(stripped))
    return _parse_text(document)


def _load_json_object(document: str) -> dict:
    try:
        obj = json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedDocument("top-level JSON value must be an object")
    return obj


def _hypergraph_from_json(obj: dict) -> Hypergraph:
    for key in ("n", "edges", "weights"):
        if key not in obj:
            raise MalformedDocument(f"missing required key {key!r}")
    # index() accepts JSON integers only, where int() would truncate 0.7
    # and overflow on Infinity
    try:
        n = index(obj["n"])
        edges = tuple(tuple(sorted(map(index, e))) for e in obj["edges"])
        weights = tuple(map(float, obj["weights"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedDocument(f"malformed JSON fields: {exc}") from exc
    return Hypergraph(n=n, edges=edges, weights=weights, _sorted=True)


def _parse_text(document: str) -> Hypergraph:
    lines = [ln for ln in (raw.strip() for raw in document.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedDocument("empty document")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedDocument(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedDocument(f"non-integer header: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise MalformedDocument(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    weights = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) < 2:
            raise MalformedDocument(f"edge line {i} too short: {ln!r}")
        try:
            w = float(parts[0])
            k = int(parts[1])
            members = [int(tok) for tok in parts[2:]]
        except ValueError as exc:
            raise MalformedDocument(f"edge line {i} malformed: {ln!r}") from exc
        if len(members) != k:
            raise MalformedDocument(
                f"edge line {i} declares {k} members but lists {len(members)}"
            )
        edges.append(tuple(members))
        weights.append(w)
    return Hypergraph(n=n, edges=tuple(edges), weights=tuple(weights))


def parse_dataset(document: str) -> Dataset:
    """Parse a JSON dataset document (hypergraph + features + labels)."""
    return _dataset_from_json(_load_json_object(document))


def parse_document(document: str) -> Dataset | Hypergraph:
    """Parse a dataset document, or a hypergraph document in either format.

    A JSON object with both ``features`` and ``labels`` is a dataset;
    anything else is parsed as ``parse_hypergraph`` does. The JSON text
    is parsed once either way.
    """
    stripped = document.lstrip()
    if not stripped.startswith("{"):
        return _parse_text(document)
    obj = _load_json_object(stripped)
    if "features" in obj and "labels" in obj:
        return _dataset_from_json(obj)
    return _hypergraph_from_json(obj)


def _dataset_from_json(obj: dict) -> Dataset:
    hg = _hypergraph_from_json(obj)
    for key in ("features", "labels"):
        if key not in obj:
            raise MalformedDocument(f"dataset document missing {key!r}")
    try:
        features = np.asarray(obj["features"], dtype=np.float64)
        labels = np.asarray(obj["labels"])
        if labels.size and labels.dtype.kind not in "iu":
            raise MalformedDocument(f"labels must be integers, got {labels.dtype} values")
        labels = labels.astype(np.int64)
        class_count = index(obj.get("class_count", labels.max() + 1 if labels.size else 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedDocument(f"malformed dataset fields: {exc}") from exc
    return Dataset(hypergraph=hg, features=features, labels=labels, class_count=class_count)


def hypergraph_to_text(hg: Hypergraph) -> str:
    """Serialize to the line-oriented text format."""
    lines = [f"{hg.n} {hg.m}"]
    for members, w in zip(hg.edges, hg.weights):
        lines.append(f"{w!r} {len(members)} " + " ".join(str(v) for v in members))
    return "\n".join(lines) + "\n"


def hypergraph_to_json(hg: Hypergraph) -> str:
    """Serialize to the structured JSON format."""
    obj = {
        "n": hg.n,
        "edges": [list(e) for e in hg.edges],
        "weights": list(hg.weights),
    }
    return json.dumps(obj, sort_keys=True)


def dataset_to_json(ds: Dataset) -> str:
    """Serialize a dataset (hypergraph + features + labels) to JSON."""
    hg = ds.hypergraph
    obj = {
        "n": hg.n,
        "edges": [list(e) for e in hg.edges],
        "weights": list(hg.weights),
        "features": ds.features.tolist(),
        "labels": ds.labels.tolist(),
        "class_count": ds.class_count,
    }
    return json.dumps(obj, sort_keys=True)
