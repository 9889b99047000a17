"""Synthetic dataset generation and noise perturbations.

The generator produces two-class contextual block-model hypergraphs:
every hyperedge draws ``alpha`` members from one class (picked uniformly
per edge) and ``edge_size - alpha`` from the other, so ``alpha`` is the
per-edge minority count that controls heterophily. Node features are
label-dependent Gaussians: class c has mean vector c * ones(feature_dim)
and shared standard deviation ``sigma``.

Group sampling can leave nodes uncovered; because isolated nodes are
rejected at validation, the generator repairs coverage by swapping each
isolated node into a random edge in place of a same-class member that
has at least two memberships. The swap preserves every edge's size and
class composition exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EdgeSizeExceedsClass,
    InvalidAlpha,
    InvalidRate,
    ResultingIsolatedNode,
)
from .hypergraph import Dataset, Hypergraph
from .rng import make_rng


def generate_sbm(
    nodes_per_class: int,
    edge_count: int,
    edge_size: int,
    alpha: int,
    feature_dim: int,
    sigma: float,
    seed: int,
) -> Dataset:
    """Generate a two-class block-model hypergraph dataset.

    Nodes 0..nodes_per_class-1 carry label 0, the rest label 1. Each of
    the ``edge_count`` hyperedges has exactly ``alpha`` members from a
    uniformly chosen minority class and ``edge_size - alpha`` from the
    other. Fully deterministic given ``seed``.
    """
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    if not 1 <= alpha <= edge_size // 2:
        raise InvalidAlpha(f"alpha must lie in [1, {edge_size // 2}], got {alpha}")
    if nodes_per_class < edge_size:
        raise EdgeSizeExceedsClass(
            f"edge_size {edge_size} exceeds class size {nodes_per_class}"
        )
    rng = make_rng(seed)
    n = 2 * nodes_per_class
    labels = np.repeat(np.arange(2, dtype=np.int64), nodes_per_class)
    class_nodes = (
        np.arange(nodes_per_class, dtype=np.int64),
        np.arange(nodes_per_class, n, dtype=np.int64),
    )

    edges = []
    for _ in range(edge_count):
        minority = int(rng.integers(0, 2))
        small = rng.choice(class_nodes[minority], size=alpha, replace=False)
        large = rng.choice(class_nodes[1 - minority], size=edge_size - alpha, replace=False)
        edges.append(np.concatenate([small, large]))

    edges = _repair_coverage(edges, labels, n, rng)
    hg = Hypergraph(
        n=n,
        edges=tuple(tuple(sorted(int(v) for v in e)) for e in edges),
        weights=tuple(1.0 for _ in range(edge_count)),
    )

    means = labels[:, None].astype(np.float64) * np.ones(feature_dim)
    features = means + sigma * rng.standard_normal((n, feature_dim))
    return Dataset(hypergraph=hg, features=features, labels=labels, class_count=2)


def _repair_coverage(edges, labels, n, rng):
    """Swap isolated nodes into edges, preserving size and composition."""
    membership = np.zeros(n, dtype=np.int64)
    for e in edges:
        membership[e] += 1
    for v in np.flatnonzero(membership == 0):
        placed = False
        for ei in rng.permutation(len(edges)):
            e = edges[ei]
            # same-class members with a spare membership can yield a slot
            candidates = [
                j
                for j, u in enumerate(e)
                if labels[u] == labels[v] and membership[u] >= 2
            ]
            if not candidates:
                continue
            j = candidates[int(rng.integers(0, len(candidates)))]
            membership[e[j]] -= 1
            membership[v] += 1
            e[j] = v
            placed = True
            break
        if not placed:
            # the draw gave this class fewer membership slots than nodes
            raise ResultingIsolatedNode(
                f"node {int(v)} cannot be covered: class {int(labels[v])} drew "
                "fewer memberships than it has nodes; raise edge_count or "
                "edge_size, or retry with a new seed"
            )
    return edges


def perturb_features(X: np.ndarray, kind: str, rate: float, seed: int) -> np.ndarray:
    """Corrupt a feature matrix with seeded noise.

    ``gaussian`` adds rate * N(0, 1) entries, ``uniform`` adds
    Unif(-rate, rate) entries, and ``mask`` zeroes each entry
    independently with probability ``rate``.
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidRate(f"rate must lie in [0, 1], got {rate}")
    X = np.asarray(X, dtype=np.float64)
    rng = make_rng(seed)
    if kind == "gaussian":
        return X + rate * rng.standard_normal(X.shape)
    if kind == "uniform":
        return X + rng.uniform(-rate, rate, size=X.shape)
    if kind == "mask":
        keep = rng.random(X.shape) >= rate
        return X * keep
    raise InvalidRate(f"unknown feature noise kind {kind!r}")


def perturb_structure(hg: Hypergraph, rate: float, seed: int) -> Hypergraph:
    """Remove floor(rate * m) random edges and append as many fake ones.

    Each fake edge copies the size and weight of a uniformly drawn
    original edge. The nodes the removal leaves in no edge take uniformly
    drawn fake-edge slots first, one each; every fake edge fills its other
    slots with distinct uniform nodes. Raises ResultingIsolatedNode only
    when these orphans outnumber the fake edges' slots.
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidRate(f"rate must lie in [0, 1], got {rate}")
    k = int(rate * hg.m)
    if k == 0:
        return hg
    rng = make_rng(seed)
    kept = np.setdiff1d(np.arange(hg.m), rng.choice(hg.m, size=k, replace=False))
    templates = rng.integers(0, hg.m, size=k)
    sizes = [len(hg.edges[t]) for t in templates]
    orphans = np.setdiff1d(np.arange(hg.n), [v for i in kept for v in hg.edges[i]])
    if orphans.size > sum(sizes):
        raise ResultingIsolatedNode(
            f"removing {k} edges left {orphans.size} nodes in no edge, more than the "
            f"{sum(sizes)} member slots of the {k} fake edges"
        )
    # orphan i takes a distinct slot of fake edge home[i]
    home = rng.permutation(np.repeat(np.arange(k), sizes))[:orphans.size]
    edges = [hg.edges[i] for i in kept]
    for j, size in enumerate(sizes):
        held = orphans[home == j]
        free = np.setdiff1d(np.arange(hg.n), held, assume_unique=True)
        fill = rng.choice(free, size=size - held.size, replace=False)
        edges.append(tuple(sorted(held.tolist() + fill.tolist())))
    weights = [hg.weights[i] for i in kept] + [hg.weights[t] for t in templates]
    return Hypergraph(n=hg.n, edges=tuple(edges), weights=tuple(weights))
