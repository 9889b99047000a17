"""Shared fixtures and random-instance helpers."""

import signal

import numpy as np
import pytest

from hnd.hypergraph import Dataset, Hypergraph
from hnd.operators import HypergraphOperators
from hnd.rng import make_rng


# A test that runs longer than this fails, so a hang (say, a loop that
# never meets its stopping rule) cannot stall the suite.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarm clock on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def h0():
    """Canonical 3-node hypergraph: edges {0,1} and {0,1,2}, unit weights."""
    return Hypergraph(n=3, edges=((0, 1), (0, 1, 2)), weights=(1.0, 1.0))


@pytest.fixture
def h0_ops(h0):
    return HypergraphOperators(h0)


def random_hypergraph(seed, n_max=60, m_max=40, size_max=8, unit_weights=False,
                      n_exact=None):
    """Random valid hypergraph: every node covered, sizes in [2, size_max]."""
    rng = make_rng(seed)
    n = int(n_exact) if n_exact is not None else int(rng.integers(5, n_max + 1))
    order = rng.permutation(n)
    edges = []
    i = 0
    while i < n:
        k = int(rng.integers(2, size_max + 1))
        chunk = order[i:i + k]
        if len(chunk) < 2:
            extra = order[(i + 1) % n]
            chunk = np.array([chunk[0], extra])
        edges.append(tuple(int(v) for v in np.sort(chunk)))
        i += k
    extra_edges = int(rng.integers(0, max(1, m_max - len(edges))))
    for _ in range(extra_edges):
        k = int(rng.integers(2, min(size_max, n) + 1))
        members = rng.choice(n, size=k, replace=False)
        edges.append(tuple(int(v) for v in np.sort(members)))
    if unit_weights:
        weights = tuple(1.0 for _ in edges)
    else:
        weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, len(edges)))
    return Hypergraph(n=n, edges=tuple(edges), weights=weights)


def random_dataset(seed, d_in=5, classes=3, **kwargs):
    """Random hypergraph plus Gaussian features and uniform labels."""
    hg = random_hypergraph(seed, **kwargs)
    rng = make_rng(seed + 1)
    features = rng.standard_normal((hg.n, d_in))
    labels = rng.integers(0, classes, hg.n)
    return Dataset(hypergraph=hg, features=features, labels=labels, class_count=classes)
