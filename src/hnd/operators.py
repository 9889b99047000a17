"""Hypergraph gradient, divergence, and Laplacian.

The raw operator pair follows the degree-normalized definitions

    (grad f)(e, v) = f(v)/sqrt(d_v) - (1/|e|) sum_{u in e} f(u)/sqrt(d_u)
    (div g)(v)     = sum_{e : v in e} (w_e/sqrt(d_v)) (g(e,v) - (1/|e|) sum_{u in e} g(e,u))

which are adjoint under the node inner product and the w_e-weighted
pair inner product, so div(grad(.)) is the normalized hypergraph
Laplacian  L = I - Dv^{-1/2} H We De^{-1} H^T Dv^{-1/2}.

The scaled gradient matrix  G = S^{1/2} (B - C) Dv^{-1/2}  (S the
per-pair diagonal of edge weights, B the pair-to-node selector, C the
pair-to-edge-mean averager) satisfies G^T G = L, which puts the
diffusion right-hand side in the symmetric form -G^T A G x. The raw
operators relate to it by  grad = S^{-1/2} G  and  div(g) = G^T S^{1/2} g.

``HypergraphOperators`` applies every operator matrix-free to signals
viewed as (rows, d), summing in a fixed order: edge sums reduce contiguous
edge blocks, node sums scatter-add pairs with ``np.bincount``. Each apply
centers the pair array it allocates in place, not in a copy, and keeps
no per-call state, so the workspace that ``as_operators`` caches per
hypergraph gives deterministic results to any number of threads.

``scaled_gradient_matrix`` and ``laplacian_matrix`` build G and L as dense
arrays from their closed forms. They serve only as oracles (tests, the
``expm`` reference of ``hnd bench-solver``, the dense eigenvalues of
``hnd spectrum``), and each refuses more than ``DENSE_LIMIT`` entries.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, TooLarge
from .hypergraph import Degrees, Hypergraph, PairIndex, degrees, pair_index

DENSE_LIMIT = 10**6


def _rows(x: np.ndarray) -> np.ndarray:
    """View a 1-D or (rows, d) signal as (rows, d)."""
    return x.reshape(len(x), -1)


def _flat_index(index: np.ndarray, width: int) -> np.ndarray:
    """Row-major slots index * width + j of a (len(index), width) row scatter."""
    return (index[:, None] * width + np.arange(width)).ravel()


class HypergraphOperators:
    """Matrix-free hypergraph calculus over a fixed hypergraph.

    Applications are pure and safe to share across threads: the node-sum
    index of each column count is published once, with ``dict.setdefault``.
    """

    def __init__(self, hg: Hypergraph):
        self.pairs: PairIndex = pair_index(hg)
        self.deg: Degrees = degrees(hg)
        self.n = hg.n
        self.m = hg.m
        self.N = self.pairs.N

        self.pair_edge = self.pairs.edge_id
        self.pair_node = self.pairs.node_id
        sizes = self.deg.edge_size
        self.edge_ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.inv_size = 1.0 / sizes
        self.w_edge = np.asarray(hg.weights, dtype=np.float64)
        self.w_pair = np.repeat(self.w_edge, sizes)
        self.sqrt_w_pair = np.sqrt(self.w_pair)
        self.sqrt_d = np.sqrt(self.deg.d_v)
        self.inv_sqrt_d = 1.0 / self.sqrt_d

        self.incidence_count = np.bincount(self.pair_node, minlength=self.n)
        # intp, because bincount converts any other index dtype on every call
        self._node_index = {1: self.pair_node}

    # ---- segment reductions (deterministic order) ----

    def edge_sum(self, pair_values: np.ndarray) -> np.ndarray:
        """Sum pair-aligned values within each edge block."""
        return np.add.reduceat(pair_values, self.edge_ptr[:-1], axis=0)

    def node_sum(self, pair_values: np.ndarray) -> np.ndarray:
        """Sum pair-aligned values over each node's incident pairs."""
        cols = _rows(pair_values)
        width = cols.shape[1]
        index = self._node_index.get(width)
        if index is None:
            index = self._node_index.setdefault(width, _flat_index(self.pair_node, width))
        sums = np.bincount(index, weights=cols.ravel(), minlength=self.n * width)
        return sums.reshape((self.n,) + pair_values.shape[1:])

    # ---- applies; 1-D signals in, 1-D out ----

    def grad(self, f: np.ndarray) -> np.ndarray:
        """Deviation of each member from its edge's normalized mean."""
        gathered = np.take(_rows(f) * self.inv_sqrt_d[:, None], self.pair_node, axis=0)
        return self._center(gathered).reshape(-1, *f.shape[1:])

    def div(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of grad: weighted net flux imbalance per node."""
        return self._collect(_rows(g) * self.w_pair[:, None]).reshape(-1, *g.shape[1:])

    def grad_scaled(self, f: np.ndarray) -> np.ndarray:
        """Apply G = S^{1/2} (B - C) Dv^{-1/2}."""
        out = _rows(self.grad(f))
        out *= self.sqrt_w_pair[:, None]
        return out.reshape(-1, *f.shape[1:])

    def grad_scaled_t(self, y: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """Apply G^T, or G^T diag(a) for a pair-aligned diagonal a."""
        scale = self.sqrt_w_pair if a is None else self.sqrt_w_pair * a
        return self._collect(_rows(y) * scale[:, None]).reshape(-1, *y.shape[1:])

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Apply L = G^T G."""
        return self.grad_scaled_t(self.grad_scaled(f))

    def quad_apply(self, a: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Apply G^T diag(a) G, rounding as grad_scaled_t(grad_scaled(f), a=a)."""
        y = _rows(self.grad_scaled(f))
        y *= (self.sqrt_w_pair * a)[:, None]
        return self._collect(y).reshape(-1, *f.shape[1:])

    def _collect(self, z: np.ndarray) -> np.ndarray:
        """Dv^{-1/2} (B - C)^T z for an (N, d) z, which it overwrites."""
        out = self.node_sum(self._center(z))
        out *= self.inv_sqrt_d[:, None]
        return out

    def _center(self, z: np.ndarray) -> np.ndarray:
        """Subtract each edge's mean from its rows of the (N, d) z, in place."""
        mean = self.edge_sum(z)
        mean *= self.inv_size[:, None]
        z -= np.take(mean, self.pair_edge, axis=0)
        return z


def as_operators(hg) -> HypergraphOperators:
    """The workspace of a Hypergraph, built on its first use and cached on it.

    Threads racing on the first call may each build one, but
    ``dict.setdefault`` keeps exactly one, which all of them use.
    """
    if isinstance(hg, HypergraphOperators):
        return hg
    cache = hg.__dict__
    return cache.get("_operators") or cache.setdefault("_operators", HypergraphOperators(hg))


def _check_signal(f: np.ndarray, rows: int, kind: str) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[0] != rows:
        raise ShapeMismatch(f"{kind} signal must be ({rows},) or ({rows}, d), got {f.shape}")
    return f


def gradient_apply(hg, f: np.ndarray) -> np.ndarray:
    """Hypergraph gradient of a node signal, in pair-index order."""
    ops = as_operators(hg)
    return ops.grad(_check_signal(f, ops.n, "node"))


def divergence_apply(hg, g: np.ndarray) -> np.ndarray:
    """Hypergraph divergence of a pair signal."""
    ops = as_operators(hg)
    return ops.div(_check_signal(g, ops.N, "pair"))


def laplacian_apply(hg, f: np.ndarray) -> np.ndarray:
    """div(grad(f)), equal to G^T G f."""
    ops = as_operators(hg)
    return ops.laplacian(_check_signal(f, ops.n, "node"))


def _zeros(rows: int, cols: int) -> np.ndarray:
    """A zero rows x cols oracle, refused beyond DENSE_LIMIT entries."""
    if rows * cols > DENSE_LIMIT:
        raise TooLarge(f"dense form would hold {rows * cols} entries")
    return np.zeros((rows, cols))


def _edge_blocks(ops: HypergraphOperators) -> tuple[np.ndarray, np.ndarray]:
    """Positions (p, q) of every two pairs sharing an edge, ordered by p, then q."""
    block = ops.deg.edge_size[ops.pair_edge]
    p = np.repeat(np.arange(ops.N), block)
    row_start = np.cumsum(block) - block
    q = ops.edge_ptr[ops.pair_edge][p] + np.arange(p.size) - row_start[p]
    return p, q


def scaled_gradient_matrix(hg) -> np.ndarray:
    """Dense N x n matrix of G = S^{1/2} (B - C) Dv^{-1/2}."""
    ops = as_operators(hg)
    G = _zeros(ops.N, ops.n)
    p, q = _edge_blocks(ops)
    u = ops.pair_node[q]
    sw = ops.sqrt_w_pair[p]
    vals = -sw / (ops.deg.edge_size[ops.pair_edge[p]] * ops.sqrt_d[u])
    diag = p == q
    vals[diag] += sw[diag] / ops.sqrt_d[u[diag]]
    np.add.at(G, (p, u), vals)
    return G


def laplacian_matrix(hg) -> np.ndarray:
    """Dense closed-form Laplacian I - Dv^{-1/2} H We De^{-1} H^T Dv^{-1/2}."""
    ops = as_operators(hg)
    L = _zeros(ops.n, ops.n)
    p, q = _edge_blocks(ops)
    v, u = ops.pair_node[p], ops.pair_node[q]
    vals = -(ops.w_edge / ops.deg.edge_size)[ops.pair_edge[p]] / (ops.sqrt_d[v] * ops.sqrt_d[u])
    np.add.at(L, (v, u), vals)
    L[np.diag_indices(ops.n)] += 1.0
    return L
