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

Each apply multiplies by per-row scales: 1/sqrt(d_v) (n rows), 1/|e|
(m rows), sqrt(w_e) and sqrt(w_e) a (N rows). By default these are
(rows, 1) views that numpy broadcasts. A caller that applies G and
G^T diag(a) many times at one width C and one a builds an ``apply_plan``
once: it holds them as (rows, C) copies, which multiply without the
broadcast, at half its cost or less, and round identically.

``scaled_gradient_matrix`` and ``laplacian_matrix`` build G and L as dense
arrays from their closed forms. They serve only as oracles (tests, the
``expm`` reference of ``hnd bench-solver``, the dense eigenvalues of
``hnd spectrum``), and each refuses more than ``DENSE_LIMIT`` entries.
"""

from __future__ import annotations

from collections import namedtuple

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

    def apply_plan(self, width: int, a: np.ndarray | None = None) -> "ApplyPlan":
        """The scales of the applies to ``width`` columns, as same-shape copies."""
        return ApplyPlan(*(np.repeat(s, width, axis=1) for s in self._plan(None, None, a)))

    def _plan(self, x, plan, a=None) -> "ApplyPlan":
        """``plan``, checked against the columns of x, or (rows, 1) views of the scales."""
        if plan is None:
            sw = self.sqrt_w_pair[:, None]
            return ApplyPlan(self.inv_sqrt_d[:, None], self.inv_size[:, None], sw,
                             sw if a is None else (self.sqrt_w_pair * a)[:, None])
        if a is not None or plan.sqrt_w.shape[1] not in (1, _rows(x).shape[1]):
            raise ShapeMismatch(f"a width-{plan.sqrt_w.shape[1]} plan, which fixes a, cannot "
                                f"take a signal of shape {x.shape} or another a")
        return plan

    def grad(self, f: np.ndarray, plan: "ApplyPlan | None" = None) -> np.ndarray:
        """Deviation of each member from its edge's normalized mean."""
        p = self._plan(f, plan)
        gathered = np.take(_rows(f) * p.inv_sqrt_d, self.pair_node, axis=0)
        return self._center(gathered, p).reshape(-1, *f.shape[1:])

    def div(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of grad: weighted net flux imbalance per node."""
        return self._collect(_rows(g) * self.w_pair[:, None]).reshape(-1, *g.shape[1:])

    def grad_scaled(self, f: np.ndarray, plan: "ApplyPlan | None" = None) -> np.ndarray:
        """Apply G = S^{1/2} (B - C) Dv^{-1/2}."""
        p = self._plan(f, plan)
        out = _rows(self.grad(f, plan=p))
        out *= p.sqrt_w
        return out.reshape(-1, *f.shape[1:])

    def grad_scaled_t(self, y: np.ndarray, a: np.ndarray | None = None,
                      plan: "ApplyPlan | None" = None) -> np.ndarray:
        """Apply G^T, or G^T diag(a) for a pair-aligned diagonal a (a plan carries its own a)."""
        p = self._plan(y, plan, a)
        return self._collect(_rows(y) * p.sqrt_w_a, p).reshape(-1, *y.shape[1:])

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Apply L = G^T G."""
        return self.grad_scaled_t(self.grad_scaled(f))

    def quad_apply(self, a: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Apply G^T diag(a) G, rounding as grad_scaled_t(grad_scaled(f), a=a)."""
        y = _rows(self.grad_scaled(f))
        y *= (self.sqrt_w_pair * a)[:, None]
        return self._collect(y).reshape(-1, *f.shape[1:])

    def _collect(self, z: np.ndarray, p: "ApplyPlan | None" = None) -> np.ndarray:
        """Dv^{-1/2} (B - C)^T z for an (N, d) z, which it overwrites."""
        p = p or self._plan(z, None)
        out = self.node_sum(self._center(z, p))
        out *= p.inv_sqrt_d
        return out

    def _center(self, z: np.ndarray, p: "ApplyPlan") -> np.ndarray:
        """Subtract each edge's mean from its rows of the (N, d) z, in place."""
        mean = self.edge_sum(z)
        mean *= p.inv_size
        z -= np.take(mean, self.pair_edge, axis=0)
        return z


# 1/sqrt(d_v), 1/|e|, sqrt(w_e) and sqrt(w_e) a, as (rows, 1) views or (rows, C) copies
ApplyPlan = namedtuple("ApplyPlan", "inv_sqrt_d inv_size sqrt_w sqrt_w_a")


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
