"""Feature-adaptive modulation weights over hyperedge-node pairs.

Each pair (e, v) gets a scalar score from a small neural map applied to
the projected node feature and the projected aggregate of the edge's
member features; its first layer has a node half and an edge half,
each applied once per node or edge and gathered to the pairs, so no
(N, 2d) pair input is built. Scores are normalized per node with a
softmax so that the weights are strictly positive and sum to one over
each node's incident edges. The resulting length-N vector is the
diagonal of the modulation matrix that makes diffusion anisotropic.

Forward/backward pairs for the score path live here so the training
module can differentiate through the full modulation computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .operators import HypergraphOperators, as_operators
from .rng import make_rng


@dataclass(frozen=True)
class ModulationWeights:
    """Positive per-pair diffusion weights, aligned to the pair index.

    Instances produced by ``normalize_modulation`` and
    ``uniform_modulation`` additionally satisfy the per-node unit-sum
    constraint: ``ops.node_sum(weights.values)`` is all ones.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ShapeMismatch("modulation weights must be a 1-D vector")
        if not np.isfinite(v).all() or (v <= 0).any():
            raise ShapeMismatch("modulation weights must be finite and positive")
        object.__setattr__(self, "values", v)


@dataclass
class AttentionParams:
    """Parameters of the per-pair scoring map.

    ``projection`` maps features to the comparison space; the
    one-hidden-layer map (width d, scalar output) consumes the
    concatenated projected node and edge vectors. LeakyReLU, with a
    negative slope in (0, 1], is applied to the hidden layer and to the
    scalar output.
    """

    projection: np.ndarray  # (d, d)
    hidden_w: np.ndarray    # (d, 2d)
    hidden_b: np.ndarray    # (d,)
    out_w: np.ndarray       # (d,)
    out_b: np.ndarray       # (1,)
    leaky_slope: float

    def __post_init__(self):
        if not 0.0 < self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must be in (0, 1], got {self.leaky_slope!r}")

    @classmethod
    def init(cls, d: int, seed: int, leaky_slope: float = 0.01) -> "AttentionParams":
        """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per tensor."""
        rng = make_rng(seed)
        def u(fan_in, *shape):
            b = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-b, b, size=shape)
        return cls(
            projection=u(d, d, d),
            hidden_w=u(2 * d, d, 2 * d),
            hidden_b=u(2 * d, d),
            out_w=u(d, d),
            out_b=u(d, 1),
            leaky_slope=leaky_slope,
        )

    def _tensors(self) -> tuple:
        return self.projection, self.hidden_w, self.hidden_b, self.out_w, self.out_b

    def zeros_like(self) -> "AttentionParams":
        return AttentionParams(*map(np.zeros_like, self._tensors()), self.leaky_slope)


# branch-free np.where(x >= 0, x, slope * x) and its derivative: the same bits for 0 < slope <= 1
def _leaky(x, slope):
    return np.maximum(x, slope * x)


def _leaky_grad(x, slope):
    return np.maximum(x >= 0, slope)


def edge_features(X: np.ndarray, hg, agg: str = "mean") -> np.ndarray:
    """Permutation-invariant per-edge aggregate of member features."""
    ops = as_operators(hg)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != ops.n:
        raise ShapeMismatch(f"features must be ({ops.n}, d), got {X.shape}")
    gathered = np.take(X, ops.pair_node, axis=0)
    if agg == "mean":
        return ops.edge_sum(gathered) / ops.deg.edge_size[:, None]
    if agg == "max":
        return np.maximum.reduceat(gathered, ops.edge_ptr[:-1], axis=0)
    raise ValueError(f"unknown aggregator {agg!r}")


def scores_forward(params: AttentionParams, X: np.ndarray, ops: HypergraphOperators,
                   agg: str = "mean"):
    """Per-pair similarity scores plus the cache needed for backprop. The
    first layer, ``hidden_w`` = [W_n | W_e], runs on node and edge rows."""
    X = np.asarray(X, dtype=np.float64)
    E = edge_features(X, ops, agg)
    proj_n = X @ params.projection.T
    proj_e = E @ params.projection.T
    w_n, w_e = np.split(params.hidden_w, 2, axis=1)
    pre_h = np.take(proj_n @ w_n.T, ops.pair_node, axis=0)
    pre_h += np.take(proj_e @ w_e.T + params.hidden_b, ops.pair_edge, axis=0)
    H = _leaky(pre_h, params.leaky_slope)
    pre_o = H @ params.out_w + params.out_b[0]
    s = _leaky(pre_o, params.leaky_slope)
    cache = (X, E, proj_n, proj_e, pre_h, H, pre_o, agg)
    return s, cache


def scores_backward(params: AttentionParams, ops: HypergraphOperators, cache, ds: np.ndarray):
    """Vector-Jacobian product of the score map: (AttentionParams-shaped
    gradients, dX). The first layer's pair gradient is summed per node and
    per edge before it meets ``hidden_w``."""
    X, E, proj_n, proj_e, pre_h, H, pre_o, agg = cache
    slope = params.leaky_slope

    d_pre_o = ds * _leaky_grad(pre_o, slope)
    g_out_w = H.T @ d_pre_o
    g_out_b = np.array([d_pre_o.sum()])
    dH = d_pre_o[:, None] * params.out_w
    d_pre_h = dH * _leaky_grad(pre_h, slope)
    dn = ops.node_sum(d_pre_h)
    de = ops.edge_sum(d_pre_h)
    g_hidden_w = np.concatenate([dn.T @ proj_n, de.T @ proj_e], axis=1)
    g_hidden_b = de.sum(axis=0)
    w_n, w_e = np.split(params.hidden_w, 2, axis=1)
    d_proj_n = dn @ w_n
    d_proj_e = de @ w_e

    g_projection = d_proj_n.T @ X + d_proj_e.T @ E
    dX = d_proj_n @ params.projection
    dE = d_proj_e @ params.projection
    dX += _edge_features_backward(X, E, ops, agg, dE)
    return AttentionParams(g_projection, g_hidden_w, g_hidden_b, g_out_w, g_out_b, slope), dX


def _edge_features_backward(X, E, ops, agg, dE) -> np.ndarray:
    if agg == "mean":
        per_pair = np.take(dE / ops.deg.edge_size[:, None], ops.pair_edge, axis=0)
        return ops.node_sum(per_pair)
    # max: route gradient to the first member attaining the maximum
    gathered = np.take(X, ops.pair_node, axis=0)
    ismax = gathered == np.take(E, ops.pair_edge, axis=0)
    cum = np.cumsum(ismax, axis=0)
    offset = np.zeros_like(cum)
    starts = ops.edge_ptr[:-1]
    offset[starts[1:]] = cum[starts[1:] - 1]
    offset = np.maximum.accumulate(offset, axis=0)
    first = ismax & ((cum - offset) == 1)
    return ops.node_sum(np.take(dE, ops.pair_edge, axis=0) * first)


def normalize_modulation(s: np.ndarray, hg) -> ModulationWeights:
    """Per-node softmax of pair scores, max-shifted for overflow safety."""
    ops = as_operators(hg)
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (ops.N,):
        raise ShapeMismatch(f"scores must have shape ({ops.N},), got {s.shape}")
    shift = np.full(ops.n, -np.inf)
    np.maximum.at(shift, ops.pair_node, s)
    # floor keeps exp() above underflow so weights stay strictly positive
    ex = np.exp(np.maximum(s - shift[ops.pair_node], -700.0))
    sums = ops.node_sum(ex)
    return ModulationWeights(values=ex / sums[ops.pair_node])


def softmax_modulation_fn(params: AttentionParams, hg, agg: str = "mean"):
    """The per-node softmax of the pair scores at ``x``, as a callable."""
    ops = as_operators(hg)
    def fn(x):
        s, _ = scores_forward(params, x, ops, agg)
        return normalize_modulation(s, ops).values
    return fn


def softmax_backward(a: np.ndarray, ops: HypergraphOperators, da: np.ndarray) -> np.ndarray:
    """VJP of the per-node softmax: ds given da at weights a."""
    inner = ops.node_sum(da * a)
    return a * (da - inner[ops.pair_node])


def uniform_modulation(hg) -> ModulationWeights:
    """Baseline weights 1/(number of incident edges), per pair."""
    ops = as_operators(hg)
    return ModulationWeights(values=1.0 / ops.incidence_count[ops.pair_node].astype(np.float64))
