"""Encoder -> diffusion layers -> decoder network with exact gradients.

The forward pass encodes raw features with a linear map, integrates the
modulated diffusion flow for a fixed horizon, and decodes the final
state with a second linear map. The ``l`` variant freezes the
modulation weights at the encoded initial state (a linear ODE per
forward pass); the ``nl`` variant recomputes them at every step.

Training differentiates through the complete pipeline, including the
modulation path (aggregation, projection, scoring map, per-node
softmax), by hand-written vector-Jacobian products. Only the explicit
Euler scheme is trainable; the remaining schemes are inference-only.

For ``l`` every Euler step applies the same symmetric map
M = I - tau G^T A G, and the decoder makes the last state's adjoint
dX_L = dlogits w_out^T. Since M is linear, dX_k = V_k w_out^T exactly,
with V_L = dlogits and V_k = M V_{k+1}, so the backward pass carries the
n x C factor V instead of the n x hidden dX: each step's modulation
gradient is -tau rowsum(G V_{k+1} * G x_k w_out), pairing G V with the
G x_k w_out the forward pass stores, and V maps back to hidden space
once, before the modulation and encoder gradients. The adjoint's cost
scales with the class count C, not the hidden width. ``nl`` adds a full
rank modulation term to dX at every step, so its adjoint stays in
hidden space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch, UnsupportedSchemeForTraining
from .hypergraph import Dataset
from .modulation import (
    AttentionParams,
    normalize_modulation,
    scores_backward,
    scores_forward,
    softmax_backward,
    softmax_modulation_fn,
)
from .operators import as_operators
from .rng import make_rng
from .solvers import SolverSpec, integrate


@dataclass
class ModelParams:
    """All learnable tensors: encoder, scoring map, decoder."""

    w_in: np.ndarray        # (d_in, d)
    attention: AttentionParams
    w_out: np.ndarray       # (d, n_classes)

    @classmethod
    def init(cls, d_in: int, hidden: int, n_classes: int, seed: int,
             leaky_slope: float = 0.01) -> "ModelParams":
        rng = make_rng(seed)
        def u(fan_in, *shape):
            b = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-b, b, size=shape)
        return cls(
            w_in=u(d_in, d_in, hidden),
            attention=AttentionParams.init(hidden, seed + 1, leaky_slope),
            w_out=u(hidden, hidden, n_classes),
        )

    def _tensors(self):
        a = self.attention
        return [self.w_in, a.projection, a.hidden_w, a.hidden_b, a.out_w, a.out_b, self.w_out]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self._tensors()])

    def from_vector(self, vec: np.ndarray) -> "ModelParams":
        """New params with this instance's shapes and the vector's values."""
        out = []
        offset = 0
        for t in self._tensors():
            out.append(vec[offset:offset + t.size].reshape(t.shape).copy())
            offset += t.size
        if offset != vec.size:
            raise ShapeMismatch(f"vector has {vec.size} entries, expected {offset}")
        att = AttentionParams(
            projection=out[1], hidden_w=out[2], hidden_b=out[3],
            out_w=out[4], out_b=out[5], leaky_slope=self.attention.leaky_slope,
        )
        return ModelParams(w_in=out[0], attention=att, w_out=out[6])

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            w_in=np.zeros_like(self.w_in),
            attention=self.attention.zeros_like(),
            w_out=np.zeros_like(self.w_out),
        )


def _dropout_mask(shape, rate: float, seed: int) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, else 1/(1-rate)."""
    keep = make_rng(seed).random(shape) >= rate
    return keep / (1.0 - rate)


def forward(params: ModelParams, dataset: Dataset, spec: SolverSpec, variant: str,
            train_mode: bool = False, input_dropout: float = 0.0,
            dropout_seed: int = 0, agg: str = "mean") -> np.ndarray:
    """Logits of shape (n, n_classes) under any integration scheme.

    ``variant`` selects the modulation policy: ``l`` freezes the
    weights at the encoded initial state, ``nl`` recomputes them during
    integration (overriding ``spec.modulation_policy``).
    """
    if variant not in ("l", "nl"):
        raise ValueError(f"variant must be 'l' or 'nl', got {variant!r}")
    ops = as_operators(dataset.hypergraph)
    X_in = dataset.features
    if X_in.shape[1] != params.w_in.shape[0]:
        raise ShapeMismatch(
            f"features have {X_in.shape[1]} columns, encoder expects {params.w_in.shape[0]}"
        )
    if train_mode and input_dropout > 0.0:
        X_in = X_in * _dropout_mask(X_in.shape, input_dropout, dropout_seed)
    x0 = X_in @ params.w_in
    if spec.steps == 0:
        return x0 @ params.w_out
    a_fn = softmax_modulation_fn(params.attention, ops, agg)
    policy = "frozen" if variant == "l" else "recompute_each_step"
    traj = integrate(ops, a_fn, x0, replace(spec, modulation_policy=policy))
    return traj.states[-1] @ params.w_out


def loss_and_gradients(params: ModelParams, dataset: Dataset, train_mask: np.ndarray,
                       spec: SolverSpec, variant: str, weight_decay: float = 0.0,
                       input_dropout: float = 0.0, dropout_seed: int = 0,
                       agg: str = "mean") -> tuple[float, ModelParams, np.ndarray]:
    """Masked softmax cross-entropy plus L2 penalty, with exact gradients.

    Reverse-mode differentiation runs through the decoder, every
    explicit-Euler diffusion step (including the modulation path), and
    the encoder. Returns ``(loss, grads, logits)``. Without input
    dropout the logits equal ``forward``'s for the same arguments bit
    for bit, because both passes do the same arithmetic in the same
    order; with dropout they are the logits of the dropped-out inputs.
    """
    if spec.scheme != "explicit_euler":
        raise UnsupportedSchemeForTraining(
            f"training supports explicit_euler only, got {spec.scheme!r}"
        )
    if variant not in ("l", "nl"):
        raise ValueError(f"variant must be 'l' or 'nl', got {variant!r}")
    ops = as_operators(dataset.hypergraph)
    tau = spec.tau
    steps = spec.steps

    X_in = dataset.features
    if input_dropout > 0.0:
        X_in = X_in * _dropout_mask(X_in.shape, input_dropout, dropout_seed)
    x0 = X_in @ params.w_in

    # forward with caches
    pair_caches = []    # per step: G x_k for nl, G x_k w_out for l
    mod_caches = []     # per-step (a, score cache) for nl
    a_frozen = None
    frozen_cache = None
    if variant == "l" and steps > 0:
        s, frozen_cache = scores_forward(params.attention, x0, ops, agg)
        a_frozen = normalize_modulation(s, ops).values
    x = x0
    for _ in range(steps):
        if variant == "nl":
            s, cache = scores_forward(params.attention, x, ops, agg)
            a = normalize_modulation(s, ops).values
            mod_caches.append((a, cache))
        else:
            a = a_frozen
        gx = ops.grad_scaled(x)
        pair_caches.append(gx if variant == "nl" else gx @ params.w_out)
        x = x - tau * ops.grad_scaled_t(gx, a=a)

    logits = x @ params.w_out

    # masked cross-entropy
    mask = np.asarray(train_mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ShapeMismatch("train mask selects no nodes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    labels = dataset.labels
    picked = shifted[np.arange(ops.n), labels] - np.log(expz.sum(axis=1))
    loss = -picked[mask].mean()
    pvec = params.to_vector()
    loss += 0.5 * weight_decay * float(pvec @ pvec)

    # backward
    dlogits = np.zeros_like(logits)
    dlogits[mask] = probs[mask]
    dlogits[mask, labels[mask]] -= 1.0
    dlogits /= count

    g_w_out = x.T @ dlogits
    # Adjoint of the state: dX_k itself for nl; for l, the n x C factor V_k
    # of dX_k = V_k w_out^T (see the module docstring).
    adj = dlogits if variant == "l" else dlogits @ params.w_out.T
    g_att = params.attention.zeros_like()
    da_frozen = np.zeros(ops.N) if variant == "l" and steps > 0 else None

    for k in range(steps - 1, -1, -1):
        a = mod_caches[k][0] if variant == "nl" else a_frozen
        gd = ops.grad_scaled(adj)
        da = -tau * np.einsum("ij,ij->i", gd, pair_caches[k])
        adj = adj - tau * ops.grad_scaled_t(gd, a=a)
        if variant == "nl":
            ds = softmax_backward(a, ops, da)
            g_step, dX_mod = scores_backward(params.attention, ops, mod_caches[k][1], ds)
            _accumulate(g_att, g_step)
            adj = adj + dX_mod
        else:
            da_frozen += da

    dX = adj @ params.w_out.T if variant == "l" else adj
    if variant == "l" and steps > 0:
        ds = softmax_backward(a_frozen, ops, da_frozen)
        g_step, dX_mod = scores_backward(params.attention, ops, frozen_cache, ds)
        _accumulate(g_att, g_step)
        dX = dX + dX_mod

    g_w_in = X_in.T @ dX
    grads = ModelParams(w_in=g_w_in, attention=g_att, w_out=g_w_out)
    if weight_decay != 0.0:
        gvec = grads.to_vector() + weight_decay * pvec
        grads = grads.from_vector(gvec)
    return float(loss), grads, logits


def _accumulate(total: AttentionParams, delta: AttentionParams) -> None:
    total.projection += delta.projection
    total.hidden_w += delta.hidden_w
    total.hidden_b += delta.hidden_b
    total.out_w += delta.out_w
    total.out_b += delta.out_b
