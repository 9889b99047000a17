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

With the weights frozen (``l``), every step of a fixed-step scheme is
linear in the state and so commutes with the decoder: for Euler,
x_L w_out = M^L (x0 w_out) with M = I - tau G^T A G. Both passes
therefore diffuse the n x C logits z = x w_out, and only the scoring map
at x0 sees the hidden width. M is symmetric, so the adjoint is
V_k = M V_{k+1} from V_L = dlogits, also on C columns: the modulation
gradient sums -tau rowsum(G V_{k+1} * G z_k) over the steps, the
encoded state gets V_0 w_out^T, and w_out gets x0^T V_0. Implicit Euler
and the adaptive scheme stop at a tolerance or a norm, so they integrate
at the hidden width. ``nl`` adds a full-rank modulation term to the
state adjoint at every step, so it stays at the hidden width throughout.
Each training step, forward or adjoint, is one ``ops.euler_step`` call;
``l`` passes it the apply plan of its frozen a, built once per pass.
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
    def init(cls, d_in: int, hidden: int, n_classes: int, seed: int) -> "ModelParams":
        rng = make_rng(seed)
        def u(fan_in, *shape):
            b = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-b, b, size=shape)
        return cls(
            w_in=u(d_in, d_in, hidden),
            attention=AttentionParams.init(hidden, seed + 1),
            w_out=u(hidden, hidden, n_classes),
        )

    def _tensors(self):
        return [self.w_in, *self.attention._tensors(), self.w_out]

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
        att = AttentionParams(*out[1:6], leaky_slope=self.attention.leaky_slope)
        return ModelParams(w_in=out[0], attention=att, w_out=out[6])

    def zeros_like(self) -> "ModelParams":
        return self.from_vector(np.zeros_like(self.to_vector()))


def _dropout_mask(shape, rate: float, seed: int) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, else 1/(1-rate)."""
    keep = make_rng(seed).random(shape) >= rate
    return keep / (1.0 - rate)


def _encode(params: ModelParams, features: np.ndarray, input_dropout: float,
            dropout_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (dropped-out) encoder input and the encoded state x0 = X w_in."""
    if features.shape[1] != params.w_in.shape[0]:
        raise ShapeMismatch(
            f"features have {features.shape[1]} columns, encoder expects {params.w_in.shape[0]}"
        )
    if input_dropout > 0.0:
        features = features * _dropout_mask(features.shape, input_dropout, dropout_seed)
    return features, features @ params.w_in


def forward(params: ModelParams, dataset: Dataset, spec: SolverSpec, variant: str,
            train_mode: bool = False, input_dropout: float = 0.0,
            dropout_seed: int = 0, agg: str = "mean") -> np.ndarray:
    """Logits of shape (n, n_classes) under any integration scheme.

    ``variant`` selects the modulation policy: ``l`` freezes the
    weights at the encoded initial state, ``nl`` recomputes them during
    integration (overriding ``spec.modulation_policy``).
    """
    if variant not in _PASSES:
        raise ValueError(f"variant must be 'l' or 'nl', got {variant!r}")
    ops = as_operators(dataset.hypergraph)
    _, x0 = _encode(params, dataset.features, input_dropout if train_mode else 0.0, dropout_seed)
    if spec.steps == 0:
        return x0 @ params.w_out
    a_fn = softmax_modulation_fn(params.attention, ops, agg)
    if variant == "l" and spec.scheme not in ("implicit_euler", "adaptive"):
        return integrate(ops, a_fn(x0), x0 @ params.w_out, spec).states[-1]
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
    if variant not in _PASSES:
        raise ValueError(f"variant must be 'l' or 'nl', got {variant!r}")
    ops = as_operators(dataset.hypergraph)
    X_in, x0 = _encode(params, dataset.features, input_dropout, dropout_seed)
    logits, backward = _PASSES[variant](params, ops, x0, spec.tau, spec.steps, agg)

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

    # backward; each pass maps dlogits to (scoring-map grads, encoded-state adjoint, w_out grad)
    dlogits = np.zeros_like(logits)
    dlogits[mask] = probs[mask]
    dlogits[mask, labels[mask]] -= 1.0
    dlogits /= count
    g_att, dX, g_w_out = backward(dlogits)
    grads = ModelParams(w_in=X_in.T @ dX, attention=g_att, w_out=g_w_out)
    if weight_decay != 0.0:
        gvec = grads.to_vector() + weight_decay * pvec
        grads = grads.from_vector(gvec)
    return float(loss), grads, logits


def _frozen_pass(params, ops, x0, tau, steps, agg):
    """``l``: logits of Euler steps on z = x0 w_out, and ``backward(dlogits)``."""
    if steps == 0:  # no step reads the modulation, so do not score it
        return _recompute_pass(params, ops, x0, tau, steps, agg)
    s, cache = scores_forward(params.attention, x0, ops, agg)
    a = normalize_modulation(s, ops).values
    z = x0 @ params.w_out
    plan = ops.apply_plan(z.shape[1], a)  # a is fixed for all 2 * steps Euler steps
    gzs = []            # G z_k per step
    for _ in range(steps):
        z, gz = ops.euler_step(z, tau, plan=plan)
        gzs.append(gz)

    def backward(dlogits):
        v, da = dlogits, np.zeros(ops.N)
        for gz in reversed(gzs):
            v, gv = ops.euler_step(v, tau, plan=plan)
            da -= tau * np.einsum("ij,ij->i", gv, gz)
        g_att, dX_mod = scores_backward(params.attention, ops, cache, softmax_backward(a, ops, da))
        return g_att, v @ params.w_out.T + dX_mod, x0.T @ v
    return z, backward


def _recompute_pass(params, ops, x, tau, steps, agg):
    """``nl``: logits of Euler steps rescoring every state, and ``backward(dlogits)``."""
    steps_cache = []    # per step: (a, score cache, G x_k)
    for _ in range(steps):
        s, cache = scores_forward(params.attention, x, ops, agg)
        a = normalize_modulation(s, ops).values
        x, gx = ops.euler_step(x, tau, a=a)
        steps_cache.append((a, cache, gx))

    def backward(dlogits):
        g_att = params.attention.zeros_like()
        dX = dlogits @ params.w_out.T
        for a, cache, gx in reversed(steps_cache):
            dX, gd = ops.euler_step(dX, tau, a=a)
            da = -tau * np.einsum("ij,ij->i", gd, gx)
            g_step, dX_mod = scores_backward(params.attention, ops, cache,
                                             softmax_backward(a, ops, da))
            _accumulate(g_att, g_step)
            dX = dX + dX_mod
        return g_att, dX, x.T @ dlogits
    return x @ params.w_out, backward


_PASSES = {"l": _frozen_pass, "nl": _recompute_pass}


def _accumulate(total: AttentionParams, delta: AttentionParams) -> None:
    for t, d in zip(total._tensors(), delta._tensors()):
        t += d
