"""Quantitative checks on diffusion trajectories.

Energy is the anisotropic Dirichlet form 0.5 (Gx)^T diag(a) (Gx) summed
over feature columns; the flow is its gradient descent when the
modulation is held fixed, so the discrete energy sequence should be
non-increasing for stable step sizes. The bounds report checks the
range-preservation property: degree-normalized node values
x_v / sqrt(d_v) should stay inside their initial per-column min/max.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .modulation import as_weight_vector
from .operators import _rows, as_operators
from .rng import make_rng
from .solvers import Trajectory


@dataclass
class EnergyReport:
    energies: np.ndarray
    monotone: bool
    first_violation: int | None
    violation_magnitude: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "energies": self.energies.tolist(),
                "monotone": self.monotone,
                "first_violation": self.first_violation,
                "violation_magnitude": self.violation_magnitude,
            },
            sort_keys=True,
        )


@dataclass
class BoundsReport:
    lower: np.ndarray          # initial per-column min of x_v / sqrt(d_v)
    upper: np.ndarray          # initial per-column max
    worst_violation: np.ndarray  # per-step max excursion outside [lower, upper]

    @property
    def max_violation(self) -> float:
        return float(self.worst_violation.max(initial=0.0))

    def to_json(self) -> str:
        return json.dumps(
            {
                "lower": self.lower.tolist(),
                "upper": self.upper.tolist(),
                "worst_violation": self.worst_violation.tolist(),
                "max_violation": self.max_violation,
            },
            sort_keys=True,
        )


def energy(hg, a, x: np.ndarray) -> float:
    """0.5 sum over pairs and columns of a(e,v) * w_e * (grad x)(e,v)^2."""
    ops = as_operators(hg)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != ops.n:
        raise ShapeMismatch(f"state has {x.shape[0]} rows, hypergraph has {ops.n}")
    gx = _rows(ops.grad_scaled(x))
    weighted = gx * gx * as_weight_vector(a)[:, None]
    return 0.5 * float(weighted.sum())


def energy_monotonicity(hg, traj: Trajectory, a, rel_tol: float = 1e-10) -> EnergyReport:
    """Energy at every trajectory state, flagging relative increases.

    ``a`` is a fixed weight vector or a callable ``x -> weights``; the
    callable form measures each state with its own modulation (the
    recompute-each-step convention).
    """
    ops = as_operators(hg)
    a_fn = a if callable(a) else (lambda x: a)
    vals = np.array([energy(ops, as_weight_vector(a_fn(s)), s) for s in traj.states])
    first = None
    worst = 0.0
    for k in range(1, len(vals)):
        increase = vals[k] - vals[k - 1]
        allowed = rel_tol * (1.0 + abs(vals[k - 1]))
        if increase > allowed:
            if first is None:
                first = k
            worst = max(worst, float(increase))
    return EnergyReport(
        energies=vals,
        monotone=first is None,
        first_violation=first,
        violation_magnitude=worst,
    )


def max_principle(hg, traj: Trajectory) -> BoundsReport:
    """Per-column range check of normalized values along a trajectory."""
    ops = as_operators(hg)
    inv = ops.inv_sqrt_d
    y0 = _rows(traj.states[0]) * inv[:, None]
    lower = y0.min(axis=0)
    upper = y0.max(axis=0)
    worst = np.zeros(len(traj.states))
    for k, state in enumerate(traj.states):
        y = _rows(state) * inv[:, None]
        excess = np.maximum(y - upper, 0.0) + np.maximum(lower - y, 0.0)
        worst[k] = float(excess.max(initial=0.0))
    return BoundsReport(lower=lower, upper=upper, worst_violation=worst)


def spectral_radius(hg, a, iters: int = 200, tol: float = 1e-10,
                    seed: int = 0) -> tuple[float, bool]:
    """Power-iteration estimate of the largest eigenvalue of G^T diag(a) G.

    The operator is positive semi-definite, so the dominant eigenvalue
    equals the spectral radius. Returns (estimate, converged).
    """
    ops = as_operators(hg)
    vec = as_weight_vector(a)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = make_rng(seed).standard_normal(ops.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = ops.quad_apply(vec, v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, True
        lam_new = float(v @ w)
        v = w / norm
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, True
        lam = lam_new
    return lam, False
