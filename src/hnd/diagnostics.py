"""Quantitative checks on diffusion trajectories.

Energy is the anisotropic Dirichlet form 0.5 (Gx)^T diag(a) (Gx) summed
over feature columns; the flow is its gradient descent when the
modulation is held fixed, so the discrete energy sequence should be
non-increasing for stable step sizes. The bounds report checks the
range-preservation property: degree-normalized node values
x_v / sqrt(d_v) should stay inside their initial per-column min/max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .operators import _rows, as_operators
from .rng import make_rng
from .solvers import Trajectory, _weights_fn


@dataclass
class EnergyReport:
    energies: np.ndarray
    monotone: bool
    first_violation: int | None
    violation_magnitude: float


@dataclass
class BoundsReport:
    lower: np.ndarray          # initial per-column min of x_v / sqrt(d_v)
    upper: np.ndarray          # initial per-column max
    worst_violation: np.ndarray  # per-step max excursion outside [lower, upper]

    @property
    def max_violation(self) -> float:
        return float(self.worst_violation.max(initial=0.0))


def energy(hg, a, x: np.ndarray) -> float:
    """0.5 sum over pairs and columns of a(e,v) * w_e * (grad x)(e,v)^2."""
    ops = as_operators(hg)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != ops.n:
        raise ShapeMismatch(f"state has {x.shape[0]} rows, hypergraph has {ops.n}")
    gx = _rows(ops.grad_scaled(x))
    weighted = gx * gx * _weights_fn(ops, a)(x)[:, None]
    return 0.5 * float(weighted.sum())


def energy_monotonicity(hg, traj: Trajectory, a, rel_tol: float = 1e-10) -> EnergyReport:
    """Energy at every trajectory state, flagging relative increases.

    ``a`` is fixed weights, a callable ``x -> weights``, or a list of one
    weight vector per state, such as the ``Trajectory.weights`` a run
    recorded. The callable and list forms measure each state with its
    own modulation (the recompute-each-step convention).
    """
    ops = as_operators(hg)
    if isinstance(a, list):
        if len(a) != len(traj.states):
            raise ShapeMismatch(f"{len(a)} weight vectors for {len(traj.states)} states")
        per_state = a
    else:
        per_state = map(_weights_fn(ops, a), traj.states)
    vals = np.array([energy(ops, w, s) for w, s in zip(per_state, traj.states)])
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
    """Lanczos estimate of the largest eigenvalue of G^T diag(a) G.

    ``a`` is fixed weights. The operator is positive semi-definite, so
    its largest eigenvalue is the spectral radius. Lanczos with full
    reorthogonalization (Golub & Van Loan, *Matrix Computations*, ch. 10)
    runs from a seeded random start for at most ``iters`` applies. The
    estimate is the largest Ritz value; it has converged when it moves by
    at most tol * max(1, estimate) in one iteration, or when the Krylov
    space is invariant: the next basis vector's norm is that small, or
    the basis spans all n dimensions. Returns (estimate, converged).
    """
    ops = as_operators(hg)
    vec = _weights_fn(ops, a)(None)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = make_rng(seed).standard_normal(ops.n)
    basis, alphas, betas = [v / np.linalg.norm(v)], [], []
    lam = None
    for _ in range(iters):
        w = ops.quad_apply(vec, basis[-1])
        alphas.append(basis[-1] @ w)
        V = np.array(basis)
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal to rounding
            w -= V.T @ (V @ w)
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        lam_new = float(np.linalg.eigvalsh(T)[-1])
        scale = tol * max(1.0, abs(lam_new))
        if beta <= scale or len(basis) == ops.n or (
                lam is not None and abs(lam_new - lam) <= scale):
            return lam_new, True
        lam = lam_new
        basis.append(w / beta)
        betas.append(beta)
    return lam, False
