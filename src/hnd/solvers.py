"""Time integration of the hypergraph diffusion flow dx/dt = -G^T A(x) G x.

Schemes: explicit and implicit Euler, classical RK4, fourth-order
Adams-Bashforth and Adams-Moulton (predictor-corrector), and an
embedded Bogacki-Shampine 3(2) pair with proportional step control.

The modulation argument everywhere is a weight vector, a
ModulationWeights, or a callable ``x -> weights`` returning either.
Only ``integrate`` applies ``SolverSpec.modulation_policy``: ``frozen``
evaluates a callable once at the initial state, ``recompute_each_step``
at every right-hand-side evaluation, including Runge-Kutta stages,
which is what every other function here does with a callable.
``_weights_fn`` is the one reader of the modulation, and it rejects any
weight vector that is not finite, non-negative and of shape (N,).

The implicit Euler step runs an outer fixed-point loop on the
modulation combined with an inner conjugate-gradient solve of the
symmetric positive definite system (I + tau G^T A G) y = x; plain
fixed-point iteration on the whole map diverges once tau exceeds the
reciprocal spectral radius, the SPD solve does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, ShapeMismatch, StepUnderflow, TooFewSteps
from .modulation import ModulationWeights
from .operators import _rows, as_operators

SCHEMES = ("explicit_euler", "implicit_euler", "rk4", "ab4", "am4", "adaptive")

AB4_COEFFICIENTS = (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0)
AM4_COEFFICIENTS = (9.0 / 24.0, 19.0 / 24.0, -5.0 / 24.0, 1.0 / 24.0)


def _require_positive(**fields) -> None:
    """Raise ValueError naming the first field that is not finite and positive."""
    for name, value in fields.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class AdaptiveSpec:
    """Step-size controller parameters for the embedded 3(2) pair."""

    tol: float = 1e-6
    fac_min: float = 0.2
    fac_max: float = 5.0
    tau_init: float = 0.1
    tau_min: float = 1e-10
    tau_max: float = 10.0


@dataclass
class SolverSpec:
    """Integration scheme selection and stepping parameters."""

    scheme: str = "explicit_euler"
    tau: float = 1.0
    steps: int = 4
    modulation_policy: str = "frozen"
    fp_tol: float = 1e-10
    fp_max_iter: int = 100
    adaptive: AdaptiveSpec = field(default_factory=AdaptiveSpec)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.modulation_policy not in ("frozen", "recompute_each_step"):
            raise ValueError(f"unknown modulation policy {self.modulation_policy!r}")
        _require_positive(tau=self.tau, fp_tol=self.fp_tol)
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        a = self.adaptive
        if not (0 < a.fac_min <= 1 <= a.fac_max):
            raise ValueError("need 0 < fac_min <= 1 <= fac_max")

    @property
    def horizon(self) -> float:
        return self.tau * self.steps


@dataclass
class Trajectory:
    """Recorded states of one integration run.

    ``states[0]`` is the initial condition; ``step_sizes[k]`` is the tau
    that produced ``states[k+1]``.
    """

    times: list[float]
    states: list[np.ndarray]
    step_sizes: list[float]
    rhs_evals: int = 0
    accepted: int = 0
    rejected: int = 0


def _weights_fn(ops, a):
    """Any accepted modulation ``a`` as a callable ``x -> weight vector``.

    A vector is checked once, when it is wrapped, and each result of a
    callable when it is returned: anything but a finite non-negative
    vector of shape (N,) raises ShapeMismatch.
    """
    if callable(a):
        return lambda x: _weights_fn(ops, a(x))(x)
    vec = a.values if isinstance(a, ModulationWeights) else np.asarray(a, dtype=np.float64)
    if vec.shape != (ops.N,) or not (vec.min() >= 0 and math.isfinite(vec.max())):
        raise ShapeMismatch(
            f"modulation weights must be finite, non-negative and of shape ({ops.N},)")
    return lambda x: vec


def rhs(hg, a, x: np.ndarray) -> np.ndarray:
    """Diffusion right-hand side -G^T diag(a) G x."""
    ops = as_operators(hg)
    return -ops.quad_apply(_weights_fn(ops, a)(x), np.asarray(x, dtype=np.float64))


def step_explicit_euler(hg, a, x: np.ndarray, tau: float) -> np.ndarray:
    """One forward-Euler update with the modulation evaluated at x."""
    ops = as_operators(hg)
    return x - tau * ops.quad_apply(_weights_fn(ops, a)(x), x)


def step_implicit_euler(hg, a, x: np.ndarray, tau: float,
                        fp_tol: float = 1e-10, fp_max_iter: int = 100,
                        traj: Trajectory | None = None) -> np.ndarray:
    """One backward-Euler update solved to the stated residual.

    The returned y satisfies ||y - x + tau G^T A(y) G y||_F <= fp_tol.
    Raises NoConvergence (carrying the final residual, and naming every
    CG solve that stopped at its iteration cap) at the fixed-point
    iteration cap. When ``traj`` is given, the step's G^T A G applies
    are added to its ``rhs_evals``: each CG solve's matvecs, its initial
    residual included, plus one residual per fixed-point iteration.
    """
    ops = as_operators(hg)
    a_fn = _weights_fn(ops, a)
    x = np.asarray(x, dtype=np.float64)
    if tau == 0.0:
        return x.copy()
    a_cur = a_fn(x)
    y = x.copy()
    residual = np.inf
    cg_tol, cg_max_iter = 0.5 * fp_tol, 4 * ops.n + 40
    cg_capped, applies = [], 0
    for k in range(max(1, fp_max_iter)):
        y, cg_iters, cg_converged = _cg_solve(ops, a_cur, x, tau, y, cg_tol, cg_max_iter)
        applies += cg_iters + 2
        if not cg_converged:
            cg_capped.append(k)
        a_next = a_fn(y)
        residual = float(np.linalg.norm(y - x + tau * ops.quad_apply(a_next, y)))
        if residual <= fp_tol:
            if traj is not None:
                traj.rhs_evals += applies
            return y
        a_cur = a_next
    capped = (f"; CG stopped at {cg_max_iter} iterations above {cg_tol:.3e}"
              f" in fixed-point iterations {cg_capped}") if cg_capped else ""
    raise NoConvergence(f"implicit step residual {residual:.3e} > {fp_tol:.3e}{capped}", residual)


def _cg_solve(ops, a, b, tau, x0, tol, max_iter):
    """Conjugate gradients on (I + tau G^T diag(a) G) y = b, per column.

    Returns (y, iterations, whether the residual norm met tol).
    """
    def matvec(v):
        out = ops.quad_apply(a, v)
        out *= tau
        out += v
        return out

    def col_dot(u, v):
        return np.einsum("i...,i...->...", u, v)

    x = x0.copy()
    r = b - matvec(x)
    p = r.copy()
    rs = col_dot(r, r)
    iters = 0
    while np.sqrt(rs.sum()) > tol:
        if iters == max_iter:
            return x, iters, False
        Ap = matvec(p)
        den = col_dot(p, Ap)
        alpha = np.where(den > 0, rs / np.where(den > 0, den, 1.0), 0.0)
        x += alpha * p
        r -= alpha * Ap
        rs_new = col_dot(r, r)
        beta = np.where(rs > 0, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        p *= beta
        p += r
        rs = rs_new
        iters += 1
    return x, iters, True


def step_rk4(hg, a, x: np.ndarray, tau: float) -> np.ndarray:
    """Classical four-stage fourth-order update on the diffusion flow."""
    ops = as_operators(hg)
    a_fn = _weights_fn(ops, a)

    def g(v):
        return -ops.quad_apply(a_fn(v), v)

    k1 = g(x)
    k2 = g(x + 0.5 * tau * k1)
    k3 = g(x + 0.5 * tau * k2)
    k4 = g(x + tau * k3)
    return x + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_multistep(hg, a, x0: np.ndarray, tau: float, steps: int,
                        scheme: str = "ab4") -> Trajectory:
    """Fourth-order Adams integration with RK4 startup.

    ``ab4`` is the explicit Adams-Bashforth rule; ``am4`` runs it as a
    predictor followed by one Adams-Moulton correction. A callable ``a``
    is evaluated at every right-hand-side evaluation.
    """
    if steps < 4:
        raise TooFewSteps(f"multistep schemes need >= 4 steps, got {steps}")
    if scheme not in ("ab4", "am4"):
        raise ValueError(f"unknown multistep scheme {scheme!r}")
    ops = as_operators(hg)
    x = np.asarray(x0, dtype=np.float64)
    a_fn = _weights_fn(ops, a)

    traj = Trajectory(times=[0.0], states=[x.copy()], step_sizes=[])
    def g(v):
        traj.rhs_evals += 1
        return -ops.quad_apply(a_fn(v), v)

    history = [g(x)]
    for k in range(3):
        x = step_rk4(ops, a_fn, x, tau)
        traj.rhs_evals += 4
        traj.times.append((k + 1) * tau)
        traj.states.append(x.copy())
        traj.step_sizes.append(tau)
        history.append(g(x))

    c = AB4_COEFFICIENTS
    cm = AM4_COEFFICIENTS
    for k in range(3, steps):
        g0, g1, g2, g3 = history[-1], history[-2], history[-3], history[-4]
        pred = x + tau * (c[0] * g0 + c[1] * g1 + c[2] * g2 + c[3] * g3)
        if scheme == "am4":
            gp = g(pred)
            x = x + tau * (cm[0] * gp + cm[1] * g0 + cm[2] * g1 + cm[3] * g2)
        else:
            x = pred
        traj.times.append((k + 1) * tau)
        traj.states.append(x.copy())
        traj.step_sizes.append(tau)
        history.append(g(x))
        history.pop(0)
    traj.accepted = steps
    return traj


# Bogacki-Shampine 3(2) tableau, and the step controller's exponent
# 1/(order + 1) for its third-order solution
_BS_B3 = (2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0)
_BS_B2 = (7.0 / 24.0, 1.0 / 4.0, 1.0 / 3.0, 1.0 / 8.0)
_BS_EXPONENT = 1.0 / 4.0


def integrate_adaptive(hg, a, x0: np.ndarray, horizon_T: float,
                       adaptive: AdaptiveSpec | None = None) -> Trajectory:
    """Embedded 3(2) pair with proportional step-size control.

    Per step the error estimate is the norm of the difference between
    the third- and second-order solutions; accepted when it does not
    exceed ``tol``. The next step is
    tau * min(max(fac_min, (tol/error)^{1/4}), fac_max) clamped to
    [tau_min, tau_max], and the final step is shortened to land exactly
    on the horizon. A callable ``a`` is evaluated at every right-hand-side
    evaluation, rejected stages included. A non-finite error estimate
    raises StepUnderflow, as no step size can make it acceptable.
    """
    spec = adaptive or AdaptiveSpec()
    # a NaN or zero here would reject every step without ever underflowing
    _require_positive(horizon=horizon_T, tol=spec.tol, tau_init=spec.tau_init,
                      tau_min=spec.tau_min, tau_max=spec.tau_max)
    ops = as_operators(hg)
    x = np.asarray(x0, dtype=np.float64)
    a_fn = _weights_fn(ops, a)

    traj = Trajectory(times=[0.0], states=[x.copy()], step_sizes=[])
    def g(v):
        traj.rhs_evals += 1
        return -ops.quad_apply(a_fn(v), v)

    t = 0.0
    tau_ctrl = min(spec.tau_init, horizon_T)
    while t < horizon_T * (1.0 - 1e-14):
        tau = min(tau_ctrl, horizon_T - t)
        k1 = g(x)
        k2 = g(x + 0.5 * tau * k1)
        k3 = g(x + 0.75 * tau * k2)
        x3 = x + tau * (_BS_B3[0] * k1 + _BS_B3[1] * k2 + _BS_B3[2] * k3)
        k4 = g(x3)
        x2 = x + tau * (_BS_B2[0] * k1 + _BS_B2[1] * k2 + _BS_B2[2] * k3 + _BS_B2[3] * k4)
        error = float(np.linalg.norm(x3 - x2))
        if not math.isfinite(error):
            raise StepUnderflow(f"non-finite error estimate {error} at t={t!r}, tau={tau!r}")

        if error <= spec.tol:
            t += tau
            x = x3
            traj.times.append(t)
            traj.states.append(x.copy())
            traj.step_sizes.append(tau)
            traj.accepted += 1
        else:
            traj.rejected += 1

        factor = (spec.tol / error) ** _BS_EXPONENT if error > 0 else spec.fac_max
        candidate = tau * min(max(spec.fac_min, factor), spec.fac_max)
        if error > spec.tol and candidate < spec.tau_min:
            raise StepUnderflow(
                f"required step {candidate:.3e} below tau_min {spec.tau_min:.3e}"
            )
        tau_ctrl = min(max(candidate, spec.tau_min), spec.tau_max)
    return traj


def integrate(hg, a, x0: np.ndarray, spec: SolverSpec) -> Trajectory:
    """Run the scheme selected by ``spec`` and record the trajectory."""
    ops = as_operators(hg)
    x = np.asarray(x0, dtype=np.float64)
    a_fn = _weights_fn(ops, a)
    if spec.modulation_policy == "frozen":
        a_fn = _weights_fn(ops, a_fn(x).copy())

    if spec.scheme in ("ab4", "am4"):
        return integrate_multistep(ops, a_fn, x, spec.tau, spec.steps, spec.scheme)
    if spec.scheme == "adaptive":
        return integrate_adaptive(ops, a_fn, x, spec.horizon, spec.adaptive)

    traj = Trajectory(times=[0.0], states=[x.copy()], step_sizes=[])
    for k in range(spec.steps):
        if spec.scheme == "explicit_euler":
            x = step_explicit_euler(ops, a_fn, x, spec.tau)
            traj.rhs_evals += 1
        elif spec.scheme == "implicit_euler":
            x = step_implicit_euler(ops, a_fn, x, spec.tau, spec.fp_tol, spec.fp_max_iter,
                                    traj=traj)
        else:  # rk4
            x = step_rk4(ops, a_fn, x, spec.tau)
            traj.rhs_evals += 4
        traj.times.append((k + 1) * spec.tau)
        traj.states.append(x.copy())
        traj.step_sizes.append(spec.tau)
    traj.accepted = spec.steps
    return traj


def trajectory_to_csv(traj: Trajectory, energies=None) -> str:
    """Plot-ready CSV with columns step, time, tau, state_norm, energy."""
    lines = ["step,time,tau,state_norm,energy"]
    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        tau = 0.0 if k == 0 else traj.step_sizes[k - 1]
        norm = float(np.linalg.norm(state))
        energy = "" if energies is None else repr(float(energies[k]))
        lines.append(f"{k},{t!r},{tau!r},{norm!r},{energy}")
    return "\n".join(lines) + "\n"


def trajectory_states_to_binary(traj: Trajectory) -> bytes:
    """Full-state dump: magic, n, d, state count, then row-major float64."""
    import struct

    n, d = _rows(traj.states[0]).shape
    header = b"HNDTRAJ1" + struct.pack("<IIQ", n, d, len(traj.states))
    body = b"".join(np.ascontiguousarray(s, dtype="<f8").tobytes() for s in traj.states)
    return header + body
