"""Time integration of the hypergraph diffusion flow dx/dt = -G^T A(x) G x.

Schemes: explicit and implicit Euler, classical RK4, fourth-order
Adams-Bashforth and Adams-Moulton (predictor-corrector), and an
embedded Bogacki-Shampine 3(2) pair with proportional step control.
The fixed-step explicit schemes share one loop, and no scheme evaluates
the right-hand side twice at one state.

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
reciprocal spectral radius, the SPD solve does not. The solve is
preconditioned with the diagonal of I + tau G^T A G (Jacobi; Saad,
*Iterative Methods for Sparse Linear Systems*, 2nd ed., ch. 9), and
each solve after the first starts from the fixed-point residual the
outer loop has just computed, so it costs no extra apply. With a
state-dependent modulation each solve is inexact (Dembo, Eisenstat &
Steihaug, "Inexact Newton Methods", *SIAM J. Numer. Anal.* 19(2), 1982):
it stops at ``CG_FORCING`` times the fixed-point residual it starts from,
as the next update of A moves that residual by more anyway. The step
still returns only once the true residual meets its tolerance.
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

# implicit Euler's inner CG tolerance, as a fraction of the fixed-point residual
CG_FORCING = 1e-5


def _require_positive(**fields) -> None:
    """Raise ValueError naming the first field that is not finite and positive."""
    for name, value in fields.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def step_count(horizon: float, tau: float) -> int:
    """The number of tau-steps nearest ``horizon``; a ValueError naming
    ``tau`` or ``horizon`` when that is not a finite non-negative count."""
    _require_positive(tau=tau)
    if not (horizon >= 0 and math.isfinite(horizon / tau)):
        raise ValueError(f"horizon must be a finite non-negative number of tau-steps,"
                         f" got {horizon!r} at tau={tau!r}")
    return int(round(horizon / tau))


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
    that produced ``states[k+1]``. ``weights[k]`` is A(states[k]) at every
    state where the run evaluated the right-hand side or the modulation:
    all but the last state for explicit Euler, RK4 and AB4/AM4, every
    state for implicit Euler, the adaptive pair and the frozen policy.
    ``rhs_evals`` counts the G^T A G applies. ``cg_iters[k]`` lists the
    iterations of each CG solve of implicit step k.
    """

    times: list[float]
    states: list[np.ndarray]
    step_sizes: list[float]
    rhs_evals: int = 0
    accepted: int = 0
    rejected: int = 0
    weights: list[np.ndarray] = field(default_factory=list)
    cg_iters: list[list[int]] = field(default_factory=list)

    def record(self, t: float, x: np.ndarray, tau: float) -> None:
        """Append the accepted state x (kept, not copied: the schemes never
        write into a state after it is recorded), reached at time t by a
        step of size tau, and count it as accepted."""
        self.times.append(t)
        self.states.append(x)
        self.step_sizes.append(tau)
        self.accepted += 1


def _weights_fn(ops, a):
    """Any accepted modulation ``a`` as a callable ``x -> weight vector``.

    A vector is checked once, when it is wrapped, and each result of a
    callable when it is returned: anything but a finite non-negative
    vector of shape (N,) raises ShapeMismatch. A callable this function
    returned for the same ``ops`` is returned as it is, so a step
    function handed ``integrate``'s callable checks nothing again. Its
    ``fixed`` attribute tells whether it wraps a vector.
    """
    if getattr(a, "weights_for", None) is ops:
        return a
    if callable(a):
        fn = lambda x: _weights_fn(ops, a(x))(x)
    else:
        vec = a.values if isinstance(a, ModulationWeights) else np.asarray(a, dtype=np.float64)
        if vec.shape != (ops.N,) or not (vec.min() >= 0 and math.isfinite(vec.max())):
            raise ShapeMismatch(
                f"modulation weights must be finite, non-negative and of shape ({ops.N},)")
        fn = lambda x: vec
    fn.weights_for, fn.fixed = ops, not callable(a)
    return fn


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
                        traj: Trajectory | None = None,
                        a_x: np.ndarray | None = None) -> np.ndarray:
    """One backward-Euler update solved to the stated residual.

    The returned y satisfies ||y - x + tau G^T A(y) G y||_F <= fp_tol.
    ``a_x``, when given, must be A(x), and the step does not evaluate the
    modulation at x. Each fixed-point iteration solves
    (I + tau G^T A(y) G) y' = x by CG to max(fp_tol / 2, CG_FORCING * r),
    r the fixed-point residual it starts from (an inexact solve; see the
    module docstring), or to fp_tol / 2 when A is a fixed vector. Raises
    NoConvergence (carrying the final residual, and naming every CG solve
    that stopped at its iteration cap, with its tolerance) at the
    fixed-point iteration cap. When ``traj`` is given, the step appends
    A(y) to its ``weights`` and each solve's iterations to its
    ``cg_iters``, and adds the step's G^T A G applies to its
    ``rhs_evals``: the residual at x, each CG solve's matvecs, and one
    residual per fixed-point iteration.
    """
    ops = as_operators(hg)
    a_fn = _weights_fn(ops, a)
    x = np.asarray(x, dtype=np.float64)
    y = x.copy()
    a_y = a_fn(x) if a_x is None else a_x
    res = tau * ops.quad_apply(a_y, y)  # y - x + tau G^T A(y) G y at y = x
    residual = float(np.linalg.norm(res))
    forcing, cg_max_iter = 0.0 if a_fn.fixed else CG_FORCING, 4 * ops.n + 40
    cg_capped, cg_iters = [], []
    while residual > fp_tol:
        if len(cg_iters) == max(1, fp_max_iter):
            capped = (f"; CG stopped at {cg_max_iter} iterations in fixed-point iterations"
                      f" {[i for i, _ in cg_capped]} above tolerances"
                      f" [{', '.join(f'{t:.3e}' for _, t in cg_capped)}]") if cg_capped else ""
            raise NoConvergence(
                f"implicit step residual {residual:.3e} > {fp_tol:.3e}{capped}", residual)
        cg_tol = max(0.5 * fp_tol, forcing * residual)
        # -res is the residual of (I + tau G^T A(y) G) y' = x at y' = y
        step, iters, cg_converged = _cg_solve(ops, a_y, -res, tau, None, cg_tol, cg_max_iter)
        if not cg_converged:
            cg_capped.append((len(cg_iters), cg_tol))
        cg_iters.append(iters)
        y += step
        a_y = a_fn(y)
        res = y - x + tau * ops.quad_apply(a_y, y)
        residual = float(np.linalg.norm(res))
    if traj is not None:
        traj.rhs_evals += 1 + sum(cg_iters) + len(cg_iters)
        traj.weights.append(a_y)
        traj.cg_iters.append(cg_iters)
    return y


def _jacobi_diagonal(ops, a):
    """diag(G^T diag(a) G): with c = w_e a per pair, entry u is
    (1/d_u) sum over u's pairs q = (e, u) of c_q (1 - 2/|e|) + sum_{p in e} c_p / |e|^2."""
    c = ops.w_pair * a
    per_pair = c * np.take(1.0 - 2.0 * ops.inv_size, ops.pair_edge)
    per_pair += np.take(ops.edge_sum(c) * ops.inv_size**2, ops.pair_edge)
    return ops.node_sum(per_pair) / ops.deg.d_v


def _cg_solve(ops, a, b, tau, x0, tol, max_iter):
    """Jacobi-preconditioned conjugate gradients on
    (I + tau G^T diag(a) G) y = b, per column, from x0, or from zero
    (with no initial apply) when x0 is None. The stop test is on the
    unpreconditioned residual norm.

    Returns (y, iterations, whether the residual norm met tol).
    """
    def matvec(v):
        out = ops.quad_apply(a, v)
        out *= tau
        out += v
        return out

    def col_dot(u, v):
        return np.einsum("i...,i...->...", u, v)

    inv_m = 1.0 / (1.0 + tau * _jacobi_diagonal(ops, a))
    inv_m = inv_m.reshape((-1,) + (1,) * (b.ndim - 1))
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = x0.copy()
        r = b - matvec(x)
    p = r * inv_m
    rz = col_dot(r, p)
    iters = 0
    while np.linalg.norm(r) > tol:
        if iters == max_iter:
            return x, iters, False
        Ap = matvec(p)
        den = col_dot(p, Ap)
        alpha = np.where(den > 0, rz / np.where(den > 0, den, 1.0), 0.0)
        x += alpha * p
        r -= alpha * Ap
        z = r * inv_m
        rz_new = col_dot(r, z)
        beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
        p *= beta
        p += z
        rz = rz_new
        iters += 1
    return x, iters, True


def _counted_rhs(ops, a_fn, traj: Trajectory):
    """g(v) = (-G^T A(v) G v, A(v)), adding each call to ``traj.rhs_evals``."""
    def g(v):
        traj.rhs_evals += 1
        a_v = a_fn(v)
        return -ops.quad_apply(a_v, v), a_v
    return g


def _fixed_steps(ops, a_fn, x: np.ndarray, tau: float, steps: int, scheme: str) -> Trajectory:
    """``steps`` steps of size tau of explicit Euler, RK4, or AB4/AM4 after
    three RK4 start-up steps. Each step evaluates g once at its start
    state: that value is the step's first stage, the Adams history entry,
    and the state's recorded weights."""
    if scheme in ("ab4", "am4") and steps < 4:
        raise TooFewSteps(f"multistep schemes need >= 4 steps, got {steps}")
    traj = Trajectory(times=[0.0], states=[x.copy()], step_sizes=[])
    g = _counted_rhs(ops, a_fn, traj)
    c, cm = AB4_COEFFICIENTS, AM4_COEFFICIENTS
    history = []  # g at the last four start states, newest last
    for k in range(steps):
        k1, a_x = g(x)
        traj.weights.append(a_x)
        history = history[-3:] + [k1]
        if scheme == "explicit_euler":
            x = x + tau * k1
        elif scheme == "rk4" or k < 3:
            k2 = g(x + 0.5 * tau * k1)[0]
            k3 = g(x + 0.5 * tau * k2)[0]
            k4 = g(x + tau * k3)[0]
            x = x + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            g3, g2, g1, g0 = history
            pred = x + tau * (c[0] * g0 + c[1] * g1 + c[2] * g2 + c[3] * g3)
            if scheme == "am4":
                gp = g(pred)[0]
                x = x + tau * (cm[0] * gp + cm[1] * g0 + cm[2] * g1 + cm[3] * g2)
            else:
                x = pred
        traj.record((k + 1) * tau, x, tau)
    return traj


def step_rk4(hg, a, x: np.ndarray, tau: float) -> np.ndarray:
    """Classical four-stage fourth-order update on the diffusion flow."""
    ops = as_operators(hg)
    return _fixed_steps(ops, _weights_fn(ops, a), np.asarray(x, dtype=np.float64),
                        tau, 1, "rk4").states[-1]


def integrate_multistep(hg, a, x0: np.ndarray, tau: float, steps: int,
                        scheme: str = "ab4") -> Trajectory:
    """Fourth-order Adams integration with RK4 startup.

    ``ab4`` is the explicit Adams-Bashforth rule; ``am4`` runs it as a
    predictor followed by one Adams-Moulton correction. A callable ``a``
    is evaluated at every right-hand-side evaluation.
    """
    if scheme not in ("ab4", "am4"):
        raise ValueError(f"unknown multistep scheme {scheme!r}")
    ops = as_operators(hg)
    return _fixed_steps(ops, _weights_fn(ops, a), np.asarray(x0, dtype=np.float64),
                        tau, steps, scheme)


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
    on the horizon. The pair is first-same-as-last (Bogacki & Shampine,
    *Appl. Math. Lett.* 2(4), 1989): the last stage g(x3) of an accepted
    step is the next step's first, and a rejected step keeps its first
    stage, so an attempt costs three evaluations after the first. A
    callable ``a`` is evaluated at every right-hand-side evaluation,
    rejected attempts' later stages included. A non-finite error estimate
    raises StepUnderflow, as no step size can make it acceptable.
    """
    spec = adaptive or AdaptiveSpec()
    # a NaN or zero here would reject every step without ever underflowing
    _require_positive(horizon=horizon_T, tol=spec.tol, tau_init=spec.tau_init,
                      tau_min=spec.tau_min, tau_max=spec.tau_max)
    ops = as_operators(hg)
    x = np.asarray(x0, dtype=np.float64)
    traj = Trajectory(times=[0.0], states=[x.copy()], step_sizes=[])
    g = _counted_rhs(ops, _weights_fn(ops, a), traj)
    k1, a_x = g(x)
    traj.weights.append(a_x)

    t = 0.0
    tau_ctrl = min(spec.tau_init, horizon_T)
    while t < horizon_T * (1.0 - 1e-14):
        tau = min(tau_ctrl, horizon_T - t)
        k2 = g(x + 0.5 * tau * k1)[0]
        k3 = g(x + 0.75 * tau * k2)[0]
        x3 = x + tau * (_BS_B3[0] * k1 + _BS_B3[1] * k2 + _BS_B3[2] * k3)
        k4, a_x3 = g(x3)
        x2 = x + tau * (_BS_B2[0] * k1 + _BS_B2[1] * k2 + _BS_B2[2] * k3 + _BS_B2[3] * k4)
        error = float(np.linalg.norm(x3 - x2))
        if not math.isfinite(error):
            raise StepUnderflow(f"non-finite error estimate {error} at t={t!r}, tau={tau!r}")

        if error <= spec.tol:
            t += tau
            x, k1 = x3, k4
            traj.record(t, x, tau)
            traj.weights.append(a_x3)
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

    if spec.scheme == "adaptive":
        traj = integrate_adaptive(ops, a_fn, x, spec.horizon, spec.adaptive)
    elif spec.scheme == "implicit_euler":
        traj = Trajectory(times=[0.0], states=[x.copy()], step_sizes=[], weights=[a_fn(x)])
        for k in range(spec.steps):
            x = step_implicit_euler(ops, a_fn, x, spec.tau, spec.fp_tol, spec.fp_max_iter,
                                    traj=traj, a_x=traj.weights[-1])
            traj.record((k + 1) * spec.tau, x, spec.tau)
    else:
        traj = _fixed_steps(ops, a_fn, x, spec.tau, spec.steps, spec.scheme)
    if spec.modulation_policy == "frozen":
        traj.weights = [a_fn(x0)] * len(traj.states)
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
