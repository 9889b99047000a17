import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import hnd
from hnd import solvers
from hnd.diagnostics import energy, energy_monotonicity, spectral_radius
from hnd.errors import NoConvergence, ShapeMismatch, StepUnderflow, TooFewSteps
from hnd.hypergraph import Hypergraph
from hnd.modulation import (
    AttentionParams,
    normalize_modulation,
    softmax_modulation_fn,
    uniform_modulation,
)
from hnd.operators import HypergraphOperators, scaled_gradient_matrix
from hnd.synth import generate_sbm
from hnd.solvers import (
    AB4_COEFFICIENTS,
    AM4_COEFFICIENTS,
    SCHEMES,
    AdaptiveSpec,
    SolverSpec,
    Trajectory,
    integrate,
    integrate_adaptive,
    integrate_multistep,
    rhs,
    step_explicit_euler,
    step_implicit_euler,
    step_rk4,
    trajectory_states_to_binary,
    trajectory_to_csv,
)

from conftest import random_hypergraph


def dense_operator(ops, a):
    G = scaled_gradient_matrix(ops)
    return G.T @ (a[:, None] * G)


@pytest.fixture
def h0_setup(h0_ops):
    a = uniform_modulation(h0_ops)
    x = np.array([1.0, 0.0, 0.0])
    return h0_ops, a, x


def test_rhs_null_vector(h0_ops):
    a = uniform_modulation(h0_ops)
    out = rhs(h0_ops, a, h0_ops.sqrt_d)
    assert np.abs(out).max() <= 1e-12


def test_rhs_matches_dense(h0_setup):
    ops, a, x = h0_setup
    M = dense_operator(ops, a.values)
    assert np.allclose(rhs(ops, a, x), -M @ x, atol=1e-12)


def test_rhs_linearity(h0_setup):
    ops, a, _ = h0_setup
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal((2, 3))
    lhs = rhs(ops, a, x1 + x2)
    assert np.allclose(lhs, rhs(ops, a, x1) + rhs(ops, a, x2), atol=1e-12)


def test_explicit_euler_tau_zero(h0_setup):
    ops, a, x = h0_setup
    assert np.array_equal(step_explicit_euler(ops, a.values, x, 0.0), x)


def test_explicit_euler_hand_composed(h0_setup):
    ops, a, x = h0_setup
    M = dense_operator(ops, a.values)
    expected = x - 0.5 * (M @ x)
    assert np.allclose(step_explicit_euler(ops, a.values, x, 0.5), expected, atol=1e-12)


def test_explicit_euler_norm_nonincrease_tau_1():
    for seed in range(5):
        ops = HypergraphOperators(random_hypergraph(seed + 40))
        a = uniform_modulation(ops).values
        x = np.random.default_rng(seed).standard_normal((ops.n, 3))
        prev = np.linalg.norm(x)
        for _ in range(100):
            x = step_explicit_euler(ops, a, x, 1.0)
            cur = np.linalg.norm(x)
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur


def test_explicit_euler_sharp_stability_threshold(h0_setup):
    from hnd.diagnostics import spectral_radius

    ops, a, _ = h0_setup
    lam, converged = spectral_radius(ops, a.values, iters=500, tol=1e-13)
    assert converged
    x0 = np.random.default_rng(1).standard_normal((3, 2))

    def growth(tau, steps=400):
        x = x0.copy()
        first = np.linalg.norm(x)
        for _ in range(steps):
            x = step_explicit_euler(ops, a.values, x, tau)
        return np.linalg.norm(x) / first

    assert growth(2.0 / lam * 0.98) <= 1.0 + 1e-9
    assert growth(2.0 / lam * 1.05) > 10.0


def test_instability_witness_unnormalized_weights(h0_ops):
    # lambda_max of the plain Laplacian here is exactly 1 (more nodes than
    # independent edge columns), so 1.9x the weights puts the operator's
    # top eigenvalue at 1.9 and tau = 1.5 outside the stability window
    a = 1.9 * np.ones(h0_ops.N)
    M = dense_operator(h0_ops, a)
    lam = np.linalg.eigvalsh(M).max()
    assert lam >= 1.9 - 1e-9
    x = np.random.default_rng(2).standard_normal((3, 2))
    first = np.linalg.norm(x)
    for _ in range(200):
        x = step_explicit_euler(h0_ops, a, x, 1.5)
    assert np.linalg.norm(x) >= 10.0 * first


def test_valid_modulation_spectrum_at_most_one():
    # positivity plus per-node unit sums cap every weight at 1, and the
    # plain Laplacian spectrum caps at 1, so tau in (0, 2] cannot blow up
    for seed in range(10):
        ops = HypergraphOperators(random_hypergraph(seed + 900))
        s = np.random.default_rng(seed).standard_normal(ops.N)
        a = normalize_modulation(s, ops).values
        lam = np.linalg.eigvalsh(dense_operator(ops, a)).max()
        assert lam <= 1.0 + 1e-9


def test_implicit_euler_tau_zero(h0_setup):
    ops, a, x = h0_setup
    assert np.array_equal(step_implicit_euler(ops, a.values, x, 0.0), x)


def test_implicit_euler_residual_contract():
    for seed in range(5):
        ops = HypergraphOperators(random_hypergraph(seed + 60))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((ops.n, 2))
        # state-dependent weights exercise the outer fixed-point loop
        def a_fn(v):
            s = np.tanh(v.sum(axis=1))[ops.pair_node]
            return normalize_modulation(s, ops).values
        tau = 3.0
        y = step_implicit_euler(ops, a_fn, x, tau, fp_tol=1e-10, fp_max_iter=200)
        residual = np.linalg.norm(y - x + tau * ops.quad_apply(a_fn(y), y))
        assert residual <= 1e-10


def test_implicit_euler_large_tau_norm_nonincrease():
    ops = HypergraphOperators(random_hypergraph(77))
    a = uniform_modulation(ops).values
    x = np.random.default_rng(3).standard_normal((ops.n, 2))
    prev = np.linalg.norm(x)
    for _ in range(50):
        x = step_implicit_euler(ops, a, x, 10.0, fp_tol=1e-11)
        cur = np.linalg.norm(x)
        assert cur <= prev * (1.0 + 1e-9)
        prev = cur


def test_implicit_euler_no_convergence_reports_residual(h0_setup):
    ops, _, x = h0_setup
    calls = {"k": 0}

    def flappy(v):
        # alternating weights prevent the fixed point from settling
        calls["k"] += 1
        base = uniform_modulation(ops).values
        return base * (0.1 if calls["k"] % 2 else 1.0)

    with pytest.raises(NoConvergence) as err:
        step_implicit_euler(ops, flappy, x, 5.0, fp_tol=1e-14, fp_max_iter=3)
    assert err.value.residual > 0


@pytest.mark.parametrize("policy", ["frozen", "recompute_each_step"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_implicit_euler_counts_every_quad_apply(h0_setup, scheme, policy):
    ops, a, _ = h0_setup
    x = np.array([[1.0, -0.5], [0.0, 2.0], [0.0, 0.3]])
    calls = {"k": 0}
    original = ops.quad_apply

    def counted(*args):
        calls["k"] += 1
        return original(*args)

    ops.quad_apply = counted
    spec = SolverSpec(scheme=scheme, tau=10.0, steps=4, modulation_policy=policy, fp_tol=1e-11)
    traj = integrate(ops, a, x, spec)
    assert traj.rhs_evals == calls["k"] > 0


def test_cg_solve_reports_iterations_and_convergence(h0_setup):
    from hnd.solvers import _cg_solve

    ops, a, x = h0_setup
    y, iters, converged = _cg_solve(ops, a.values, x, 10.0, x, tol=1e-12, max_iter=50)
    assert converged and 0 < iters <= ops.n + 1
    assert np.linalg.norm(y + 10.0 * ops.quad_apply(a.values, y) - x) <= 1e-12
    _, iters, converged = _cg_solve(ops, a.values, x, 10.0, x, tol=1e-12, max_iter=1)
    assert (iters, converged) == (1, False)


def test_jacobi_diagonal_matches_dense_oracle():
    for seed in range(6):
        # non-unit weights and edge sizes 2..8 from the generator, zeros in a
        ops = HypergraphOperators(random_hypergraph(seed + 300))
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 2.0, ops.N)
        a[rng.random(ops.N) < 0.3] = 0.0
        dense = np.diag(dense_operator(ops, a))
        assert np.abs(solvers._jacobi_diagonal(ops, a) - dense).max() <= 1e-13


def _hub_graph():
    # nodes 0..9 join up to 15 edges each, nodes 10..99 one or two
    rng = np.random.default_rng(5)
    edges = [tuple(sorted({int(rng.integers(0, 10)), i, int(rng.integers(10, 100))}))
             for i in range(10, 100)]
    edges += [(h, (h + 1) % 10) for h in range(10)]
    weights = tuple(rng.uniform(0.5, 2.0, len(edges)))
    return HypergraphOperators(Hypergraph(n=100, edges=tuple(edges), weights=weights))


def test_jacobi_cg_needs_no_more_iterations_than_plain_cg(monkeypatch):
    from hnd.solvers import _cg_solve

    ops = _hub_graph()
    a = uniform_modulation(ops).values
    b = np.random.default_rng(0).standard_normal((ops.n, 2))
    tol = 1e-10

    def solve():
        y, iters, converged = _cg_solve(ops, a, b, 10.0, None, tol, 500)
        assert converged
        assert np.linalg.norm(b - y - 10.0 * ops.quad_apply(a, y)) <= 2 * tol
        return iters

    jacobi = solve()
    monkeypatch.setattr(solvers, "_jacobi_diagonal", lambda ops, a: np.zeros(ops.n))
    plain = solve()
    assert jacobi < plain  # 27 against 31


def test_implicit_euler_records_weights_of_every_state():
    ops, x0 = _policy_case()
    a = _Counting(ops, x0.shape[1])
    spec = SolverSpec(scheme="implicit_euler", tau=5.0, steps=3,
                      modulation_policy="recompute_each_step", fp_tol=1e-11)
    traj = integrate(ops, a, x0, spec)
    assert len(traj.weights) == len(traj.states)
    assert all(np.array_equal(w, a.fn(s)) for w, s in zip(traj.weights, traj.states))


def test_implicit_euler_no_convergence_names_capped_cg(h0_setup, monkeypatch):
    from hnd import solvers

    ops, a, x = h0_setup
    one_step_cg = solvers._cg_solve
    monkeypatch.setattr(solvers, "_cg_solve",
                        lambda *args: one_step_cg(*args[:-1], max_iter=1))
    with pytest.raises(NoConvergence, match=r"CG stopped .* fixed-point iterations \[0, 1, 2\]"):
        step_implicit_euler(ops, a.values, x, 5.0, fp_tol=1e-10, fp_max_iter=3)


def _tanh_modulation(ops):
    def a_fn(v):
        s = np.tanh(v.reshape(ops.n, -1).sum(axis=1))[ops.pair_node]
        return normalize_modulation(s, ops).values
    return a_fn


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("cols", [None, 2])
def test_inexact_implicit_step_meets_residual_contract(tau, cols):
    graphs = [HypergraphOperators(random_hypergraph(seed + 500)) for seed in range(3)]
    for ops in graphs + [_hub_graph()]:
        shape = (ops.n,) if cols is None else (ops.n, cols)
        x = np.random.default_rng(ops.n).standard_normal(shape)
        a_fn = _tanh_modulation(ops)
        traj = Trajectory(times=[], states=[], step_sizes=[])
        y = step_implicit_euler(ops, a_fn, x, tau, fp_tol=1e-10, fp_max_iter=200, traj=traj)
        assert np.linalg.norm(y - x + tau * ops.quad_apply(a_fn(y), y)) <= 1e-10
        assert traj.rhs_evals == 1 + sum(traj.cg_iters[0]) + len(traj.cg_iters[0])


def _desk_sbm_nl():
    ds = generate_sbm(250, 100, 15, 1, 4, 1.0, 7)
    ops = HypergraphOperators(ds.hypergraph)
    return ops, softmax_modulation_fn(AttentionParams.init(4, 0), ops), ds.features


def test_inexact_solves_spare_applies(monkeypatch):
    ops, a_fn, x = _desk_sbm_nl()

    def step():
        traj = Trajectory(times=[], states=[], step_sizes=[])
        y = step_implicit_euler(ops, a_fn, x, 10.0, traj=traj)
        assert np.linalg.norm(y - x + 10.0 * ops.quad_apply(a_fn(y), y)) <= 1e-10
        return traj.rhs_evals, len(traj.cg_iters[0])

    inexact = step()
    monkeypatch.setattr(solvers, "CG_FORCING", 0.0)
    full = step()
    assert inexact[0] < full[0] and inexact[1] <= full[1]


def test_fixed_weights_are_solved_to_full_tolerance(monkeypatch):
    ops, a_fn, x = _desk_sbm_nl()
    a = a_fn(x)
    traj = Trajectory(times=[], states=[], step_sizes=[])
    y = step_implicit_euler(ops, a, x, 10.0, traj=traj)
    assert len(traj.cg_iters[0]) == 1
    # a callable with a zero forcing term runs every solve to full tolerance
    monkeypatch.setattr(solvers, "CG_FORCING", 0.0)
    assert np.array_equal(y, step_implicit_euler(ops, lambda v: a, x, 10.0))


def test_rk4_tau_zero(h0_setup):
    ops, a, x = h0_setup
    assert np.array_equal(step_rk4(ops, a.values, x, 0.0), x)


def _order_study(scheme, taus, horizon=2.0, seed=5):
    ops = HypergraphOperators(random_hypergraph(seed, n_max=14, m_max=10, size_max=5))
    a = uniform_modulation(ops).values
    x0 = np.random.default_rng(seed).standard_normal((ops.n, 3))
    M = dense_operator(ops, a)
    ref = expm(-horizon * M) @ x0
    errs = []
    for tau in taus:
        steps = int(round(horizon / tau))
        traj = integrate(ops, a, x0, SolverSpec(scheme=scheme, tau=tau, steps=steps,
                                                modulation_policy="frozen"))
        errs.append(np.linalg.norm(traj.states[-1] - ref))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    return slope, errs


def test_rk4_order():
    slope, _ = _order_study("rk4", [0.4, 0.2, 0.1, 0.05])
    assert slope >= 3.8


def test_ab4_order():
    slope, _ = _order_study("ab4", [0.2, 0.1, 0.05, 0.025])
    assert slope >= 3.5


def test_am4_order():
    slope, _ = _order_study("am4", [0.2, 0.1, 0.05, 0.025])
    assert slope >= 3.5


def test_euler_order():
    slope, _ = _order_study("explicit_euler", [0.4, 0.2, 0.1, 0.05])
    assert abs(slope - 1.0) <= 0.2


def test_rk4_agrees_with_euler_to_second_order(h0_setup):
    ops, a, x = h0_setup
    diffs = []
    for tau in (0.2, 0.1, 0.05, 0.025):
        d = np.linalg.norm(step_rk4(ops, a.values, x, tau)
                           - step_explicit_euler(ops, a.values, x, tau))
        diffs.append(d)
    ratios = [diffs[i] / diffs[i + 1] for i in range(3)]
    for r in ratios:
        assert 3.0 <= r <= 5.0  # halving tau quarters the gap


def test_multistep_coefficients():
    assert AB4_COEFFICIENTS == (55 / 24, -59 / 24, 37 / 24, -9 / 24)
    assert AM4_COEFFICIENTS == (9 / 24, 19 / 24, -5 / 24, 1 / 24)


def test_multistep_too_few_steps(h0_setup):
    ops, a, x = h0_setup
    with pytest.raises(TooFewSteps):
        integrate_multistep(ops, a.values, x, 0.1, 3)


def test_adaptive_controller_formula():
    # at error == tol the growth factor is exactly one
    tol, error, p = 1e-6, 1e-6, 3
    assert (tol / error) ** (1.0 / (p + 1)) == 1.0


def test_adaptive_final_error_within_50_tol():
    ops = HypergraphOperators(random_hypergraph(5, n_max=14, m_max=10, size_max=5))
    a = uniform_modulation(ops).values
    x0 = np.random.default_rng(5).standard_normal((ops.n, 3))
    ref = expm(-2.0 * dense_operator(ops, a)) @ x0
    for tol in (1e-4, 1e-6):
        spec = AdaptiveSpec(tol=tol, tau_init=0.05, tau_max=2.0)
        traj = integrate_adaptive(ops, a, x0, 2.0, spec)
        err = np.linalg.norm(traj.states[-1] - ref)
        assert err <= 50.0 * tol
        assert traj.rejected >= 0
        assert abs(traj.times[-1] - 2.0) <= 1e-12


def test_adaptive_tighter_tol_never_fewer_steps():
    ops = HypergraphOperators(random_hypergraph(9, n_max=14, m_max=10, size_max=5))
    a = uniform_modulation(ops).values
    x0 = np.random.default_rng(9).standard_normal((ops.n, 2))
    counts = []
    for tol in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        traj = integrate_adaptive(ops, a, x0, 2.0, AdaptiveSpec(tol=tol, tau_init=0.05, tau_max=2.0))
        counts.append(traj.accepted)
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_adaptive_step_counts_are_pinned():
    # the controller's decisions follow the error estimate, so a wrong
    # weight in either solution of the pair moves these counts; the
    # rejected attempts run the branch that keeps the first stage, and
    # every attempt after the first costs three evaluations
    ops = HypergraphOperators(random_hypergraph(5, n_max=14, m_max=10, size_max=5))
    a = uniform_modulation(ops).values
    x0 = np.random.default_rng(5).standard_normal((ops.n, 3))
    traj = integrate_adaptive(ops, a, x0, 2.0, AdaptiveSpec(tol=1e-6, tau_init=0.05, tau_max=2.0))
    assert (traj.accepted, traj.rejected, traj.rhs_evals) == (51, 18, 1 + 3 * (51 + 18))


def test_adaptive_step_underflow(h0_setup):
    ops, a, x = h0_setup
    spec = AdaptiveSpec(tol=1e-300, tau_init=0.5, tau_min=0.4, tau_max=1.0)
    with pytest.raises(StepUnderflow):
        integrate_adaptive(ops, a.values, x, 5.0, spec)


def test_schemes_converge_to_common_trajectory():
    ops = HypergraphOperators(random_hypergraph(21, n_max=12, m_max=8, size_max=4))
    a = uniform_modulation(ops).values
    x0 = np.random.default_rng(21).standard_normal((ops.n, 2))
    horizon = 1.0

    def final(scheme, tau):
        spec = SolverSpec(scheme=scheme, tau=tau, steps=int(round(horizon / tau)),
                          modulation_policy="frozen", fp_tol=1e-13)
        return integrate(ops, a, x0, spec).states[-1]

    spread = []
    for tau in (0.25, 0.125, 0.0625):
        finals = [final(s, tau) for s in ("explicit_euler", "implicit_euler", "rk4", "ab4", "am4")]
        worst = max(np.linalg.norm(f - g) for f in finals for g in finals)
        spread.append(worst)
    assert spread[1] < spread[0] and spread[2] < spread[1]


def test_trajectory_determinism():
    ops = HypergraphOperators(random_hypergraph(33))
    a = uniform_modulation(ops).values
    x0 = np.random.default_rng(33).standard_normal((ops.n, 2))
    spec = SolverSpec(scheme="rk4", tau=0.3, steps=7, modulation_policy="frozen")
    t1 = integrate(ops, a, x0, spec)
    t2 = integrate(ops, a, x0, spec)
    assert all(np.array_equal(s1, s2) for s1, s2 in zip(t1.states, t2.states))
    assert t1.times == t2.times


def test_trajectory_csv_format(h0_setup):
    ops, a, x = h0_setup
    spec = SolverSpec(scheme="explicit_euler", tau=0.5, steps=3, modulation_policy="frozen")
    traj = integrate(ops, a, x, spec)
    csv = trajectory_to_csv(traj, energies=np.arange(4.0))
    lines = csv.strip().splitlines()
    assert lines[0] == "step,time,tau,state_norm,energy"
    assert len(lines) == 5
    assert lines[1].startswith("0,0.0,0.0,")


def test_trajectory_binary_dump(h0_setup):
    import struct

    ops, a, x = h0_setup
    traj = integrate(ops, a, x.reshape(3, 1),
                     SolverSpec(scheme="explicit_euler", tau=0.5, steps=2,
                                modulation_policy="frozen"))
    blob = trajectory_states_to_binary(traj)
    assert blob[:8] == b"HNDTRAJ1"
    n, d, count = struct.unpack_from("<IIQ", blob, 8)
    assert (n, d, count) == (3, 1, 3)
    first = np.frombuffer(blob, dtype="<f8", count=3, offset=24)
    assert np.array_equal(first, x)


def test_solver_spec_validation():
    with pytest.raises(ValueError):
        SolverSpec(scheme="magic")
    with pytest.raises(ValueError):
        SolverSpec(tau=-1.0)
    with pytest.raises(ValueError):
        SolverSpec(fp_tol=0.0)


def test_trajectory_binary_dump_1d_state_header():
    import struct

    state = np.arange(5.0)
    blob = trajectory_states_to_binary(Trajectory(times=[0.0], states=[state], step_sizes=[]))
    assert struct.unpack_from("<IIQ", blob, 8) == (5, 1, 1)
    assert np.array_equal(np.frombuffer(blob, dtype="<f8", offset=24), state)


class _Counting:
    """Softmax modulation that counts its evaluations."""

    def __init__(self, ops, d):
        self.fn = softmax_modulation_fn(AttentionParams.init(d, 3), ops)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def _policy_case():
    ops = HypergraphOperators(random_hypergraph(41, n_max=16, m_max=10, size_max=5))
    x0 = np.random.default_rng(41).standard_normal((ops.n, 3))
    return ops, x0


def _spec(scheme, policy):
    return SolverSpec(scheme=scheme, tau=0.2, steps=5, modulation_policy=policy,
                      adaptive=AdaptiveSpec(tol=1e-4, tau_init=0.2))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_frozen_policy_evaluates_callable_once(scheme):
    ops, x0 = _policy_case()
    a = _Counting(ops, x0.shape[1])
    traj = integrate(ops, a, x0, _spec(scheme, "frozen"))
    assert a.calls == 1
    ref = integrate(ops, a.fn(x0), x0, _spec(scheme, "frozen"))
    assert len(traj.states) == len(ref.states)
    assert all(np.array_equal(s, r) for s, r in zip(traj.states, ref.states))


@pytest.mark.parametrize("scheme", ["explicit_euler", "rk4", "ab4", "am4", "adaptive"])
def test_recompute_policy_evaluates_callable_per_rhs_eval(scheme):
    ops, x0 = _policy_case()
    a = _Counting(ops, x0.shape[1])
    traj = integrate(ops, a, x0, _spec(scheme, "recompute_each_step"))
    assert traj.rhs_evals > 0
    assert a.calls == traj.rhs_evals


@pytest.mark.parametrize("scheme", ["ab4", "am4", "adaptive"])
def test_direct_calls_evaluate_callable_per_rhs_eval(scheme):
    ops, x0 = _policy_case()
    spec = _spec(scheme, "recompute_each_step")
    a = _Counting(ops, x0.shape[1])
    if scheme == "adaptive":
        direct = integrate_adaptive(ops, a, x0, spec.horizon, spec.adaptive)
    else:
        direct = integrate_multistep(ops, a, x0, spec.tau, spec.steps, scheme)
    assert a.calls == direct.rhs_evals
    ref = integrate(ops, a.fn, x0, spec)
    assert len(direct.states) == len(ref.states)
    assert all(np.array_equal(s, r) for s, r in zip(direct.states, ref.states))


@pytest.mark.parametrize("scheme,steps", [("explicit_euler", 30), ("rk4", 10)])
def test_weight_vectors_are_checked_once(monkeypatch, scheme, steps):
    ops, x0 = _policy_case()
    checked = []
    weights_fn = solvers._weights_fn

    def counting(ops, a):
        if not callable(a):
            checked.append(a)
        return weights_fn(ops, a)

    monkeypatch.setattr(solvers, "_weights_fn", counting)
    integrate(ops, uniform_modulation(ops), x0, SolverSpec(scheme=scheme, steps=steps, tau=0.5))
    assert len(checked) == 2  # the weights given, and the copy frozen at x0
    checked.clear()
    a = _Counting(ops, x0.shape[1])
    traj = integrate(ops, a, x0, SolverSpec(scheme=scheme, steps=steps, tau=0.5,
                                            modulation_policy="recompute_each_step"))
    assert len(checked) == a.calls == traj.rhs_evals


def test_solver_spec_rejects_non_finite_settings():
    for kwargs, field in (({"tau": float("nan")}, "tau"), ({"tau": float("inf")}, "tau"),
                          ({"fp_tol": float("nan")}, "fp_tol")):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            SolverSpec(**kwargs)


def test_degenerate_adaptive_settings_raise_instead_of_hanging():
    # each case once rejected every step without reaching StepUnderflow,
    # so it runs in a child process that a timeout can stop
    script = """
import numpy as np
from hnd.hypergraph import Hypergraph
from hnd.modulation import uniform_modulation
from hnd.errors import StepUnderflow
from hnd.solvers import AdaptiveSpec, integrate_adaptive

hg = Hypergraph(n=3, edges=((0, 1), (0, 1, 2)), weights=(1.0, 1.0))
a, x = uniform_modulation(hg), np.array([1.0, 0.0, 0.0])
nan = float("nan")
for horizon, kwargs, field in [
    (1.0, dict(tol=nan), "tol"),
    (1.0, dict(tau_init=nan), "tau_init"),
    (1.0, dict(tol=1e-300, tau_min=0.0), "tau_min"),
    (1.0, dict(tol=1e-300, tau_min=nan), "tau_min"),
    (1.0, dict(tau_max=nan), "tau_max"),
    (float("inf"), {}, "horizon"),
]:
    try:
        integrate_adaptive(hg, a, x, horizon, AdaptiveSpec(**kwargs))
    except ValueError as exc:
        assert str(exc).startswith(field + " must be finite and positive"), exc
    else:
        raise AssertionError(f"{kwargs} accepted")
# a NaN state makes every error estimate NaN, which no step size can fix
try:
    integrate_adaptive(hg, a, np.array([nan, 0.0, 0.0]), 1.0)
except StepUnderflow as exc:
    assert "t=0.0" in str(exc) and "tau=0.1" in str(exc), exc
else:
    raise AssertionError("NaN error estimate accepted")
"""
    src = str(Path(hnd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


_BAD_WEIGHTS = {
    "nan": np.full(5, np.nan),
    "inf": np.full(5, np.inf),
    "negative": np.array([0.5, 0.5, 0.5, -0.1, 0.5]),
    "one_nan": np.array([0.5, 0.5, np.nan, 0.5, 0.5]),
    "short": np.full(4, 0.5),
    "2-D": np.full((5, 1), 0.5),
}


@pytest.mark.parametrize("bad", list(_BAD_WEIGHTS))
def test_bad_weights_raise_shape_mismatch_everywhere(h0_ops, bad):
    # once wrapped as a vector, and on every result of a callable
    x = np.array([1.0, 0.0, 0.0])
    w = _BAD_WEIGHTS[bad]
    traj = Trajectory(times=[0.0], states=[x], step_sizes=[])
    for a in (w, lambda v: w):
        for scheme in SCHEMES:
            with pytest.raises(ShapeMismatch, match="finite, non-negative and of shape"):
                integrate(h0_ops, a, x, SolverSpec(scheme=scheme, steps=4, tau=0.5))
        with pytest.raises(ShapeMismatch):
            energy(h0_ops, a, x)
        with pytest.raises(ShapeMismatch):
            energy_monotonicity(h0_ops, traj, a)
    with pytest.raises(ShapeMismatch):
        spectral_radius(h0_ops, w)


def test_zero_weights_are_accepted(h0_ops):
    x = np.array([1.0, 0.0, 0.0])
    traj = integrate(h0_ops, np.zeros(5), x, SolverSpec(scheme="rk4", steps=2, tau=0.5))
    assert np.array_equal(traj.states[-1], x)
