import json

import numpy as np
import pytest

from hnd.diagnostics import (
    energy,
    energy_monotonicity,
    max_principle,
    spectral_radius,
)
from hnd.hypergraph import Hypergraph
from hnd.modulation import AttentionParams, normalize_modulation, scores_forward, uniform_modulation
from hnd.operators import HypergraphOperators, dense_oracle, scaled_gradient_matrix
from hnd.rng import make_rng
from hnd.solvers import SolverSpec, Trajectory, integrate, rhs, step_implicit_euler

from conftest import random_hypergraph


def test_energy_null_vector(h0_ops):
    a = uniform_modulation(h0_ops)
    assert energy(h0_ops, a, h0_ops.sqrt_d) <= 1e-15


def test_energy_h0_hand_value(h0_ops):
    a = uniform_modulation(h0_ops)
    val = energy(h0_ops, a, np.array([1.0, 0.0, 0.0]))
    assert abs(val - 0.159722) <= 1e-6


def test_energy_nonnegative_random():
    for seed in range(10):
        ops = HypergraphOperators(random_hypergraph(seed))
        rng = make_rng(seed)
        s = rng.standard_normal(ops.N)
        a = normalize_modulation(s, ops)
        x = rng.standard_normal((ops.n, 2))
        assert energy(ops, a, x) >= 0.0


def test_energy_degree_two_homogeneous(h0_ops):
    a = uniform_modulation(h0_ops)
    x = np.array([[0.4, -1.0], [2.0, 0.3], [-0.7, 1.1]])
    e1 = energy(h0_ops, a, x)
    e2 = energy(h0_ops, a, 3.0 * x)
    assert abs(e2 - 9.0 * e1) <= 1e-12 * max(1.0, e2)


def test_energy_matches_dense(h0_ops):
    a = uniform_modulation(h0_ops).values
    x = np.array([1.0, 0.0, 0.0])
    G = dense_oracle(scaled_gradient_matrix(h0_ops))
    expected = 0.5 * (G @ x) @ (a * (G @ x))
    assert abs(energy(h0_ops, a, x) - expected) <= 1e-14


def test_gradient_flow_identity():
    # directional derivative of the energy along the flow equals -||rhs||^2
    for seed in range(5):
        ops = HypergraphOperators(random_hypergraph(seed + 70))
        rng = make_rng(seed)
        a = normalize_modulation(rng.standard_normal(ops.N), ops).values
        x = rng.standard_normal((ops.n, 2))
        r = rhs(ops, a, x)
        h = 1e-6
        fd = (energy(ops, a, x + h * r) - energy(ops, a, x - h * r)) / (2 * h)
        target = -float((r * r).sum())
        assert abs(fd - target) <= 1e-4 * max(1.0, abs(target))


def test_energy_monotonicity_equilibrium(h0_ops):
    a = uniform_modulation(h0_ops).values
    x = h0_ops.sqrt_d.reshape(3, 1)
    traj = Trajectory(times=[0.0, 1.0, 2.0], states=[x, x, x], step_sizes=[1.0, 1.0])
    report = energy_monotonicity(h0_ops, traj, a)
    assert report.monotone
    assert np.abs(report.energies).max() <= 1e-15


def test_energy_monotone_explicit_euler_random():
    for seed in range(5):
        ops = HypergraphOperators(random_hypergraph(seed + 80))
        a = uniform_modulation(ops).values
        x0 = make_rng(seed).standard_normal((ops.n, 2))
        traj = integrate(ops, a, x0, SolverSpec(scheme="explicit_euler", tau=0.5,
                                                steps=100, modulation_policy="frozen"))
        report = energy_monotonicity(ops, traj, a)
        assert report.monotone, report.first_violation


def test_energy_increase_flagged_above_sharp_bound(h0_ops):
    a = uniform_modulation(h0_ops).values
    lam, _ = spectral_radius(h0_ops, a, iters=500, tol=1e-13)
    tau = 2.0 / lam * 1.1
    x0 = make_rng(4).standard_normal((3, 2))
    traj = integrate(h0_ops, a, x0, SolverSpec(scheme="explicit_euler", tau=tau,
                                               steps=200, modulation_policy="frozen"))
    report = energy_monotonicity(h0_ops, traj, a)
    assert not report.monotone
    assert report.first_violation is not None
    assert report.violation_magnitude > 0


def test_energy_report_json(h0_ops):
    a = uniform_modulation(h0_ops).values
    x = make_rng(0).standard_normal((3, 1))
    traj = integrate(h0_ops, a, x, SolverSpec(scheme="explicit_euler", tau=0.5,
                                              steps=3, modulation_policy="frozen"))
    report = energy_monotonicity(h0_ops, traj, a)
    obj = json.loads(report.to_json())
    assert set(obj) == {"energies", "monotone", "first_violation", "violation_magnitude"}
    assert len(obj["energies"]) == 4


def test_max_principle_constant_start(h0_ops):
    x = h0_ops.sqrt_d.reshape(3, 1) * 2.5
    a = uniform_modulation(h0_ops).values
    traj = integrate(h0_ops, a, x, SolverSpec(scheme="explicit_euler", tau=1.0,
                                              steps=20, modulation_policy="frozen"))
    report = max_principle(h0_ops, traj)
    assert report.lower[0] == pytest.approx(report.upper[0])
    assert report.max_violation <= 1e-12


def test_max_principle_explicit_random():
    for seed in range(5):
        ops = HypergraphOperators(random_hypergraph(seed + 90))
        rng = make_rng(seed)
        params = AttentionParams.init(2, seed=seed)
        x0 = rng.standard_normal((ops.n, 2))
        s, _ = scores_forward(params, x0, ops)
        a = normalize_modulation(s, ops).values
        traj = integrate(ops, a, x0, SolverSpec(scheme="explicit_euler", tau=1.0,
                                                steps=200, modulation_policy="frozen"))
        assert max_principle(ops, traj).max_violation <= 1e-9


def test_max_principle_implicit_large_step():
    ops = HypergraphOperators(random_hypergraph(123))
    x0 = make_rng(7).standard_normal((ops.n, 2))
    a = uniform_modulation(ops).values
    y = step_implicit_euler(ops, a, x0, 10.0, fp_tol=1e-11)
    traj = Trajectory(times=[0.0, 10.0], states=[x0, y], step_sizes=[10.0])
    assert max_principle(ops, traj).max_violation <= 1e-9


def test_bounds_report_json(h0_ops):
    x = make_rng(1).standard_normal((3, 2))
    traj = Trajectory(times=[0.0], states=[x], step_sizes=[])
    obj = json.loads(max_principle(h0_ops, traj).to_json())
    assert set(obj) == {"lower", "upper", "worst_violation", "max_violation"}


def test_spectral_radius_h0_matches_dense(h0_ops):
    a = uniform_modulation(h0_ops).values
    lam, converged = spectral_radius(h0_ops, a, iters=1000, tol=1e-12)
    G = dense_oracle(scaled_gradient_matrix(h0_ops))
    dense = np.linalg.eigvalsh(G.T @ (a[:, None] * G)).max()
    assert converged
    assert abs(lam - dense) <= 1e-8


def test_spectral_radius_bounded_for_valid_modulation():
    for seed in range(10):
        ops = HypergraphOperators(random_hypergraph(seed + 200))
        s = make_rng(seed).standard_normal(ops.N)
        a = normalize_modulation(s, ops).values
        lam, _ = spectral_radius(ops, a, iters=300, tol=1e-10)
        assert lam <= 2.0 + 1e-8


def test_spectral_radius_disconnected_components():
    # two components: estimate equals the max of per-component estimates
    h_a = Hypergraph(n=3, edges=((0, 1), (0, 1, 2)), weights=(1.0, 1.0))
    h_b = Hypergraph(n=4, edges=((0, 1, 2, 3),), weights=(2.0,))
    merged = Hypergraph(
        n=7,
        edges=((0, 1), (0, 1, 2), (3, 4, 5, 6)),
        weights=(1.0, 1.0, 2.0),
    )
    def lam_of(hg):
        ops = HypergraphOperators(hg)
        a = uniform_modulation(ops).values
        return spectral_radius(ops, a, iters=2000, tol=1e-13)[0]
    assert abs(lam_of(merged) - max(lam_of(h_a), lam_of(h_b))) <= 1e-8


def test_spectral_radius_requires_iters(h0_ops):
    a = uniform_modulation(h0_ops).values
    with pytest.raises(ValueError):
        spectral_radius(h0_ops, a, iters=0)


def test_diagnostics_accept_every_modulation_form():
    ops = HypergraphOperators(random_hypergraph(77))
    rng = make_rng(77)
    weights = normalize_modulation(rng.standard_normal(ops.N), ops)
    x0 = rng.standard_normal((ops.n, 2))
    traj = integrate(ops, weights, x0, SolverSpec(scheme="explicit_euler", tau=0.5, steps=4))
    forms = [weights.values, weights, lambda x: weights.values, lambda x: weights]
    energies = [energy(ops, a, x0) for a in forms]
    assert all(e == energies[0] for e in energies)
    reports = [energy_monotonicity(ops, traj, a) for a in forms]
    assert all(r.to_json() == reports[0].to_json() for r in reports)
    assert spectral_radius(ops, weights) == spectral_radius(ops, weights.values)
