"""Acceptance gate: one test per criterion, tolerances pinned inline.

Each test prints a single PASS line; run with ``pytest -s`` to see them.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from hnd.diagnostics import energy, energy_monotonicity, max_principle
from hnd.hypergraph import Dataset, Hypergraph
from hnd.model import ModelParams, loss_and_gradients
from hnd.modulation import (
    AttentionParams,
    normalize_modulation,
    scores_forward,
    uniform_modulation,
)
from hnd.operators import (
    HypergraphOperators,
    dense_oracle,
    laplacian_matrix,
    scaled_gradient_matrix,
)
from hnd.rng import make_rng
from hnd.solvers import (
    AdaptiveSpec,
    SolverSpec,
    Trajectory,
    integrate,
    integrate_adaptive,
    rhs,
    step_explicit_euler,
    step_implicit_euler,
)
from hnd.synth import generate_sbm
from hnd.train import TrainConfig, train_and_evaluate

from conftest import random_hypergraph


def _instances(count, offset=0):
    for seed in range(count):
        ops = HypergraphOperators(random_hypergraph(seed + offset))
        yield seed, ops


def _softmax_weights(ops, x, seed):
    params = AttentionParams.init(x.shape[1], seed=seed)
    s, _ = scores_forward(params, x, ops)
    return normalize_modulation(s, ops).values


def test_criterion_1_operator_identities():
    """Adjointness, factorization, symmetry, spectrum on 50 random hypergraphs."""
    t0 = time.perf_counter()
    for seed, ops in _instances(50):
        rng = make_rng(seed + 10_000)
        f = rng.standard_normal(ops.n)
        g = rng.standard_normal(ops.N)
        lhs = float((ops.w_pair * ops.grad(f) * g).sum())
        rhs_ip = float((f * ops.div(g)).sum())
        assert abs(lhs - rhs_ip) <= 1e-10 * (1.0 + abs(rhs_ip))

        G = dense_oracle(scaled_gradient_matrix(ops))
        L = dense_oracle(laplacian_matrix(ops))
        assert np.abs(G.T @ G - L).max() <= 1e-12
        assert np.abs(L - L.T).max() <= 1e-12
        eigs = np.linalg.eigvalsh(L)
        assert eigs.min() >= -1e-9 and eigs.max() <= 2.0 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: operator identities on 50 hypergraphs ({elapsed:.1f}s)")


def test_criterion_2_null_space():
    """grad and Laplacian annihilate sqrt(d) on every generated hypergraph."""
    for seed, ops in _instances(50):
        assert np.abs(ops.grad(ops.sqrt_d)).max() <= 1e-12
        assert np.abs(ops.laplacian(ops.sqrt_d)).max() <= 1e-12
    print("ACCEPTANCE 2 PASS: normalized-constant null space to 1e-12")


def test_criterion_3_modulation_contract():
    """Positivity, per-node unit sums, softmax shift invariance."""
    for seed, ops in _instances(30):
        rng = make_rng(seed + 20_000)
        x = rng.standard_normal((ops.n, 4))
        a = _softmax_weights(ops, x, seed)
        assert (a > 0).all()
        assert np.abs(ops.node_sum(a) - 1.0).max() <= 1e-12

        s = rng.standard_normal(ops.N)
        base = normalize_modulation(s, ops).values
        node = int(rng.integers(0, ops.n))
        mask = ops.pair_node == node
        shifted = s.copy()
        shifted[mask] += 11.7
        moved = normalize_modulation(shifted, ops).values
        assert np.abs(base[mask] - moved[mask]).max() <= 1e-12
    print("ACCEPTANCE 3 PASS: modulation positivity, unit sums, shift invariance")


def _dissipation_runs():
    for seed, ops in _instances(20, offset=100):
        rng = make_rng(seed + 30_000)
        x0 = rng.standard_normal((ops.n, 3))
        for tau in (0.25, 0.5, 1.0):
            for kind in ("uniform", "softmax"):
                a = (uniform_modulation(ops).values if kind == "uniform"
                     else _softmax_weights(ops, x0, seed))
                yield ops, x0, tau, a


def test_criterion_4_energy_dissipation():
    """Discrete energy non-increase plus the gradient-flow identity."""
    for ops, x0, tau, a in _dissipation_runs():
        traj = integrate(ops, a, x0, SolverSpec(scheme="explicit_euler", tau=tau,
                                                steps=100, modulation_policy="frozen"))
        report = energy_monotonicity(ops, traj, a, rel_tol=1e-10)
        assert report.monotone, (tau, report.first_violation)

    for seed, ops in _instances(10, offset=200):
        rng = make_rng(seed + 40_000)
        x = rng.standard_normal((ops.n, 2))
        a = _softmax_weights(ops, x, seed)
        r = rhs(ops, a, x)
        h = 1e-6
        fd = (energy(ops, a, x + h * r) - energy(ops, a, x - h * r)) / (2 * h)
        target = -float((r * r).sum())
        assert abs(fd - target) <= 1e-4 * max(1.0, abs(target))
    print("ACCEPTANCE 4 PASS: energy non-increasing; dE along flow = -||rhs||^2")


def test_criterion_5_maximum_principle():
    """Normalized values stay in the initial range, explicit and implicit."""
    for ops, x0, tau, a in _dissipation_runs():
        traj = integrate(ops, a, x0, SolverSpec(scheme="explicit_euler", tau=tau,
                                                steps=100, modulation_policy="frozen"))
        assert max_principle(ops, traj).max_violation <= 1e-9

    for seed, ops in _instances(20, offset=100):
        rng = make_rng(seed + 30_000)
        x = rng.standard_normal((ops.n, 3))
        a = uniform_modulation(ops).values
        states = [x]
        for _ in range(5):
            states.append(step_implicit_euler(ops, a, states[-1], 10.0, fp_tol=1e-11))
        traj = Trajectory(times=list(np.arange(6) * 10.0), states=states,
                          step_sizes=[10.0] * 5)
        assert max_principle(ops, traj).max_violation <= 1e-9
    print("ACCEPTANCE 5 PASS: max principle within 1e-9, explicit and implicit")


def test_criterion_6_stability():
    """Stable at tau=1, explosive witness at tau=1.5, implicit unconditional."""
    for seed, ops in _instances(20, offset=300):
        rng = make_rng(seed + 50_000)
        x = rng.standard_normal((ops.n, 2))
        a = _softmax_weights(ops, x, seed)
        prev = np.linalg.norm(x)
        for _ in range(200):
            x = step_explicit_euler(ops, a, x, 1.0)
            cur = np.linalg.norm(x)
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur

    # witness: scaled positive weights push the top eigenvalue to 1.9
    # (valid per-node-normalized weights cannot exceed 1, so the witness
    # uses the raw-diagonal form the solver also accepts)
    h0 = Hypergraph(n=3, edges=((0, 1), (0, 1, 2)), weights=(1.0, 1.0))
    ops = HypergraphOperators(h0)
    a_witness = 1.9 * np.ones(ops.N)
    G = dense_oracle(scaled_gradient_matrix(ops))
    lam = np.linalg.eigvalsh(G.T @ (a_witness[:, None] * G)).max()
    assert lam >= 1.9 - 1e-9
    x = make_rng(60_000).standard_normal((3, 2))
    first = np.linalg.norm(x)
    grew = False
    for _ in range(200):
        x = step_explicit_euler(ops, a_witness, x, 1.5)
        if np.linalg.norm(x) >= 10.0 * first:
            grew = True
            break
    assert grew

    for seed, ops in _instances(8, offset=300):
        rng = make_rng(seed + 70_000)
        x0 = rng.standard_normal((ops.n, 2))
        a = uniform_modulation(ops).values
        for tau in (1.0, 10.0, 100.0):
            x = x0
            prev = np.linalg.norm(x)
            for _ in range(10):
                x = step_implicit_euler(ops, a, x, tau, fp_tol=1e-11)
                cur = np.linalg.norm(x)
                assert cur <= prev * (1.0 + 1e-9)
                prev = cur
    print("ACCEPTANCE 6 PASS: tau<=1 stable, lambda=1.9/tau=1.5 witness grows 10x, "
          "implicit stable at tau in {1,10,100}")


def test_criterion_7_integrator_orders():
    """Richardson slopes vs. the matrix-exponential oracle."""
    t0 = time.perf_counter()
    ops = HypergraphOperators(random_hypergraph(5, n_max=14, m_max=10, size_max=5))
    a = uniform_modulation(ops).values
    x0 = make_rng(80_000).standard_normal((ops.n, 3))
    G = dense_oracle(scaled_gradient_matrix(ops))
    M = G.T @ (a[:, None] * G)
    horizon = 2.0
    ref = expm(-horizon * M) @ x0

    def slope(scheme, taus):
        errs = []
        for tau in taus:
            spec = SolverSpec(scheme=scheme, tau=tau, steps=int(round(horizon / tau)),
                              modulation_policy="frozen")
            traj = integrate(ops, a, x0, spec)
            errs.append(np.linalg.norm(traj.states[-1] - ref))
        return float(np.polyfit(np.log(taus), np.log(errs), 1)[0])

    rk4 = slope("rk4", [0.4, 0.2, 0.1, 0.05])
    ab4 = slope("ab4", [0.2, 0.1, 0.05, 0.025])
    euler = slope("explicit_euler", [0.4, 0.2, 0.1, 0.05])
    assert rk4 >= 3.8
    assert ab4 >= 3.5
    assert abs(euler - 1.0) <= 0.2

    for tol in (1e-4, 1e-6):
        spec = AdaptiveSpec(tol=tol, tau_init=0.05, tau_max=horizon)
        traj = integrate_adaptive(ops, a, x0, horizon, spec)
        assert np.linalg.norm(traj.states[-1] - ref) <= 50.0 * tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS: slopes rk4={rk4:.2f} ab4={ab4:.2f} "
          f"euler={euler:.2f}; adaptive within 50*tol ({elapsed:.1f}s)")


def test_criterion_8_gradcheck():
    """Every parameter gradient vs. central differences on 30 nodes, 2 layers."""
    t0 = time.perf_counter()
    hg = random_hypergraph(7, m_max=25, size_max=6, n_exact=30)
    rng = make_rng(90_000)
    d_in, hidden, classes = 6, 5, 3
    ds = Dataset(hypergraph=hg, features=rng.standard_normal((30, d_in)),
                 labels=rng.integers(0, classes, 30), class_count=classes)
    mask = np.zeros(30, dtype=bool)
    mask[rng.choice(30, 15, replace=False)] = True
    spec = SolverSpec(scheme="explicit_euler", tau=1.0, steps=2)

    for variant in ("l", "nl"):
        params = ModelParams.init(d_in, hidden, classes, seed=13)
        _, grads, _ = loss_and_gradients(params, ds, mask, spec, variant,
                                      weight_decay=0.01)
        gvec = grads.to_vector()
        pvec = params.to_vector()
        h = 1e-5
        for i in range(pvec.size):
            pp = pvec.copy(); pp[i] += h
            pm = pvec.copy(); pm[i] -= h
            lp, _, _ = loss_and_gradients(params.from_vector(pp), ds, mask, spec,
                                       variant, weight_decay=0.01)
            lm, _, _ = loss_and_gradients(params.from_vector(pm), ds, mask, spec,
                                       variant, weight_decay=0.01)
            fd = (lp - lm) / (2 * h)
            assert abs(gvec[i] - fd) <= 1e-5 * max(abs(fd), 1e-8), (variant, i)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 8 PASS: full gradcheck, {pvec.size} parameters x 2 variants "
          f"({elapsed:.1f}s)")


def _sbm_config(horizon, epochs=150, splits=5):
    return TrainConfig(hidden_dim=16, horizon=horizon, tau=1.0, variant="l",
                       scheme="explicit_euler", epochs=epochs, lr=0.01,
                       base_seed=0, split_count=splits, standardize=True)


def test_criterion_9_heterophily_analogue():
    """Diffusion beats the no-diffusion baseline at alpha=1; degrades by alpha=7."""
    t0 = time.perf_counter()
    ds_easy = generate_sbm(250, 100, 15, 1, 4, 1.0, seed=2024)
    ds_hard = generate_sbm(250, 100, 15, 7, 4, 1.0, seed=2024)

    acc_diffused = train_and_evaluate(ds_easy, _sbm_config(4.0)).mean_test_accuracy
    acc_baseline = train_and_evaluate(ds_easy, _sbm_config(0.0)).mean_test_accuracy
    acc_hard = train_and_evaluate(ds_hard, _sbm_config(4.0)).mean_test_accuracy

    gap = 100.0 * (acc_diffused - acc_baseline)
    assert gap >= 2.0, (acc_diffused, acc_baseline)
    assert acc_diffused > acc_hard
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 9 PASS: alpha=1 diffused {acc_diffused:.3f} vs baseline "
          f"{acc_baseline:.3f} (+{gap:.1f} pts); alpha=7 {acc_hard:.3f} ({elapsed:.0f}s)")


def test_criterion_10_depth_stability():
    """Accuracy at 30 layers within 5 points of 2; bounded at all depths."""
    t0 = time.perf_counter()
    ds = generate_sbm(250, 100, 15, 1, 4, 1.0, seed=2024)

    acc2 = train_and_evaluate(ds, _sbm_config(2.0)).mean_test_accuracy
    acc30 = train_and_evaluate(ds, _sbm_config(30.0)).mean_test_accuracy
    assert abs(acc30 - acc2) * 100.0 <= 5.0, (acc2, acc30)

    # every depth runs without overflow and respects the max principle
    from hnd.train import standardize_features

    ds_std = standardize_features(ds)
    ops = HypergraphOperators(ds_std.hypergraph)
    for layers in (2, 4, 10, 20, 30, 40):
        cfg = _sbm_config(float(layers), epochs=20, splits=1)
        report = train_and_evaluate(ds, cfg)
        assert np.isfinite(report.mean_test_accuracy)
        params = ModelParams.init(ds.features.shape[1], cfg.hidden_dim,
                                  ds.class_count, seed=1)
        x0 = ds_std.features @ params.w_in
        a = _softmax_weights(ops, x0, seed=3)
        traj = integrate(ops, a, x0, SolverSpec(scheme="explicit_euler", tau=1.0,
                                                steps=layers,
                                                modulation_policy="frozen"))
        assert all(np.isfinite(s).all() for s in traj.states)
        assert max_principle(ops, traj).max_violation <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 10 PASS: acc L=2 {acc2:.3f} vs L=30 {acc30:.3f}; bounded "
          f"through L=40 ({elapsed:.0f}s)")


def test_criterion_11_cli_determinism(tmp_path):
    """Every CLI command rerun with identical config produces identical bytes."""
    from hnd.cli import main

    h0ds = tmp_path / "h0ds.json"
    h0ds.write_text(json.dumps({
        "n": 3, "edges": [[0, 1], [0, 1, 2]], "weights": [1.0, 1.0],
        "features": [[1.0], [0.0], [0.0]], "labels": [0, 0, 1], "class_count": 2,
    }))
    h0txt = tmp_path / "h0.txt"
    h0txt.write_text("3 2\n1.0 2 0 1\n1.0 3 0 1 2\n")

    train_args = ["--nodes-per-class", "25", "--edges", "30", "--edge-size", "4",
                  "--alpha", "1", "--feature-dim", "3", "--epochs", "4",
                  "--splits", "2", "--hidden", "8"]
    commands = {
        "sbm": (["sbm", "--nodes-per-class", "20", "--edges", "25", "--edge-size",
                 "4", "--alpha", "1", "--feature-dim", "3", "--seed", "3"],
                ["dataset.json"]),
        "diffuse": (["diffuse", "--dataset", str(h0ds), "--scheme", "rk4", "--tau",
                     "0.5", "--steps", "4", "--modulation", "softmax",
                     "--dump-states"],
                    ["trajectory.csv", "diagnostics.json", "states.bin"]),
        "train": (["train"] + train_args, ["metrics.json"]),
        "bench-noise": (["bench-noise"] + train_args + ["--rates", "0.0,0.3"],
                        ["metrics.json"]),
        "bench-solver": (["bench-solver"], ["bench.json"]),
        "spectrum": (["spectrum", "--dataset", str(h0txt)], ["spectrum.json"]),
    }
    for name, (args, files) in commands.items():
        out1 = str(tmp_path / f"{name}_1")
        out2 = str(tmp_path / f"{name}_2")
        assert main(args + ["--out", out1]) == 0, name
        assert main(args + ["--out", out2]) == 0, name
        for fname in files:
            b1 = Path(os.path.join(out1, fname)).read_bytes()
            b2 = Path(os.path.join(out2, fname)).read_bytes()
            assert b1 == b2, (name, fname)
    print("ACCEPTANCE 11 PASS: byte-identical reruns for all commands")
