import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hnd
from hnd.cli import main
from hnd.synth import generate_sbm
from hnd.train import TrainConfig, depth_sweep

H0_TEXT = "3 2\n1.0 2 0 1\n1.0 3 0 1 2\n"
H0_DATASET = json.dumps({
    "n": 3, "edges": [[0, 1], [0, 1, 2]], "weights": [1.0, 1.0],
    "features": [[1.0], [0.0], [0.0]], "labels": [0, 0, 1], "class_count": 2,
})


@pytest.fixture
def h0_file(tmp_path):
    path = tmp_path / "h0.txt"
    path.write_text(H0_TEXT)
    return str(path)


@pytest.fixture
def h0_dataset_file(tmp_path):
    path = tmp_path / "h0ds.json"
    path.write_text(H0_DATASET)
    return str(path)


def test_validate_ok(h0_file, capsys):
    assert main(["validate", h0_file]) == 0
    out = capsys.readouterr().out
    assert "n=3 m=2 N=5" in out


def test_validate_degenerate_edge(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1.0 1 0\n1.0 3 0 1 2\n")
    assert main(["validate", str(path)]) == 2
    assert "DegenerateEdge" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.txt")]) == 3


def test_sbm_writes_dataset(tmp_path):
    out = str(tmp_path / "o")
    code = main(["sbm", "--nodes-per-class", "20", "--edges", "25", "--edge-size", "4",
                 "--alpha", "1", "--feature-dim", "3", "--seed", "7", "--out", out])
    assert code == 0
    obj = json.loads(Path(os.path.join(out, "dataset.json")).read_text())
    assert obj["n"] == 40 and len(obj["edges"]) == 25


def test_sbm_rerun_byte_identical(tmp_path):
    args = ["sbm", "--nodes-per-class", "20", "--edges", "25", "--edge-size", "4",
            "--alpha", "1", "--feature-dim", "3", "--seed", "7"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = Path(os.path.join(out1, "dataset.json")).read_bytes()
    b2 = Path(os.path.join(out2, "dataset.json")).read_bytes()
    assert b1 == b2


def test_diffuse_monotone_energy(h0_dataset_file, tmp_path):
    out = str(tmp_path / "d")
    code = main(["diffuse", "--dataset", h0_dataset_file, "--scheme", "explicit_euler",
                 "--tau", "1", "--steps", "5", "--modulation", "uniform", "--out", out])
    assert code == 0
    csv = Path(os.path.join(out, "trajectory.csv")).read_text().strip().splitlines()
    assert csv[0] == "step,time,tau,state_norm,energy"
    energies = [float(line.split(",")[4]) for line in csv[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    diag = json.loads(Path(os.path.join(out, "diagnostics.json")).read_text())
    assert diag["energy_monotone"] is True
    assert diag["max_principle_violation"] <= 1e-9


def test_diffuse_implicit_large_tau(h0_dataset_file, tmp_path):
    out = str(tmp_path / "im")
    code = main(["diffuse", "--dataset", h0_dataset_file, "--scheme", "implicit_euler",
                 "--tau", "10", "--steps", "5", "--modulation", "softmax", "--out", out])
    assert code == 0
    csv = Path(os.path.join(out, "trajectory.csv")).read_text().strip().splitlines()
    norms = [float(line.split(",")[3]) for line in csv[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))


def test_diffuse_invalid_tau_exits_2(h0_dataset_file, tmp_path):
    code = main(["diffuse", "--dataset", h0_dataset_file, "--tau", "-1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert not os.path.exists(os.path.join(str(tmp_path / "x"), "trajectory.csv"))


def test_diffuse_step_underflow_exits_4(h0_dataset_file, tmp_path):
    code = main(["diffuse", "--dataset", h0_dataset_file, "--scheme", "adaptive",
                 "--tau", "0.5", "--horizon", "5", "--tol", "1e-16",
                 "--tau-min", "1e-3", "--out", str(tmp_path / "u")])
    assert code == 4


@pytest.fixture(scope="module")
def sbm7_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbm7")
    assert main(["sbm", "--seed", "7", "--out", str(out)]) == 0
    return str(out / "dataset.json")


DIVERGED = {  # tau * rho(G^T A G) far above the explicit stability bound of 2
    "diffuse": ["diffuse", "--scheme", "explicit_euler", "--tau", "50", "--steps", "400",
                "--modulation", "uniform"],
    "train-l": ["train", "--tau", "50", "--horizon", "10000", "--epochs", "2", "--hidden", "16",
                "--splits", "1"],
    "train-nl": ["train", "--tau", "50", "--horizon", "10000", "--epochs", "2", "--hidden", "16",
                 "--splits", "1", "--variant", "nl"],
}


@pytest.mark.parametrize("name", sorted(DIVERGED))
def test_diverged_flow_exits_4_before_output(sbm7_file, tmp_path, capsys, name):
    # diffuse once wrote NaN and Infinity with exit 0; train exited 2 blaming the weights
    out = tmp_path / "o"
    assert main([*DIVERGED[name], "--dataset", sbm7_file, "--out", str(out)]) == 4
    assert "left the finite range" in capsys.readouterr().err
    assert not (out / "metrics.json").exists() and not (out / "diagnostics.json").exists()


def test_diverged_flow_exits_4_in_sweep_threads(sbm7_file, tmp_path, capsys, monkeypatch):
    # worker threads run under the caller's np.errstate, not numpy's default
    monkeypatch.setenv("HND_THREADS", "2")
    out = tmp_path / "o"
    assert main(["train", "--dataset", sbm7_file, "--tau", "50", "--layers", "1,200",
                 "--epochs", "2", "--hidden", "16", "--splits", "1", "--out", str(out)]) == 4
    assert "left the finite range" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_diffuse_rerun_byte_identical(h0_dataset_file, tmp_path):
    args = ["diffuse", "--dataset", h0_dataset_file, "--scheme", "rk4",
            "--tau", "0.5", "--steps", "4", "--modulation", "softmax", "--seed", "3"]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(args + ["--out", out1, "--dump-states"]) == 0
    assert main(args + ["--out", out2, "--dump-states"]) == 0
    for name in ("trajectory.csv", "diagnostics.json", "states.bin"):
        assert Path(os.path.join(out1, name)).read_bytes() == \
            Path(os.path.join(out2, name)).read_bytes()



def test_diffuse_parses_dataset_json_once(h0_dataset_file, tmp_path, monkeypatch):
    calls = []
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        calls.append(args[0][:20])
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    assert main(["diffuse", "--dataset", h0_dataset_file, "--steps", "2",
                 "--out", str(tmp_path / "d")]) == 0
    assert len(calls) == 1


def test_diffuse_json_hypergraph_without_features(h0_file, tmp_path):
    json_file = tmp_path / "h0.json"
    json_file.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 1, 2]],
                                     "weights": [1.0, 1.0]}))
    args = ["diffuse", "--steps", "3", "--dim", "2", "--seed", "5"]
    out_text, out_json = str(tmp_path / "t"), str(tmp_path / "j")
    assert main(args + ["--dataset", h0_file, "--out", out_text]) == 0
    assert main(args + ["--dataset", str(json_file), "--out", out_json]) == 0
    # both formats hold the same hypergraph, so the seeded features and
    # every result agree; only the echoed config names another file
    assert Path(os.path.join(out_text, "trajectory.csv")).read_bytes() == \
        Path(os.path.join(out_json, "trajectory.csv")).read_bytes()
    text_diag, json_diag = (json.loads(Path(os.path.join(out, "diagnostics.json")).read_text())
                            for out in (out_text, out_json))
    assert text_diag.pop("config")["dataset"] == h0_file
    assert json_diag.pop("config")["dataset"] == str(json_file)
    assert text_diag == json_diag

TRAIN_ARGS = ["--nodes-per-class", "25", "--edges", "30", "--edge-size", "4",
              "--alpha", "1", "--feature-dim", "3", "--epochs", "5",
              "--splits", "2", "--hidden", "8"]


def test_train_writes_metrics(tmp_path):
    out = str(tmp_path / "t")
    assert main(["train"] + TRAIN_ARGS + ["--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "metrics.json")).read_text())
    assert body["command"] == "train"
    assert 0.0 <= body["report"]["mean_test_accuracy"] <= 1.0
    assert body["config"]["epochs"] == 5
    assert os.path.exists(os.path.join(out, "timing.json"))
    assert "wall" not in Path(os.path.join(out, "metrics.json")).read_text()


def test_train_rerun_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    assert main(["train"] + TRAIN_ARGS + ["--out", out1]) == 0
    assert main(["train"] + TRAIN_ARGS + ["--out", out2]) == 0
    assert Path(os.path.join(out1, "metrics.json")).read_bytes() == \
        Path(os.path.join(out2, "metrics.json")).read_bytes()


def test_train_depth_sweep(tmp_path):
    out = str(tmp_path / "ds")
    assert main(["train"] + TRAIN_ARGS + ["--layers", "0,2", "--splits", "1",
                                          "--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "metrics.json")).read_text())
    assert body["command"] == "depth_sweep"
    assert [p["layers"] for p in body["points"]] == [0, 2]


def test_train_depth_sweep_threads_byte_identical(tmp_path, monkeypatch):
    # sweep points share one dataset, so threads share its cached workspace
    args = ["train"] + TRAIN_ARGS + ["--layers", "1,2,3", "--splits", "1"]
    bodies = []
    for threads in ("", "2"):
        monkeypatch.setenv("HND_THREADS", threads)
        out = str(tmp_path / f"threads{threads}")
        assert main(args + ["--out", out]) == 0
        bodies.append(Path(os.path.join(out, "metrics.json")).read_bytes())
    assert bodies[0] == bodies[1]


def test_train_non_finite_feature_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(H0_DATASET.replace("[0.0], [0.0]]", "[NaN], [0.0]]"))
    assert main(["train", "--dataset", str(path), "--epochs", "1", "--splits", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "MalformedDocument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "diffuse"])
def test_zero_column_features_exit_2(tmp_path, capsys, command):
    # train once ended in an OverflowError, diffuse in numpy's reshape ValueError
    path = tmp_path / "empty.json"
    obj = json.loads(H0_DATASET)
    obj["features"] = [[], [], []]
    path.write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert main([command, "--dataset", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: MalformedDocument: features have zero columns" in captured.err
    assert not out.exists()


def test_diffuse_nl_implicit_evaluates_modulation_once_per_state(
        h0_dataset_file, tmp_path, monkeypatch):
    from hnd import modulation

    seen = []
    real_forward = modulation.scores_forward

    def recording(params, X, ops, agg="mean"):
        seen.append(np.array(X))
        return real_forward(params, X, ops, agg)

    monkeypatch.setattr(modulation, "scores_forward", recording)
    out = tmp_path / "nl"
    assert main(["diffuse", "--dataset", h0_dataset_file, "--scheme", "implicit_euler",
                 "--tau", "10", "--steps", "3", "--modulation", "softmax", "--variant", "nl",
                 "--dump-states", "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    # the first state, plus one per fixed-point iterate, of which each step's last is its state
    assert len(seen) >= 1 + 3
    assert all(not np.array_equal(u, v) for i, u in enumerate(seen) for v in seen[:i])
    states = np.frombuffer((out / "states.bin").read_bytes(), dtype="<f8", offset=24)
    for state in states.reshape(4, 3, 1):
        assert any(np.array_equal(state, x) for x in seen)
    assert diag["energy_monotone"]


@pytest.mark.parametrize("variant,calls", [("nl", 4), ("l", 1)])
def test_diffuse_explicit_evaluates_modulation_once_per_state(
        h0_dataset_file, tmp_path, monkeypatch, variant, calls):
    from hnd import modulation

    counted = []
    real_forward = modulation.scores_forward

    def counting(*args, **kwargs):
        counted.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(modulation, "scores_forward", counting)
    assert main(["diffuse", "--dataset", h0_dataset_file, "--scheme", "explicit_euler",
                 "--steps", "3", "--modulation", "softmax", "--variant", variant,
                 "--out", str(tmp_path / variant)]) == 0
    assert len(counted) == calls  # 4 distinct states under nl, 1 frozen under l


@pytest.mark.parametrize("scheme", ["rk4", "ab4", "am4", "adaptive"])
def test_diffuse_nl_reuses_the_modulation_of_every_rhs_eval(
        h0_dataset_file, tmp_path, monkeypatch, scheme):
    from hnd import modulation

    counted = []
    real_forward = modulation.scores_forward

    def counting(*args, **kwargs):
        counted.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(modulation, "scores_forward", counting)
    out = tmp_path / scheme
    assert main(["diffuse", "--dataset", h0_dataset_file, "--scheme", scheme, "--tau", "0.5",
                 "--steps", "4", "--modulation", "softmax", "--variant", "nl",
                 "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    # the energy check evaluates A only where no stage did: the last state at most
    assert len(counted) <= diag["rhs_evals"] + 1


def test_diffuse_records_cg_iterations_per_implicit_step(h0_dataset_file, tmp_path):
    out = tmp_path / "cg"
    assert main(["diffuse", "--dataset", h0_dataset_file, "--scheme", "implicit_euler",
                 "--tau", "10", "--steps", "3", "--modulation", "softmax", "--variant", "nl",
                 "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert len(diag["cg_iters"]) == 3
    # per step: the residual at its start state, and per solve its matvecs plus one residual
    assert diag["rhs_evals"] == sum(1 + sum(s) + len(s) for s in diag["cg_iters"])


@pytest.mark.parametrize("ratios", [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])
def test_train_empty_split_exits_2(tmp_path, capsys, ratios):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratios": ratios}))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg)] + TRAIN_ARGS + ["--out", str(out)]) == 2
    assert "InvalidRatios" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize(
    "field,value",
    [("n", "Infinity"), ("n", "1e15"), ("edges", "[[0, Infinity], [0, 1, 2]]"),
     ("labels", "[0.7, 1.9, 0]"), ("features", "[[1.0], [0.0, 2.0], [0.0]]")],
)
def test_train_hostile_dataset_exits_2(tmp_path, capsys, field, value):
    obj = json.loads(H0_DATASET)
    obj[field] = "PLACEHOLDER"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj).replace('"PLACEHOLDER"', value))
    assert main(["train", "--dataset", str(path), "--epochs", "1", "--splits", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "error: MalformedDocument" in capsys.readouterr().err


def test_train_noise_sweep(tmp_path):
    out = str(tmp_path / "ns")
    assert main(["train"] + TRAIN_ARGS + ["--noise", "mask", "--rates", "0.0,0.5",
                                          "--splits", "1", "--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "metrics.json")).read_text())
    assert body["command"] == "noise_sweep"
    assert [p["rate"] for p in body["points"]] == [0.0, 0.5]


def test_bench_noise_command(tmp_path):
    out = str(tmp_path / "bn")
    assert main(["bench-noise"] + TRAIN_ARGS + ["--rates", "0.1", "--splits", "1",
                                                "--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "metrics.json")).read_text())
    assert body["command"] == "noise_sweep"
    assert body["noise"] == "structure"


def test_structure_noise_runs_on_the_default_dataset(tmp_path):
    # the removals orphan 6, 28, 47 and 63 of its 500 nodes, which the fake edges take in
    out = tmp_path / "bn"
    assert main(["bench-noise", "--rates", "0.1,0.2,0.3,0.4", "--epochs", "2", "--hidden", "8",
                 "--splits", "1", "--out", str(out)]) == 0
    body = json.loads((out / "metrics.json").read_text())
    assert [p["rate"] for p in body["points"]] == [0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "1.5"])
def test_bad_hnd_threads_exits_2(tmp_path, capsys, monkeypatch, threads):
    # once read as sequential without a word
    monkeypatch.setenv("HND_THREADS", threads)
    out = tmp_path / "o"
    assert main(["train"] + TRAIN_ARGS + ["--layers", "1,2", "--out", str(out)]) == 2
    assert "HND_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_bench_solver_slopes(tmp_path):
    out = str(tmp_path / "b")
    assert main(["bench-solver", "--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "bench.json")).read_text())
    rows = {r["scheme"]: r for r in body["fixed_step"]}
    assert rows["rk4"]["slope"] >= 3.8
    assert abs(rows["explicit_euler"]["slope"] - 1.0) <= 0.2
    assert rows["ab4"]["slope"] >= 3.5
    for row in body["adaptive"]:
        assert row["rejected"] >= 0
        assert row["final_error"] <= 50 * row["tol"]


def test_bench_solver_rerun_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert main(["bench-solver", "--out", out1]) == 0
    assert main(["bench-solver", "--out", out2]) == 0
    assert Path(os.path.join(out1, "bench.json")).read_bytes() == \
        Path(os.path.join(out2, "bench.json")).read_bytes()


def test_spectrum_command(tmp_path, h0_file):
    out = str(tmp_path / "sp")
    assert main(["spectrum", "--dataset", h0_file, "--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "spectrum.json")).read_text())
    assert abs(body["spectral_radius"] - body["dense_max_eigenvalue"]) <= 1e-8


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nodes_per_class": 20, "edges": 25, "edge_size": 4,
                               "alpha": 1, "feature_dim": 3, "seed": 1}))
    out = str(tmp_path / "o")
    assert main(["sbm", "--config", str(cfg), "--seed", "9", "--out", out]) == 0
    obj = json.loads(Path(os.path.join(out, "dataset.json")).read_text())
    assert obj["n"] == 40  # from the file
    # the flag wins over the file: same output as seed 9 directly
    out2 = str(tmp_path / "o2")
    assert main(["sbm", "--nodes-per-class", "20", "--edges", "25", "--edge-size", "4",
                 "--alpha", "1", "--feature-dim", "3", "--seed", "9", "--out", out2]) == 0
    assert Path(os.path.join(out, "dataset.json")).read_text() == \
        Path(os.path.join(out2, "dataset.json")).read_text()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["sbm", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_outputs_embed_version_and_config(tmp_path):
    out = str(tmp_path / "t")
    assert main(["train"] + TRAIN_ARGS + ["--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "metrics.json")).read_text())
    import hnd
    assert body["library_version"] == hnd.__version__
    assert body["config"]["nodes_per_class"] == 25


def test_train_and_diffuse_do_not_import_scipy_sparse(tmp_path, h0_dataset_file):
    # importing scipy.sparse alone adds ~13 MB of peak RSS to a small train run
    script = f"""
import sys
from hnd.cli import main
assert main(["train", *{TRAIN_ARGS!r}, "--epochs", "2", "--out", {str(tmp_path / "t")!r}]) == 0
assert main(["diffuse", "--dataset", {h0_dataset_file!r}, "--scheme", "implicit_euler",
             "--modulation", "softmax", "--steps", "2", "--out", {str(tmp_path / "d")!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
assert "scipy.sparse" not in sys.modules
"""
    src = str(Path(hnd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_spectrum_leaves_out_dense_fields_when_dense_g_is_too_large(tmp_path):
    data = str(tmp_path / "data")
    assert main(["sbm", "--edges", "200", "--out", data]) == 0  # N * n = 3000 * 500
    out = str(tmp_path / "sp")
    assert main(["spectrum", "--dataset", os.path.join(data, "dataset.json"), "--out", out]) == 0
    body = json.loads(Path(os.path.join(out, "spectrum.json")).read_text())
    assert 0.0 < body["spectral_radius"] <= 2.0
    assert "dense_min_eigenvalue" not in body and "dense_max_eigenvalue" not in body


def test_degenerate_solver_and_training_flags_exit_2(tmp_path, h0_dataset_file):
    # `--tol nan` once hung the adaptive scheme, so the commands run in a
    # child process that a timeout can stop
    cases = [
        (["diffuse", "--dataset", h0_dataset_file, "--tau", "nan"], "tau"),
        (["diffuse", "--dataset", h0_dataset_file, "--scheme", "adaptive", "--tol", "nan"], "tol"),
        (["train", *TRAIN_ARGS, "--lr", "nan"], "lr"),
        (["train", *TRAIN_ARGS, "--weight-decay", "nan"], "weight_decay"),
    ]
    script = f"""
import contextlib, io
from hnd.cli import main
for argv, field in {cases!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", {str(tmp_path / "o")!r}])
    assert code == 2 and f"ValueError: {{field}} must be finite" in err.getvalue(), (argv, code, err.getvalue())
"""
    src = str(Path(hnd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not os.path.exists(str(tmp_path / "o"))


@pytest.mark.parametrize("argv,field", [
    (["diffuse", "--tau", "0", "--horizon", "1"], "tau"),
    (["diffuse", "--horizon", "inf"], "horizon"),
    (["train", *TRAIN_ARGS, "--tau", "0"], "tau"),
    (["train", *TRAIN_ARGS, "--horizon", "inf"], "horizon"),
    (["train", *TRAIN_ARGS, "--hidden", "0"], "hidden_dim"),
    (["train", *TRAIN_ARGS, "--feature-dim", "0"], "feature_dim"),
    (["bench-solver", "--taus", "0"], "taus"),
    (["bench-solver", "--taus", ""], "taus"),
    (["bench-solver", "--taus", "0.1"], "taus"),
    (["bench-solver", "--taus", "0.1,0.1"], "taus"),
], ids=["diffuse-tau-0", "diffuse-horizon-inf", "train-tau-0", "train-horizon-inf",
        "train-hidden-0", "train-feature-dim-0", "bench-solver-taus-0", "bench-solver-taus-empty",
        "bench-solver-taus-one", "bench-solver-taus-repeated"])
def test_degenerate_step_and_width_flags_exit_2_before_output(
        tmp_path, h0_dataset_file, capsys, argv, field):
    # each once ended in a ZeroDivisionError, OverflowError or TypeError
    if argv[0] == "diffuse":
        argv = [*argv, "--dataset", h0_dataset_file]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ValueError: {field} must" in captured.err, captured.err
    assert not out.exists()


def test_depth_recipe_matches_the_library_sweep(tmp_path):
    # the README recipes write the dataset with one seed and train with another
    data, out = tmp_path / "d", tmp_path / "t"
    assert main(["sbm", "--seed", "2024", "--out", str(data)]) == 0
    assert main(["train", "--dataset", str(data / "dataset.json"), "--seed", "0",
                 "--hidden", "16", "--tau", "1", "--layers", "0,2", "--epochs", "2",
                 "--splits", "2", "--out", str(out)]) == 0
    points = json.loads((out / "metrics.json").read_text())["points"]
    expected = depth_sweep(generate_sbm(250, 100, 15, 1, 4, 1.0, seed=2024),
                           TrainConfig(hidden_dim=16, tau=1.0, epochs=2, base_seed=0,
                                       split_count=2), [0, 2])
    assert [(p["layers"], p["report"]["mean_test_accuracy"], p["report"]["std_test_accuracy"])
            for p in points] == [(e["layers"], e["report"].mean_test_accuracy,
                                  e["report"].std_test_accuracy) for e in expected]
