"""The CLI's option tables: flags, config-file typing, and the README usage."""

import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnd import cli
from hnd.cli import main

PARSER = cli._build_parser()
COMMANDS = ("sbm", "diffuse", "train", "bench-noise", "bench-solver", "spectrum")
OPTIONS = [(name, option) for name in COMMANDS for option in PARSER.parse_args([name]).options]

H0_DATASET = json.dumps({
    "n": 3, "edges": [[0, 1], [0, 1, 2]], "weights": [1.0, 1.0],
    "features": [[1.0], [0.0], [0.0]], "labels": [0, 0, 1], "class_count": 2,
})
SBM_ARGS = ["--nodes-per-class", "25", "--edges", "30", "--edge-size", "4", "--feature-dim", "3"]


# Config values that ran, or died with a traceback, before config files
# were typed. Each must now exit 2 naming the key, before any output.
@pytest.mark.parametrize("command,cfg", [
    pytest.param("train", {"standardize": "false"}, id="standardize-string-trained-standardized"),
    pytest.param("train", {"epochs": 2.7}, id="epochs-float-truncated"),
    pytest.param("diffuse", {"dump_states": "no"}, id="dump-states-string-dumped"),
    pytest.param("diffuse", {"tau": "0.5"}, id="tau-string-echoed"),
    pytest.param("diffuse", {"steps": True}, id="steps-bool-ran-one-step"),
    pytest.param("train", {"horizon": None}, id="horizon-null-traceback"),
    pytest.param("train", {"splits": None}, id="splits-null-traceback"),
    pytest.param("bench-noise", {"layers": "0,2"}, id="bench-noise-layers-ran-depth-sweep"),
])
def test_mistyped_config_value_exits_2(tmp_path, capsys, command, cfg):
    dataset = tmp_path / "h0.json"
    dataset.write_text(H0_DATASET)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--dataset", str(dataset)] if command == "diffuse" else SBM_ARGS
    out = tmp_path / "out"
    assert main([command, *argv, "--config", str(path), "--out", str(out)]) == 2
    (key,) = cfg
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


# Sweep options that train ignored but still echoed into metrics.json. Each
# must exit 2 naming both keys, before any output, by flag or config file.
@pytest.mark.parametrize("cfg,named", [
    pytest.param({"layers": "2", "noise": "gaussian"}, ("layers", "noise"),
                 id="layers-ran-depth-sweep-echoed-noise"),
    pytest.param({"layers": "2", "rates": "0.1"}, ("layers", "rates"),
                 id="layers-ran-depth-sweep-echoed-rates"),
    pytest.param({"rates": "0.1"}, ("rates", "noise"), id="rates-ran-plain-train"),
])
@pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
def test_ignored_sweep_option_exits_2(tmp_path, capsys, cfg, named, by_file):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path)] if by_file else \
        [f"--{key}={value}" for key, value in cfg.items()]
    out = tmp_path / "out"
    assert main(["train", *SBM_ARGS, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(f"'{key}'" in err for key in named)
    assert not out.exists()


def test_integer_for_float_key_is_echoed_as_float(tmp_path):
    dataset = tmp_path / "h0.json"
    dataset.write_text(H0_DATASET)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 1, "dataset": str(dataset)}))
    assert main(["diffuse", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    diag = (tmp_path / "o" / "diagnostics.json").read_text()
    assert '"tau": 1.0' in diag


def test_bench_noise_is_train_without_layers():
    train = cli._resolve(PARSER.parse_args(["train"]))
    del train["layers"]
    assert cli._resolve(PARSER.parse_args(["bench-noise"])) == {**train, "noise": "structure"}


def _flag_argv(option, value) -> list:
    """The command-line flags that give the option this JSON value."""
    key, default, kind, _ = option
    flag = "--" + key.replace("_", "-")
    if kind is bool:
        return [flag] if value else ["--no-" + flag[2:]] if default else []
    if value is None:
        return []
    if isinstance(value, list):
        value = ",".join(map(str, value))
    return [f"{flag}={value}"]


def _values(option):
    """JSON values of every type, plus ones of the option's own type."""
    key, default, kind, choices = option
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.just(10 ** 400),
                        st.floats(), st.text(max_size=6))
    extra = [st.sampled_from(choices)] if choices else []
    if isinstance(kind, list):
        items = st.integers(-3, 50) if kind[0] is int else st.floats() | st.integers()
        extra += [st.lists(items, max_size=4),
                  st.lists(items, max_size=4).map(lambda xs: ",".join(map(str, xs)))]
    return st.one_of(scalars, st.lists(scalars, max_size=3), *extra)


VALUES = {(name, option[0]): _values(option) for name, option in OPTIONS}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "cfg.json"


@pytest.mark.parametrize("command,option", OPTIONS,
                         ids=[f"{name}-{option[0]}" for name, option in OPTIONS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_config_value_is_typed_like_its_flag(cfg_path, command, option, data):
    key, _, kind, _ = option
    value = data.draw(VALUES[command, key])
    cfg_path.write_text(json.dumps({key: value}))
    try:
        resolved = cli._resolve(PARSER.parse_args([command, "--config", str(cfg_path)]))[key]
    except ValueError as exc:
        assert f"'{key}'" in str(exc)
        return
    if key == "ratios":  # config file only; json.dumps, as below, so NaN equals NaN
        assert json.dumps(cli._parse_list(resolved)) == json.dumps(cli._parse_list(value))
        return
    flagged = cli._resolve(PARSER.parse_args([command, *_flag_argv(option, value)]))[key]
    if isinstance(kind, list) and value is not None:
        resolved, flagged = cli._parse_list(resolved, kind[0]), cli._parse_list(flagged, kind[0])
    # json.dumps tells 1 from 1.0, and writes NaN the same way twice
    assert json.dumps(resolved) == json.dumps(flagged)


# The option strings of every subcommand before the option tables; the
# tables must neither add nor drop one.
PARENT_OPTION_STRINGS = {
    "validate": ["--help", "-h"],
    "sbm": ["--alpha", "--config", "--edge-size", "--edges", "--feature-dim", "--help",
            "--nodes-per-class", "--out", "--seed", "--sigma", "-h"],
    "diffuse": ["--config", "--dataset", "--dim", "--dump-states", "--fp-max-iter", "--fp-tol",
                "--help", "--horizon", "--modulation", "--out", "--scheme", "--seed", "--steps",
                "--tau", "--tau-min", "--tol", "--variant", "-h"],
    "train": ["--agg", "--alpha", "--config", "--dataset", "--dropout", "--edge-size", "--edges",
              "--epochs", "--feature-dim", "--help", "--hidden", "--horizon", "--layers", "--lr",
              "--no-standardize", "--nodes-per-class", "--noise", "--out", "--rates", "--scheme",
              "--seed", "--sigma", "--splits", "--standardize", "--tau", "--variant",
              "--weight-decay", "-h"],
    "bench-noise": ["--agg", "--alpha", "--config", "--dataset", "--dropout", "--edge-size",
                    "--edges", "--epochs", "--feature-dim", "--help", "--hidden", "--horizon",
                    "--lr", "--no-standardize", "--nodes-per-class", "--noise", "--out",
                    "--rates", "--scheme", "--seed", "--sigma", "--splits", "--standardize",
                    "--tau", "--variant", "--weight-decay", "-h"],
    "bench-solver": ["--config", "--dim", "--help", "--horizon", "--out", "--seed", "--taus",
                     "--tols", "-h"],
    "spectrum": ["--config", "--dataset", "--dim", "--help", "--iters", "--modulation", "--out",
                 "--seed", "--tol", "-h"],
}


def test_option_strings_match_the_tables_and_are_unchanged():
    subparsers = next(a for a in PARSER._actions if a.dest == "command").choices
    assert sorted(subparsers) == sorted(PARENT_OPTION_STRINGS)
    for name, sub in subparsers.items():
        strings = sorted(s for action in sub._actions for s in action.option_strings)
        assert strings == PARENT_OPTION_STRINGS[name], name
    for name in COMMANDS:  # every table key but ratios is a flag
        keys = {option[0] for option in PARSER.parse_args([name]).options} - {"ratios"}
        flags = {s for s in PARENT_OPTION_STRINGS[name] if s.startswith("--")}
        assert {"--" + key.replace("_", "-") for key in keys} == \
            flags - {"--config", "--out", "--help", "--no-standardize"}, name


def _readme_cli_lines() -> list:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [line.split("#", 1)[0].strip() for line in joined.splitlines()
            if line.strip().startswith("hnd ")]


def test_readme_cli_block_parses():
    lines = _readme_cli_lines()
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            PARSER.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README usage no longer parses: {line}")
