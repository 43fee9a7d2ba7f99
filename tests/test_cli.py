import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mmflow.cli as cli
from mmflow.cli import (
    ConfigError,
    canonicalize,
    cmd_ablation,
    cmd_diagnose,
    cmd_eval,
    cmd_sample,
    cmd_train,
    config_hash,
    load_config,
    main,
)
from mmflow.field_model import _blas_threads, _read_json, _set_blas_threads
from mmflow.meanflow_math import HarmonicFlow, OracleField

from helpers import read_csv_columns


def smoke_config(tmp_path, **overrides):
    doc = {
        "task": {"kind": "ode_harmonic", "dim": 1, "endpoint_noise_std": 0.0, "seed": 5},
        "field": {"hidden_widths": [8, 8], "time_embed_dim": 4,
                  "base_frequency": 10.0, "seed": 1},
        "train": {"total_steps": 30, "batch_size": 8, "lr0": 1e-3, "seed": 2,
                  "log_every": 10, "checkpoint_every": 0},
        "schedule": {"kind": "warmup", "t_warmup": 10},
        "eval": {"n_samples": 16, "few_step_ns": [1, 4]},
        "output_dir": str(tmp_path / "run"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# config handling


def test_canonicalize_is_a_fixed_point(tmp_path):
    cfg = load_config(smoke_config(tmp_path))
    again = canonicalize(json.loads(json.dumps(cfg)))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_unknown_key_rejected_with_path(tmp_path):
    path = smoke_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["train"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    assert "train.learning_rate" in str(err.value)


def test_negative_lr_names_field_path(tmp_path):
    path = smoke_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["train"]["lr0"] = -1.0
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    assert err.value.path == "train"
    assert str(err.value).startswith("train: lr0 ")


def test_field_dimension_must_match_task(tmp_path):
    path = smoke_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["field"]["input_dim"] = 3
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    assert "field.input_dim" in str(err.value)


def test_missing_task_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"train": {}}))


def test_schedule_defaults_to_eighth_warmup(tmp_path):
    path = smoke_config(tmp_path)
    doc = json.loads(path.read_text())
    del doc["schedule"]
    doc["train"]["total_steps"] = 80
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg["schedule"] == {"kind": "warmup", "t_warmup": 10}
    doc["schedule"] = None
    assert canonicalize(doc)["schedule"] == {"kind": "warmup", "t_warmup": 10}


# ---------------------------------------------------------------------------
# train command


def test_cmd_train_writes_expected_artifacts(tmp_path):
    config = smoke_config(tmp_path)
    assert cmd_train(config) == 0
    out = tmp_path / "run"
    log_lines = (out / "trainlog.csv").read_text().splitlines()
    assert log_lines[0] == "step,loss,grad_norm,lambda,lr"
    assert len(log_lines) - 1 == 3  # steps 9, 19, 29
    manifest = json.loads((out / "run_manifest.json").read_text())
    listed = set(manifest["artifacts"])
    on_disk = set()
    for root, _, files in os.walk(out):
        for f in files:
            on_disk.add(os.path.relpath(os.path.join(root, f), out))
    assert listed == on_disk
    assert manifest["config_hash"] == config_hash(load_config(config))
    assert manifest["seed"] == 2


def test_cmd_train_smoke_has_exact_row_count(tmp_path):
    config = smoke_config(tmp_path, train={
        "total_steps": 10, "batch_size": 4, "lr0": 1e-3, "seed": 2, "log_every": 1,
    })
    assert cmd_train(config, out=str(tmp_path / "r2")) == 0
    lines = (tmp_path / "r2" / "trainlog.csv").read_text().splitlines()
    assert len(lines) - 1 == 10


def test_cmd_train_invalid_config_exits_2(tmp_path, capsys):
    doc = json.loads(smoke_config(tmp_path).read_text())
    doc["train"]["lr0"] = -0.5
    path = write_config(tmp_path, doc)
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: train: lr0 ")


def test_cmd_train_rerun_bitwise_identical(tmp_path):
    config = smoke_config(tmp_path)
    assert cmd_train(config, out=str(tmp_path / "a")) == 0
    assert cmd_train(config, out=str(tmp_path / "b")) == 0
    a = (tmp_path / "a" / "trainlog.csv").read_bytes()
    b = (tmp_path / "b" / "trainlog.csv").read_bytes()
    assert a == b


def test_cmd_train_seed_override_changes_stream(tmp_path):
    config = smoke_config(tmp_path)
    assert cmd_train(config, out=str(tmp_path / "a")) == 0
    assert cmd_train(config, out=str(tmp_path / "b"), seed=99) == 0
    a = (tmp_path / "a" / "trainlog.csv").read_bytes()
    b = (tmp_path / "b" / "trainlog.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# eval command


def oracle_checkpoint(tmp_path, dim=1):
    doc = OracleField(HarmonicFlow(dim)).to_dict()
    path = tmp_path / "oracle_ckpt.json"
    path.write_text(json.dumps(doc))
    return path


def test_cmd_eval_oracle_checkpoint_near_exact(tmp_path):
    config = smoke_config(tmp_path)
    ckpt = oracle_checkpoint(tmp_path)
    out = tmp_path / "eval_out"
    assert cmd_eval(config, str(ckpt), out=str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["one_step_mse"] <= 1e-8
    assert metrics["nfe"] == 1
    assert set(metrics) == {"d_path", "smoothness", "one_step_mse",
                            "energy_distance", "nfe"}
    assert (out / "sample_path_n1.csv").exists()
    assert (out / "sample_path_n4.csv").exists()


def test_cmd_eval_zero_field_degenerate_metrics(tmp_path):
    from mmflow.field_model import FieldConfig, init_params, save_checkpoint
    from mmflow.tasks import OdeHarmonicTask
    from mmflow.cli import _eval_rng

    config = smoke_config(tmp_path)
    field = init_params(FieldConfig(input_dim=1, hidden_widths=(8, 8), time_embed_dim=4,
                                    base_frequency=10.0, seed=1, zero_init_output=True))
    ckpt = tmp_path / "zero.json"
    save_checkpoint(field, ckpt)
    out = tmp_path / "eval_zero"
    assert cmd_eval(config, str(ckpt), out=str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    # the untouched prior: one-step error equals the pair displacement
    task = OdeHarmonicTask(dim=1, endpoint_noise_std=0.0, seed=5)
    rng = _eval_rng(2)
    x0, x1 = task.sample_pairs(rng, 16)
    assert metrics["one_step_mse"] == pytest.approx(
        float(np.mean(np.sum((x1 - x0) ** 2, axis=1)))
    )


def test_cmd_eval_is_read_only(tmp_path):
    config = smoke_config(tmp_path)
    ckpt = oracle_checkpoint(tmp_path)
    before = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert cmd_eval(config, str(ckpt), out=str(tmp_path / "ro")) == 0
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == before


@pytest.mark.parametrize("command", ["eval", "sample"])
def test_missing_checkpoint_exits_2(tmp_path, capsys, command):
    config = smoke_config(tmp_path)
    assert main([command, "--config", str(config), "--checkpoint",
                 str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 2
    assert "checkpoint error" in capsys.readouterr().err


def test_cmd_eval_shape_mismatch_exits_2(tmp_path, capsys):
    config = smoke_config(tmp_path)  # task dim 1
    ckpt = oracle_checkpoint(tmp_path, dim=2)
    assert cmd_eval(config, str(ckpt), out=str(tmp_path / "bad")) == 2
    assert "compatible" in capsys.readouterr().err


SMALL_FIELD = {"input_dim": 1, "hidden_widths": [4], "time_embed_dim": 2,
               "base_frequency": 1.0, "seed": 0, "zero_init_output": False}


def mlp_doc(**changes):
    return {"format": "mmflow-checkpoint", "version": 1, "kind": "mlp",
            "config": SMALL_FIELD, "params": [], **changes}


def oracle_doc(**flow):
    return {"format": "mmflow-checkpoint", "version": 1, "kind": "analytic_oracle",
            "flow": flow}


def valid_mlp_doc(**changes):
    """``mlp_doc`` with parameters that fit ``SMALL_FIELD``, so only
    ``changes`` can make it malformed."""
    return mlp_doc(**{"params": small_params(0, 0.0), **changes})


def small_params(tensor, value):
    """Zero parameters of the ``SMALL_FIELD`` MLP with the first entry of
    tensor ``tensor`` (weight, bias, weight, bias) set to ``value``."""
    params = [{"shape": list(shape), "data": [0.0] * math.prod(shape)}
              for shape in ((5, 4), (4,), (4, 1), (1,))]
    params[tensor]["data"][0] = value
    return params


@pytest.mark.parametrize("text, section", [
    ("[1, 2]", "not a recognized checkpoint"),
    ("NaN", "not a recognized checkpoint"),
    (json.dumps(mlp_doc(config=5)), "config"),
    (json.dumps(mlp_doc(config={**SMALL_FIELD, "depth": 3})), "config"),
    (json.dumps(mlp_doc(params=3)), "params"),
    (json.dumps(mlp_doc(params=[{"shape": [1], "data": [0.0]}] * 4)), "params"),
    (json.dumps({"format": "mmflow-checkpoint", "kind": "analytic_oracle", "flow": [1]}),
     "flow"),
    (json.dumps(mlp_doc(params=small_params(1, float("nan")))), "params"),
    (json.dumps(mlp_doc(params=small_params(0, float("inf")))), "params"),
    (json.dumps(oracle_doc(kind="harmonic", dim=1.5)), "flow"),
    (json.dumps(oracle_doc(kind="harmonic", dim="1")), "flow"),
    (json.dumps(oracle_doc(kind="harmonic", dim=True)), "flow"),
    (json.dumps(oracle_doc(kind="constant", c=[[0.5]])), "flow"),
    (json.dumps(oracle_doc(kind="constant", c=[float("nan")])), "flow"),
    (json.dumps(oracle_doc(kind="constant", c=[10**400])), "flow"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "hidden_widths": [4.9]})), "config"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "hidden_widths": ["4"]})), "config"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "zero_init_output": "no"})), "config"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "seed": 1.5})), "config"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "base_frequency": True})), "config"),
    (json.dumps(valid_mlp_doc(version=99)), "version"),
    (json.dumps(mlp_doc(params=small_params(0, 10**400))), "params"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "seed": -1})), "seed must be >= 0"),
    (json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "base_frequency": 10**400})), "config"),
    # np.array(..., dtype=float64) read "0.5" as 0.5 and true as 1.0, so these loaded
    *[(json.dumps(valid_mlp_doc(params=small_params(tensor, value))),
       f"params: layer {tensor // 2} {('weight', 'bias')[tensor % 2]} holds a value that "
       "is not a number") for tensor, value in ((0, "0.5"), (1, True), (2, None), (3, [0.0]))],
], ids=["array", "nan", "config-number", "config-unknown-key", "params-number",
        "params-shape", "flow-array", "params-nan-bias", "params-infinite-weight",
        "flow-fractional-dim", "flow-string-dim", "flow-bool-dim", "flow-nested-c",
        "flow-nan-c", "flow-huge-int-c", "config-fractional-width", "config-string-width",
        "config-string-zero-init", "config-fractional-seed", "config-bool-frequency",
        "version-99", "params-huge-int", "config-negative-seed", "config-huge-int-frequency",
        "params-string-weight", "params-bool-bias", "params-null-weight", "params-array-bias"])
def test_malformed_checkpoint_exits_2_before_writing(tmp_path, capsys, text, section):
    config = smoke_config(tmp_path)
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(text)
    for command in ("eval", "sample"):
        out = tmp_path / "never"
        assert main([command, "--config", str(config), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err and section in err
        assert not out.exists()


DEEP_C = "[" * 980 + "0.5" + "]" * 980
WIDE = [4] * 100_000
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.mark.parametrize("command, config_changes, checkpoint", [
    ("eval", {}, f'{{"format": "mmflow-checkpoint", "kind": "analytic_oracle", '
                 f'"flow": {{"kind": "constant", "c": {DEEP_C}}}}}'),
    ("eval", {}, json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "hidden_widths": [WIDE]}))),
    ("train", {"field": {"hidden_widths": [WIDE]}}, None),
    ("train", {"field": WIDE}, None),
], ids=["checkpoint-deep-c", "checkpoint-wide-width", "config-wide-width", "config-wide-field"])
def test_a_huge_rejected_value_prints_one_short_line(tmp_path, command, config_changes,
                                                     checkpoint):
    # the whole value used to be printed: about 2000 brackets for the deep c,
    # and 100 000 entries for an array where a number or an object belongs.
    # The command runs in a fresh interpreter, as `mmf` does.
    args = [command, "--config", str(smoke_config(tmp_path, **config_changes)),
            "--out", str(tmp_path / "never")]
    if checkpoint is not None:
        (tmp_path / "ckpt.json").write_text(checkpoint)
        args += ["--checkpoint", str(tmp_path / "ckpt.json")]
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from mmflow.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 200, lines[0][:300]
    assert not (tmp_path / "never").exists()


def test_integer_base_frequency_in_a_checkpoint_loads_as_its_float(tmp_path):
    # an integer beyond int64 used to pass the config check and then fail in
    # np.geomspace, so both commands exited 1 with a traceback
    config = smoke_config(tmp_path)
    written = {}
    for name, freq in (("int", 2**70), ("float", float(2**70))):
        ckpt = tmp_path / f"{name}.json"
        ckpt.write_text(json.dumps(valid_mlp_doc(config={**SMALL_FIELD, "base_frequency": freq})))
        for command in ("eval", "sample"):
            out = tmp_path / name / command
            assert main([command, "--config", str(config), "--checkpoint", str(ckpt),
                         "--out", str(out)]) == 0
            written[name, command] = {f: (out / f).read_bytes() for f in os.listdir(out)
                                      if f != "run_manifest.json"}
    for command in ("eval", "sample"):
        assert written["int", command] == written["float", command]


@pytest.mark.parametrize("key", sorted(SMALL_FIELD))
def test_checkpoint_config_without_a_key_exits_2_naming_it(tmp_path, capsys, key):
    # a missing base_frequency used to load as 1e4, and eval scored the
    # parameters under an embedding they were not trained with
    config = smoke_config(tmp_path)
    stored = {k: v for k, v in SMALL_FIELD.items() if k != key}
    ckpt = tmp_path / "partial.json"
    ckpt.write_text(json.dumps(valid_mlp_doc(config=stored)))
    for command in ("eval", "sample"):
        out = tmp_path / "never"
        assert main([command, "--config", str(config), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "config" in err and repr(key) in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "sample"])
def test_deeply_nested_json_exits_2_writing_nothing(tmp_path, capsys, command):
    # the decoder's RecursionError used to escape: exit 1 with a traceback
    config = smoke_config(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = [command, "--config", str(deep if command == "train" else config),
            "--out", str(tmp_path / "never")]
    argv += [] if command == "train" else ["--checkpoint", str(deep)]
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    err = capsys.readouterr().err
    where = "config error: <config>: " if command == "train" else "checkpoint error: checkpoint: "
    assert err.startswith(where) and "nest deeper than 100 levels" in err
    assert sorted(os.listdir(tmp_path)) == before


def _at_stack_depth(frames, fn, *args):
    """``fn(*args)``, called ``frames`` Python frames deeper than this call."""
    return _at_stack_depth(frames - 1, fn, *args) if frames else fn(*args)


@pytest.mark.parametrize("depth, decodes", [(100, True), (101, False), (980, False)])
def test_the_nesting_verdict_is_the_files_at_any_caller_depth(tmp_path, depth, decodes):
    # the decoder recurses once per level, so a 980-deep file used to decode
    # from a shallow stack and fail with a RecursionError from a deep one
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    for frames in (0, 600):
        if decodes:
            assert _at_stack_depth(frames, _read_json, path, "checkpoint") is not None
        else:
            with pytest.raises(ConfigError) as err:
                _at_stack_depth(frames, _read_json, path, "checkpoint")
            assert err.value.path == "checkpoint"
            assert str(err.value).endswith("arrays and objects nest deeper than 100 levels")


def overflowing_checkpoint(tmp_path, every_row):
    """A finite checkpoint of the smoke config's field whose outputs
    overflow. One output weight of 1e300 keeps the samples finite but not
    their squares; with the last hidden layer saturated (tanh = 1) and every
    output weight at 1e308, every output is infinite."""
    from mmflow.field_model import FieldConfig, _state_dict, init_params

    doc = _state_dict(init_params(FieldConfig(input_dim=1, hidden_widths=(8, 8),
                                              time_embed_dim=4, base_frequency=10.0,
                                              seed=1)))
    weights = doc["params"][4]["data"]
    if every_row:
        doc["params"][3]["data"] = [50.0] * 8
        weights[:] = [1e308] * 8
    else:
        weights[0] = 1e300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_non_finite_metrics_are_written_as_null_and_exit_3(tmp_path, capsys):
    config = smoke_config(tmp_path)
    out = tmp_path / "eval"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["eval", "--config", str(config), "--checkpoint",
                     str(overflowing_checkpoint(tmp_path, every_row=False)),
                     "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject_constant)
    assert json.loads(captured.out, parse_constant=reject_constant) == metrics
    assert metrics["one_step_mse"] is None and metrics["energy_distance"] is None
    assert metrics["nfe"] == 1
    assert "non-finite metrics" in captured.err
    assert "one_step_mse" in captured.err and "energy_distance" in captured.err
    assert "metrics.json" in json.loads((out / "run_manifest.json").read_text())["artifacts"]


def test_non_finite_samples_exit_3_before_writing(tmp_path, capsys):
    config = smoke_config(tmp_path)
    out = tmp_path / "never"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["sample", "--config", str(config), "--checkpoint",
                     str(overflowing_checkpoint(tmp_path, every_row=True)),
                     "--out", str(out)])
    assert code == 3
    assert "row 0 is not finite (16 of 16 rows)" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sample command


def test_cmd_sample_writes_samples(tmp_path):
    config = smoke_config(tmp_path)
    ckpt = oracle_checkpoint(tmp_path)
    out = tmp_path / "samples_out"
    assert cmd_sample(config, str(ckpt), out=str(out), n_samples=8) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "x0"
    assert len(lines) - 1 == 8
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "samples.csv" in manifest["artifacts"]


@pytest.mark.parametrize("n", ["-5", "0"])
def test_cmd_sample_rejects_non_positive_n_before_writing(tmp_path, capsys, n):
    config = smoke_config(tmp_path)
    ckpt = oracle_checkpoint(tmp_path)
    out = tmp_path / "never"
    assert main(["sample", "--config", str(config), "--checkpoint", str(ckpt),
                 "--out", str(out), "--n-samples", n]) == 2
    assert "--n-samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sample", "ablation"])
def test_negative_seed_flag_exits_2_before_writing(tmp_path, capsys, command):
    config = smoke_config(tmp_path)
    out = tmp_path / "never"
    extra = ["--checkpoint", str(oracle_checkpoint(tmp_path))] if command == "sample" else []
    assert main([command, "--config", str(config), "--out", str(out), "--seed", "-3",
                 *extra]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, dirs, files in os.walk(root) for name in dirs + files)


@pytest.mark.parametrize("case, named", [
    ("config-is-a-directory", "<config>"),
    ("config-is-not-utf8", "<config>"),
    ("out-is-a-file", "--out"),
    ("out-under-a-file", "--out"),
    ("output-dir-is-a-file", "output_dir"),
])
@pytest.mark.parametrize("command", ["train", "eval", "sample", "ablation"])
def test_unreadable_config_or_unusable_out_exits_2_before_writing(tmp_path, capsys,
                                                                  command, case, named):
    blocker = tmp_path / "a_file"
    blocker.write_text("keep\n")
    output_dir = blocker if case == "output-dir-is-a-file" else tmp_path / "run"
    config = smoke_config(tmp_path, output_dir=str(output_dir))
    if case == "config-is-a-directory":
        config = tmp_path / "config_dir"
        config.mkdir()
    elif case == "config-is-not-utf8":
        config = tmp_path / "bom.json"
        config.write_bytes(b"\xff\xfe{}")
    out = {"out-is-a-file": blocker, "out-under-a-file": blocker / "x"}.get(case)
    argv = [command, "--config", str(config)]
    argv += ["--out", str(out)] if out else []
    argv += ["--checkpoint", str(oracle_checkpoint(tmp_path))] if command in ("eval", "sample") else []
    before = _tree(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}: ") and err.count("\n") == 1
    assert _tree(tmp_path) == before
    assert blocker.read_text() == "keep\n"


def test_negative_config_seed_exits_2(tmp_path, capsys):
    config = smoke_config(tmp_path, field={"hidden_widths": [8, 8], "time_embed_dim": 4,
                                           "base_frequency": 10.0, "seed": -1})
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: field: seed ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, key, value", [
    ("task", "dim", 2**70),
    ("task", "components", 2**70),
    ("field", "hidden_widths", [8, 2**70]),
    ("field", "time_embed_dim", 2**70),
    ("train", "batch_size", 2**70),
    ("eval", "n_samples", 2**70),
    ("eval", "few_step_ns", [2**70]),
    (None, "--n-samples", 2**70),
])
def test_a_size_beyond_the_bound_exits_2_before_writing(tmp_path, capsys, section, key, value):
    doc = json.loads(smoke_config(tmp_path).read_text())
    if key == "components":
        doc["task"] = {"kind": "gmm2d"}
    if section is not None:
        doc[section][key] = value
    config = write_config(tmp_path, doc)
    ckpt = oracle_checkpoint(tmp_path)
    before = _tree(tmp_path)
    command = "train" if section else "sample"
    argv = [command, "--config", str(config), "--out", str(tmp_path / "never")]
    argv += [] if section else ["--checkpoint", str(ckpt), key, str(value)]
    assert main(argv) == 2
    named = f"{section}: {key} " if section else f"{key}: n_samples "
    assert capsys.readouterr().err.startswith("config error: " + named)
    assert _tree(tmp_path) == before


# ---------------------------------------------------------------------------
# diagnose command


def test_cmd_diagnose_stock_build_passes(capsys):
    assert cmd_diagnose() == 0
    out = capsys.readouterr().out
    assert "identity_harmonic" in out
    assert "FAIL" not in out


def test_cmd_diagnose_sign_error_detected(capsys, monkeypatch):
    from mmflow.meanflow_math import HarmonicFlow

    closed_form = HarmonicFlow.average_velocity

    def wrong_sign(self, x, r, t, tangents=None):  # +x expm1(g)/g where the flow has -x expm1(g)/g
        u, du = closed_form(self, x, r, t, tangents)
        return -u, None if du is None else -du

    monkeypatch.setattr(HarmonicFlow, "average_velocity", wrong_sign)
    assert cmd_diagnose() == 1
    captured = capsys.readouterr()
    assert "identity_harmonic" in captured.err


def test_cmd_diagnose_takes_only_a_seed(tmp_path, capsys):
    config = smoke_config(tmp_path, diagnose={"seed": 3})
    assert cmd_diagnose(str(config)) == 0
    seeded = capsys.readouterr().out
    assert cmd_diagnose() == 0
    assert seeded != capsys.readouterr().out
    config = smoke_config(tmp_path, diagnose={"seed": 3, "identity_tol": 2e-5})
    with pytest.raises(ConfigError) as err:
        cmd_diagnose(str(config))
    assert err.value.path == "diagnose.identity_tol"


# ---------------------------------------------------------------------------
# ablation command


def test_cmd_ablation_four_rows_and_schedules(tmp_path):
    config = smoke_config(tmp_path, train={
        "total_steps": 24, "batch_size": 8, "lr0": 1e-3, "seed": 4, "log_every": 4,
    }, schedule={"kind": "warmup", "t_warmup": 8},
        eval={"n_samples": 16, "few_step_ns": [4]})
    out = tmp_path / "ablation_out"
    assert cmd_ablation(config, out=str(out)) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,final_loss,loss_variance,one_step_mse,d_path,energy_distance"
    assert len(lines) - 1 == 4
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "lambda0", "lambda05", "lambda1", "curriculum"
    ]
    # each sub-run's logged modulation column matches its declared schedule
    from mmflow.objectives import ConstantSchedule, WarmupSchedule

    for name, schedule in [
        ("lambda0", ConstantSchedule(0.0)),
        ("lambda05", ConstantSchedule(0.5)),
        ("lambda1", ConstantSchedule(1.0)),
        ("curriculum", WarmupSchedule(8)),
    ]:
        log = read_csv_columns(out / name / "trainlog.csv")
        assert all(
            lam == schedule.at(step) for step, lam in zip(log["step"], log["lambda"])
        )
    manifest = json.loads((out / "run_manifest.json").read_text())
    listed = set(manifest["artifacts"])
    on_disk = set()
    for root, _, files in os.walk(out):
        for f in files:
            on_disk.add(os.path.relpath(os.path.join(root, f), out))
    assert listed == on_disk


def test_cmd_ablation_variants_match_cmd_train_bytes(tmp_path):
    # a variant is `mmf train` on the same config with the variant's schedule
    config = smoke_config(tmp_path, schedule={"kind": "warmup", "t_warmup": 12})
    assert cmd_ablation(config, out=str(tmp_path / "ablation")) == 0
    doc = json.loads(config.read_text())
    for name, schedule in [
        ("lambda0", {"kind": "constant", "value": 0.0}),
        ("lambda05", {"kind": "constant", "value": 0.5}),
        ("lambda1", {"kind": "constant", "value": 1.0}),
        ("curriculum", {"kind": "warmup", "t_warmup": 12}),
    ]:
        single = write_config(tmp_path, {**doc, "schedule": schedule}, name=f"{name}.json")
        assert cmd_train(single, out=str(tmp_path / name)) == 0
        for artifact in ("trainlog.csv", "ckpt_final.json"):
            assert ((tmp_path / "ablation" / name / artifact).read_bytes()
                    == (tmp_path / name / artifact).read_bytes()), (name, artifact)


def test_cmd_ablation_halt_writes_halt_json_per_variant(tmp_path, monkeypatch):
    from mmflow.trainer import TrainLog, TrainResult

    def halting_train(field, config, batch_fn=None, out_dir=None):
        log = TrainLog()
        log.append(0, 1.0, 1.0, 0.0, 1e-3)
        return TrainResult(field, log, [], halted=True, halt_step=1,
                           halt_reason="non-finite loss at step 1", last_loss=1.0,
                           last_grad_norm=2.0, halt_lambda=config.schedule.at(1),
                           halt_lr=1e-3)

    monkeypatch.setattr(cli, "train", halting_train)
    out = tmp_path / "halted"
    assert main(["ablation", "--config", str(smoke_config(tmp_path)), "--out", str(out)]) == 3
    listed = set(json.loads((out / "run_manifest.json").read_text())["artifacts"])
    for name, lam in (("lambda0", 0.0), ("lambda05", 0.5), ("lambda1", 1.0),
                      ("curriculum", 0.1)):
        halt = json.loads((out / name / "halt.json").read_text())
        assert halt == {"halt_step": 1, "reason": "non-finite loss at step 1",
                        "parameter": None, "last_finite_loss": 1.0,
                        "last_finite_grad_norm": 2.0, "lambda": lam, "lr": 1e-3}
        assert os.path.join(name, "halt.json") in listed


def test_cmd_ablation_paired_data_streams(tmp_path):
    # identical seeds mean identical batches: the modulation factor is the
    # only difference, so the first pre-update loss row must agree
    config = smoke_config(tmp_path, train={
        "total_steps": 8, "batch_size": 8, "lr0": 1e-3, "seed": 11, "log_every": 1,
    }, eval={"n_samples": 8, "few_step_ns": [2]})
    out = tmp_path / "paired"
    assert cmd_ablation(config, out=str(out)) == 0
    first_losses = {
        name: read_csv_columns(out / name / "trainlog.csv")["loss"][0]
        for name in ("lambda0", "lambda05", "lambda1", "curriculum")
    }
    assert len(set(first_losses.values())) == 1


def test_cmd_ablation_parallel_workers_match_serial(tmp_path, monkeypatch):
    # workers run one BLAS thread, the serial process its default; a net
    # above 10k parameters makes OpenBLAS split long dot products, and a
    # clip below every grad norm feeds the norm into each update
    config = smoke_config(tmp_path, field={
        "hidden_widths": [128, 96], "time_embed_dim": 4, "base_frequency": 10.0, "seed": 1,
    }, train={
        "total_steps": 8, "batch_size": 8, "lr0": 1e-3, "seed": 11, "log_every": 1,
        "grad_clip": 1e-4,
    }, eval={"n_samples": 8, "few_step_ns": [2]})
    assert cmd_ablation(config, out=str(tmp_path / "serial")) == 0
    monkeypatch.setenv("MMF_THREADS", "2")
    assert cmd_ablation(config, out=str(tmp_path / "parallel")) == 0
    for rel in ["ablation.csv"] + [
        os.path.join(name, artifact) for name in cli.ABLATION_VARIANTS
        for artifact in ("trainlog.csv", "ckpt_final.json")
    ]:
        a = (tmp_path / "serial" / rel).read_bytes()
        b = (tmp_path / "parallel" / rel).read_bytes()
        assert a == b, rel
    log = read_csv_columns(tmp_path / "serial" / "lambda0" / "trainlog.csv")
    assert min(log["grad_norm"]) > 1e-4


def test_cmd_ablation_malformed_threads_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MMF_THREADS", "abc")
    out = tmp_path / "never"
    assert main(["ablation", "--config", str(smoke_config(tmp_path)), "--out", str(out)]) == 2
    assert "MMF_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw, jobs, cpus, expected", [
    (None, 4, 8, 1),
    ("", 4, 8, 1),
    ("0", 4, 8, 1),
    ("-3", 4, 8, 1),
    ("2", 4, 8, 2),
    ("3", 4, 2, 2),
    ("100000", 4, 64, 4),
])
def test_worker_count_is_clamped(raw, jobs, cpus, expected):
    assert cli._worker_count(raw, jobs, cpus) == expected


def test_ablation_pool_workers_use_one_blas_thread():
    if _blas_threads() is None:
        pytest.skip("numpy is not linked against OpenBLAS here")
    with cli._pool(1) as pool:
        assert pool.submit(_blas_threads).result(timeout=60) == 1


def recording_blas_threads(monkeypatch, *names):
    """Replace each ``cli`` function in ``names`` by one that records the
    BLAS thread count it runs at; returns the record."""
    seen = []

    def recording(real):
        def call(*args, **kwargs):
            seen.append(_blas_threads())
            return real(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    return seen


def at_two_blas_threads(run):
    """``run()`` with OpenBLAS at two threads; the count ``run`` left, and
    the prior count restored."""
    before = _set_blas_threads(2)
    if before is None:
        pytest.skip("numpy is not linked against OpenBLAS here")
    try:
        run()
        return _blas_threads()
    finally:
        _set_blas_threads(before)


def test_cmd_train_runs_on_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    seen = recording_blas_threads(monkeypatch, "train")

    def run():
        assert cli.main(["train", "--config", str(smoke_config(tmp_path)),
                         "--out", str(tmp_path / "run")]) == 0

    assert at_two_blas_threads(run) == 2
    assert seen == [1]


@pytest.mark.parametrize("command", ["eval", "sample"])
def test_cmd_eval_and_sample_run_on_one_blas_thread_and_restore_the_count(
        tmp_path, monkeypatch, command):
    seen = recording_blas_threads(monkeypatch, "one_step_sample", "few_step_sample")
    ckpt = oracle_checkpoint(tmp_path)

    def run():
        assert cli.main([command, "--config", str(smoke_config(tmp_path)),
                         "--checkpoint", str(ckpt), "--out", str(tmp_path / "run")]) == 0

    assert at_two_blas_threads(run) == 2
    assert seen and set(seen) == {1}


def test_final_checkpoint_is_a_byte_copy_of_the_last_periodic_one(tmp_path):
    config = smoke_config(tmp_path, train={"total_steps": 30, "batch_size": 8, "lr0": 1e-3,
                                           "seed": 2, "log_every": 10, "checkpoint_every": 15})
    out = tmp_path / "run"
    assert cmd_train(config, out=str(out)) == 0
    assert (out / "ckpt_final.json").read_bytes() == (out / "ckpt_30.json").read_bytes()
    artifacts = json.loads((out / "run_manifest.json").read_text())["artifacts"]
    assert {"ckpt_15.json", "ckpt_30.json", "ckpt_final.json"} <= set(artifacts)
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_worker_count_rejects_non_integers():
    for raw in ("abc", "2.5", "1e3"):
        with pytest.raises(ConfigError) as err:
            cli._worker_count(raw, 4, 8)
        assert err.value.path == "MMF_THREADS"


def test_cmd_train_numerical_halt_exits_3(tmp_path, monkeypatch):
    from mmflow.trainer import TrainLog, TrainResult

    def fake_train(field, config, batch_fn=None, out_dir=None):
        log = TrainLog()
        log.append(0, 1.0, 1.0, 0.0, 1e-4)
        return TrainResult(field, log, [], halted=True, halt_step=1,
                           halt_reason="non-finite loss at step 1")

    monkeypatch.setattr(cli, "train", fake_train)
    config = smoke_config(tmp_path)
    out = tmp_path / "halt_run"
    assert cmd_train(config, out=str(out)) == 3
    halt = json.loads((out / "halt.json").read_text())
    assert halt["halt_step"] == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "halt.json" in manifest["artifacts"]
    assert "trainlog.csv" in manifest["artifacts"]


def test_cmd_train_halt_on_a_non_finite_gradient_reports_layer_and_last_values(tmp_path,
                                                                              monkeypatch):
    # states of 1e41 are infinite in the float32 training step: the loss
    # stays finite (tanh saturates), the first layer's weight gradient does not
    import mmflow.trainer as trainer_mod

    task_batch_fn = trainer_mod._task_batch_fn

    def huge_states_from_step_3(task, convention):
        draw = task_batch_fn(task, convention)
        steps = []

        def batch_fn(*args):
            batch = draw(*args)
            if len(steps) == 3:
                batch.x_t[:] = 1e41
            steps.append(None)
            return batch

        return batch_fn

    monkeypatch.setattr(trainer_mod, "_task_batch_fn", huge_states_from_step_3)
    out = tmp_path / "halt_run"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(smoke_config(tmp_path)), "--out", str(out)]) == 3
    halt = json.loads((out / "halt.json").read_text())
    log = (out / "trainlog.csv").read_text().splitlines()
    assert halt["halt_step"] == 3 and halt["parameter"] == "layer 0 weight"
    assert halt["reason"] == "non-finite gradient in layer 0 weight at step 3"
    assert np.isfinite(halt["last_finite_loss"]) and np.isfinite(halt["last_finite_grad_norm"])
    assert halt["lambda"] == 0.3  # warmup over 10 steps
    assert halt["lr"] == pytest.approx(1e-3 * 0.5 * (1 + np.cos(np.pi * 3 / 30)))
    assert log == ["step,loss,grad_norm,lambda,lr"]  # log_every 10: no row before step 3


def test_manifest_and_halt_are_replaced_atomically(tmp_path, monkeypatch):
    # a serializer that fails half way leaves each file as it was
    config = load_config(smoke_config(tmp_path))
    run = cli._Run(str(tmp_path / "atomic"), config)
    run.seal()
    before = (tmp_path / "atomic" / "run_manifest.json").read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"config_hash": "trunc')
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(cli.json, "dump", broken_dump)
    with pytest.raises(RuntimeError):
        run.seal()
    assert (tmp_path / "atomic" / "run_manifest.json").read_bytes() == before

    from mmflow.trainer import TrainLog, TrainResult

    def halting_train(field, config, batch_fn=None, out_dir=None):
        return TrainResult(field, TrainLog(), [], halted=True, halt_step=0,
                           halt_reason="non-finite loss at step 0")

    monkeypatch.setattr(cli, "train", halting_train)
    out = tmp_path / "halted"
    with pytest.raises(RuntimeError):
        cmd_train(smoke_config(tmp_path), out=str(out))
    assert sorted(p.name for p in out.iterdir()) == ["trainlog.csv"]
    assert sorted(p.name for p in (tmp_path / "atomic").iterdir()) == ["run_manifest.json"]


@pytest.mark.parametrize("command, artifact", [
    ("train", "trainlog.csv"),
    ("eval", "metrics.json"),
    ("eval", "sample_path_n4.csv"),
    ("sample", "samples.csv"),
    ("sample", "sample_path_n1.csv"),
    ("ablation", "ablation.csv"),
    ("ablation", os.path.join("lambda05", "trainlog.csv")),
])
def test_artifact_writer_failing_half_way_keeps_previous_file(tmp_path, monkeypatch,
                                                               command, artifact):
    out = tmp_path / "out"
    previous = out / artifact
    previous.parent.mkdir(parents=True)
    previous.write_text("previous\n")
    real_open = open

    class FailsOnSecondWrite:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        # the artifact itself, or a temporary file beside it
        if "w" in mode and os.fspath(path).startswith(str(previous)):
            return FailsOnSecondWrite(fh)
        return fh

    monkeypatch.setattr("builtins.open", failing_open)
    extra = ["--checkpoint", str(oracle_checkpoint(tmp_path))] if command in ("eval", "sample") else []
    with pytest.raises(OSError, match="disk full"):
        main([command, "--config", str(smoke_config(tmp_path)), "--out", str(out), *extra])
    assert previous.read_text() == "previous\n"
    assert sorted(p.name for p in previous.parent.iterdir()
                  if p.name.startswith(previous.name)) == [previous.name]


# ---------------------------------------------------------------------------
# argparse entry


def test_main_dispatches_and_exit_codes(tmp_path):
    config = smoke_config(tmp_path)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "m1")]) == 0
    ckpt = tmp_path / "m1" / "ckpt_final.json"
    assert main([
        "eval", "--config", str(config), "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "m2"),
    ]) == 0
    assert main(["diagnose"]) == 0


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "c.json", "--seed", "3"],
    ["diagnose", "--out", "d"],
    ["diagnose", "--seed", "3"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", "cfg.json"] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
