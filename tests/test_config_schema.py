"""Pins of the config schema: canonical hashes of the shipped configs, the
``ConfigError.path`` each kind of invalid document is rejected with, the
schema's agreement with its constructors, and the exit-code contract under
generated values, for configs and checkpoints alike."""

import copy
import inspect
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mmflow.cli as cli
from mmflow.cli import ConfigError, canonicalize, config_hash, load_config, main
from mmflow.field_model import MAX_SIZE, FieldConfig, _state_dict, init_params
from mmflow.meanflow_math import ConstantFlow, HarmonicFlow, OracleField
from mmflow.objectives import ConstantSchedule, TimePairConfig, WarmupSchedule
from mmflow.tasks import Gmm2dTask, OdeHarmonicTask, PointMassTask
from mmflow.trainer import TrainConfig

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name, digest", [
    ("decay.json", "930c41534adebfcb95715425ba6bfea8d85867048e96a378c74ae1538b1fd85d"),
    ("point_mass.json", "788581e4c7901186b283ec3ada9d71137340da1aaf033950ba6799fe68cf89ca"),
    ("ring_mixture.json", "71787e66f6179bcb76b5575c777f6886a911c9836d3f6cc7fb5d15ebc71c1edc"),
])
def test_shipped_config_hash_is_pinned(name, digest):
    assert config_hash(load_config(os.path.join(CONFIGS, name))) == digest


BASE = {
    "task": {"kind": "ode_harmonic", "dim": 2, "endpoint_noise_std": 0.01, "seed": 3},
    "field": {"hidden_widths": [8, 8], "time_embed_dim": 4, "base_frequency": 10.0,
              "seed": 1, "zero_init_output": True},
    "train": {"total_steps": 100, "batch_size": 8, "lr0": 1e-3, "seed": 2,
              "checkpoint_every": 0, "log_every": 10, "grad_clip": 1.0,
              "interpolation": "absolute_time", "target_norm": "pair_span"},
    "schedule": {"kind": "warmup", "t_warmup": 10},
    "time_pairs": {"min_gap": 0.01, "r_zero_prob": 0.5},
    "eval": {"n_samples": 16, "few_step_ns": [1, 4]},
    "diagnose": {"seed": 0},
    "output_dir": "runs/x",
}
GMM = {"kind": "gmm2d", "components": 4, "ring_radius": 2.0, "component_std": 0.1, "seed": 0}
POINT = {"kind": "point_mass", "target_mean": [1.0, 2.0], "target_std": 0.5, "seed": 0}
CONSTANT = {"kind": "constant", "value": 0.5}


def doc_with(section, value, key=None, base=None):
    """BASE with ``section`` set to ``value``, or with ``section.key`` set to it.

    ``base`` replaces the section before the key is set (another task or
    schedule kind).
    """
    doc = copy.deepcopy(BASE)
    if key is None:
        doc[section] = value
    else:
        if base is not None:
            doc[section] = copy.deepcopy(base)
        doc[section][key] = value
    return doc


@pytest.mark.parametrize("section, value", [
    ("task", BASE["task"]), ("task", GMM), ("task", POINT), ("schedule", CONSTANT),
    ("eval", {"n_samples": MAX_SIZE, "few_step_ns": [1, MAX_SIZE]}),
])
def test_base_documents_are_valid(section, value):
    canonicalize(doc_with(section, value))


def _key(section, key, value, base=None):
    return doc_with(section, value, key=key, base=base)


def _rule(section, key, value, base=None):
    """A case whose value the section's constructor rejects: the error is at
    the section, and its message leads with the key."""
    return _key(section, key, value, base), section, key


INVALID = [
    # root
    ([], "<root>"),
    (doc_with("epochs", 3), "<root>.epochs"),
    ({k: v for k, v in BASE.items() if k != "task"}, "task"),
    (doc_with("output_dir", 3), "output_dir"),
    # task: ode_harmonic
    (_key("task", "dim", "2"), "task.dim"),
    _rule("task", "dim", 0),
    _rule("task", "endpoint_noise_std", -0.1),
    (_key("task", "seed", 1.5), "task.seed"),
    (_key("task", "components", 8), "task.components"),
    # task: gmm2d
    (_key("task", "components", 2.5, GMM), "task.components"),
    _rule("task", "components", 0, GMM),
    _rule("task", "ring_radius", -1.0, GMM),
    (_key("task", "component_std", "wide", GMM), "task.component_std"),
    (_key("task", "dim", 2, GMM), "task.dim"),
    # task: point_mass
    (_key("task", "target_mean", "origin", POINT), "task.target_mean"),
    _rule("task", "target_mean", [1.0, 2.0, 3.0], POINT),
    (_key("task", "target_mean", [1.0, True], POINT), "task.target_mean"),
    _rule("task", "target_std", -0.5, POINT),
    (_key("task", "ring_radius", 1.0, POINT), "task.ring_radius"),
    # task kind
    (_key("task", "kind", "spiral"), "task.kind"),
    (_key("task", "kind", ["gmm2d"]), "task.kind"),
    # field
    (_key("field", "hidden_widths", "8,8"), "field.hidden_widths"),
    (_key("field", "hidden_widths", []), "field.hidden_widths"),
    _rule("field", "hidden_widths", [8, 0]),
    (_key("field", "time_embed_dim", 2.0), "field.time_embed_dim"),
    _rule("field", "time_embed_dim", 0),
    _rule("field", "time_embed_dim", 5),
    (_key("field", "input_dim", 3), "field.input_dim"),
    _rule("field", "base_frequency", 0.0),
    (_key("field", "zero_init_output", 1), "field.zero_init_output"),
    (_key("field", "seed", True), "field.seed"),
    (_key("field", "depth", 3), "field.depth"),
    # train
    (_key("train", "total_steps", "100"), "train.total_steps"),
    _rule("train", "total_steps", 0),
    (_key("train", "total_steps", 5), "train", "log_every"),
    _rule("train", "batch_size", 0),
    _rule("train", "lr0", -1e-3),
    (_key("train", "lr0", None), "train.lr0"),
    _rule("train", "checkpoint_every", -1),
    _rule("train", "log_every", 0),
    _rule("train", "grad_clip", 0.0),
    (_key("train", "grad_clip", True), "train.grad_clip"),
    _rule("train", "interpolation", "linear"),
    (_key("train", "target_norm", 1), "train.target_norm"),
    (_key("train", "learning_rate", 0.1), "train.learning_rate"),
    # schedule: constant
    _rule("schedule", "value", 1.5, CONSTANT),
    (_key("schedule", "value", "half", CONSTANT), "schedule.value"),
    (doc_with("schedule", {"kind": "constant"}), "schedule.value"),
    (_key("schedule", "t_warmup", 10, CONSTANT), "schedule.t_warmup"),
    # schedule: warmup
    _rule("schedule", "t_warmup", 0),
    (_key("schedule", "t_warmup", 2.5), "schedule.t_warmup"),
    (doc_with("schedule", {"kind": "warmup"}), "schedule.t_warmup"),
    (_key("schedule", "value", 0.5), "schedule.value"),
    # schedule kind
    (_key("schedule", "kind", "cosine"), "schedule.kind"),
    (doc_with("schedule", {}), "schedule.kind"),
    # time_pairs
    (_key("time_pairs", "min_gap", "small"), "time_pairs.min_gap"),
    _rule("time_pairs", "min_gap", 1e-4),
    _rule("time_pairs", "min_gap", 1.0),
    _rule("time_pairs", "r_zero_prob", 1.5),
    _rule("time_pairs", "r_zero_prob", -0.5),
    (_key("time_pairs", "max_gap", 0.5), "time_pairs.max_gap"),
    # eval
    (_key("eval", "n_samples", 1.5), "eval.n_samples"),
    _rule("eval", "n_samples", 0),
    (_key("eval", "few_step_ns", 4), "eval.few_step_ns"),
    (_key("eval", "few_step_ns", []), "eval.few_step_ns"),
    _rule("eval", "few_step_ns", [0, 1]),
    (_key("eval", "batch", 8), "eval.batch"),
    # diagnose: its only key is seed, so each former tolerance key is unknown
    (_key("diagnose", "samples", "10"), "diagnose.samples"),
    (_key("diagnose", "samples", 0), "diagnose.samples"),
    (_key("diagnose", "seed", 0.5), "diagnose.seed"),
    (_key("diagnose", "identity_tol", 0.0), "diagnose.identity_tol"),
    (_key("diagnose", "consistency_tol", -1e-5), "diagnose.consistency_tol"),
    (_key("diagnose", "slope_tol", False), "diagnose.slope_tol"),
    (_key("diagnose", "tol", 1e-5), "diagnose.tol"),
]

# a section that is not a JSON object is rejected at the section itself
NON_OBJECT = [
    (doc_with(section, value), section)
    for section in ("task", "field", "train", "schedule", "time_pairs", "eval", "diagnose")
    for value in (None, [], 3, "x", True)
    if not (section == "schedule" and value is None)  # null schedule = the default
]


# Python's json module reads NaN, Infinity and -Infinity. NaN fails every
# range rule, but Infinity passes every "> 0" and ">= 0" one, so the schema
# requires every number, in an array too, to be finite.
NOT_A_NUMBER = [
    (_key("train", "lr0", float("nan")), "train.lr0"),
    (_key("time_pairs", "min_gap", float("nan")), "time_pairs.min_gap"),
    (_key("task", "ring_radius", float("nan"), GMM), "task.ring_radius"),
]
# last in CASES, since a case id carries its position there
NOT_FINITE = [
    (_key(section, key, float("inf"), base), f"{section}.{key}")
    for section, key, base in [
        ("task", "endpoint_noise_std", None),
        ("task", "ring_radius", GMM),
        ("task", "component_std", GMM),
        ("task", "target_std", POINT),
        ("field", "base_frequency", None),
        ("train", "lr0", None),
        ("train", "grad_clip", None),
        ("diagnose", "identity_tol", None),
        ("diagnose", "consistency_tol", None),
        ("diagnose", "slope_tol", None),
    ]
] + [
    (_key("task", "target_mean", mean, POINT), "task.target_mean")
    for mean in ([float("nan"), 2.0], [1.0, float("inf")], [float("-inf"), 2.0])
] + [
    (_key("train", "lr0", 10**400), "train.lr0"),  # an integer beyond the float range
]
# np.random.SeedSequence rejects negative entropy, so every seed must be >= 0
NEGATIVE_SEED = [
    _rule("task", "seed", -1),
    _rule("task", "seed", -1, GMM),
    _rule("task", "seed", -1, POINT),
    _rule("field", "seed", -1),
    _rule("train", "seed", -3),
    _rule("diagnose", "seed", -2),
]
# every array extent is bounded by MAX_SIZE, so numpy never sees a shape it
# cannot make (these cases follow NOT_FINITE to keep the earlier ids)
TOO_LARGE = [
    _rule("task", "dim", 2**70),
    _rule("task", "components", 2**70, GMM),
    _rule("field", "hidden_widths", [8, 2**70]),
    _rule("field", "time_embed_dim", 2**70),
    _rule("train", "batch_size", 2**70),
    _rule("eval", "n_samples", MAX_SIZE + 1),
    _rule("eval", "few_step_ns", [1, 2**70]),
]
CASES = [case if len(case) == 3 else (*case, None) for case in
         INVALID + NON_OBJECT + NOT_A_NUMBER + NEGATIVE_SEED + NOT_FINITE + TOO_LARGE]


# a case id names the offending key and carries the case's position
@pytest.mark.parametrize("doc, path, key", CASES, ids=[
    f"{p}.{k}-{i}" if k else f"{p}-{i}" for i, (_, p, k) in enumerate(CASES)])
def test_invalid_document_rejected_at_path(doc, path, key):
    with pytest.raises(ConfigError) as err:
        canonicalize(doc)
    assert err.value.path == path
    if key is not None:
        assert str(err.value).startswith(f"{path}: {key} ")


def test_every_default_is_materialized():
    cfg = canonicalize({"task": {"kind": "point_mass"}})
    assert cfg == {
        "task": {"kind": "point_mass", "target_mean": [3.0, 0.0], "target_std": 0.25,
                 "seed": 0},
        "field": {"input_dim": 2, "hidden_widths": [128, 128, 128], "time_embed_dim": 32,
                  "base_frequency": 1.0e4, "seed": 0, "zero_init_output": False},
        "train": {"total_steps": 20_000, "batch_size": 128, "lr0": 1e-4, "seed": 0,
                  "checkpoint_every": 0, "log_every": 50, "grad_clip": None,
                  "interpolation": "interval_ratio", "target_norm": "sampled_gap"},
        "schedule": {"kind": "warmup", "t_warmup": 2500},
        "time_pairs": {"min_gap": 1e-3, "r_zero_prob": 0.25},
        "eval": {"n_samples": 1024, "few_step_ns": [1, 2, 4, 8]},
        "diagnose": {"seed": 0},
        "output_dir": None,
    }


def test_integers_coerce_to_floats_and_steps_are_sorted():
    doc = _key("train", "lr0", 1)
    doc["eval"]["few_step_ns"] = [4, 1, 4]
    cfg = canonicalize(doc)
    assert cfg["train"]["lr0"] == 1.0 and isinstance(cfg["train"]["lr0"], float)
    assert cfg["eval"]["few_step_ns"] == [1, 4]


def _entries():
    for section, spec in cli._SCHEMA.items():
        for make, keys in (spec.values() if isinstance(spec, dict) else [spec]):
            yield pytest.param(make, keys, id=f"{section}-{make.__name__}")


@pytest.mark.parametrize("make, keys", _entries())
def test_schema_lists_exactly_its_constructors_keywords(make, keys):
    params = set(inspect.signature(make).parameters)
    if make is TrainConfig:  # built from the other sections
        params -= {"task", "schedule", "time_pairs"}
    assert set(keys) == params


# each passed its rule before: NaN fails no "<" or "<=" comparison. The JSON
# layer rejects NaN too, but the rules hold for Python callers as well.
NAN = float("nan")


@pytest.mark.parametrize("make, key, value", [
    (TrainConfig, "lr0", NAN),
    (TrainConfig, "grad_clip", NAN),
    (Gmm2dTask, "ring_radius", NAN),
    (Gmm2dTask, "component_std", NAN),
    (OdeHarmonicTask, "endpoint_noise_std", NAN),
    (PointMassTask, "target_std", NAN),
    (PointMassTask, "target_mean", [NAN, 0.0]),
    (PointMassTask, "target_mean", [0.0, float("inf")]),
])
def test_a_constructor_rejects_nan_naming_the_key(make, key, value):
    with pytest.raises(ValueError, match=f"^{key} "):
        make(**{key: value})


# what each constructor needs besides the key under test
REQUIRED = {FieldConfig: {"input_dim": 2}, HarmonicFlow: {"dim": 2},
            WarmupSchedule: {"t_warmup": 4}, TrainConfig: {"total_steps": 10, "log_every": 1}}

# the JSON layer checks types first, so these rules matter to Python callers:
# the tasks, TrainConfig and WarmupSchedule used to cut 2.5 down to 2 and
# take True as 1
INTEGER_KEYS = [
    (FieldConfig, "input_dim"), (FieldConfig, "hidden_widths"),
    (FieldConfig, "time_embed_dim"), (FieldConfig, "seed"),
    (HarmonicFlow, "dim"),
    (Gmm2dTask, "components"), (Gmm2dTask, "seed"),
    (OdeHarmonicTask, "dim"), (OdeHarmonicTask, "seed"),
    (PointMassTask, "seed"),
    (TrainConfig, "total_steps"), (TrainConfig, "batch_size"), (TrainConfig, "seed"),
    (TrainConfig, "log_every"), (TrainConfig, "checkpoint_every"),
    (WarmupSchedule, "t_warmup"),
]


def _with(make, key, value):
    """``make`` built with ``key`` set to ``value``, an entry of it for ``hidden_widths``."""
    return make(**{**REQUIRED.get(make, {}), key: [value] if key == "hidden_widths" else value})


def _each(keys):
    return pytest.mark.parametrize("make, key", keys,
                                   ids=[f"{make.__name__}-{key}" for make, key in keys])


@_each(INTEGER_KEYS)
@pytest.mark.parametrize("value", [2.5, True, "3", None, NAN])
def test_an_integer_parameter_rejects_a_non_integer_naming_the_key(make, key, value):
    with pytest.raises(TypeError, match=f"^{key} must be an integer, got "):
        _with(make, key, value)


@_each(INTEGER_KEYS)
def test_an_integer_parameter_is_stored_as_an_int(make, key):
    stored = getattr(_with(make, key, np.int64(4)), key)
    value = stored[0] if key == "hidden_widths" else stored
    assert type(value) is int and value == 4


# Infinity passed every ">= 0" and "> 0" rule; Gmm2dTask(ring_radius=inf)
# put its centers at [inf, nan]
NUMBER_KEYS = [
    (FieldConfig, "base_frequency"),
    (TrainConfig, "lr0"), (TrainConfig, "grad_clip"),
    (Gmm2dTask, "ring_radius"), (Gmm2dTask, "component_std"),
    (OdeHarmonicTask, "endpoint_noise_std"), (PointMassTask, "target_std"),
    (TimePairConfig, "min_gap"), (TimePairConfig, "r_zero_prob"),
    (ConstantSchedule, "value"),
]


@_each(NUMBER_KEYS)
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_a_number_parameter_rejects_an_infinity_naming_the_key(make, key, value):
    with pytest.raises(ValueError, match=f"^{key} "):
        _with(make, key, value)


# ---------------------------------------------------------------------------
# the exit-code contract under generated values


SHIPPED = {}
for _name in sorted(os.listdir(CONFIGS)):
    with open(os.path.join(CONFIGS, _name)) as _fh:
        SHIPPED[_name] = json.load(_fh)


def _leaves(doc, path=()):
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _with_leaf(doc, path, value):
    """A copy of ``doc`` with the leaf at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


LEAVES = [(name, path) for name, doc in SHIPPED.items() for path in _leaves(doc)]
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-2**80, max_value=2**80),  # beyond int64 too
    st.sampled_from([10**400, MAX_SIZE, MAX_SIZE + 1]),  # beyond floats; the size bound
    st.floats(),  # NaN and both infinities among them
)


def _is_integer(raw: str) -> bool:
    try:
        int(raw)
    except ValueError:
        return False
    return True


JSON_VALUES = st.one_of(
    NUMBERS, st.text(max_size=8), st.booleans(), st.none(),
    st.lists(st.one_of(NUMBERS, st.text(max_size=4), st.booleans(), st.none()), max_size=4),
    st.dictionaries(st.text(max_size=6), NUMBERS, max_size=3),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(LEAVES), JSON_VALUES)
def test_a_generated_leaf_is_canonical_or_a_config_error(leaf, value):
    name, path = leaf
    doc = _with_leaf(SHIPPED[name], path, value)
    try:
        assert isinstance(canonicalize(doc), dict)
    except ConfigError:
        pass


# one flag value out of range, or a non-integer MMF_THREADS, per example
BAD_FLAGS = st.one_of(
    st.tuples(st.just("--seed"), st.integers(max_value=-1)),
    st.tuples(st.just("--n-samples"),
              st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_SIZE + 1))),
    st.tuples(st.just("MMF_THREADS"), st.text(min_size=1, max_size=6).filter(
        lambda raw: "\x00" not in raw and not _is_integer(raw))),
)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(BAD_FLAGS)
def test_a_bad_flag_or_environment_value_exits_2_writing_nothing(tmp_path, monkeypatch,
                                                                 capsys, bad):
    name, value = bad
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE))
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "out"
    if name == "MMF_THREADS":
        monkeypatch.setenv("MMF_THREADS", value)
        argv = ["ablation", "--config", str(config), "--out", str(out)]
    else:
        monkeypatch.delenv("MMF_THREADS", raising=False)
        command = "sample" if name == "--n-samples" else "train"
        argv = [command, "--config", str(config), "--out", str(out), name, str(value)]
        argv += ["--checkpoint", str(tmp_path / "ckpt.json")] if command == "sample" else []
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: ")
    assert sorted(os.listdir(tmp_path)) == before


# a small MLP checkpoint and both oracle kinds, each of BASE's dimension
CHECKPOINTS = {
    "mlp": _state_dict(init_params(FieldConfig(input_dim=2, hidden_widths=(4,),
                                               time_embed_dim=2, base_frequency=1.0))),
    "harmonic": OracleField(HarmonicFlow(2)).to_dict(),
    "constant": OracleField(ConstantFlow([0.5, -0.5])).to_dict(),
}
# the checkpoint first, so the MLP's 38 parameter values do not crowd out the
# oracles' few leaves
CHECKPOINT_LEAVES = st.sampled_from(sorted(CHECKPOINTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(list(_leaves(CHECKPOINTS[name])))))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(CHECKPOINT_LEAVES, JSON_VALUES)
def test_a_generated_checkpoint_leaf_exits_0_2_or_3(leaf, value):
    name, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        config, ckpt = os.path.join(tmp, "config.json"), os.path.join(tmp, "ckpt.json")
        with open(config, "w") as fh:
            json.dump(BASE, fh)
        with open(ckpt, "w") as fh:
            json.dump(_with_leaf(CHECKPOINTS[name], path, value), fh)
        for command in ("eval", "sample"):
            out = os.path.join(tmp, command)
            code = main([command, "--config", config, "--checkpoint", ckpt, "--out", out])
            assert code in (0, 2, 3)
            if code == 2:
                assert not os.path.exists(out)
